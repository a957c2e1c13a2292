#include "runner.hh"

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>

#include "baseline/mcu/mcu_model.hh"
#include "baseline/selector.hh"
#include "baseline/sonic_scheme.hh"
#include "common/json.hh"
#include "common/logging.hh"
#include "exp/names.hh"
#include "obs/metrics_hub.hh"

namespace mouse::exp
{

namespace
{

double
elapsed(std::chrono::steady_clock::time_point t0)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - t0)
        .count();
}

} // namespace

/**
 * The runner's parked workers.  A fan-out publishes one job (fn,
 * count, how many workers join) under the mutex and bumps the
 * generation; the joining workers and the caller then pull indices
 * from one atomic cursor.  Workers start on the first fan-out that
 * needs them and park on the condition variable between jobs.  One
 * job runs at a time: a call that finds the pool busy returns false
 * and its caller runs the job inline instead.
 */
class ExperimentRunner::Pool
{
  public:
    Pool() = default;
    Pool(const Pool &) = delete;
    Pool &operator=(const Pool &) = delete;

    ~Pool()
    {
        {
            std::lock_guard<std::mutex> lock(mutex_);
            stop_ = true;
        }
        wake_.notify_all();
        for (std::thread &t : workers_) {
            t.join();
        }
    }

    /** Run fn over [0, count) on the caller plus up to @p helpers
     *  workers; false (nothing run) when another job holds the
     *  pool. */
    bool
    run(std::size_t count, unsigned helpers,
        const std::function<void(std::size_t)> &fn)
    {
        if (busy_.exchange(true)) {
            return false;
        }
        std::unique_lock<std::mutex> lock(mutex_);
        while (workers_.size() < helpers) {
            try {
                workers_.emplace_back(&Pool::work, this,
                                      static_cast<unsigned>(
                                          workers_.size()),
                                      generation_);
            } catch (...) {
                break; // no thread to spare: run with those there are
            }
        }
        if (workers_.empty()) {
            lock.unlock();
            busy_ = false;
            return false;
        }
        helpers = std::min<unsigned>(
            helpers, static_cast<unsigned>(workers_.size()));
        fn_ = &fn;
        count_ = count;
        joining_ = helpers;
        cursor_.store(0, std::memory_order_relaxed);
        ++generation_;
        lock.unlock();
        wake_.notify_all();

        drain(fn, count);

        // Every index is taken: a worker that has not woken yet has
        // nothing left to do, so close the job to it instead of
        // waiting for it.
        lock.lock();
        joining_ = 0;
        done_.wait(lock, [&] { return running_ == 0; });
        std::exception_ptr error = std::exchange(error_, nullptr);
        lock.unlock();
        busy_ = false;
        if (error) {
            std::rethrow_exception(error);
        }
        return true;
    }

  private:
    /** Pull indices until the cursor passes @p count. */
    void
    drain(const std::function<void(std::size_t)> &fn,
          std::size_t count)
    {
        while (true) {
            const std::size_t i =
                cursor_.fetch_add(1, std::memory_order_relaxed);
            if (i >= count) {
                return;
            }
            try {
                fn(i);
            } catch (...) {
                std::lock_guard<std::mutex> lock(mutex_);
                if (!error_) {
                    error_ = std::current_exception();
                }
            }
        }
    }

    void
    work(unsigned id, std::uint64_t seen)
    {
        std::unique_lock<std::mutex> lock(mutex_);
        while (true) {
            wake_.wait(lock,
                       [&] { return stop_ || generation_ != seen; });
            if (stop_) {
                return;
            }
            seen = generation_;
            if (id >= joining_) {
                continue;
            }
            ++running_;
            const std::function<void(std::size_t)> &fn = *fn_;
            const std::size_t count = count_;
            lock.unlock();
            drain(fn, count);
            lock.lock();
            if (--running_ == 0) {
                done_.notify_one();
            }
        }
    }

    /** Held by the one job on the pool. */
    std::atomic<bool> busy_{false};
    std::atomic<std::size_t> cursor_{0};
    std::mutex mutex_;
    // The current job and the workers' state; guarded by mutex_.
    const std::function<void(std::size_t)> *fn_ = nullptr;
    std::size_t count_ = 0;
    /** Workers with a smaller id join the job; 0 once closed. */
    unsigned joining_ = 0;
    unsigned running_ = 0;
    std::uint64_t generation_ = 0;
    bool stop_ = false;
    std::exception_ptr error_;
    std::condition_variable wake_;
    std::condition_variable done_;
    std::vector<std::thread> workers_;
};

ExperimentRunner::ExperimentRunner(unsigned threads)
    : threads_(threads), pool_(std::make_unique<Pool>())
{
    if (threads_ == 0) {
        threads_ = std::thread::hardware_concurrency();
    }
    if (threads_ == 0) {
        threads_ = 1;
    }
}

ExperimentRunner::~ExperimentRunner() = default;

void
ExperimentRunner::forEach(
    std::size_t count,
    const std::function<void(std::size_t)> &fn) const
{
    if (count == 0) {
        return;
    }
    // The caller runs its own share, so min(threads, count) - 1
    // workers join it.  A busy pool (a forEach from inside fn, or a
    // second thread on this runner) runs the call inline.
    const unsigned helpers =
        static_cast<unsigned>(std::min<std::size_t>(threads_, count)) -
        1;
    if (helpers > 0 && pool_->run(count, helpers, fn)) {
        return;
    }
    std::exception_ptr first_error;
    for (std::size_t i = 0; i < count; ++i) {
        try {
            fn(i);
        } catch (...) {
            if (!first_error) {
                first_error = std::current_exception();
            }
        }
    }
    if (first_error) {
        std::rethrow_exception(first_error);
    }
}

SweepResult
ExperimentRunner::run(const SweepGrid &grid) const
{
    const auto t0 = std::chrono::steady_clock::now();
    if (grid.benchmarks.empty()) {
        mouse_fatal("sweep grid has no benchmarks");
    }
    const std::size_t total = grid.size();

    // Shared immutable contexts: one gate library + energy model per
    // (tech, margin), one trace per (tech, margin, benchmark).  Both
    // are built serially here (a few gate solves and memoized
    // traceFor calls), then only read during the point runs.
    struct Context
    {
        std::unique_ptr<GateLibrary> lib;
        std::unique_ptr<EnergyModel> energy;
    };
    const std::size_t nctx = grid.techs.size() * grid.margins.size();
    std::vector<Context> contexts(nctx);
    for (std::size_t i = 0; i < nctx; ++i) {
        const TechConfig tech = grid.techs[i / grid.margins.size()];
        const double margin = grid.margins[i % grid.margins.size()];
        contexts[i].lib = std::make_unique<GateLibrary>(
            makeDeviceConfig(tech), margin);
        contexts[i].energy =
            std::make_unique<EnergyModel>(*contexts[i].lib);
    }

    const std::size_t nbench = grid.benchmarks.size();
    std::vector<Trace> traces(nctx * nbench);
    for (std::size_t i = 0; i < traces.size(); ++i) {
        traces[i] = traceFor(*contexts[i / nbench].lib,
                             grid.benchmarks[i % nbench]);
    }

    SweepResult result;
    result.grid = grid;
    result.threads = threads_;
    if (metrics_ != nullptr) {
        // The whole grid is known up front: admit it all, so the
        // queue-depth gauge shows remaining points as the sweep runs.
        metrics_->recordSubmit(total);
    }
    std::atomic<std::size_t> done{0};
    std::mutex progress_mutex;
    result.points = map(total, [&](std::size_t i) {
        const SweepPoint point = grid.at(i);
        // Locate the shared context by re-doing the mixed-radix
        // decode on the axis indices (at() returns values, and
        // margins may repeat a value).
        std::size_t rest = i / grid.seedsPerPoint;
        const std::size_t margin_index = rest % grid.margins.size();
        rest /= grid.margins.size();
        rest /= grid.checkpointPeriods.size();
        rest /= grid.sources.empty() ? grid.powers.size()
                                     : grid.sources.size();
        if (!grid.platforms.empty()) {
            rest /= grid.platforms.size();
        }
        if (!grid.schemes.empty()) {
            rest /= grid.schemes.size();
        }
        const std::size_t tech_index = rest / grid.benchmarks.size();
        const std::size_t ctx =
            tech_index * grid.margins.size() + margin_index;
        const Trace &trace = traces[ctx * nbench + point.benchmark];
        const EnergyModel &energy = *contexts[ctx].energy;

        const auto p0 = std::chrono::steady_clock::now();
        RunResult r;
        // Each point records into its own sinks; they are folded in
        // grid-index order below, so any thread count produces the
        // same aggregate bit for bit.
        obs::Telemetry telem = obs::Telemetry::make(grid.telemetry);
        obs::Telemetry *tp = telem.enabled() ? &telem : nullptr;
        // Scheme dispatch: the schemes axis selects which system
        // simulates this point.  Telemetry channels are MOUSE
        // concepts; baseline points leave their sinks empty.
        BaselineSelector sel;
        if (!parseBaselineSelector(point.scheme, &sel)) {
            r.error = RunError::kBaselineSchemeUnknown;
        } else if (sel.system == BaselineSystem::kMcu) {
            const auto scheme = mcu::makeEhScheme(sel.scheme);
            const mcu::McuProgram mp = mcu::mcuProgramFromTrace(
                trace, point.checkpointPeriod > 1
                           ? point.checkpointPeriod
                           : 0);
            r.stats =
                point.continuous()
                    ? mcu::mcuRunContinuous(mp, *scheme)
                    : mcu::mcuRunHarvested(mp, *scheme,
                                           grid.harvestFor(point));
        } else if (sel.system == BaselineSystem::kSonic) {
            const auto sb = sonicBenchmarkFor(
                grid.benchmarks[point.benchmark].name);
            if (!sb) {
                // No SONIC calibration for this benchmark: a typed
                // per-point rejection, exactly like the run API.
                r.error = RunError::kBaselineSchemeUnknown;
            } else {
                r.stats = point.continuous()
                              ? sonicRunContinuous(*sb)
                              : sonicRunHarvested(*sb, point.power);
            }
        } else if (point.continuous()) {
            r.stats = runContinuousTrace(trace, energy, tp);
        } else {
            r.stats = runHarvestedTrace(trace, energy,
                                        grid.harvestFor(point), tp);
        }
        r.wallSeconds = elapsed(p0);
        r.meta.index = point.index;
        r.meta.tech = names::techName(point.tech);
        r.meta.benchmark = grid.benchmarks[point.benchmark].name;
        r.meta.system = baselineSystemName(sel.system);
        r.meta.scheme = sel.scheme;
        r.meta.power = point.continuous() ? 0.0 : point.power;
        if (!point.continuous()) {
            r.meta.source = point.source.name();
        }
        r.meta.platform = point.platform;
        r.meta.seed = point.seed;
        r.meta.checkpointPeriod = point.checkpointPeriod;
        r.meta.margin = point.margin;
        r.statsTree = telem.stats;
        r.traceSink = telem.sink;
        if (metrics_ != nullptr) {
            metrics_->recordBatch(1, 1, r.stats.totalTime(),
                                  r.stats.totalEnergy(),
                                  r.stats.chargingTime,
                                  r.stats.outages);
            metrics_->recordDone(r.wallSeconds,
                                 r.stats.totalTime());
        }
        if (progress_) {
            const std::size_t d =
                done.fetch_add(1, std::memory_order_relaxed) + 1;
            std::lock_guard<std::mutex> lock(progress_mutex);
            progress_(d, total);
        }
        return r;
    });
    // Fold per-point telemetry at the join, in index order.
    if (grid.telemetry.stats) {
        result.stats = std::make_shared<obs::StatRegistry>();
        for (const RunResult &r : result.points) {
            if (r.statsTree) {
                result.stats->merge(*r.statsTree);
            }
        }
    }
    if (grid.telemetry.events || grid.telemetry.waveform) {
        // The merged sink holds every point's buffers; scale the cap
        // with the grid (bounded) so per-point caps stay the limit.
        const std::size_t per =
            grid.telemetry.maxEvents > 0 ? grid.telemetry.maxEvents
                                         : (std::size_t{1} << 20);
        const std::size_t cap = std::min<std::size_t>(
            per * std::max<std::size_t>(total, 1),
            std::size_t{1} << 24);
        result.trace =
            std::make_shared<obs::TraceSink>(cap, cap);
        for (std::size_t i = 0; i < result.points.size(); ++i) {
            if (result.points[i].traceSink) {
                result.trace->mergeFrom(
                    *result.points[i].traceSink,
                    static_cast<std::uint32_t>(i));
            }
        }
    }
    result.wallSeconds = elapsed(t0);
    return result;
}

std::string
SweepResult::toJson() const
{
    std::string j = "{";
    j += "\"schema\":" + std::to_string(kResultSchemaVersion);
    j += ",\"threads\":" + std::to_string(threads);
    j += ",\"wall_seconds\":" + json::num(wallSeconds);
    j += ",\"points\":[";
    for (std::size_t i = 0; i < points.size(); ++i) {
        if (i > 0) {
            j += ",";
        }
        j += points[i].toJson();
    }
    j += "]}";
    return j;
}

} // namespace mouse::exp
