/**
 * @file
 * The parallel experiment engine.
 *
 * ExperimentRunner fans the points of a SweepGrid out across a pool
 * of worker threads that lives as long as the runner (work is stolen
 * from a shared atomic cursor) and aggregates the RunResults into an
 * index-keyed SweepResult table.  Determinism is by construction: a
 * point's inputs — shared immutable GateLibrary/EnergyModel/Trace
 * contexts plus a seed derived from (rootSeed, index) — depend only
 * on its grid index, never on the thread or schedule, so an N-thread
 * run is bit-identical to a serial one.
 *
 * The generic forEach()/map() primitives are public so benches can
 * parallelize sweeps whose per-point work is not a plain trace
 * simulation (Monte-Carlo variation trials, capacitor sweeps, ...).
 */

#ifndef MOUSE_EXP_RUNNER_HH
#define MOUSE_EXP_RUNNER_HH

#include <functional>
#include <memory>
#include <type_traits>
#include <vector>

#include "core/accelerator.hh"
#include "exp/sweep.hh"

namespace mouse::exp
{

/** Index-keyed table of sweep results. */
struct SweepResult
{
    /** The grid that produced the results (axis labels). */
    SweepGrid grid;
    /** One result per grid point, in canonical grid order. */
    std::vector<RunResult> points;
    /** Wall-clock of the whole sweep, including context building. */
    double wallSeconds = 0.0;
    /** Worker threads the sweep ran on. */
    unsigned threads = 1;
    /** Point stats folded name-wise; null unless grid.telemetry
     *  asked for stats. */
    std::shared_ptr<obs::StatRegistry> stats;
    /** All points' events/waveform, each tagged with its grid index
     *  as the trace pid; null unless telemetry asked. */
    std::shared_ptr<obs::TraceSink> trace;

    /** Points per second of wall-clock. */
    double
    pointsPerSecond() const
    {
        return wallSeconds > 0.0
                   ? static_cast<double>(points.size()) / wallSeconds
                   : 0.0;
    }

    /** JSON document: {"threads":..,"wall_seconds":..,"points":[..]}. */
    std::string toJson() const;
};

/**
 * Parallel runner with deterministic aggregation.  Each runner owns
 * one worker pool for its lifetime: workers start on the first
 * fan-out that needs them (never more than threads() - 1, since the
 * calling thread runs its own share), park between calls and are
 * joined by the destructor.
 */
class ExperimentRunner
{
  public:
    /** @param threads Threads a fan-out runs on, the caller
     *  included; 0 means hardware_concurrency. */
    explicit ExperimentRunner(unsigned threads = 0);
    ~ExperimentRunner();
    ExperimentRunner(const ExperimentRunner &) = delete;
    ExperimentRunner &operator=(const ExperimentRunner &) = delete;

    unsigned
    threads() const
    {
        return threads_;
    }

    /**
     * Install a progress observer for run(): called as points
     * complete with (done, total).  Invoked from worker threads but
     * serialized by the runner, so the callback itself needs no
     * locking; keep it fast (it holds up result reporting, never
     * the simulations).
     */
    void
    setProgress(std::function<void(std::size_t, std::size_t)> fn)
    {
        progress_ = std::move(fn);
    }

    /**
     * Attach a live-metrics hub: run() publishes admission (all
     * points up front), per-point batch/latency samples and worker
     * activity into it, so a long sweep is observable while it runs.
     * Observational only — SweepResult and its folded telemetry are
     * byte-identical with or without a hub.  Null detaches.
     */
    void setMetrics(obs::MetricsHub *hub) { metrics_ = hub; }

    /**
     * Invoke fn(i) for every i in [0, count), distributing indices
     * across the caller and the pool; blocks until all complete.  If
     * fn throws, the remaining indices still run and the first
     * exception is rethrown.  fn must not mutate shared state
     * without its own synchronization.  A call that finds the pool
     * busy — a forEach from inside fn, or a second thread sharing
     * this runner — runs inline and serially on its own thread.
     */
    void forEach(std::size_t count,
                 const std::function<void(std::size_t)> &fn) const;

    /** Ordered parallel map: out[i] = fn(i). */
    template <typename F>
    auto
    map(std::size_t count, F &&fn) const
        -> std::vector<std::invoke_result_t<F &, std::size_t>>
    {
        std::vector<std::invoke_result_t<F &, std::size_t>> out(
            count);
        forEach(count,
                [&](std::size_t i) { out[i] = fn(i); });
        return out;
    }

    /**
     * Run every point of @p grid and collect the index-keyed result
     * table.  Shared per-(tech, margin) gate libraries and
     * per-(tech, margin, benchmark) traces are built once, serially
     * on the calling thread, and read concurrently by the point
     * runs.
     */
    SweepResult run(const SweepGrid &grid) const;

  private:
    class Pool;

    unsigned threads_;
    std::unique_ptr<Pool> pool_;
    std::function<void(std::size_t, std::size_t)> progress_;
    obs::MetricsHub *metrics_ = nullptr;
};

} // namespace mouse::exp

#endif // MOUSE_EXP_RUNNER_HH
