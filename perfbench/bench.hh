/**
 * @file
 * Shared pieces of the repository benchmark: options, the result
 * ledger, statistics helpers and the in-memory span tracer.
 *
 * The benchmark measures each layer from outside: it times calls
 * into the layer's public functions from its own code and never
 * instruments src/.  Spans are recorded from the main thread only.
 */

#ifndef PERFBENCH_BENCH_HH
#define PERFBENCH_BENCH_HH

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench
{

using Clock = std::chrono::steady_clock;

/** Host seconds elapsed since @p t0. */
double secondsSince(Clock::time_point t0);

/** Linear-interpolated percentile, q in [0, 1]; 0 when empty. */
double percentile(std::vector<double> v, double q);

inline double
median(std::vector<double> v)
{
    return percentile(std::move(v), 0.5);
}

double mean(const std::vector<double> &v);

/** Peak resident set of this process so far, in MB. */
double peakRssMb();

/** Command-line options of one benchmark run. */
struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    /** Measurement budget of the run, host seconds. */
    double seconds = 10.0;
    /** Traced run: per-layer metrics instead of end-to-end ones. */
    bool trace = false;
    /** Small grids and windows, for the benchmark's own tests. */
    bool tiny = false;
    /** Sweep runner threads and serving workers: min(4, nproc). */
    unsigned threads = 1;
    /** Chrome trace output of a traced run; empty = none. */
    std::string traceOut;
    /** Source revision recorded in the host context. */
    std::string commit = "unknown";
    /** Process start, the zero of setup_s. */
    Clock::time_point start = Clock::now();
};

/** One reported number. */
struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

/** What a run attempted, how it went, and what it measured. */
struct Outcome
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    /** One line per failed correctness check; empty = correct. */
    std::vector<std::string> checkFailures;
    std::vector<Metric> metrics;
    /** Human-readable lines printed before the result line. */
    std::vector<std::string> notes;

    void
    add(std::string name, double value, std::string unit)
    {
        metrics.push_back({std::move(name), value, std::move(unit)});
    }

    /** Record a correctness check; a false @p ok fails the run. */
    void
    check(bool ok, const std::string &what)
    {
        if (!ok) {
            checkFailures.push_back(what);
        }
    }

    /** The final result line: correct/attempted/failed/metrics. */
    std::string resultJson() const;
};

/**
 * In-memory span recorder.  span() always times the call; when the
 * tracer is enabled it also records (name, start, end, parent, id),
 * written out as a Chrome trace when the run ends.  Main thread only.
 */
class Tracer
{
  public:
    explicit Tracer(bool enabled) : enabled_(enabled) {}

    /** Run @p fn inside span @p name; returns its host seconds. */
    template <typename F>
    double
    span(const char *name, std::uint64_t id, F &&fn)
    {
        const Clock::time_point t0 = Clock::now();
        const int idx = open(name, id, t0);
        fn();
        const Clock::time_point t1 = Clock::now();
        close(idx, t1);
        return std::chrono::duration<double>(t1 - t0).count();
    }

    /** Record an already-timed span (e.g. a worker completion). */
    void record(const char *name, std::uint64_t id,
                Clock::time_point begin, Clock::time_point end);

    /** Chrome trace_event JSON of every recorded span. */
    std::string chromeJson() const;

    /** Per-name count, total and self time (duration minus the part
     *  covered by child spans), largest self time first. */
    std::vector<std::string> selfTimeTable() const;

  private:
    struct Rec
    {
        std::string name;
        double start = 0.0;
        double end = 0.0;
        int parent = -1;
        std::uint64_t id = 0;
    };

    int open(const char *name, std::uint64_t id, Clock::time_point t);
    void close(int idx, Clock::time_point t);
    double at(Clock::time_point t) const;

    bool enabled_;
    Clock::time_point epoch_ = Clock::now();
    std::vector<Rec> spans_;
    std::vector<int> stack_;
};

/**
 * Median set-up time: @p once runs at least kMinSetups times and
 * until kSetupBudget seconds have gone.  The first sample is timed
 * from @p start (process start), so it also covers static set-up.
 */
template <typename F>
double
medianSetup(Clock::time_point start, F &&once)
{
    constexpr unsigned kMinSetups = 5;
    constexpr double kSetupBudget = 0.5;
    std::vector<double> samples;
    const Clock::time_point begin = Clock::now();
    while (samples.size() < kMinSetups ||
           secondsSince(begin) < kSetupBudget) {
        const Clock::time_point t0 =
            samples.empty() ? start : Clock::now();
        once();
        samples.push_back(secondsSince(t0));
    }
    return median(std::move(samples));
}

/** One line of host context: build, compiler, CPU, threads, seed,
 *  commit and date.  Flags any build that is not Release. */
std::string hostContextJson(const Options &opt);

} // namespace perfbench

#endif // PERFBENCH_BENCH_HH
