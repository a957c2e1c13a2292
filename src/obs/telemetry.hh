/**
 * @file
 * Telemetry configuration and the per-run sink bundle.
 *
 * A TraceConfig on a RunRequest (or SweepGrid) selects which of the
 * three observability channels a run produces:
 *
 *  - stats: the hierarchical StatRegistry tree;
 *  - events: Chrome trace_event timeline entries;
 *  - waveform: the sampled capacitor-voltage / harvested-power
 *    series during harvested runs.
 *
 * Telemetry bundles the owning pointers the simulators write into.
 * Passing nullptr (the default everywhere) keeps the hot paths on a
 * single predictable branch; defining MOUSE_OBS_DISABLE_HOOKS (CMake
 * option MOUSE_DISABLE_TRACE_HOOKS) compiles the per-instruction
 * hooks out entirely for zero-cost builds.  Telemetry only observes:
 * enabling it never changes simulation results.
 */

#ifndef MOUSE_OBS_TELEMETRY_HH
#define MOUSE_OBS_TELEMETRY_HH

#include <memory>

#include "common/types.hh"
#include "obs/stat_registry.hh"
#include "obs/trace_sink.hh"

namespace mouse::obs
{

/** Which telemetry channels a run records. */
struct TraceConfig
{
    /** Collect the hierarchical stats tree. */
    bool stats = false;
    /** Emit timeline events (outages, restores, checkpoints, ...). */
    bool events = false;
    /** Sample the harvesting waveform. */
    bool waveform = false;
    /** Minimum simulated time between waveform samples. */
    Seconds waveformPeriod = 1e-3;
    /** Event-buffer cap per run; 0 = TraceSink default (1M). */
    std::size_t maxEvents = 0;
    /** Waveform-sample cap per run; 0 = default (1M). */
    std::size_t maxSamples = 0;

    bool
    anyEnabled() const
    {
        return stats || events || waveform;
    }
};

/** The sinks one run writes into (shared so results can keep them
 *  alive cheaply after the run returns). */
struct Telemetry
{
    TraceConfig config{};
    /** Non-null iff config.stats. */
    std::shared_ptr<StatRegistry> stats;
    /** Non-null iff config.events or config.waveform. */
    std::shared_ptr<TraceSink> sink;

    /** Allocate the sinks a config asks for. */
    static Telemetry
    make(const TraceConfig &cfg)
    {
        Telemetry t;
        t.config = cfg;
        if (cfg.stats) {
            t.stats = std::make_shared<StatRegistry>();
        }
        if (cfg.events || cfg.waveform) {
            t.sink = std::make_shared<TraceSink>(cfg.maxEvents,
                                                 cfg.maxSamples);
        }
        return t;
    }

    bool
    enabled() const
    {
        return stats != nullptr || sink != nullptr;
    }
};

/**
 * Per-instruction hot-loop hook: runtime-gated on the telemetry
 * pointer, compiled out entirely under MOUSE_OBS_DISABLE_HOOKS.
 */
#ifdef MOUSE_OBS_DISABLE_HOOKS
#define MOUSE_OBS_HOOK(telem, stmt) \
    do {                            \
    } while (0)
#else
#define MOUSE_OBS_HOOK(telem, stmt) \
    do {                            \
        if (telem) [[unlikely]] {   \
            stmt;                   \
        }                           \
    } while (0)
#endif

} // namespace mouse::obs

#endif // MOUSE_OBS_TELEMETRY_HH
