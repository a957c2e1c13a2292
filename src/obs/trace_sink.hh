/**
 * @file
 * Structured event tracing in the Chrome trace_event format.
 *
 * A TraceSink buffers timeline events — instruction attempts,
 * checkpoint commits, outages, restores, power-state transitions —
 * plus a sampled capacitor-voltage / harvested-power waveform, and
 * serializes them as a Chrome "traceEvents" JSON document that loads
 * directly in Perfetto (ui.perfetto.dev) or chrome://tracing.
 *
 * Timestamps are *simulated* time (microseconds, the trace_event
 * unit), so traces are bit-identical across hosts and thread counts.
 * Sinks are single-threaded by design: each run (sweep point) fills
 * its own sink and the ExperimentRunner folds them together with
 * mergeFrom() at the join, tagging each point's events with its grid
 * index as the trace "pid" so Perfetto groups them per point.
 *
 * The sink caps its buffers (defaults: 1M events, 1M waveform
 * samples); overflow is counted, never silent — droppedEvents() and
 * the obs.trace.dropped stat report it.
 */

#ifndef MOUSE_OBS_TRACE_SINK_HH
#define MOUSE_OBS_TRACE_SINK_HH

#include <cstdint>
#include <string>
#include <vector>

namespace mouse::obs
{

/** One Chrome trace_event entry. */
struct TraceEvent
{
    /** Event name ("outage", "burst", "checkpoint", ...). */
    std::string name;
    /** Category ("power", "exec", "backup", "ckpt"). */
    std::string cat;
    /** Phase: 'X' complete, 'i' instant, 'C' counter. */
    char phase = 'i';
    /** Timestamp in simulated microseconds. */
    double tsUs = 0.0;
    /** Duration in microseconds ('X' events only). */
    double durUs = 0.0;
    /** Process id: the sweep-point index after a merge. */
    std::uint32_t pid = 0;
    std::uint32_t tid = 0;
    /** Pre-rendered JSON object body for "args" (may be empty). */
    std::string args;
};

/** One sample of the harvesting waveform. */
struct WaveformSample
{
    /** Absolute simulated time, seconds. */
    double timeS = 0.0;
    /** Buffer capacitor voltage. */
    double capVoltage = 0.0;
    /** Instantaneous harvester output power. */
    double harvestPower = 0.0;
    /** Sweep-point index after a merge (0 for one-off runs). */
    std::uint32_t pid = 0;
};

/** Buffering event-trace / waveform sink. */
class TraceSink
{
  public:
    /** @param maxEvents Cap on buffered events (0 = default). */
    explicit TraceSink(std::size_t maxEvents = 0,
                       std::size_t maxSamples = 0);

    /**
     * Record a complete ('X') event spanning [tsS, tsS + durS].
     * @p pid / @p tid pick the Perfetto track (the serving layer
     * uses pid = batch row, tid = slot lane; one-off runs leave 0).
     */
    void complete(const char *name, const char *cat, double tsS,
                  double durS, std::string args = "",
                  std::uint32_t pid = 0, std::uint32_t tid = 0);

    /** Record an instant ('i') event at @p tsS. */
    void instant(const char *name, const char *cat, double tsS,
                 std::string args = "", std::uint32_t pid = 0,
                 std::uint32_t tid = 0);

    /** Record a counter ('C') series value at @p tsS. */
    void counter(const char *name, const char *cat, double tsS,
                 double value);

    /** Record one waveform sample. */
    void sample(double timeS, double capVoltage,
                double harvestPower);

    const std::vector<TraceEvent> &events() const { return events_; }
    const std::vector<WaveformSample> &
    waveform() const
    {
        return samples_;
    }

    /** Where the event buffer stands; repeatEvents() copies what
     *  was recorded after it. */
    struct Mark
    {
        std::size_t events = 0;
        std::uint64_t dropped = 0;
    };

    Mark mark() const { return {events_.size(), droppedEvents_}; }

    /**
     * Append @p times more copies of the events recorded since
     * @p since, copy j shifted j * @p shiftS seconds later: what a
     * simulator stepping over identical cycles would have emitted by
     * running them.  The event cap applies as for new events.
     */
    void repeatEvents(const Mark &since, std::uint64_t times,
                      double shiftS);

    /** Events/samples discarded because a buffer cap was hit. */
    std::uint64_t droppedEvents() const { return droppedEvents_; }
    std::uint64_t droppedSamples() const { return droppedSamples_; }

    bool
    empty() const
    {
        return events_.empty() && samples_.empty();
    }

    /**
     * Append @p other's events and samples, re-tagging the events
     * with @p pid.  Call in grid-index order so merged output is
     * deterministic regardless of worker-thread count.
     */
    void mergeFrom(const TraceSink &other, std::uint32_t pid);

    /**
     * Append @p other's events and samples with their pid/tid tags
     * preserved — for sinks that already laid out their own tracks
     * (per-request serving spans), where mergeFrom()'s re-tagging
     * would collapse them onto one row.
     */
    void appendFrom(const TraceSink &other);

    /**
     * Chrome trace JSON: {"traceEvents":[...]}.  The waveform is
     * included as two counter series ("cap_voltage_v" and
     * "harvest_power_w") so Perfetto plots it on the timeline.
     */
    std::string toChromeJson() const;

    /** Waveform as CSV: point,t_s,cap_voltage_v,harvest_power_w. */
    std::string waveformCsv() const;

  private:
    void push(TraceEvent e);

    std::vector<TraceEvent> events_;
    std::vector<WaveformSample> samples_;
    std::size_t maxEvents_;
    std::size_t maxSamples_;
    std::uint64_t droppedEvents_ = 0;
    std::uint64_t droppedSamples_ = 0;
};

} // namespace mouse::obs

#endif // MOUSE_OBS_TRACE_SINK_HH
