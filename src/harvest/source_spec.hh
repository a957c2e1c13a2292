/**
 * @file
 * SourceSpec: the value-type description of a power environment.
 *
 * HarvestConfig used to carry a scalar `sourcePower` plus an escape-
 * hatch raw pointer to a caller-owned PowerSource; every consumer
 * special-cased the two.  A SourceSpec instead *describes* the
 * environment — constant | embedded trace | named corpus trace |
 * square wave — as plain copyable data that can ride inside
 * HarvestConfig, SweepGrid axes and RunRequests, cross threads, and
 * be recorded in result JSON, while make() materializes the
 * polymorphic PowerSource the simulator integrates against.
 *
 * Factories are permissive so specs can be built field-by-field
 * (e.g. while parsing CLI flags); valid() is the single gate, and
 * the typed RunError path (run_api.hh, kHarvestSourceInvalid)
 * reports its verdict for API users.  make() requires a valid spec.
 */

#ifndef MOUSE_HARVEST_SOURCE_SPEC_HH
#define MOUSE_HARVEST_SOURCE_SPEC_HH

#include <memory>
#include <string>
#include <vector>

#include "common/types.hh"
#include "harvest/power_source.hh"
#include "harvest/power_trace.hh"

namespace mouse
{

/** Which environment a SourceSpec describes. */
enum class SourceKind
{
    /** Fixed harvester output (the paper's model). */
    kConstant = 0,
    /** Piecewise-constant segments embedded in the spec. */
    kTrace,
    /** A named trace from the embedded corpus (trace_corpus.hh). */
    kCorpus,
    /** peak W for duty of each period, then zero. */
    kSquare,
};

/** Copyable description of a power environment; see file comment. */
struct SourceSpec
{
    SourceKind kind = SourceKind::kConstant;

    /** kConstant: harvester output (defaults to the paper's 60 uW
     *  body-heat point). */
    Watts constantPower = 60e-6;

    /** kTrace: embedded (duration, power) segments. */
    std::vector<TracePowerSource::Segment> segments;
    /** kTrace: optional label recorded in result JSON ("trace" when
     *  empty). */
    std::string traceName;

    /** kCorpus: corpus trace name. */
    std::string corpus;

    /** kSquare: wave shape. */
    Seconds squarePeriod = 0.0;
    double squareDuty = 0.0;
    Watts squarePeak = 0.0;

    static SourceSpec constant(Watts power);
    static SourceSpec
    trace(std::vector<TracePowerSource::Segment> segments,
          std::string name = "");
    /** Wrap a parsed document (keeps its name). */
    static SourceSpec trace(const PowerTrace &doc);
    static SourceSpec corpusTrace(std::string name);
    static SourceSpec square(Seconds period, double duty, Watts peak);

    /** Stable provenance label for result JSON and sweep tables:
     *  "constant", the trace/corpus name, or "square". */
    std::string name() const;

    /** Headline power for tables and the JSON "power_w" field: the
     *  constant power, or the duty-weighted mean over one period of
     *  the trace/square.  0 for an empty/unknown spec. */
    Watts meanPower() const;

    /**
     * Whether make() can materialize this spec: positive constant
     * power; non-empty segments with positive durations,
     * non-negative powers and positive energy per period; a known
     * corpus name; square period > 0, duty in (0,1), peak > 0.
     * On failure fills @p why (when given) with one sentence.
     */
    bool valid(std::string *why = nullptr) const;

    /** Materialize the PowerSource; fatal on an invalid spec (API
     *  paths validate through RunError first). */
    std::unique_ptr<PowerSource> make() const;

    bool operator==(const SourceSpec &other) const = default;
};

} // namespace mouse

#endif // MOUSE_HARVEST_SOURCE_SPEC_HH
