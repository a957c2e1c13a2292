#include "harvest/source_spec.hh"

#include "common/logging.hh"
#include "harvest/trace_corpus.hh"

namespace mouse
{

namespace
{

bool
segmentsValid(
    const std::vector<TracePowerSource::Segment> &segments,
    std::string *why)
{
    if (segments.empty()) {
        if (why != nullptr) {
            *why = "trace has no segments";
        }
        return false;
    }
    Joules energy = 0.0;
    for (std::size_t i = 0; i < segments.size(); ++i) {
        if (segments[i].duration <= 0.0) {
            if (why != nullptr) {
                *why = "segment " + std::to_string(i) +
                       " has non-positive duration";
            }
            return false;
        }
        if (segments[i].power < 0.0) {
            if (why != nullptr) {
                *why = "segment " + std::to_string(i) +
                       " has negative power";
            }
            return false;
        }
        energy += segments[i].duration * segments[i].power;
    }
    // TracePowerSource needs positive energy per period.
    if (!(energy > 0.0)) {
        if (why != nullptr) {
            *why = "trace never delivers power, so the buffer "
                   "cannot charge";
        }
        return false;
    }
    return true;
}

} // namespace

SourceSpec
SourceSpec::constant(Watts power)
{
    SourceSpec s;
    s.kind = SourceKind::kConstant;
    s.constantPower = power;
    return s;
}

SourceSpec
SourceSpec::trace(std::vector<TracePowerSource::Segment> segments,
                  std::string name)
{
    SourceSpec s;
    s.kind = SourceKind::kTrace;
    s.segments = std::move(segments);
    s.traceName = std::move(name);
    return s;
}

SourceSpec
SourceSpec::trace(const PowerTrace &doc)
{
    return trace(doc.segments, doc.name);
}

SourceSpec
SourceSpec::corpusTrace(std::string name)
{
    SourceSpec s;
    s.kind = SourceKind::kCorpus;
    s.corpus = std::move(name);
    return s;
}

SourceSpec
SourceSpec::square(Seconds period, double duty, Watts peak)
{
    SourceSpec s;
    s.kind = SourceKind::kSquare;
    s.squarePeriod = period;
    s.squareDuty = duty;
    s.squarePeak = peak;
    return s;
}

std::string
SourceSpec::name() const
{
    switch (kind) {
    case SourceKind::kConstant:
        return "constant";
    case SourceKind::kTrace:
        return traceName.empty() ? "trace" : traceName;
    case SourceKind::kCorpus:
        return corpus;
    case SourceKind::kSquare:
        return "square";
    }
    return "unknown";
}

Watts
SourceSpec::meanPower() const
{
    switch (kind) {
    case SourceKind::kConstant:
        return constantPower;
    case SourceKind::kTrace:
        return PowerTrace{traceName, segments}.meanPower();
    case SourceKind::kCorpus: {
        const PowerTrace *doc = ::mouse::corpusTrace(corpus);
        return doc != nullptr ? doc->meanPower() : 0.0;
    }
    case SourceKind::kSquare:
        return squarePeak * squareDuty;
    }
    return 0.0;
}

bool
SourceSpec::valid(std::string *why) const
{
    switch (kind) {
    case SourceKind::kConstant:
        if (constantPower <= 0.0) {
            if (why != nullptr) {
                *why = "constant source power must be positive";
            }
            return false;
        }
        return true;
    case SourceKind::kTrace:
        return segmentsValid(segments, why);
    case SourceKind::kCorpus:
        if (::mouse::corpusTrace(corpus) == nullptr) {
            if (why != nullptr) {
                std::string names;
                for (const std::string &n : corpusTraceNames()) {
                    names += (names.empty() ? "" : ", ") + n;
                }
                *why = "unknown corpus trace '" + corpus +
                       "' (known: " + names + ")";
            }
            return false;
        }
        return true;
    case SourceKind::kSquare:
        if (squarePeriod <= 0.0) {
            if (why != nullptr) {
                *why = "square period must be positive";
            }
            return false;
        }
        if (squareDuty <= 0.0 || squareDuty >= 1.0) {
            if (why != nullptr) {
                *why = "square duty must be in (0, 1)";
            }
            return false;
        }
        if (squarePeak <= 0.0) {
            if (why != nullptr) {
                *why = "square peak power must be positive";
            }
            return false;
        }
        return true;
    }
    if (why != nullptr) {
        *why = "unknown source kind";
    }
    return false;
}

std::unique_ptr<PowerSource>
SourceSpec::make() const
{
    std::string why;
    if (!valid(&why)) {
        mouse_fatal("cannot materialize power source: %s",
                    why.c_str());
    }
    switch (kind) {
    case SourceKind::kConstant:
        return std::make_unique<ConstantPowerSource>(constantPower);
    case SourceKind::kTrace:
        return std::make_unique<TracePowerSource>(segments);
    case SourceKind::kCorpus:
        return std::make_unique<TracePowerSource>(
            ::mouse::corpusTrace(corpus)->segments);
    case SourceKind::kSquare:
        return std::make_unique<TracePowerSource>(
            TracePowerSource::square(squarePeriod, squareDuty,
                                     squarePeak));
    }
    mouse_fatal("unknown source kind");
}

} // namespace mouse
