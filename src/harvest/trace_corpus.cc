#include "harvest/trace_corpus.hh"

#include "common/logging.hh"
#include "harvest/traces/piezo_impulse.hh"
#include "harvest/traces/rf_bursty.hh"
#include "harvest/traces/solar_day_night.hh"

namespace mouse
{

namespace
{

PowerTrace
mustParse(const char *json)
{
    json::Error err;
    const std::optional<PowerTrace> trace =
        parsePowerTrace(json, &err);
    if (!trace) {
        mouse_fatal("embedded corpus trace failed to parse "
                    "(%zu:%zu: %s)",
                    err.line, err.col, err.message.c_str());
    }
    return *trace;
}

} // namespace

const std::vector<PowerTrace> &
powerTraceCorpus()
{
    static const std::vector<PowerTrace> corpus = {
        mustParse(traces::kSolarDayNightJson),
        mustParse(traces::kRfBurstyJson),
        mustParse(traces::kPiezoImpulseJson),
    };
    return corpus;
}

const PowerTrace *
corpusTrace(const std::string &name)
{
    for (const PowerTrace &t : powerTraceCorpus()) {
        if (t.name == name) {
            return &t;
        }
    }
    return nullptr;
}

std::vector<std::string>
corpusTraceNames()
{
    std::vector<std::string> names;
    for (const PowerTrace &t : powerTraceCorpus()) {
        names.push_back(t.name);
    }
    return names;
}

} // namespace mouse
