#include "harvest/power_trace.hh"

#include "common/json.hh"
#include "common/schema_versions.hh"

namespace mouse
{

Seconds
PowerTrace::period() const
{
    Seconds total = 0.0;
    for (const TracePowerSource::Segment &s : segments) {
        total += s.duration;
    }
    return total;
}

Watts
PowerTrace::meanPower() const
{
    const Seconds total = period();
    if (total <= 0.0) {
        return 0.0;
    }
    Joules energy = 0.0;
    for (const TracePowerSource::Segment &s : segments) {
        energy += s.duration * s.power;
    }
    return energy / total;
}

std::string
PowerTrace::toJson() const
{
    std::string j = "{\"trace_schema\":" +
                    std::to_string(schema::kPowerTraceSchemaVersion);
    j += ",\"name\":\"" + json::escape(name) + "\"";
    j += ",\"segments\":[";
    for (std::size_t i = 0; i < segments.size(); ++i) {
        if (i > 0) {
            j += ",";
        }
        j += "{\"duration_s\":" + json::num(segments[i].duration);
        j += ",\"power_w\":" + json::num(segments[i].power) + "}";
    }
    j += "]}";
    return j;
}

std::optional<PowerTrace>
parsePowerTrace(const std::string &text, json::Error *err)
{
    using json::Value;
    const auto bad = [err](const Value &at, const std::string &what) {
        json::fail(err, at, what);
        return std::nullopt;
    };
    const std::optional<Value> doc = json::parse(text, err);
    if (!doc) {
        return std::nullopt;
    }
    if (!doc->is(Value::Type::kObject)) {
        return bad(*doc, "a trace document is a JSON object");
    }
    const Value *version = doc->find("trace_schema");
    if (version == nullptr) {
        return bad(*doc, "missing \"trace_schema\" field");
    }
    if (!version->is(Value::Type::kNumber) ||
        version->number != schema::kPowerTraceSchemaVersion) {
        const std::string found =
            version->is(Value::Type::kNumber) ? json::num(version->number)
                                              : "(not a number)";
        return bad(*version,
                   "unsupported trace_schema " + found +
                       " (this build reads version " +
                       std::to_string(schema::kPowerTraceSchemaVersion) +
                       ")");
    }
    PowerTrace trace;
    if (const Value *name = doc->find("name")) {
        if (!name->is(Value::Type::kString)) {
            return bad(*name, "\"name\" must be a string");
        }
        trace.name = name->text;
    }
    const Value *segments = doc->find("segments");
    if (segments == nullptr) {
        return bad(*doc, "missing \"segments\" field");
    }
    if (!segments->is(Value::Type::kArray)) {
        return bad(*segments, "\"segments\" must be an array");
    }
    if (segments->items.empty()) {
        return bad(*segments, "\"segments\" must not be empty");
    }
    for (const Value &seg : segments->items) {
        const std::string where =
            "segments[" + std::to_string(trace.segments.size()) + "]";
        const Value *duration = seg.find("duration_s");
        const Value *power = seg.find("power_w");
        if (duration == nullptr || power == nullptr ||
            !duration->is(Value::Type::kNumber) ||
            !power->is(Value::Type::kNumber)) {
            return bad(seg, where + " needs numeric \"duration_s\" "
                                    "and \"power_w\"");
        }
        if (duration->number <= 0.0) {
            return bad(*duration, where + " has non-positive duration_s");
        }
        if (power->number < 0.0) {
            return bad(*power, where + " has negative power_w");
        }
        trace.segments.push_back({duration->number, power->number});
    }
    return trace;
}

} // namespace mouse
