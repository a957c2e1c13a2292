#include "outage_schedule.hh"

#include <algorithm>

namespace mouse
{

const char *
microStepName(MicroStep step)
{
    switch (step) {
      case MicroStep::kFetch:
        return "fetch";
      case MicroStep::kExecute:
        return "execute";
      case MicroStep::kWritePc:
        return "write-pc";
      case MicroStep::kCommit:
        return "commit";
    }
    return "?";
}

std::optional<MicroStep>
parseMicroStep(const std::string &name)
{
    if (name == "fetch") {
        return MicroStep::kFetch;
    }
    if (name == "execute") {
        return MicroStep::kExecute;
    }
    if (name == "write-pc") {
        return MicroStep::kWritePc;
    }
    if (name == "commit") {
        return MicroStep::kCommit;
    }
    return std::nullopt;
}

void
OutageSchedule::normalize()
{
    std::sort(points.begin(), points.end(),
              [](const OutagePoint &a, const OutagePoint &b) {
                  if (a.attempt != b.attempt) {
                      return a.attempt < b.attempt;
                  }
                  if (a.step != b.step) {
                      return a.step < b.step;
                  }
                  return a.fraction < b.fraction;
              });
    points.erase(std::unique(points.begin(), points.end()),
                 points.end());
    std::sort(checkpoints.begin(), checkpoints.end());
    checkpoints.erase(
        std::unique(checkpoints.begin(), checkpoints.end()),
        checkpoints.end());
}

std::string
OutageSchedule::toJson() const
{
    std::string j = "{\"checkpoint_period\":" +
                    std::to_string(checkpointPeriod);
    j += ",\"restore_journal\":";
    j += restoreJournal ? "true" : "false";
    if (!checkpoints.empty()) {
        j += ",\"checkpoints\":[";
        for (std::size_t i = 0; i < checkpoints.size(); ++i) {
            if (i > 0) {
                j += ",";
            }
            j += std::to_string(checkpoints[i]);
        }
        j += "]";
    }
    j += ",\"outages\":[";
    for (std::size_t i = 0; i < points.size(); ++i) {
        if (i > 0) {
            j += ",";
        }
        j += "{\"attempt\":" + json::num(points[i].attempt);
        j += ",\"step\":\"";
        j += microStepName(points[i].step);
        j += "\",\"fraction\":" + json::num(points[i].fraction) + "}";
    }
    j += "]}";
    return j;
}

namespace
{

using json::Value;

/** One "outages" entry; false (with @p err filled) when malformed. */
bool
parseOutage(const Value &v, OutagePoint &p, json::Error *err)
{
    if (!v.is(Value::Type::kObject)) {
        json::fail(err, v, "an outage is a JSON object");
        return false;
    }
    if (const Value *a = v.find("attempt")) {
        const auto attempt = json::toInt<std::uint64_t>(*a);
        if (!attempt) {
            json::fail(err, *a,
                       "\"attempt\" must be a non-negative integer");
            return false;
        }
        p.attempt = *attempt;
    }
    if (const Value *s = v.find("step")) {
        const auto step = s->is(Value::Type::kString)
                              ? parseMicroStep(s->text)
                              : std::nullopt;
        if (!step) {
            json::fail(err, *s, "unknown micro-step");
            return false;
        }
        p.step = *step;
    }
    if (const Value *f = v.find("fraction")) {
        if (!f->is(Value::Type::kNumber) || f->number < 0.0 ||
            f->number > 1.0) {
            json::fail(err, *f, "\"fraction\" must be in [0, 1]");
            return false;
        }
        p.fraction = f->number;
    }
    return true;
}

} // namespace

std::optional<OutageSchedule>
OutageSchedule::fromJson(const std::string &text, json::Error *err)
{
    const std::optional<Value> doc = json::parse(text, err);
    return doc ? fromJson(*doc, err) : std::nullopt;
}

std::optional<OutageSchedule>
OutageSchedule::fromJson(const Value &doc, json::Error *err)
{
    const auto bad = [err](const Value &at, const std::string &what) {
        json::fail(err, at, what);
        return std::nullopt;
    };
    if (!doc.is(Value::Type::kObject)) {
        return bad(doc, "an outage schedule is a JSON object");
    }
    OutageSchedule sched;
    if (const Value *v = doc.find("checkpoint_period")) {
        const auto period = json::toInt<unsigned>(*v);
        if (!period || *period < 1) {
            return bad(*v, "\"checkpoint_period\" must be an integer "
                           ">= 1");
        }
        sched.checkpointPeriod = *period;
    }
    if (const Value *v = doc.find("restore_journal")) {
        if (!v->is(Value::Type::kBool)) {
            return bad(*v, "\"restore_journal\" must be a boolean");
        }
        sched.restoreJournal = v->boolean;
    }
    if (const Value *v = doc.find("checkpoints")) {
        if (!v->is(Value::Type::kArray)) {
            return bad(*v, "\"checkpoints\" must be an array");
        }
        for (const Value &pc : v->items) {
            const auto c = json::toInt<std::uint32_t>(pc);
            if (!c) {
                return bad(pc, "a checkpoint must be a 32-bit "
                               "non-negative integer");
            }
            sched.checkpoints.push_back(*c);
        }
    }
    if (const Value *v = doc.find("outages")) {
        if (!v->is(Value::Type::kArray)) {
            return bad(*v, "\"outages\" must be an array");
        }
        for (const Value &o : v->items) {
            OutagePoint p;
            if (!parseOutage(o, p, err)) {
                return std::nullopt;
            }
            sched.points.push_back(p);
        }
    }
    sched.normalize();
    return sched;
}

} // namespace mouse
