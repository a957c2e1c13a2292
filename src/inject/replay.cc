#include "replay.hh"

#include "common/json.hh"
#include "core/run_api.hh"
#include "inject/idempotence.hh"

namespace mouse::inject
{

std::string
replayArtifactJson(const std::string &workload,
                   const OutageSchedule &schedule)
{
    std::string j = "{";
    j += "\"schema\":" + std::to_string(kResultSchemaVersion);
    j += ",\"workload\":\"" + json::escape(workload) + "\"";
    j += ",\"schedule\":" + schedule.toJson();
    j += "}";
    return j;
}

std::optional<ReplayArtifact>
parseReplayArtifact(const std::string &text, json::Error *err)
{
    using json::Value;
    const std::optional<Value> doc = json::parse(text, err);
    if (!doc) {
        return std::nullopt;
    }
    const Value *workload = doc->find("workload");
    if (workload == nullptr || !workload->is(Value::Type::kString)) {
        json::fail(err, workload ? *workload : *doc,
                   "expected a \"workload\" string");
        return std::nullopt;
    }
    // A campaign report's shortest reproducer is its first shrunk
    // schedule; a standalone artifact has only "schedule".
    const Value *sched = nullptr;
    if (const Value *f = doc->find("failures");
        f != nullptr && f->is(Value::Type::kArray) && !f->items.empty()) {
        sched = f->items[0].find("shrunk");
    }
    if (sched == nullptr) {
        sched = doc->find("schedule");
    }
    if (sched == nullptr) {
        json::fail(err, *doc,
                   "expected \"failures[0].shrunk\" or \"schedule\"");
        return std::nullopt;
    }
    auto parsed = OutageSchedule::fromJson(*sched, err);
    if (!parsed) {
        return std::nullopt;
    }
    return ReplayArtifact{workload->text, std::move(*parsed)};
}

PointOutcome
replaySchedule(const CampaignWorkload &w,
               const OutageSchedule &schedule)
{
    auto goldenAcc = freshRun(w);
    RunRequest req;
    req.fidelity = Fidelity::Functional;
    req.power = PowerMode::Continuous;
    const RunResult goldenRes = goldenAcc->execute(req);
    const MachineState golden = captureState(*goldenAcc);
    const std::uint64_t committed =
        goldenRes.stats.instructionsCommitted;
    goldenAcc.reset();

    OutageSchedule s = schedule;
    s.normalize();
    if (s.checkpointPeriod > 1 && s.checkpoints.empty()) {
        // Artifacts carry their checkpoints; recompute for
        // hand-written ones.
        s.checkpoints =
            idempotentCheckpoints(w.program, s.checkpointPeriod);
    }
    return runSchedule(w, s, golden, committed,
                       /* attemptGuard computed as in campaigns */
                       committed + 1 +
                           s.points.size() *
                               (std::max(1u, s.checkpointPeriod) +
                                2) +
                           16);
}

} // namespace mouse::inject
