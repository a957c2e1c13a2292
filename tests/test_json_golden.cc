/**
 * @file
 * Byte-exact goldens for every JSON (and Prometheus) emitter.
 *
 * Each case builds a fixed document — hand-made values chosen to hit
 * escapes, awkward doubles and every optional block, or a small
 * deterministic run — and compares it byte for byte with a file
 * under tests/goldens/.  Host-timed fields (serve drain time and
 * host latency) are masked before the comparison.  On a mismatch the
 * actual bytes are written next to the test binary as
 * goldens/<name>.actual for inspection.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "common/rng.hh"
#include "compile/builder.hh"
#include "core/accelerator.hh"
#include "exp/runner.hh"
#include "harvest/power_trace.hh"
#include "inject/mcu_campaign.hh"
#include "inject/replay.hh"
#include "obs/metrics_hub.hh"
#include "obs/stat_registry.hh"
#include "obs/trace_sink.hh"
#include "serve/service.hh"

namespace mouse
{
namespace
{

const std::string kOddName = "q\"uote\\back\nline\ttab\x01" "end";

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream s;
    s << in.rdbuf();
    return s.str();
}

// -- Documents -------------------------------------------------------

std::shared_ptr<obs::StatRegistry>
sampleRegistry()
{
    auto reg = std::make_shared<obs::StatRegistry>();
    reg->counter("sim.instr.committed") += 123456789;
    reg->counter("sim.outages") += 3;
    reg->scalar("sim.energy_j").set(1.0 / 3.0);
    reg->scalar("harvest.peak_v", obs::MergePolicy::kMax).set(-0.0);
    obs::Histogram &h = reg->histogram("tile.0.latency_s");
    for (double v : {1e-9, 2.5e-9, 7e-7, 0.1}) {
        h.sample(v);
    }
    reg->histogram("tile.1.empty");
    reg->formula("sim.ratio", [](const obs::StatRegistry &r) {
        return r.counterValue("sim.outages") / 7.0;
    });
    reg->scalar("z.huge").set(1e308 * 10.0);
    return reg;
}

RunResult
sampleRun()
{
    RunResult r;
    r.wallSeconds = 0.0123456789;
    r.meta.index = 42;
    r.meta.tech = "modern_stt";
    r.meta.benchmark = kOddName;
    r.meta.system = "mcu";
    r.meta.scheme = "bec";
    r.meta.power = 6e-5;
    r.meta.source = "solar-day-night";
    r.meta.platform = "mementos";
    r.meta.seed = 18446744073709551615ull;
    r.meta.checkpointPeriod = 8;
    r.meta.margin = 0.1;
    r.meta.label = "label";
    r.stats.instructionsCommitted = 1000;
    r.stats.instructionsDead = 7;
    r.stats.outages = 2;
    r.stats.activeTime = 1.5e-3;
    r.stats.deadTime = 2e-7;
    r.stats.restoreTime = 3.25e-8;
    r.stats.chargingTime = 0.75;
    r.stats.computeEnergy = 4.4e-9;
    r.stats.backupEnergy = 1e-12;
    r.stats.deadEnergy = 5e-13;
    r.stats.restoreEnergy = 2e-14;
    r.stats.idleEnergy = 0.0;
    return r;
}

std::string
runErrorDoc()
{
    RunResult r;
    r.error = RunError::kHarvestSourceInvalid;
    r.meta.benchmark = "SVM ADULT";
    return r.toJson();
}

std::string
runServeDoc()
{
    RunResult r = sampleRun();
    r.serve.present = true;
    r.serve.requestId = 9;
    r.serve.batchId = 3;
    r.serve.batchSize = 4;
    r.serve.slot = 2;
    r.serve.queueDepth = 11;
    r.serve.queueSeconds = 2.5e-5;
    r.statsTree = sampleRegistry();
    return r.toJson();
}

std::string
sweepDoc()
{
    exp::SweepResult s;
    s.threads = 4;
    s.wallSeconds = 1.0 / 7.0;
    s.points.push_back(sampleRun());
    RunResult second = sampleRun();
    second.meta.index = 43;
    second.meta.power = 0.0;
    s.points.push_back(second);
    return s.toJson();
}

std::string
traceSinkDoc()
{
    obs::TraceSink sink;
    sink.complete("burst", "exec", 1e-6, 2.5e-6,
                  "{\"instructions\":64}", 1, 2);
    sink.instant("power_off", "power", 5e-6);
    sink.instant("restore", "power", 6e-6, "{\"energy_j\":1e-12}");
    sink.counter("power_state", "power", 5e-6, 0.0);
    sink.sample(1e-3, 0.5, 60e-6);
    sink.sample(2e-3, std::numeric_limits<double>::infinity(),
                std::nan(""));
    return sink.toChromeJson();
}

/** A real harvested run with events on: covers the simulator's
 *  outage/restore argument payloads. */
std::string
harvestedTraceDoc()
{
    MouseConfig cfg;
    cfg.tech = TechConfig::ProjectedStt;
    cfg.array.tileRows = 128;
    cfg.array.tileCols = 8;
    cfg.array.numDataTiles = 2;
    cfg.array.numInstructionTiles = 512;
    Accelerator acc(cfg);
    KernelBuilder kb(acc.gateLibrary(), cfg.array, 0, 16);
    kb.activate(0, 3);
    (void)kb.add(kb.pinnedWord(0, 4), kb.pinnedWord(8, 4));
    acc.loadProgram(kb.finish());
    RunRequest req;
    req.power = PowerMode::Harvested;
    req.harvest.source = SourceSpec::constant(2e-6);
    req.harvest.capacitanceOverride = 2e-10;
    req.telemetry.events = true;
    const RunResult res = acc.execute(req);
    return res.traceSink ? res.traceSink->toChromeJson() : "";
}

obs::MetricsSnapshot
sampleSnapshot()
{
    obs::MetricsSnapshot s;
    s.uptimeSeconds = 12.5;
    s.windowSeconds = 10.0;
    s.submitted = 1000;
    s.completed = 990;
    s.batches = 250;
    s.slotsTotal = 1000;
    s.slotsUsed = 990;
    s.outages = 5;
    s.stallWarnings = 1;
    s.queueDepth = 10;
    s.activeWorkers = 3;
    s.simSeconds = 0.001234;
    s.energyJoules = 5.5e-6;
    s.outageStallSeconds = 1e-4;
    s.throughputPerS = 79.2;
    s.windowCompleted = 800;
    s.windowBatches = 200;
    s.windowThroughputPerS = 80.0;
    s.windowOccupancy = 0.99;
    s.windowEnergyPerRequestJ = 5.5e-9;
    s.windowOutageStallSeconds = 2e-5;
    s.hostLatency = {800, 1e-3, 2e-3, 3.5e-3};
    s.simLatency = {800, 2.5e-4, 2.5e-4, 3e-4};
    return s;
}

std::string
stallReportDoc()
{
    obs::StallReport r;
    r.kind = obs::StallReport::Kind::kStuckDrain;
    r.stalledSeconds = 2.25;
    r.queueDepth = -1;
    r.completed = 5;
    r.batches = 2;
    r.activeWorkers = 4;
    return r.toJson();
}

/** Host-timed serve-report figures vary run to run; mask them. */
std::string
maskHostTimes(std::string j)
{
    for (const char *key :
         {"\"drain_seconds\":", "\"throughput_per_s\":",
          "\"host_latency_s\":{\"p50\":", ",\"p99\":"}) {
        const std::size_t at = j.find(key) + std::strlen(key);
        j.replace(at, j.find_first_of(",}", at) - at, "#");
    }
    return j;
}

std::string
serveReportDoc()
{
    serve::ServiceConfig cfg;
    cfg.engine.tech = TechConfig::ProjectedStt;
    cfg.engine.array.tileRows = 512;
    cfg.engine.array.tileCols = 16;
    cfg.engine.array.numDataTiles = 1;
    cfg.engine.array.numInstructionTiles = 4096;
    cfg.workers = 2;
    serve::InferenceService svc(cfg);
    Rng rng(31);
    serve::BnnServeModel m;
    m.name = "bnn-golden";
    m.layer.inputs = 12;
    m.layer.outputs = 4;
    m.layer.weights.assign(4, std::vector<Bit>(12));
    m.layer.thresholds.resize(4);
    for (unsigned c = 0; c < 4; ++c) {
        for (unsigned i = 0; i < 12; ++i) {
            m.layer.weights[c][i] = static_cast<Bit>(rng.below(2));
        }
        m.layer.thresholds[c] = static_cast<std::int32_t>(rng.below(13));
    }
    const serve::ModelId id = svc.addModel(m);
    for (unsigned r = 0; r < 6; ++r) {
        serve::Input in(svc.model(id).inputSize());
        for (auto &v : in) {
            v = static_cast<std::uint8_t>(rng.below(2));
        }
        svc.submit(id, in);
    }
    svc.drain();
    return maskHostTimes(svc.reportJson());
}

std::string
campaignDoc()
{
    const auto w = inject::makeCampaignWorkload("gates");
    inject::CampaignConfig cfg;
    cfg.restoreJournal = false;
    cfg.fractions = {0.5, 1.0 / 3.0};
    cfg.envSources = {SourceSpec::constant(6e-5)};
    cfg.envPlatform = "mementos";
    return inject::runCampaign(*w, cfg).toJson();
}

std::string
mcuCampaignDoc()
{
    const auto w = inject::makeCampaignWorkload("gates");
    inject::McuCampaignConfig cfg;
    cfg.scheme = "clank";
    return inject::runMcuCampaign(*w, cfg).toJson();
}

OutageSchedule
sampleSchedule()
{
    OutageSchedule s;
    s.checkpointPeriod = 8;
    s.restoreJournal = false;
    s.checkpoints = {0, 17, 4000000000u};
    s.points = {{0, MicroStep::kFetch, 0.0},
                {7, MicroStep::kWritePc, 1.0 / 3.0},
                {18446744073709551615ull, MicroStep::kCommit, 1.0}};
    return s;
}

std::string
powerTraceDoc()
{
    PowerTrace t;
    t.name = "unit \"probe\"\\\nline\ttab";
    t.segments = {{0.125, 3.0000000000000004e-05},
                  {2.5, 1e-12},
                  {0.7071067811865476, 0.0},
                  {1e300, 5e-324}};
    return t.toJson();
}

struct Golden
{
    const char *name;
    std::function<std::string()> emit;
};

const std::vector<Golden> &
goldens()
{
    static const std::vector<Golden> table = {
        {"run_result", [] { return sampleRun().toJson(); }},
        {"run_result_error", runErrorDoc},
        {"run_result_serve", runServeDoc},
        {"sweep_result", sweepDoc},
        {"stat_registry", [] { return sampleRegistry()->toJson(); }},
        {"trace_sink", traceSinkDoc},
        {"trace_sink_harvested", harvestedTraceDoc},
        {"metrics_snapshot", [] { return sampleSnapshot().toJson(); }},
        {"metrics_snapshot.prom",
         [] { return sampleSnapshot().toPrometheus(); }},
        {"stall_report", stallReportDoc},
        {"serve_report", serveReportDoc},
        {"campaign_report", campaignDoc},
        {"mcu_campaign_report", mcuCampaignDoc},
        {"replay_artifact",
         [] {
             return inject::replayArtifactJson(kOddName,
                                               sampleSchedule());
         }},
        {"outage_schedule", [] { return sampleSchedule().toJson(); }},
        {"power_trace", powerTraceDoc},
    };
    return table;
}

TEST(JsonGolden, EveryEmitterMatchesItsGoldenByteForByte)
{
    namespace fs = std::filesystem;
    const fs::path actualDir = fs::path(MOUSE_GOLDEN_OUT) / "goldens";
    for (const Golden &g : goldens()) {
        SCOPED_TRACE(g.name);
        const std::string actual = g.emit();
        const std::string want =
            readFile(std::string(MOUSE_GOLDEN_DIR) + "/" + g.name +
                     (std::string(g.name).find('.') ==
                              std::string::npos
                          ? ".json"
                          : ""));
        EXPECT_FALSE(want.empty()) << "missing golden " << g.name;
        if (actual != want) {
            fs::create_directories(actualDir);
            std::ofstream(actualDir / (std::string(g.name) + ".actual"),
                          std::ios::binary)
                << actual;
            ADD_FAILURE() << "golden mismatch; actual bytes in "
                          << (actualDir / g.name).string()
                          << ".actual";
        }
    }
}

} // namespace
} // namespace mouse
