/**
 * @file
 * Property fuzzing: randomly generated gate programs executed under
 * continuous power and under harvesting with randomly placed outages
 * must leave identical array contents.  This is the repository's
 * broadest statement of the paper's correctness guarantee — it
 * quantifies over programs, not just hand-written kernels.
 *
 * The second half fuzzes every JSON parse entry point with seeded
 * byte flips, truncations, insertions and key permutations of valid
 * documents: nothing may crash, json::parse() must accept exactly
 * what the independent JsonChecker accepts, and every accepted
 * trace, schedule or snapshot must round-trip through its toJson().
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "common/json.hh"
#include "common/rng.hh"
#include "core/accelerator.hh"
#include "harvest/power_trace.hh"
#include "harvest/trace_corpus.hh"
#include "inject/replay.hh"
#include "json_checker.hh"
#include "obs/metrics_hub.hh"

namespace mouse
{
namespace
{

MouseConfig
fuzzConfig()
{
    MouseConfig cfg;
    cfg.tech = TechConfig::ProjectedStt;
    cfg.array.tileRows = 96;
    cfg.array.tileCols = 8;
    cfg.array.numDataTiles = 2;
    cfg.array.numInstructionTiles = 256;
    return cfg;
}

/**
 * Generate a random but *well-formed* program: every gate output is
 * preset first, parities respected, occasional re-activation and
 * cross-tile row transfers.
 */
Program
randomProgram(const GateLibrary &lib, Rng &rng, unsigned length)
{
    const std::vector<GateType> usable = [&] {
        std::vector<GateType> v;
        for (GateType g : lib.feasibleGates()) {
            switch (g) {
              case GateType::kBuf:
              case GateType::kNot:
              case GateType::kAnd2:
              case GateType::kNand2:
              case GateType::kOr2:
              case GateType::kNor2:
              case GateType::kMaj3:
              case GateType::kMin3:
                v.push_back(g);
                break;
              default:
                break;  // not ISA-encodable
            }
        }
        return v;
    }();

    Program prog;
    prog.instructions.push_back(Instruction::activateRange(
        0, static_cast<ColAddr>(rng.between(1, 7))));
    for (unsigned i = 0; i < length; ++i) {
        const auto tile = static_cast<TileAddr>(rng.below(2));
        switch (rng.below(10)) {
          case 0:
            prog.instructions.push_back(Instruction::activateRange(
                static_cast<ColAddr>(rng.below(4)),
                static_cast<ColAddr>(4 + rng.below(4))));
            break;
          case 1: {
            // Row transfer between tiles, sometimes with a barrel
            // shift (cross-column transport).
            prog.instructions.push_back(Instruction::readRow(
                tile, static_cast<RowAddr>(rng.below(96))));
            if (rng.chance(0.5)) {
                prog.instructions.push_back(
                    Instruction::writeRowShifted(
                        static_cast<TileAddr>(1 - tile),
                        static_cast<RowAddr>(rng.below(96)),
                        static_cast<ColAddr>(rng.below(8))));
            } else {
                prog.instructions.push_back(Instruction::writeRow(
                    static_cast<TileAddr>(1 - tile),
                    static_cast<RowAddr>(rng.below(96))));
            }
            break;
          }
          default: {
            const GateType g = usable[rng.below(usable.size())];
            const int n = gateNumInputs(g);
            // Inputs on one parity, output on the other.
            const unsigned in_parity = rng.below(2);
            auto row_of = [&](unsigned parity) {
                return static_cast<RowAddr>(
                    2 * rng.below(48) + parity);
            };
            const RowAddr out = row_of(1 - in_parity);
            prog.instructions.push_back(
                Instruction::preset(gatePreset(g), tile, out));
            switch (n) {
              case 1:
                prog.instructions.push_back(Instruction::gate(
                    g, tile, row_of(in_parity), out));
                break;
              case 2:
                prog.instructions.push_back(Instruction::gate(
                    g, tile, row_of(in_parity), row_of(in_parity),
                    out));
                break;
              default:
                prog.instructions.push_back(Instruction::gate(
                    g, tile, row_of(in_parity), row_of(in_parity),
                    row_of(in_parity), out));
                break;
            }
            break;
          }
        }
    }
    prog.instructions.push_back(Instruction::halt());
    return prog;
}

void
randomizeTiles(Accelerator &acc, Rng &rng)
{
    for (TileAddr t = 0; t < 2; ++t) {
        for (RowAddr r = 0; r < 96; ++r) {
            for (ColAddr c = 0; c < 8; ++c) {
                acc.grid().tile(t).setBit(
                    r, c, static_cast<Bit>(rng.below(2)));
            }
        }
    }
}

TEST(Fuzz, HarvestedEqualsContinuousOverRandomPrograms)
{
    const MouseConfig cfg = fuzzConfig();
    for (std::uint64_t trial = 0; trial < 25; ++trial) {
        Rng rng(9000 + trial);
        Accelerator cont(cfg);
        const Program prog = randomProgram(
            cont.gateLibrary(), rng,
            static_cast<unsigned>(20 + rng.below(60)));

        Rng data_rng(500 + trial);
        cont.loadProgram(prog);
        randomizeTiles(cont, data_rng);
        cont.execute(RunRequest{});

        Accelerator harv(cfg);
        Rng data_rng2(500 + trial);
        harv.loadProgram(prog);
        randomizeTiles(harv, data_rng2);
        HarvestConfig harvest;
        harvest.source = SourceSpec::constant(10e-6);
        harvest.capacitanceOverride = 2e-9;  // frequent outages
        harvest.seed = 777 + trial;
        RunRequest req;
        req.power = PowerMode::Harvested;
        req.harvest = harvest;
        const RunStats stats = harv.execute(req).stats;

        ASSERT_EQ(cont.grid().tile(0).snapshot(),
                  harv.grid().tile(0).snapshot())
            << "trial " << trial << " (outages " << stats.outages
            << ")";
        ASSERT_EQ(cont.grid().tile(1).snapshot(),
                  harv.grid().tile(1).snapshot())
            << "trial " << trial;
    }
}

TEST(Fuzz, ReplayingAnyPrefixTwiceIsIdempotent)
{
    // Stronger than single-instruction idempotency: stop after k
    // instructions, re-execute instruction k many times, continue —
    // the final state must match the straight run.  (This is what
    // the PC protocol's at-most-one-repeat guarantees reduce to.)
    const MouseConfig cfg = fuzzConfig();
    for (std::uint64_t trial = 0; trial < 10; ++trial) {
        Rng rng(4242 + trial);
        Accelerator straight(cfg);
        const Program prog =
            randomProgram(straight.gateLibrary(), rng, 30);

        Rng data_rng(100 + trial);
        straight.loadProgram(prog);
        randomizeTiles(straight, data_rng);
        straight.execute(RunRequest{});

        Accelerator replayed(cfg);
        Rng data_rng2(100 + trial);
        replayed.loadProgram(prog);
        randomizeTiles(replayed, data_rng2);
        Rng replay_rng(55 + trial);
        while (!replayed.controller().halted()) {
            if (replay_rng.chance(0.3)) {
                // Force a worst-case commit failure: the instruction
                // fully executes but the PC never advances, then the
                // controller restarts and repeats it.
                replayed.controller().stepInterrupted(
                    MicroStep::kCommit, 1.0);
                replayed.controller().powerLoss();
                replayed.controller().restart();
            } else {
                replayed.controller().step();
            }
        }
        ASSERT_EQ(straight.grid().tile(0).snapshot(),
                  replayed.grid().tile(0).snapshot())
            << "trial " << trial;
        ASSERT_EQ(straight.grid().tile(1).snapshot(),
                  replayed.grid().tile(1).snapshot())
            << "trial " << trial;
    }
}


// -- Parse entry points ----------------------------------------------

/** Valid documents of every format the readers accept. */
std::vector<std::string>
seedDocuments()
{
    std::vector<std::string> docs;
    PowerTrace trace;
    trace.name = "fuzz \"trace\"";
    trace.segments = {{0.5, 1e-4}, {1.5, 0.0}, {1e-3, 2.5e-3}};
    docs.push_back(trace.toJson());
    docs.push_back(corpusTrace("rf-bursty")->toJson());

    OutageSchedule sched;
    sched.checkpointPeriod = 4;
    sched.restoreJournal = false;
    sched.checkpoints = {0, 9};
    sched.points = {{2, MicroStep::kFetch, 1.0 / 3.0},
                    {11, MicroStep::kCommit, 1.0}};
    docs.push_back(sched.toJson());
    docs.push_back(inject::replayArtifactJson("gates", sched));

    inject::CampaignConfig cfg;
    cfg.restoreJournal = false;
    cfg.fractions = {0.5};
    cfg.maxFailuresKept = 2;
    docs.push_back(
        inject::runCampaign(*inject::makeCampaignWorkload("gates"), cfg)
            .toJson());

    obs::MetricsHub hub;
    hub.recordSubmit(9);
    hub.recordBatch(4, 8, 1e-3, 2e-7, 1e-4, 3);
    hub.recordDone(2e-3, 5e-4);
    docs.push_back(hub.snapshot().toJson());
    return docs;
}

/** @p doc with its object members shuffled at every level. */
std::string
permuteKeys(const std::string &doc, Rng &rng)
{
    const auto v = json::parse(doc);
    if (!v) {
        return doc;
    }
    return writeJson(*v, [&rng](std::vector<std::size_t> &order) {
        for (std::size_t i = order.size(); i > 1; --i) {
            std::swap(order[i - 1], order[rng.below(i)]);
        }
    });
}

/** One to three random edits: byte flips, truncations, insertions
 *  (biased towards JSON punctuation) and key permutations. */
std::string
mutate(std::string doc, Rng &rng)
{
    static const std::string kAlphabet = "{}[]\":,.-+eE019 \n\\untl";
    const unsigned edits = 1 + static_cast<unsigned>(rng.below(3));
    for (unsigned e = 0; e < edits; ++e) {
        const std::size_t at = rng.below(doc.size() + 1);
        switch (rng.below(4)) {
          case 0:
            if (at < doc.size()) {
                doc[at] = static_cast<char>(
                    rng.chance(0.5) ? doc[at] ^ (1 << rng.below(8))
                                    : rng.below(256));
            }
            break;
          case 1:
            doc.resize(at);
            break;
          case 2:
            doc.insert(at, 1,
                       rng.chance(0.8)
                           ? kAlphabet[rng.below(kAlphabet.size())]
                           : static_cast<char>(rng.below(256)));
            break;
          default:
            doc = permuteKeys(doc, rng);
            break;
        }
    }
    return doc;
}

/** Feed @p doc to every entry point and check the oracle and the
 *  round-trip properties. */
void
checkDocument(const std::string &doc)
{
    ASSERT_EQ(json::parse(doc).has_value(), validJson(doc)) << doc;

    if (const auto t = parsePowerTrace(doc)) {
        const auto back = parsePowerTrace(t->toJson());
        ASSERT_TRUE(back.has_value()) << t->toJson();
        EXPECT_EQ(back->name, t->name);
        EXPECT_EQ(back->segments, t->segments);
    }
    if (const auto s = OutageSchedule::fromJson(doc)) {
        const auto back = OutageSchedule::fromJson(s->toJson());
        ASSERT_TRUE(back.has_value()) << s->toJson();
        EXPECT_EQ(back->points, s->points);
        EXPECT_EQ(back->checkpoints, s->checkpoints);
        EXPECT_EQ(back->checkpointPeriod, s->checkpointPeriod);
        EXPECT_EQ(back->restoreJournal, s->restoreJournal);
    }
    if (const auto a = inject::parseReplayArtifact(doc)) {
        const auto back = inject::parseReplayArtifact(
            inject::replayArtifactJson(a->workload, a->schedule));
        ASSERT_TRUE(back.has_value());
        EXPECT_EQ(back->workload, a->workload);
        EXPECT_EQ(back->schedule.points, a->schedule.points);
    }
    if (const auto m = obs::MetricsSnapshot::fromJson(doc)) {
        const auto back = obs::MetricsSnapshot::fromJson(m->toJson());
        ASSERT_TRUE(back.has_value()) << m->toJson();
        EXPECT_EQ(back->toJson(), m->toJson());
    }
}

TEST(Fuzz, KeyPermutedDocumentsReadTheSame)
{
    Rng rng(2024);
    for (const std::string &doc : seedDocuments()) {
        for (int trial = 0; trial < 8; ++trial) {
            const std::string permuted = permuteKeys(doc, rng);
            ASSERT_TRUE(validJson(permuted)) << permuted;
            if (const auto t = parsePowerTrace(doc)) {
                EXPECT_EQ(parsePowerTrace(permuted)->toJson(),
                          t->toJson());
            }
            if (const auto s = OutageSchedule::fromJson(doc)) {
                EXPECT_EQ(OutageSchedule::fromJson(permuted)->toJson(),
                          s->toJson());
            }
            if (const auto a = inject::parseReplayArtifact(doc)) {
                EXPECT_EQ(inject::parseReplayArtifact(permuted)
                              ->schedule.toJson(),
                          a->schedule.toJson());
            }
            if (const auto m = obs::MetricsSnapshot::fromJson(doc)) {
                EXPECT_EQ(obs::MetricsSnapshot::fromJson(permuted)
                              ->toJson(),
                          m->toJson());
            }
        }
    }
}

TEST(Fuzz, ParseEntryPointsSurviveMutatedDocuments)
{
    const std::vector<std::string> seeds = seedDocuments();
    for (std::size_t s = 0; s < seeds.size(); ++s) {
        Rng rng(31337 + s);
        checkDocument(seeds[s]);
        for (int trial = 0; trial < 3000; ++trial) {
            checkDocument(mutate(seeds[s], rng));
            if (::testing::Test::HasFatalFailure()) {
                return;
            }
        }
    }
}

TEST(Fuzz, ParseEntryPointsSurviveHostileInput)
{
    // Deep nesting, huge and non-finite numbers, raw control bytes.
    const std::string deep(100000, '[');
    const std::vector<std::string> docs = {
        deep,
        "{\"outages\":" + deep,
        // mouse-lint: allow(schema-constants) -- malformed-input
        // fixture: an out-of-range version number is the point.
        "{\"trace_schema\":1e999}",
        "{\"checkpoint_period\":nan,\"outages\":[{\"attempt\":1e30}]}",
        std::string("{\"workload\":\"a") + '\0' + "b\",\"schedule\":{}}",
        // mouse-lint: allow(schema-constants) -- malformed-input
        // fixture: a valid version over a mistyped "lifetime".
        "{\"metrics_schema\":1,\"lifetime\":[]}",
        "\"\\ud800\\udc00\\ud800\"",
    };
    for (const std::string &doc : docs) {
        checkDocument(doc);
    }
}

} // namespace
} // namespace mouse
