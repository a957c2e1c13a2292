/**
 * @file
 * Each correctness check of the benchmark accepts the right output
 * and rejects a deliberately wrong one.
 */

#include <gtest/gtest.h>

#include "checks.hh"
#include "exp/names.hh"
#include "exp/workloads.hh"
#include "serve/demo.hh"
#include "workloads.hh"

namespace perfbench
{
namespace
{

using namespace mouse;

exp::SweepResult
tinyPass(unsigned threads)
{
    exp::SweepGrid g;
    g.benchmarks = {exp::paperBenchmarks()[*names::benchmarkIndex("adult")]};
    g.powers = {exp::kContinuousPower, 1e-3};
    return exp::ExperimentRunner(threads).run(g);
}

TEST(Checks, AllPointsOkRejectsAFailedPoint)
{
    exp::SweepResult r = tinyPass(1);
    std::string why;
    EXPECT_TRUE(allPointsOk(r, &why));
    r.points[1].error = RunError::kHarvestSourceInvalid;
    EXPECT_FALSE(allPointsOk(r, &why));
    EXPECT_NE(why.find("point"), std::string::npos);
}

TEST(Checks, SamePassIgnoresOnlyHostFields)
{
    const exp::SweepResult a = tinyPass(1);
    exp::SweepResult b = tinyPass(2);
    b.wallSeconds = a.wallSeconds + 1.0;
    b.points[0].wallSeconds = 123.0;
    std::string why;
    EXPECT_TRUE(samePass(a, b, &why)) << why;

    b.points[1].stats.activeTime *= 1.0 + 1e-12;
    EXPECT_FALSE(samePass(a, b, &why));
    EXPECT_NE(why.find("differ"), std::string::npos);
}

TEST(Checks, WithoutHostFieldsStripsEveryOccurrence)
{
    EXPECT_EQ(withoutHostFields(
                  R"({"schema":6,"threads":4,"wall_seconds":1.5e-3,)"
                  R"("points":[{"a":1,"wall_seconds":2}]})"),
              R"({"schema":6,"points":[{"a":1}]})");
}

TEST(Checks, BnnArgmaxCheckRejectsAFlippedPrediction)
{
    const serve::BnnServeModel m = serve::demoBnn(1);
    Rng rng(3);
    std::vector<int> expected;
    for (int i = 0; i < 16; ++i) {
        serve::Input in(m.layer.inputs);
        for (auto &b : in) {
            b = static_cast<std::uint8_t>(rng.below(2));
        }
        expected.push_back(bnnArgmax(m, in));
    }
    // The class whose weights equal the input wins outright.
    const serve::Input own(m.layer.weights[2].begin(),
                           m.layer.weights[2].end());
    EXPECT_EQ(bnnArgmax(m, own), 2);

    std::vector<int> served = expected;
    std::string why;
    EXPECT_TRUE(samePredictions(served, expected, "BNN", &why));
    served[5] = (served[5] + 1) % static_cast<int>(m.layer.outputs);
    EXPECT_FALSE(samePredictions(served, expected, "BNN", &why));
    EXPECT_NE(why.find("request 5"), std::string::npos);
    served.pop_back();
    EXPECT_FALSE(samePredictions(served, expected, "BNN", &why));
}

TEST(Checks, SameStatsRejectsAChangedDocument)
{
    std::string why;
    EXPECT_TRUE(sameStats("{\"a\":1}", "{\"a\":1}", &why));
    EXPECT_FALSE(sameStats("{\"a\":1}", "{\"a\":2}", &why));
}

TEST(Checks, PaperGapIsSymmetricGeometricMean)
{
    EXPECT_DOUBLE_EQ(paperGap({2.0, 1.0}, {1.0, 2.0}), 2.0);
    EXPECT_DOUBLE_EQ(paperGap({1.0, 4.0}, {1.0, 1.0}), 2.0);
    EXPECT_DOUBLE_EQ(paperGap({3.0}, {3.0}), 1.0);
}

TEST(Checks, Table4GapsMatchTheRecordedReading)
{
    const Table4 t = simulateTable4();
    ASSERT_EQ(t.latencyUs.size(), paperTable4().size());
    Outcome out;
    addPaperGaps(t, out);
    ASSERT_EQ(out.metrics.size(), 2u);
    EXPECT_NEAR(out.metrics[0].value, 1.647, 1e-3);
    EXPECT_NEAR(out.metrics[1].value, 1.445, 1e-3);
}

} // namespace
} // namespace perfbench
