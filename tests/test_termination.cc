/**
 * @file
 * Tests for the static forward-progress analyzer and the
 * time-varying power-source path of the harvesting simulator.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "compile/builder.hh"
#include "exp/workloads.hh"
#include "ml/mapping.hh"
#include "obs/telemetry.hh"
#include "sim/termination.hh"

namespace mouse
{
namespace
{

Trace
smallTrace(const GateLibrary &lib)
{
    ArrayConfig cfg;
    cfg.tileRows = 128;
    cfg.tileCols = 64;
    cfg.numDataTiles = 1;
    KernelBuilder kb(lib, cfg, 0, 16);
    kb.activate(0, 63);
    Word s = kb.add(kb.pinnedWord(0, 4), kb.pinnedWord(8, 4));
    (void)s;
    return Trace::fromProgram(kb.finish(), cfg);
}

TEST(Termination, PaperConfigurationsTerminate)
{
    // Every paper benchmark on every technology must pass the static
    // check with the paper's buffer sizes — otherwise the Figure 9
    // runs could not have completed.
    for (TechConfig tech :
         {TechConfig::ModernStt, TechConfig::ProjectedStt,
          TechConfig::ProjectedShe}) {
        const GateLibrary lib(makeDeviceConfig(tech));
        const EnergyModel energy(lib);
        const Trace trace = smallTrace(lib);
        HarvestConfig harvest;
        const TerminationReport report =
            analyzeTermination(trace, energy, harvest);
        EXPECT_TRUE(report.terminates);
        EXPECT_GT(report.margin, 10.0);
        EXPECT_LT(report.minCapacitance,
                  lib.config().bufferCapacitance);
    }
}

TEST(Termination, TinyBufferFailsTheCheck)
{
    const GateLibrary lib(makeDeviceConfig(TechConfig::ModernStt));
    const EnergyModel energy(lib);
    Trace trace;
    trace.append(Opcode::kGateNand2, 200000, 200000, 5);
    HarvestConfig harvest;
    harvest.capacitanceOverride = 1e-9;
    const TerminationReport report =
        analyzeTermination(trace, energy, harvest);
    EXPECT_FALSE(report.terminates);
    EXPECT_LT(report.margin, 1.0);
    EXPECT_GT(report.minCapacitance, 1e-9);
}

TEST(Termination, ReportIdentifiesBindingBlock)
{
    const GateLibrary lib(makeDeviceConfig(TechConfig::ModernStt));
    const EnergyModel energy(lib);
    Trace trace;
    trace.append(Opcode::kGateNand2, 4, 4, 100);
    trace.append(Opcode::kGateNand2, 4096, 4096, 1);  // the hog
    trace.append(Opcode::kPreset0, 4, 4, 100);
    const TerminationReport report = analyzeTermination(
        trace, energy, HarvestConfig{});
    EXPECT_EQ(report.bindingBlock, 1u);
    EXPECT_GT(report.worstInstructionEnergy, 0.0);
}

TEST(Termination, PricesEveryPaperBlockLikeTheSimulator)
{
    // The analyzer and the trace runners price one instruction with
    // the same expression: for every block of every paper trace, the
    // analyzed instruction cost equals, bit for bit, what a
    // continuous run of that one instruction charges.
    std::size_t blocks = 0;
    for (TechConfig tech :
         {TechConfig::ModernStt, TechConfig::ProjectedStt,
          TechConfig::ProjectedShe}) {
        const GateLibrary lib(makeDeviceConfig(tech));
        const EnergyModel energy(lib);
        for (const exp::Benchmark &bench : exp::paperBenchmarks()) {
            for (const TraceBlock &blk :
                 exp::traceFor(lib, bench).blocks) {
                Trace one;
                one.append(blk.op, blk.touchedCols,
                           blk.activeColsAfter, 1);
                const TerminationReport report =
                    analyzeTermination(one, energy, HarvestConfig{});
                const RunStats run = runContinuousTrace(one, energy);
                ASSERT_EQ(report.worstInstructionEnergy,
                          run.computeEnergy + run.backupEnergy)
                    << bench.name << " op "
                    << static_cast<int>(blk.op);
                ++blocks;
            }
        }
    }
    EXPECT_GT(blocks, 0u);
}

TEST(Termination, MinCapacitanceIsTight)
{
    // Re-running the analysis with exactly minCapacitance should sit
    // at the feasibility edge (margin ~ 1).
    const GateLibrary lib(makeDeviceConfig(TechConfig::ProjectedStt));
    const EnergyModel energy(lib);
    const Trace trace = smallTrace(lib);
    HarvestConfig harvest;
    const TerminationReport first =
        analyzeTermination(trace, energy, harvest);
    harvest.capacitanceOverride = first.minCapacitance * 1.01;
    const TerminationReport tight =
        analyzeTermination(trace, energy, harvest);
    EXPECT_TRUE(tight.terminates);
    EXPECT_NEAR(tight.margin, 1.01, 0.02);
}

TEST(Termination, MaxSafeParallelismOrdering)
{
    // More efficient technologies can afford wider instructions
    // within their (smaller!) buffers.
    HarvestConfig harvest;
    const GateLibrary modern(makeDeviceConfig(TechConfig::ModernStt));
    const GateLibrary she(makeDeviceConfig(TechConfig::ProjectedShe));
    const EnergyModel e_modern(modern);
    const EnergyModel e_she(she);
    const unsigned p_modern = maxSafeParallelism(e_modern, harvest);
    const unsigned p_she = maxSafeParallelism(e_she, harvest);
    EXPECT_GT(p_modern, 1024u);  // the paper's buffers are ample
    EXPECT_GT(p_she, 1024u);
    // Analyzer consistency: a trace at the reported limit passes,
    // one just above fails.
    Trace at_limit;
    at_limit.append(Opcode::kGateNand2, p_modern, p_modern, 1);
    EXPECT_TRUE(
        analyzeTermination(at_limit, e_modern, harvest).terminates);
    Trace over;
    over.append(Opcode::kGateNand2, p_modern * 2, p_modern * 2, 1);
    EXPECT_FALSE(
        analyzeTermination(over, e_modern, harvest).terminates);
}

TEST(TimeVaryingSource, SolarTraceChargesThroughNight)
{
    // A day/night source: strong for 1 ms, off-ish for 3 ms.  The
    // run must complete, with charging time dominated by the weak
    // segments.
    const GateLibrary lib(makeDeviceConfig(TechConfig::ProjectedStt));
    const EnergyModel energy(lib);
    const Trace trace = smallTrace(lib);

    HarvestConfig harvest;
    harvest.source =
        SourceSpec::trace({{1e-3, 200e-6}, {3e-3, 2e-6}});
    harvest.capacitanceOverride = 400e-12;  // force many outages
    const RunStats stats = runHarvestedTrace(trace, energy, harvest);
    EXPECT_EQ(stats.instructionsCommitted,
              trace.totalInstructions());
    EXPECT_GT(stats.chargingTime, 0.0);

    // A constant source at the trace's average power should be
    // faster than the bursty trace is at its *minimum* power and
    // slower than at its maximum.
    HarvestConfig max_cfg;
    max_cfg.source = SourceSpec::constant(200e-6);
    max_cfg.capacitanceOverride = 400e-12;
    HarvestConfig min_cfg;
    min_cfg.source = SourceSpec::constant(2e-6);
    min_cfg.capacitanceOverride = 400e-12;
    const RunStats at_max =
        runHarvestedTrace(trace, energy, max_cfg);
    const RunStats at_min =
        runHarvestedTrace(trace, energy, min_cfg);
    EXPECT_GE(stats.totalTime(), at_max.totalTime());
    EXPECT_LE(stats.totalTime(), at_min.totalTime());
}

TEST(TimeVaryingSource, SquareWaveformSamplesOutagesAndNeverFalls)
{
    // A weak square source: most recharges wait out a 7 ms drought.
    // The waveform must show each recharge from inside the outage —
    // closed-form samples, including one at each segment boundary
    // the recharge crosses — and the voltage must never fall while
    // the buffer charges.
    const GateLibrary lib(makeDeviceConfig(TechConfig::ProjectedStt));
    const EnergyModel energy(lib);
    Trace trace;
    trace.append(Opcode::kGateNand2, 64, 64, 2000000);
    HarvestConfig harvest;
    harvest.source = SourceSpec::square(0.01, 0.3, 1e-6);
    harvest.capacitanceOverride = 1e-6;
    obs::TraceConfig cfg;
    cfg.events = true;
    cfg.waveform = true;
    cfg.waveformPeriod = 1e-4;
    obs::Telemetry telem = obs::Telemetry::make(cfg);
    const RunStats stats =
        runHarvestedTrace(trace, energy, harvest, &telem);
    ASSERT_GT(stats.outages, 2u);

    const auto &wave = telem.sink->waveform();
    std::size_t outages = 0;
    std::size_t atBoundary = 0;
    for (const obs::TraceEvent &e : telem.sink->events()) {
        if (e.name != "outage") {
            continue;
        }
        ++outages;
        const double from = e.tsUs * 1e-6;
        const double to = (e.tsUs + e.durUs) * 1e-6;
        std::size_t inside = 0;
        double last = 0.0;
        for (const obs::WaveformSample &w : wave) {
            // Strictly inside: the end-of-recharge sample alone
            // does not count.
            if (w.timeS <= from + 1e-9 || w.timeS >= to - 1e-9) {
                continue;
            }
            ++inside;
            EXPECT_GE(w.capVoltage, last) << "t=" << w.timeS;
            last = w.capVoltage;
            // Off a boundary, the sample carries that phase's power.
            const double phase = std::fmod(w.timeS, 0.01);
            if (std::min(std::fabs(phase - 0.003),
                         std::min(phase, 0.01 - phase)) < 1e-9) {
                ++atBoundary;
            } else {
                EXPECT_EQ(w.harvestPower, phase < 0.003 ? 1e-6 : 0.0)
                    << "t=" << w.timeS;
            }
        }
        EXPECT_GT(inside, 0u) << "outage at " << from;
    }
    EXPECT_EQ(outages, stats.outages);
    EXPECT_GT(atBoundary, 0u);
}

TEST(TimeVaryingSource, StrongSourceSustainsExecution)
{
    // With the in-execution charging credit, a source stronger than
    // the draw never causes an outage after the initial charge.
    const GateLibrary lib(makeDeviceConfig(TechConfig::ProjectedStt));
    const EnergyModel energy(lib);
    const Trace trace = smallTrace(lib);
    HarvestConfig harvest;
    harvest.source = SourceSpec::constant(50e-3);  // 50 mW >> draw
    const RunStats stats = runHarvestedTrace(trace, energy, harvest);
    EXPECT_EQ(stats.outages, 0u);
}

} // namespace
} // namespace mouse
