/**
 * @file
 * Tests for the interconnect-parasitics extension (the paper's [95]
 * companion study): wire resistance along the logic line penalizes
 * far-apart operands, shrinking gate windows and eventually killing
 * feasibility — and the solver/array honor the span contract.
 */

#include <cmath>

#include <gtest/gtest.h>

#include "arch/tile.hh"
#include "common/rng.hh"
#include "device/network.hh"
#include "compile/builder.hh"
#include "logic/gate_library.hh"
#include "sim/simulator.hh"

namespace mouse
{
namespace
{

TEST(Parasitics, ZeroWireResistanceIsIdentical)
{
    const DeviceConfig ideal = makeDeviceConfig(TechConfig::ModernStt);
    const DeviceConfig parasitic = withParasitics(ideal, 0.0);
    const SolvedGate a = solveGate(ideal, GateType::kNand2);
    const SolvedGate b = solveGate(parasitic, GateType::kNand2,
                                   kDefaultGateMargin, 1023);
    EXPECT_DOUBLE_EQ(a.voltage, b.voltage);
    EXPECT_DOUBLE_EQ(a.vMin, b.vMin);
}

TEST(Parasitics, LogicLineResistanceScalesWithSpan)
{
    const DeviceConfig cfg =
        withParasitics(makeDeviceConfig(TechConfig::ModernStt), 2.0);
    EXPECT_DOUBLE_EQ(logicLineResistance(cfg, 0), 0.0);
    EXPECT_DOUBLE_EQ(logicLineResistance(cfg, 100), 200.0);
    const Ohms near = gateLoopResistance(
        cfg, {MtjState::P, MtjState::P}, MtjState::P, 2);
    const Ohms far = gateLoopResistance(
        cfg, {MtjState::P, MtjState::P}, MtjState::P, 1000);
    EXPECT_NEAR(far - near, 2.0 * 998, 1e-9);
}

TEST(Parasitics, WindowShrinksWithSpan)
{
    const DeviceConfig cfg =
        withParasitics(makeDeviceConfig(TechConfig::ModernStt), 2.0);
    const SolvedGate near = solveGate(cfg, GateType::kNand2,
                                      kDefaultGateMargin, 0);
    const SolvedGate far = solveGate(cfg, GateType::kNand2,
                                     kDefaultGateMargin, 1023);
    ASSERT_TRUE(near.feasible);
    // The switch edge rises with wire in the loop; the hold edge
    // stays (worst hold case is span 0), so the window narrows.
    EXPECT_GT(far.vMin, near.vMin);
    EXPECT_DOUBLE_EQ(far.vMax, near.vMax);
    EXPECT_LT(far.vMax - far.vMin, near.vMax - near.vMin);
}

TEST(Parasitics, EnoughWireKillsFeasibility)
{
    // At some per-cell resistance even NAND2 across a full tile
    // cannot work — the compiler must then place operands close.
    const DeviceConfig cfg = withParasitics(
        makeDeviceConfig(TechConfig::ModernStt), 50.0);
    const SolvedGate near = solveGate(cfg, GateType::kNand2,
                                      kDefaultGateMargin, 8);
    const SolvedGate far = solveGate(cfg, GateType::kNand2,
                                     kDefaultGateMargin, 1023);
    EXPECT_TRUE(near.feasible);
    EXPECT_FALSE(far.feasible);
}

TEST(Parasitics, ArrayExecutionStaysTruthfulWithWires)
{
    // With a realistic 2 Ohm/cell line, gates still compute correct
    // truth tables at any span up to the solved contract.
    const DeviceConfig cfg = withParasitics(
        makeDeviceConfig(TechConfig::ProjectedStt), 2.0);
    const GateLibrary lib(cfg);
    Tile tile(1024, 2);
    ColumnSet cols(2);
    cols.add(0);
    // Far-apart operands: rows 0, 2 -> output row 1001.
    for (unsigned combo = 0; combo < 4; ++combo) {
        tile.setBit(0, 0, combo & 1);
        tile.setBit(2, 0, (combo >> 1) & 1);
        tile.presetRow(lib, 1001, gatePreset(GateType::kNand2), cols);
        tile.executeGate(lib, GateType::kNand2, {0, 2, 0}, 1001,
                         cols);
        EXPECT_EQ(tile.bit(1001, 0),
                  gateTruth(GateType::kNand2, combo))
            << "combo " << combo;
    }
}

TEST(Parasitics, SheToleratesMoreWireThanStt)
{
    // The SHE output path already removed the biggest series
    // resistance, so its windows absorb more wire.
    auto max_span = [](TechConfig tech, Ohms per_cell) {
        const DeviceConfig cfg =
            withParasitics(makeDeviceConfig(tech), per_cell);
        unsigned lo = 0;
        unsigned hi = 4096;
        while (lo < hi) {
            const unsigned mid = lo + (hi - lo + 1) / 2;
            if (solveGate(cfg, GateType::kNand2, kDefaultGateMargin,
                          mid)
                    .feasible) {
                lo = mid;
            } else {
                hi = mid - 1;
            }
        }
        return lo;
    };
    const unsigned stt = max_span(TechConfig::ProjectedStt, 20.0);
    const unsigned she = max_span(TechConfig::ProjectedShe, 20.0);
    EXPECT_GT(she, stt);
}

namespace
{

/** Largest operand row span over a program's gate instructions. */
unsigned
maxGateSpan(const Program &prog)
{
    unsigned worst = 0;
    for (const Instruction &inst : prog.instructions) {
        if (!isGateOpcode(inst.op)) {
            continue;
        }
        const int n = gateNumInputs(gateFromOpcode(inst.op));
        RowAddr lo = inst.outRow;
        RowAddr hi = inst.outRow;
        for (int i = 0; i < n; ++i) {
            lo = std::min(lo, inst.rows[static_cast<std::size_t>(i)]);
            hi = std::max(hi, inst.rows[static_cast<std::size_t>(i)]);
        }
        worst = std::max(worst, static_cast<unsigned>(hi - lo));
    }
    return worst;
}

Program
multiplyAtHighRows(const GateLibrary &lib, bool locality)
{
    ArrayConfig cfg;
    cfg.tileRows = 1024;
    cfg.tileCols = 4;
    cfg.numDataTiles = 1;
    KernelBuilder kb(lib, cfg, 0, 0);
    kb.setPlacementLocality(locality);
    kb.activate(0, 3);
    // Operands pinned high in the tile; a naive allocator pulls
    // scratch from the bottom, stretching every gate's span.
    const Word a = kb.pinnedWord(900, 4);
    const Word b = kb.pinnedWord(950, 4);
    Word p = kb.mulUnsigned(a, b);
    (void)p;
    return kb.finish();
}

} // namespace

TEST(Parasitics, PlacementLocalityShrinksSpans)
{
    const GateLibrary lib(makeDeviceConfig(TechConfig::ProjectedStt));
    const Program naive = multiplyAtHighRows(lib, false);
    const Program local = multiplyAtHighRows(lib, true);
    const unsigned span_naive = maxGateSpan(naive);
    const unsigned span_local = maxGateSpan(local);
    // Naive allocation spans most of the tile; locality keeps gates
    // within the operand neighbourhood.
    EXPECT_GT(span_naive, 500u);
    EXPECT_LT(span_local, 150u);
    // Same gate count either way — locality is free.
    EXPECT_EQ(naive.countOpcode(Opcode::kGateNand2),
              local.countOpcode(Opcode::kGateNand2));
}

TEST(Parasitics, LocalityDefaultsOnWithWires)
{
    ArrayConfig cfg;
    cfg.tileRows = 64;
    cfg.tileCols = 4;
    cfg.numDataTiles = 1;
    const GateLibrary ideal(makeDeviceConfig(TechConfig::ProjectedStt));
    const GateLibrary wired(withParasitics(
        makeDeviceConfig(TechConfig::ProjectedStt), 2.0));
    KernelBuilder kb_ideal(ideal, cfg, 0, 0);
    KernelBuilder kb_wired(wired, cfg, 0, 0);
    EXPECT_FALSE(kb_ideal.placementLocality());
    EXPECT_TRUE(kb_wired.placementLocality());
}

namespace
{

/** Outcome of one run of a compiled program. */
struct ProgramRun
{
    RunStats stats;
    std::vector<Bit> state;
};

/** Run @p prog on a fresh grid over @p lib with random operands in
 *  rows 0..15, continuous or harvested, on the word path or the
 *  scalar oracle. */
ProgramRun
runProgram(const GateLibrary &lib, const ArrayConfig &cfg,
           const Program &prog, bool harvested, bool scalar)
{
    TileGrid grid(cfg, lib);
    Rng rng(5);
    for (RowAddr r = 0; r < 16; ++r) {
        for (ColAddr c = 0; c < cfg.tileCols; ++c) {
            grid.tile(0).setBit(r, c, static_cast<Bit>(rng.below(2)));
        }
    }
    InstructionMemory imem(cfg, lib);
    imem.load(prog.encode());
    const EnergyModel energy(lib);
    Controller ctrl(grid, imem, energy);
    Tile::setScalarOracle(scalar);
    ProgramRun run;
    if (harvested) {
        HarvestConfig harvest;
        harvest.source = SourceSpec::constant(10e-6);
        harvest.capacitanceOverride = 2e-10; // outages mid-program
        harvest.seed = 3;
        run.stats = runHarvestedFunctional(ctrl, harvest);
    } else {
        run.stats = runContinuousFunctional(ctrl);
    }
    Tile::setScalarOracle(false);
    run.state = grid.tile(0).snapshot();
    return run;
}

void
expectNear(double a, double b)
{
    EXPECT_NEAR(a, b,
                1e-9 * std::max({std::fabs(a), std::fabs(b), 1e-30}));
}

} // namespace

TEST(Parasitics, CompiledProgramMatchesScalarOracle)
{
    // 2 Ohm/cell keeps NAND2 feasible across the tile, and the
    // program image resolves one span table per (gate, span).  A
    // multiply-and-sum must leave the tile bit for bit as the
    // per-column scalar model does, continuous and harvested, with
    // the same counters; energies agree to the word path's fold
    // order.
    const GateLibrary lib(withParasitics(
        makeDeviceConfig(TechConfig::ProjectedStt), 2.0));
    ArrayConfig cfg;
    cfg.tileRows = 256;
    cfg.tileCols = 64;
    cfg.numDataTiles = 1;
    cfg.numInstructionTiles = 8;
    KernelBuilder kb(lib, cfg, 0, 16);
    kb.activate(0, 63);
    const Word p =
        kb.mulUnsigned(kb.pinnedWord(0, 4), kb.pinnedWord(8, 4));
    kb.crossColumnSum(p, 4);
    const Program prog = kb.finish();
    ASSERT_GT(maxGateSpan(prog), 4u);
    for (const bool harvested : {false, true}) {
        const ProgramRun word =
            runProgram(lib, cfg, prog, harvested, false);
        const ProgramRun scalar =
            runProgram(lib, cfg, prog, harvested, true);
        EXPECT_EQ(word.state, scalar.state) << "harvested " << harvested;
        const RunStats &a = word.stats;
        const RunStats &b = scalar.stats;
        EXPECT_EQ(a.instructionsCommitted, prog.size() - 1);
        EXPECT_EQ(a.instructionsCommitted, b.instructionsCommitted);
        EXPECT_EQ(a.instructionsDead, b.instructionsDead);
        EXPECT_EQ(a.outages, b.outages);
        EXPECT_EQ(harvested, a.outages > 0);
        expectNear(a.computeEnergy, b.computeEnergy);
        expectNear(a.deadEnergy, b.deadEnergy);
        EXPECT_EQ(a.backupEnergy, b.backupEnergy);
        EXPECT_EQ(a.restoreEnergy, b.restoreEnergy);
        EXPECT_EQ(a.activeTime, b.activeTime);
    }
}

TEST(Parasitics, WrongParityGatePanicsAtLoad)
{
    // Operand checks run once, when the image is decoded and
    // resolved, with the message execution used to give: a program
    // whose gate has an input on the output's bitline never starts.
    const GateLibrary lib(withParasitics(
        makeDeviceConfig(TechConfig::ProjectedStt), 2.0));
    ArrayConfig cfg;
    cfg.tileRows = 64;
    cfg.tileCols = 4;
    cfg.numDataTiles = 1;
    const std::vector<std::uint64_t> words = {
        Instruction::activateRange(0, 3).encode(),
        Instruction::gate(GateType::kNand2, 0, 0, 3, 5).encode(),
        Instruction::halt().encode(),
    };
    InstructionMemory imem(cfg, lib);
    EXPECT_DEATH(imem.load(words),
                 "logic inputs must have opposite parity to output");
}

TEST(Parasitics, UnusableWireConfigurationPanics)
{
    // At 50 Ohm/cell the full-tile NAND2 contract collapses; the
    // library refuses to build rather than hand out a gate set the
    // compiler cannot rely on.
    const DeviceConfig cfg = withParasitics(
        makeDeviceConfig(TechConfig::ModernStt), 50.0);
    EXPECT_DEATH({ GateLibrary lib(cfg); }, "unusable");
}

} // namespace
} // namespace mouse
