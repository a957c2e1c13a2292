/**
 * @file
 * Tests for the memory controller's intermittent-safety protocol:
 * the duplicated PC registers, the parity-bit commit, the Activate
 * Columns journal, and full interrupt-anywhere/restart correctness
 * (paper Section V-B, Figure 7).
 */

#include <gtest/gtest.h>

#include "common/rng.hh"
#include "controller/controller.hh"

namespace mouse
{
namespace
{

TEST(NvRegister, WriteIsInvisibleUntilCommit)
{
    DuplexNvRegister<std::uint32_t> reg(5);
    reg.writeInvalid(9);
    EXPECT_EQ(reg.read(), 5u);
    reg.commit();
    EXPECT_EQ(reg.read(), 9u);
}

TEST(NvRegister, CorruptingInvalidCopyIsHarmless)
{
    DuplexNvRegister<std::uint32_t> reg(5);
    reg.corruptInvalid(0xFFFFFFFFu);
    EXPECT_EQ(reg.read(), 5u);
    // A later clean write overwrites the garbage before commit.
    reg.writeInvalid(6);
    reg.commit();
    EXPECT_EQ(reg.read(), 6u);
}

TEST(NvRegister, AlternatesCopies)
{
    DuplexNvRegister<std::uint32_t> reg(0);
    for (std::uint32_t i = 1; i <= 8; ++i) {
        const bool parity_before = reg.parity();
        reg.writeInvalid(i);
        reg.commit();
        EXPECT_EQ(reg.read(), i);
        EXPECT_NE(reg.parity(), parity_before);
    }
}

/** Fixture with a small grid and a simple program. */
class ControllerTest : public ::testing::Test
{
  protected:
    ControllerTest()
        : lib_(makeDeviceConfig(TechConfig::ProjectedStt)),
          energy_(lib_)
    {
        cfg_.tileRows = 32;
        cfg_.tileCols = 16;
        cfg_.numDataTiles = 1;
        cfg_.numInstructionTiles = 1;
    }

    /**
     * A program computing, in columns 0..1:
     *   r1 = NAND(r0, r2); r3 = NOT(r0); r5 = AND(r0, r2)
     * with presets in between.
     */
    std::vector<std::uint64_t>
    simpleProgram()
    {
        std::vector<Instruction> prog = {
            Instruction::activateRange(0, 1),
            Instruction::preset(0, 0, 1),
            Instruction::gate(GateType::kNand2, 0, 0, 2, 1),
            Instruction::preset(0, 0, 3),
            Instruction::gate(GateType::kNot, 0, 0, 3),
            Instruction::preset(1, 0, 5),
            Instruction::gate(GateType::kAnd2, 0, 0, 2, 5),
            Instruction::halt(),
        };
        std::vector<std::uint64_t> words;
        words.reserve(prog.size());
        for (const auto &inst : prog) {
            words.push_back(inst.encode());
        }
        return words;
    }

    void
    seedInputs(TileGrid &grid)
    {
        // col0: a=1, b=1; col1: a=0, b=1.
        grid.tile(0).setBit(0, 0, 1);
        grid.tile(0).setBit(2, 0, 1);
        grid.tile(0).setBit(0, 1, 0);
        grid.tile(0).setBit(2, 1, 1);
    }

    void
    checkOutputs(TileGrid &grid)
    {
        EXPECT_EQ(grid.tile(0).bit(1, 0), 0);  // NAND(1,1)
        EXPECT_EQ(grid.tile(0).bit(1, 1), 1);  // NAND(0,1)
        EXPECT_EQ(grid.tile(0).bit(3, 0), 0);  // NOT(1)
        EXPECT_EQ(grid.tile(0).bit(3, 1), 1);  // NOT(0)
        EXPECT_EQ(grid.tile(0).bit(5, 0), 1);  // AND(1,1)
        EXPECT_EQ(grid.tile(0).bit(5, 1), 0);  // AND(0,1)
    }

    GateLibrary lib_;
    EnergyModel energy_;
    ArrayConfig cfg_;
};

TEST_F(ControllerTest, RunsProgramToHalt)
{
    TileGrid grid(cfg_, lib_);
    InstructionMemory imem(cfg_, lib_);
    imem.load(simpleProgram());
    seedInputs(grid);

    Controller ctrl(grid, imem, energy_);
    int steps = 0;
    while (!ctrl.halted()) {
        const StepResult r = ctrl.step();
        if (!r.halted) {
            EXPECT_GT(r.energy, 0.0);
            EXPECT_GT(r.backupEnergy, 0.0);
            EXPECT_LT(r.backupEnergy, r.energy);
        }
        ++steps;
        ASSERT_LT(steps, 100);
    }
    EXPECT_EQ(steps, 8);
    checkOutputs(grid);
    // HALT does not advance the PC.
    EXPECT_EQ(ctrl.pc(), 7u);
}

TEST_F(ControllerTest, InterruptAtEveryMicroStepStillCorrect)
{
    // Cut the power at every instruction boundary x micro-step
    // combination, restart, and require the same final state as the
    // uninterrupted run.  This is the paper's Section V claim,
    // mechanically verified.
    for (int cut_instr = 0; cut_instr < 7; ++cut_instr) {
        for (MicroStep at :
             {MicroStep::kFetch, MicroStep::kExecute,
              MicroStep::kWritePc, MicroStep::kCommit}) {
            for (double fraction : {0.001, 0.3, 0.95}) {
                TileGrid grid(cfg_, lib_);
                InstructionMemory imem(cfg_, lib_);
                imem.load(simpleProgram());
                seedInputs(grid);
                Controller ctrl(grid, imem, energy_);

                for (int i = 0; i < cut_instr; ++i) {
                    ctrl.step();
                }
                ctrl.stepInterrupted(at, fraction);
                ctrl.powerLoss();
                ctrl.restart();
                while (!ctrl.halted()) {
                    ctrl.step();
                }
                checkOutputs(grid);
            }
        }
    }
}

TEST_F(ControllerTest, RepeatedOutagesAtRandomPoints)
{
    // Property test: any number of outages at random micro-steps
    // never changes the program's result.
    Rng rng(1234);
    for (int trial = 0; trial < 50; ++trial) {
        TileGrid grid(cfg_, lib_);
        InstructionMemory imem(cfg_, lib_);
        imem.load(simpleProgram());
        seedInputs(grid);
        Controller ctrl(grid, imem, energy_);

        int guard = 0;
        while (!ctrl.halted()) {
            ASSERT_LT(++guard, 1000);
            if (rng.chance(0.4)) {
                const MicroStep at = static_cast<MicroStep>(
                    rng.below(4));
                ctrl.stepInterrupted(at, rng.uniform());
                ctrl.powerLoss();
                ctrl.restart();
            } else {
                ctrl.step();
            }
        }
        checkOutputs(grid);
    }
}

TEST_F(ControllerTest, RestartRestoresActiveColumns)
{
    TileGrid grid(cfg_, lib_);
    InstructionMemory imem(cfg_, lib_);
    imem.load(simpleProgram());
    Controller ctrl(grid, imem, energy_);

    ctrl.step();  // ACT 0..1
    EXPECT_EQ(grid.activeColumns().count(), 2u);
    ctrl.powerLoss();
    EXPECT_EQ(grid.activeColumns().count(), 0u);
    const RestartResult r = ctrl.restart();
    EXPECT_EQ(grid.activeColumns().count(), 2u);
    EXPECT_EQ(r.restoreCycles, 1u);
    EXPECT_GT(r.restoreEnergy, 0.0);
}

TEST_F(ControllerTest, AdditiveActivationJournalReplays)
{
    std::vector<Instruction> prog = {
        Instruction::activateRange(0, 1, true),
        Instruction::activateRange(4, 5, false),
        Instruction::activateList({9, 0, 0, 0, 0}, 1, false),
        Instruction::halt(),
    };
    std::vector<std::uint64_t> words;
    for (const auto &inst : prog) {
        words.push_back(inst.encode());
    }
    TileGrid grid(cfg_, lib_);
    InstructionMemory imem(cfg_, lib_);
    imem.load(words);
    Controller ctrl(grid, imem, energy_);

    ctrl.step();
    ctrl.step();
    ctrl.step();
    EXPECT_EQ(grid.activeColumns().count(), 5u);

    ctrl.powerLoss();
    const RestartResult r = ctrl.restart();
    EXPECT_EQ(r.restoreCycles, 3u);  // three journal entries
    EXPECT_EQ(grid.activeColumns().count(), 5u);
    EXPECT_TRUE(grid.activeColumns().test(9));
    EXPECT_TRUE(grid.activeColumns().test(4));
    EXPECT_TRUE(grid.activeColumns().test(0));
}

TEST_F(ControllerTest, CommitBeforePcKeepsActJournalConsistent)
{
    // Interrupt exactly between the ACT-register commit and the PC
    // commit (MicroStep::kCommit ends before the PC parity flip):
    // the journal may already hold the new activation while the PC
    // still points at the ACT instruction.  Re-execution must
    // converge.
    TileGrid grid(cfg_, lib_);
    InstructionMemory imem(cfg_, lib_);
    imem.load(simpleProgram());
    seedInputs(grid);
    Controller ctrl(grid, imem, energy_);

    ctrl.stepInterrupted(MicroStep::kCommit, 1.0);  // during ACT
    ctrl.powerLoss();
    ctrl.restart();
    EXPECT_EQ(ctrl.pc(), 0u);  // PC did not commit
    while (!ctrl.halted()) {
        ctrl.step();
    }
    checkOutputs(grid);
}

TEST_F(ControllerTest, InterruptAtBoundaryFractionsStillCorrect)
{
    // The fault-injection engine (src/inject) enumerates the exact
    // phase boundaries 0.0 and 1.0, not just interior fractions:
    // 0.0 cuts before the phase does any work, 1.0 after all of it
    // but before the next phase.  Neither may ever commit the PC —
    // the parity flip is the single commit point — so after restart
    // the PC must still address the cut instruction, and the rerun
    // must converge to the uninterrupted result.
    for (int cut_instr = 0; cut_instr < 7; ++cut_instr) {
        for (MicroStep at :
             {MicroStep::kFetch, MicroStep::kExecute,
              MicroStep::kWritePc, MicroStep::kCommit}) {
            for (double fraction : {0.0, 1.0}) {
                TileGrid grid(cfg_, lib_);
                InstructionMemory imem(cfg_, lib_);
                imem.load(simpleProgram());
                seedInputs(grid);
                Controller ctrl(grid, imem, energy_);

                for (int i = 0; i < cut_instr; ++i) {
                    ctrl.step();
                }
                ctrl.stepInterrupted(at, fraction);
                ctrl.powerLoss();
                ctrl.restart();
                EXPECT_EQ(ctrl.pc(),
                          static_cast<std::size_t>(cut_instr))
                    << "cut at instr " << cut_instr << " step "
                    << static_cast<int>(at) << " fraction "
                    << fraction;
                while (!ctrl.halted()) {
                    ctrl.step();
                }
                checkOutputs(grid);
            }
        }
    }
}

TEST_F(ControllerTest, ActJournalDepthBoundedUnderRepeatedCommitCuts)
{
    // Cut at kCommit on an *additive* ACT instruction, over and over:
    // each cut commits the ACT register (journal appended) but not
    // the PC, so the same instruction re-executes after restart.
    // Without dedup the journal would overflow its depth-4 register
    // after a few outages even though only four distinct activation
    // instructions ever ran.
    std::vector<Instruction> prog = {
        Instruction::activateRange(0, 1, true),
        Instruction::activateRange(4, 5, false),
        Instruction::activateList({9, 0, 0, 0, 0}, 1, false),
        Instruction::activateList({11, 0, 0, 0, 0}, 1, false),
        Instruction::halt(),
    };
    std::vector<std::uint64_t> words;
    for (const auto &inst : prog) {
        words.push_back(inst.encode());
    }
    TileGrid grid(cfg_, lib_);
    InstructionMemory imem(cfg_, lib_);
    imem.load(words);
    Controller ctrl(grid, imem, energy_);

    ctrl.step();  // clear ACT 0..1
    ctrl.step();  // +ACT 4..5
    ctrl.step();  // +ACT 9

    for (int outage = 0; outage < 10; ++outage) {
        ctrl.stepInterrupted(MicroStep::kCommit, 1.0);  // +ACT 11
        ctrl.powerLoss();
        const RestartResult r = ctrl.restart();
        EXPECT_LE(r.restoreCycles, ActJournal::kDepth);
        EXPECT_EQ(ctrl.pc(), 3u);  // PC never committed
    }

    while (!ctrl.halted()) {
        ctrl.step();
    }
    EXPECT_EQ(grid.activeColumns().count(), 6u);
    for (std::size_t col : {0u, 1u, 4u, 5u, 9u, 11u}) {
        EXPECT_TRUE(grid.activeColumns().test(col)) << col;
    }
    // The committed journal replays in bounded depth too.
    ctrl.powerLoss();
    const RestartResult r = ctrl.restart();
    EXPECT_LE(r.restoreCycles, ActJournal::kDepth);
    EXPECT_EQ(grid.activeColumns().count(), 6u);
}

TEST_F(ControllerTest, RollbackPcReexecutesWindowAndConverges)
{
    // rollbackPc models a SONIC-style window checkpoint: force the NV
    // PC back to a window boundary and re-execute the suffix.  The
    // window [1, 4) of simpleProgram() is hazard-free (each preset
    // writes a row only later instructions read), so ordered replay
    // must converge to the uninterrupted result with extra commits.
    TileGrid grid(cfg_, lib_);
    InstructionMemory imem(cfg_, lib_);
    imem.load(simpleProgram());
    seedInputs(grid);
    Controller ctrl(grid, imem, energy_);

    for (int i = 0; i < 4; ++i) {
        ctrl.step();
    }
    ctrl.rollbackPc(1);
    EXPECT_EQ(ctrl.pc(), 1u);
    EXPECT_FALSE(ctrl.halted());

    int steps = 0;
    while (!ctrl.halted()) {
        ctrl.step();
        ASSERT_LT(++steps, 100);
    }
    EXPECT_EQ(steps, 7);  // instructions 1..6 again, plus HALT
    checkOutputs(grid);
}

TEST_F(ControllerTest, EnergyIncludesFetchAndBackup)
{
    TileGrid grid(cfg_, lib_);
    InstructionMemory imem(cfg_, lib_);
    imem.load(simpleProgram());
    Controller ctrl(grid, imem, energy_);

    const StepResult r = ctrl.step();  // the ACT instruction
    EXPECT_GE(r.energy,
              energy_.fetchEnergy() + energy_.backupEnergyPerCycle());
    // ACT instructions additionally checkpoint the shadow register.
    EXPECT_GE(r.backupEnergy, energy_.backupEnergyPerCycle() +
                                  energy_.actRegisterBackupEnergy());
}

TEST_F(ControllerTest, HaltedStaysHaltedAcrossRestart)
{
    TileGrid grid(cfg_, lib_);
    InstructionMemory imem(cfg_, lib_);
    imem.load(simpleProgram());
    seedInputs(grid);
    Controller ctrl(grid, imem, energy_);
    while (!ctrl.halted()) {
        ctrl.step();
    }
    const std::size_t halt_pc = ctrl.pc();
    ctrl.powerLoss();
    ctrl.restart();
    // The PC still points at HALT; restarting cannot resurrect the
    // program.  (halted_ itself is volatile; re-fetch finds HALT.)
    EXPECT_EQ(ctrl.pc(), halt_pc);
}

} // namespace
} // namespace mouse
