#include "controller.hh"

#include "common/logging.hh"
#include "obs/stat_registry.hh"

namespace mouse
{

Controller::Controller(TileGrid &grid, InstructionMemory &imem,
                       const EnergyModel &energy)
    : grid_(grid), imem_(imem), energy_(energy),
      fetchEnergy_(energy.fetchEnergy()),
      backupEnergyPerCycle_(energy.backupEnergyPerCycle()),
      actRegisterBackupEnergy_(energy.actRegisterBackupEnergy())
{
}

void
Controller::attachStats(obs::StatRegistry *reg)
{
    if (reg == nullptr) {
        stSteps_ = stInterrupted_ = stRestarts_ =
            stRestoreCycles_ = nullptr;
        return;
    }
    stSteps_ = &reg->counter("controller.steps",
                             "completed controller steps");
    stInterrupted_ =
        &reg->counter("controller.interrupted",
                      "instruction attempts cut by an outage");
    stRestarts_ = &reg->counter("controller.restarts",
                                "restart protocol invocations");
    stRestoreCycles_ =
        &reg->counter("controller.restore_cycles",
                      "cycles spent re-issuing the ACT journal");
}

void
Controller::reset()
{
    pcReg_ = DuplexNvRegister<std::uint32_t>(0);
    actReg_ = DuplexNvRegister<ActJournal>(ActJournal{});
    halted_ = false;
}

unsigned
Controller::touchedColumns(const Instruction &inst) const
{
    return touched(inst, TileGrid::touchedUnits(grid_.config(), inst));
}

ActJournal
Controller::journalAfter(const Instruction &inst) const
{
    ActJournal j = inst.clearActivation ? ActJournal{} : actReg_.read();
    // Re-checkpointing the journal's own tail entry is a no-op: an
    // outage between the ACT-register commit and the PC commit makes
    // the ACT instruction re-execute, and appending it again on every
    // such replay would grow the journal past its depth even though
    // the latch state it encodes is unchanged.
    if (j.count > 0 && j.entries[j.count - 1] == inst) {
        return j;
    }
    if (j.count >= ActJournal::kDepth) {
        mouse_fatal("more than %zu consecutive additive Activate "
                    "Columns instructions; the NV journal register "
                    "cannot checkpoint them",
                    ActJournal::kDepth);
    }
    j.entries[j.count] = inst;
    ++j.count;
    return j;
}

void
Controller::commitPhase(const Instruction &inst, StepResult &result)
{
    const bool is_act = inst.op == Opcode::kActivateList ||
                        inst.op == Opcode::kActivateRange;
    if (is_act) {
        // Stage + commit the ACT shadow register *before* the PC
        // parity flip: if power dies between the two commits, the PC
        // still points at the ACT instruction, whose re-execution is
        // idempotent.  The reverse order could advance the PC past an
        // activation that was never checkpointed.
        actReg_.writeInvalid(journalAfter(inst));
        actReg_.commit();
        result.backupEnergy += actRegisterBackupEnergy_;
    }
    pcReg_.writeInvalid(pcReg_.read() + 1);
    pcReg_.commit();
    result.backupEnergy += backupEnergyPerCycle_;
    result.energy += result.backupEnergy;
}

StepResult
Controller::step()
{
    mouse_assert(!halted_, "stepping a halted controller");
    if (stSteps_ != nullptr) {
        stSteps_->increment();
    }
    StepResult result;
    const GridOp &op = fetch(result.energy);
    result.inst = op.inst;
    if (op.inst.op == Opcode::kHalt) {
        // HALT does not advance the PC: a restart lands back on the
        // HALT, so a completed program stays completed.
        halted_ = true;
        result.halted = true;
        return result;
    }
    const ExecOutcome out = grid_.execute(op, 1.0);
    result.energy += energy_.instructionEnergy(op.inst, out.deviceEnergy,
                                               touched(op));
    commitPhase(op.inst, result);
    return result;
}

Joules
Controller::stepInterrupted(MicroStep at, double fraction)
{
    mouse_assert(!halted_, "stepping a halted controller");
    mouse_assert(fraction >= 0.0 && fraction <= 1.0, "bad fraction");
    if (stInterrupted_ != nullptr) {
        stInterrupted_->increment();
    }

    Joules energy = 0.0;
    if (at == MicroStep::kFetch) {
        // Partway through the fetch; nothing persistent was touched.
        return fetchEnergy_ * fraction;
    }

    const GridOp &op = fetch(energy);
    const Instruction &inst = op.inst;
    if (inst.op == Opcode::kHalt) {
        return energy;
    }

    if (at == MicroStep::kExecute) {
        const ExecOutcome out = grid_.execute(op, fraction);
        // Peripheral drivers were energized for the elapsed part of
        // the cycle.
        energy += out.deviceEnergy +
                  energy_.peripheralEnergy(touched(op)) * fraction;
        return energy;
    }

    // Execution completed; the cut lands in the commit machinery.
    const ExecOutcome out = grid_.execute(op, 1.0);
    energy +=
        energy_.instructionEnergy(inst, out.deviceEnergy, touched(op));

    if (at == MicroStep::kWritePc) {
        // The invalid PC register is mid-write: model indeterminate
        // contents.  The parity bit still selects the old copy.
        pcReg_.corruptInvalid(0xDEADBEEFu);
        energy += backupEnergyPerCycle_ * fraction;
        return energy;
    }

    mouse_assert(at == MicroStep::kCommit, "unhandled micro-step");
    // Worst case of Table I / Figure 7: everything done, the invalid
    // register holds the next PC, but the parity bit never flips.
    const bool is_act = inst.op == Opcode::kActivateList ||
                        inst.op == Opcode::kActivateRange;
    if (is_act) {
        actReg_.writeInvalid(journalAfter(inst));
        actReg_.commit();
        energy += actRegisterBackupEnergy_;
    }
    pcReg_.writeInvalid(pcReg_.read() + 1);
    energy += backupEnergyPerCycle_;
    return energy;
}

void
Controller::rollbackPc(std::size_t pc)
{
    pcReg_.writeInvalid(static_cast<std::uint32_t>(pc));
    pcReg_.commit();
}

void
Controller::powerLoss()
{
    grid_.powerLoss();
    // The halted flag is controller-internal volatile state; after a
    // restart the controller re-fetches the instruction at the valid
    // PC and re-discovers the HALT if the program had finished.
    halted_ = false;
}

RestartResult
Controller::restart()
{
    RestartResult result;
    const ActJournal journal = actReg_.read();
    for (std::uint8_t i = 0; i < journal.count; ++i) {
        grid_.execute(journal.entries[i], 1.0);
    }
    result.restoreCycles = energy_.restoreCycles(journal.count);
    result.restoreEnergy = energy_.restoreEnergy(
        journal.count, grid_.activeColumns().count());
    if (stRestarts_ != nullptr) {
        stRestarts_->increment();
        *stRestoreCycles_ += result.restoreCycles;
    }
    return result;
}

} // namespace mouse
