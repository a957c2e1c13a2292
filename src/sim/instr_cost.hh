/**
 * @file
 * The per-instruction energy of a trace block, shared by the trace
 * runners and the static termination analysis so both price an
 * instruction bit for bit alike.
 */

#ifndef MOUSE_SIM_INSTR_COST_HH
#define MOUSE_SIM_INSTR_COST_HH

#include "compile/program.hh"
#include "energy/energy_model.hh"

namespace mouse
{

/** Per-instruction cost split used by the runners. */
struct InstrCost
{
    Joules exec = 0.0;    ///< fetch + array + peripherals
    Joules backup = 0.0;  ///< NV checkpoint writes

    Joules
    total() const
    {
        return exec + backup;
    }
};

/** The cost of one instruction of @p blk. */
inline InstrCost
traceInstrCost(const EnergyModel &energy, const TraceBlock &blk)
{
    InstrCost cost;
    cost.exec = energy.fetchEnergy() +
                energy.estimateInstructionEnergy(blk.op,
                                                 blk.touchedCols);
    cost.backup = energy.backupEnergyPerCycle();
    if (blk.op == Opcode::kActivateList ||
        blk.op == Opcode::kActivateRange) {
        cost.backup += energy.actRegisterBackupEnergy();
    }
    return cost;
}

} // namespace mouse

#endif // MOUSE_SIM_INSTR_COST_HH
