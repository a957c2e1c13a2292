#include "termination.hh"

#include "common/logging.hh"
#include "sim/instr_cost.hh"

namespace mouse
{

namespace
{

Joules
burstEnergyFor(const DeviceConfig &cfg, Farads capacitance)
{
    return 0.5 * capacitance *
           (cfg.capVoltageHigh * cfg.capVoltageHigh -
            cfg.capVoltageLow * cfg.capVoltageLow);
}

} // namespace

TerminationReport
analyzeTermination(const Trace &trace, const EnergyModel &energy,
                   const HarvestConfig &harvest)
{
    const DeviceConfig &cfg = energy.config();
    const Farads cap =
        effectiveCapacitance(harvest, cfg.bufferCapacitance);

    TerminationReport report;
    report.burstEnergy = burstEnergyFor(cfg, cap) *
                         effectiveConverterEfficiency(harvest);

    // The binding constraint is the block maximizing instruction +
    // restore cost (the restore after an outage inside that block
    // must fit in the same burst as the re-executed instruction).
    Joules worst_total = 0.0;
    for (std::size_t i = 0; i < trace.blocks.size(); ++i) {
        const TraceBlock &blk = trace.blocks[i];
        const Joules instr = traceInstrCost(energy, blk).total();
        const Joules restore =
            energy.restoreEnergy(1, blk.activeColsAfter);
        if (instr + restore > worst_total) {
            worst_total = instr + restore;
            report.worstInstructionEnergy = instr;
            report.worstRestoreEnergy = restore;
            report.bindingBlock = i;
        }
    }
    mouse_assert(worst_total > 0.0, "empty trace");

    report.margin = report.burstEnergy / worst_total;
    report.terminates = report.margin > 1.0;
    report.minCapacitance =
        cap / report.margin;
    return report;
}

unsigned
maxSafeParallelism(const EnergyModel &energy,
                   const HarvestConfig &harvest)
{
    const DeviceConfig &cfg = energy.config();
    const Farads cap =
        effectiveCapacitance(harvest, cfg.bufferCapacitance);
    const Joules burst = burstEnergyFor(cfg, cap) *
                         effectiveConverterEfficiency(harvest);

    // Binary-search the widest gate instruction that still leaves
    // room for its own restore.  The ceiling is far above any
    // physical column count (a what-if analysis, not a layout).
    unsigned lo = 0;
    unsigned hi = 1u << 28;
    while (lo < hi) {
        const unsigned mid = lo + (hi - lo + 1) / 2;
        const Joules instr =
            energy.fetchEnergy() +
            energy.estimateInstructionEnergy(Opcode::kGateNand2,
                                             mid) +
            energy.backupEnergyPerCycle();
        const Joules restore = energy.restoreEnergy(1, mid);
        if (instr + restore < burst) {
            lo = mid;
        } else {
            hi = mid - 1;
        }
    }
    return lo;
}

} // namespace mouse
