#include "mcu_model.hh"

#include <algorithm>
#include <cmath>

#include "baseline/mcu/datasheet.hh"
#include "common/logging.hh"

namespace mouse::mcu
{

namespace
{

/** Amortized per-op cost of the scheme's region checkpoints: one
 *  checkpoint per region boundary, spread over the mean region
 *  length.  Zero for schemes without boundary checkpoints. */
McuCost
checkpointPerOp(const McuProgram &prog, const EhScheme &scheme)
{
    McuCost cost;
    if (scheme.checkpointEnergy() <= 0.0 ||
        prog.checkpoints.empty() || prog.totalOps == 0) {
        return cost;
    }
    const double perRegion = static_cast<double>(prog.totalOps) /
                             static_cast<double>(
                                 prog.checkpoints.size());
    cost.energy = scheme.checkpointEnergy() / perRegion;
    cost.seconds = scheme.checkpointSeconds() / perRegion;
    return cost;
}

} // namespace

RunStats
mcuRunContinuous(const McuProgram &prog, const EhScheme &scheme)
{
    RunStats stats;
    const McuCost cp = checkpointPerOp(prog, scheme);
    const double ops = static_cast<double>(prog.totalOps);
    stats.instructionsCommitted = prog.totalOps;
    stats.activeTime = prog.totalSeconds +
                       ops * (scheme.perOpSeconds() + cp.seconds);
    stats.computeEnergy = prog.totalEnergy;
    stats.backupEnergy = ops * (scheme.perOpEnergy() + cp.energy);
    return stats;
}

RunStats
mcuRunHarvested(const McuProgram &prog, const EhScheme &scheme,
                const HarvestConfig &harvest)
{
    RunStats stats;
    if (prog.totalOps == 0) {
        return stats;
    }
    const std::unique_ptr<PowerSource> src = harvest.source.make();
    const double eff = effectiveConverterEfficiency(harvest);
    if (eff <= 0.0) {
        mouse_fatal("MCU baseline: converter efficiency %.3g means "
                    "the buffer can never charge", eff);
    }
    const Farads cap =
        effectiveCapacitance(harvest, kDefaultCapacitance);
    const Platform *plat = harvest.platform.empty()
                               ? nullptr
                               : platformByName(harvest.platform);
    const double vHigh =
        plat != nullptr ? plat->maxCapacitorVoltage : kDefaultVHigh;
    const double usable = 0.5 * cap * (vHigh * vHigh - kVLow * kVLow);
    const double reserve = scheme.backupEnergy();

    const McuCost cp = checkpointPerOp(prog, scheme);
    const double schemeOpE = scheme.perOpEnergy() + cp.energy;
    const double schemeOpT = scheme.perOpSeconds() + cp.seconds;

    double now = 0.0;
    std::uint64_t pos = 0;
    /** Ops committed so far; re-executed ops below it are Dead. */
    std::uint64_t highWater = 0;
    /** Watchdog-forced checkpoint: when a burst cannot get past a
     *  scheme's replay window (region longer than one burst buys),
     *  a checkpoint is forced at the point of death so the next
     *  burst resumes there — Clank's watchdog mechanism.  Schemes
     *  that resume at the cut are unaffected (resumeOp >= this). */
    std::uint64_t watchdogCheckpoint = 0;
    unsigned burstsWithoutProgress = 0;
    bool firstBurst = true;

    while (pos < prog.totalOps) {
        // -- Charge to the top of the operating window --------------
        double target = usable;
        if (firstBurst && harvest.startEmpty) {
            // From a dead-empty capacitor the sub-threshold charge
            // [0, vLow) must be gathered too.
            target += 0.5 * cap * kVLow * kVLow;
        }
        const double charge = src->timeToHarvest(target, now, eff);
        stats.chargingTime += charge;
        now += charge;

        // -- Restore on power-up (not on the very first boot) -------
        double avail = usable;
        if (!firstBurst) {
            stats.restoreEnergy += scheme.restoreEnergy();
            stats.restoreTime += scheme.restoreSeconds();
            now += scheme.restoreSeconds();
            avail -= scheme.restoreEnergy();
        }
        firstBurst = false;

        // -- Execute until the window (minus the backup reserve)
        //    runs out.  The source keeps trickling in while the MCU
        //    runs; its credit is folded into the per-op net drain,
        //    sampled at the burst start (deterministic).
        const double p = std::max(src->power(now), 0.0) * eff;
        const std::uint64_t burstStartHighWater = highWater;
        std::size_t blk = prog.blockOf(pos);
        while (pos < prog.totalOps && avail > reserve) {
            const McuBlock &b = prog.blocks[blk];
            const double perE = b.per.energy + schemeOpE;
            const double perT = b.per.seconds + schemeOpT;
            const double net = perE - p * perT;
            const std::uint64_t left =
                prog.blockStart[blk + 1] - pos;
            std::uint64_t n = left;
            if (net > 0.0) {
                const double fit =
                    std::floor((avail - reserve) / net);
                if (fit < 1.0) {
                    break;
                }
                n = std::min<std::uint64_t>(
                    left, static_cast<std::uint64_t>(fit));
            }
            const std::uint64_t dead =
                pos < highWater
                    ? std::min<std::uint64_t>(n, highWater - pos)
                    : 0;
            const std::uint64_t fresh = n - dead;
            const double dn = static_cast<double>(dead);
            const double fn = static_cast<double>(fresh);
            stats.instructionsDead += dead;
            stats.instructionsCommitted += fresh;
            stats.deadTime += dn * perT;
            stats.activeTime += fn * perT;
            stats.deadEnergy += dn * perE;
            stats.computeEnergy += fn * b.per.energy;
            stats.backupEnergy += fn * schemeOpE;
            avail -= static_cast<double>(n) * net;
            now += static_cast<double>(n) * perT;
            pos += n;
            if (pos >= prog.blockStart[blk + 1]) {
                ++blk;
            }
        }
        highWater = std::max(highWater, pos);
        if (pos >= prog.totalOps) {
            break;
        }

        // -- Outage: just-in-time backup from the reserve, roll the
        //    resume point back to where the scheme can restart.
        stats.outages += 1;
        stats.backupEnergy += scheme.backupEnergy();
        stats.restoreTime += scheme.backupSeconds();
        now += scheme.backupSeconds();
        if (highWater == burstStartHighWater) {
            // The whole burst went to replaying the current region:
            // the region is longer than one buffer-full of this
            // workload's ops.  Force a checkpoint where execution
            // died (the watchdog path of Clank-style schemes) so the
            // next burst starts here instead of livelocking.
            watchdogCheckpoint = std::max(watchdogCheckpoint, pos);
            stats.backupEnergy += scheme.checkpointEnergy();
        }
        pos = std::max(scheme.resumeOp(prog, pos),
                       watchdogCheckpoint);

        if (highWater == burstStartHighWater) {
            if (++burstsWithoutProgress >
                harvest.nonTerminationLimit) {
                mouse_fatal(
                    "MCU baseline (%s): %u consecutive bursts made "
                    "no progress at op %llu/%llu — the buffer "
                    "cannot cover the scheme's replay window",
                    scheme.name(), burstsWithoutProgress,
                    static_cast<unsigned long long>(highWater),
                    static_cast<unsigned long long>(prog.totalOps));
            }
        } else {
            burstsWithoutProgress = 0;
        }
    }
    return stats;
}

} // namespace mouse::mcu
