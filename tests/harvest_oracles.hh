/**
 * @file
 * Test-local oracles for the shared harvested loop
 * (sim/harvest_loop.hh): the MOUSE trace loop and the MCU loop as
 * they were before one loop served both and stepped over repeated
 * outage cycles.  Each walks every outage one at a time; neither has
 * telemetry, and non-termination is a test failure instead of a
 * fatal error.
 */

#ifndef MOUSE_TESTS_HARVEST_ORACLES_HH
#define MOUSE_TESTS_HARVEST_ORACLES_HH

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <string>

#include "baseline/mcu/datasheet.hh"
#include "baseline/mcu/eh_scheme.hh"
#include "baseline/mcu/op_stream.hh"
#include "sim/simulator.hh"

namespace mouse
{

/**
 * Oracle for runHarvestedTrace: the harvested trace loop walking
 * every outage one at a time, as it did before repeated outage cycles
 * were stepped over in closed form.  No telemetry, and non-
 * termination is a test failure instead of a fatal error.
 */
inline RunStats
perCycleReference(const Trace &trace, const EnergyModel &energy,
                  const HarvestConfig &harvest)
{
    RunStats stats;
    const Seconds cycle = energy.cycleTime();
    const DeviceConfig &dev = energy.config();
    Capacitor cap(effectiveCapacitance(harvest, dev.bufferCapacitance),
                  harvest.startEmpty ? 0.0 : dev.capVoltageLow);
    const SwitchedCapConverter converter(
        effectiveConverterEfficiency(harvest));
    const std::unique_ptr<PowerSource> source = harvest.source.make();
    Seconds now = 0.0;
    const auto recharge = [&] {
        const Seconds dt = source->timeToHarvest(
            cap.energyTo(dev.capVoltageHigh), now, 1.0);
        stats.chargingTime += dt;
        now += dt;
        cap.setVoltage(dev.capVoltageHigh);
    };
    recharge();

    const unsigned period = std::max(1u, harvest.checkpointPeriod);
    std::uint64_t uncheckpointed = 0;
    // Non-termination counts consecutive bursts that commit nothing,
    // the runHarvestLoop rule.
    bool burst_committed = false;
    unsigned idle_bursts = 0;
    for (const TraceBlock &blk : trace.blocks) {
        Joules exec = energy.fetchEnergy() +
                      energy.estimateInstructionEnergy(
                          blk.op, blk.touchedCols);
        Joules backup = energy.backupEnergyPerCycle();
        if (blk.op == Opcode::kActivateList ||
            blk.op == Opcode::kActivateRange) {
            backup += energy.actRegisterBackupEnergy();
        }
        backup /= period;
        const Joules total = exec + backup;
        const Joules buffer_cost = converter.bufferEnergyFor(total);
        std::uint64_t remaining = blk.count;
        while (remaining > 0) {
            const Joules avail = cap.energyAbove(dev.capVoltageLow);
            const Joules credit = source->power(now) * cycle;
            const Joules net =
                buffer_cost > credit ? buffer_cost - credit : 0.0;
            const std::uint64_t fit =
                net > 0.0 ? static_cast<std::uint64_t>(avail / net)
                          : remaining;
            const std::uint64_t n = std::min(remaining, fit);
            if (n > 0) {
                burst_committed = true;
                const double nd = static_cast<double>(n);
                cap.draw(net * nd);
                now += cycle * nd;
                stats.computeEnergy += exec * nd;
                stats.backupEnergy += backup * nd;
                stats.activeTime += cycle * nd;
                stats.instructionsCommitted += n;
                uncheckpointed = (uncheckpointed + n) % period;
                remaining -= n;
                continue;
            }
            idle_bursts = burst_committed ? 0 : idle_bursts + 1;
            burst_committed = false;
            if (idle_bursts > harvest.nonTerminationLimit) {
                ADD_FAILURE() << "reference run does not terminate";
                return stats;
            }
            const double fraction =
                buffer_cost > 0.0 ? avail / buffer_cost : 0.0;
            stats.deadEnergy += avail * converter.efficiency();
            stats.deadTime += cycle * std::min(1.0, fraction);
            now += cycle * std::min(1.0, fraction);
            ++stats.instructionsDead;
            ++stats.outages;
            cap.draw(avail);

            recharge();
            const Joules restore =
                energy.restoreEnergy(1, blk.activeColsAfter);
            stats.restoreEnergy += restore;
            stats.restoreTime += cycle;
            now += cycle;
            cap.draw(converter.bufferEnergyFor(restore));

            if (uncheckpointed > 0) {
                const double replay =
                    static_cast<double>(uncheckpointed);
                stats.deadEnergy += total * replay;
                stats.deadTime += cycle * replay;
                ++stats.instructionsDead;
                now += cycle * replay;
                cap.draw(converter.bufferEnergyFor(total * replay));
                uncheckpointed = 0;
            }
        }
    }
    stats.idleEnergy += energy.idlePower() * stats.activeTime;
    return stats;
}

/** Integer counters exactly, every double to @p rel relative. */
inline void
expectSameRun(const RunStats &got, const RunStats &want, double rel,
              const std::string &label)
{
    EXPECT_EQ(got.instructionsCommitted, want.instructionsCommitted)
        << label;
    EXPECT_EQ(got.instructionsDead, want.instructionsDead) << label;
    EXPECT_EQ(got.outages, want.outages) << label;
    const auto near = [&](double a, double b, const char *field) {
        EXPECT_LE(std::fabs(a - b), rel * std::fabs(b))
            << label << " " << field << ": " << a << " vs " << b;
    };
    near(got.activeTime, want.activeTime, "activeTime");
    near(got.deadTime, want.deadTime, "deadTime");
    near(got.restoreTime, want.restoreTime, "restoreTime");
    near(got.chargingTime, want.chargingTime, "chargingTime");
    near(got.computeEnergy, want.computeEnergy, "computeEnergy");
    near(got.backupEnergy, want.backupEnergy, "backupEnergy");
    near(got.deadEnergy, want.deadEnergy, "deadEnergy");
    near(got.restoreEnergy, want.restoreEnergy, "restoreEnergy");
    near(got.idleEnergy, want.idleEnergy, "idleEnergy");
}

/** Oracle for mcu::mcuRunHarvested: the MCU loop walking every
 *  outage, with a binary search for the block of each burst. */
inline RunStats
mcuPerOutageReference(const mcu::McuProgram &prog,
                      const mcu::EhScheme &scheme,
                      const HarvestConfig &harvest)
{
    using namespace mcu;
    RunStats stats;
    if (prog.totalOps == 0) {
        return stats;
    }
    const std::unique_ptr<PowerSource> src = harvest.source.make();
    const double eff = effectiveConverterEfficiency(harvest);
    const Farads cap =
        effectiveCapacitance(harvest, kDefaultCapacitance);
    const Platform *plat = harvest.platform.empty()
                               ? nullptr
                               : platformByName(harvest.platform);
    const double vHigh =
        plat != nullptr ? plat->maxCapacitorVoltage : kDefaultVHigh;
    const double usable = 0.5 * cap * (vHigh * vHigh - kVLow * kVLow);
    const double reserve = scheme.backup.energy;
    McuCost cp;
    if (scheme.checkpoint.energy > 0.0 && !prog.checkpoints.empty()) {
        const double perRegion =
            static_cast<double>(prog.totalOps) /
            static_cast<double>(prog.checkpoints.size());
        cp.energy = scheme.checkpoint.energy / perRegion;
        cp.seconds = scheme.checkpoint.seconds / perRegion;
    }
    const double schemeOpE = scheme.perOp.energy + cp.energy;
    const double schemeOpT = scheme.perOp.seconds + cp.seconds;

    double now = 0.0;
    std::uint64_t pos = 0;
    std::uint64_t highWater = 0;
    std::uint64_t watchdogCheckpoint = 0;
    unsigned burstsWithoutProgress = 0;
    bool firstBurst = true;
    while (pos < prog.totalOps) {
        double target = usable;
        if (firstBurst && harvest.startEmpty) {
            target += 0.5 * cap * kVLow * kVLow;
        }
        const double charge = src->timeToHarvest(target, now, eff);
        stats.chargingTime += charge;
        now += charge;
        double avail = usable;
        if (!firstBurst) {
            stats.restoreEnergy += scheme.restore.energy;
            stats.restoreTime += scheme.restore.seconds;
            now += scheme.restore.seconds;
            avail -= scheme.restore.energy;
        }
        firstBurst = false;
        const double p = std::max(src->power(now), 0.0) * eff;
        const std::uint64_t burstStartHighWater = highWater;
        std::size_t blk = static_cast<std::size_t>(
            std::upper_bound(prog.blockStart.begin(),
                             prog.blockStart.end(), pos) -
            prog.blockStart.begin()) - 1;
        while (pos < prog.totalOps && avail > reserve) {
            const McuBlock &b = prog.blocks[blk];
            const double perE = b.per.energy + schemeOpE;
            const double perT = b.per.seconds + schemeOpT;
            const double net = perE - p * perT;
            const std::uint64_t left = prog.blockStart[blk + 1] - pos;
            std::uint64_t n = left;
            if (net > 0.0) {
                const double fit = std::floor((avail - reserve) / net);
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
        stats.outages += 1;
        stats.backupEnergy += scheme.backup.energy;
        stats.restoreTime += scheme.backup.seconds;
        now += scheme.backup.seconds;
        if (highWater == burstStartHighWater) {
            watchdogCheckpoint = std::max(watchdogCheckpoint, pos);
            stats.backupEnergy += scheme.checkpoint.energy;
        }
        pos = std::max(scheme.resumeOp(prog, pos), watchdogCheckpoint);
        if (highWater == burstStartHighWater) {
            if (++burstsWithoutProgress > harvest.nonTerminationLimit) {
                ADD_FAILURE() << "reference run does not terminate";
                return stats;
            }
        } else {
            burstsWithoutProgress = 0;
        }
    }
    return stats;
}

} // namespace mouse

#endif // MOUSE_TESTS_HARVEST_ORACLES_HH
