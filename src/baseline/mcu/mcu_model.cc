#include "mcu_model.hh"

#include <algorithm>
#include <cmath>

#include "baseline/mcu/datasheet.hh"
#include "common/logging.hh"
#include "sim/harvest_loop.hh"

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
    if (scheme.checkpoint.energy <= 0.0 ||
        prog.checkpoints.empty() || prog.totalOps == 0) {
        return cost;
    }
    const double perRegion = static_cast<double>(prog.totalOps) /
                             static_cast<double>(
                                 prog.checkpoints.size());
    cost.energy = scheme.checkpoint.energy / perRegion;
    cost.seconds = scheme.checkpoint.seconds / perRegion;
    return cost;
}

/**
 * An EhScheme as a policy of the shared harvested loop: an energy
 * bucket refilled to the operating window, execution until the usable
 * energy (minus the scheme's just-in-time backup reserve) runs out,
 * a backup, a restore on power-up, and a resume where the scheme
 * says, re-executing any rolled-back tail as Dead work.
 */
class McuPolicy
{
  public:
    static constexpr bool kResample = false;
    static constexpr bool kWalk = true;
    struct Mark
    {
    };

    McuPolicy(const McuProgram &prog, const EhScheme &scheme,
              const HarvestConfig &harvest, double eff)
        : prog_(prog), scheme_(scheme), eff_(eff)
    {
        const Farads cap =
            effectiveCapacitance(harvest, kDefaultCapacitance);
        const Platform *plat = harvest.platform.empty()
                                   ? nullptr
                                   : platformByName(harvest.platform);
        const double vHigh =
            plat != nullptr ? plat->maxCapacitorVoltage : kDefaultVHigh;
        usable_ = 0.5 * cap * (vHigh * vHigh - kVLow * kVLow);
        avail_ = usable_;
        // From a dead-empty capacitor the sub-threshold charge
        // [0, vLow) must be gathered too.
        firstCharge_ = usable_;
        if (harvest.startEmpty) {
            firstCharge_ += 0.5 * cap * kVLow * kVLow;
        }
        const McuCost cp = checkpointPerOp(prog, scheme);
        op_ = {scheme.perOp.energy + cp.energy,
               scheme.perOp.seconds + cp.seconds};
        // A region position relative to the op is a valid key only
        // when the region boundaries repeat with a fixed stride.
        const std::vector<std::uint64_t> &cps = prog.checkpoints;
        for (std::size_t i = 0; i < cps.size() && uniform_; ++i) {
            uniform_ = cps[i] == i * (cps.size() > 1 ? cps[1] : 0);
        }
    }

    Joules
    rechargeEnergy(bool first) const
    {
        return first ? firstCharge_ : usable_;
    }

    void recharged(Seconds, Seconds) {}

    void
    restore(std::size_t, RunStats &stats, auto &clock)
    {
        stats.restoreEnergy += scheme_.restore.energy;
        stats.restoreTime += scheme_.restore.seconds;
        clock.advance(scheme_.restore.seconds);
        avail_ = usable_ - scheme_.restore.energy;
    }

    /** The source keeps trickling in while the MCU runs; its credit
     *  is folded into the per-op net drain, sampled at the burst
     *  start.  Ops below the high-water mark are replays (Dead). */
    std::uint64_t
    execute(std::size_t blk, std::uint64_t pos, std::uint64_t left,
            Watts p, RunStats &stats, auto &clock)
    {
        if (!(avail_ > scheme_.backup.energy)) {
            return 0;
        }
        const McuBlock &b = prog_.blocks[blk];
        const double perE = b.per.energy + op_.energy;
        const double perT = b.per.seconds + op_.seconds;
        const double net = perE - std::max(p, 0.0) * eff_ * perT;
        std::uint64_t n = left;
        if (net > 0.0) {
            // spare < net is exactly floor(spare / net) < 1.
            const double spare = avail_ - scheme_.backup.energy;
            if (spare < net) {
                return 0;
            }
            n = std::min<std::uint64_t>(
                left, static_cast<std::uint64_t>(std::floor(spare / net)));
        }
        const std::uint64_t dead =
            pos < highWater_ ? std::min(n, highWater_ - pos) : 0;
        const double dn = static_cast<double>(dead);
        const double fn = static_cast<double>(n - dead);
        stats.instructionsDead += dead;
        stats.instructionsCommitted += n - dead;
        stats.deadTime += dn * perT;
        stats.activeTime += fn * perT;
        stats.deadEnergy += dn * perE;
        stats.computeEnergy += fn * b.per.energy;
        stats.backupEnergy += fn * op_.energy;
        avail_ -= static_cast<double>(n) * net;
        clock.advance(static_cast<double>(n) * perT);
        return n;
    }

    /** Just-in-time backup from the reserve, then roll back to where
     *  the scheme can restart.  A burst that only replayed its region
     *  (longer than one buffer-full of ops) forces a checkpoint where
     *  execution died — Clank's watchdog — so the next burst starts
     *  there instead of livelocking. */
    std::uint64_t
    outage(std::size_t, std::uint64_t pos, bool progress,
           RunStats &stats, auto &clock)
    {
        highWater_ = std::max(highWater_, pos);
        stats.outages += 1;
        stats.backupEnergy += scheme_.backup.energy;
        stats.restoreTime += scheme_.backup.seconds;
        clock.advance(scheme_.backup.seconds);
        if (!progress) {
            watchdog_ = std::max(watchdog_, pos);
            stats.backupEnergy += scheme_.checkpoint.energy;
        }
        return std::max(scheme_.resumeOp(prog_, pos), watchdog_);
    }

    /** Replay distance, the watchdog checkpoint if a later cut could
     *  still resume at it, and the position in a Clank region (the
     *  op itself when regions are not uniform). */
    std::array<std::uint64_t, 3>
    key(std::uint64_t pos) const
    {
        const std::uint64_t floor = scheme_.resumeOp(prog_, pos + 1);
        return {highWater_ - pos,
                watchdog_ > floor ? pos - watchdog_ : ~0ull,
                !scheme_.regionResume ? 0 : uniform_ ? pos - floor : pos};
    }

    void
    shift(std::uint64_t ops)
    {
        highWater_ += ops;
        watchdog_ += ops;
    }

    Mark mark() { return {}; }
    void repeat(const Mark &, std::uint64_t, Seconds) {}
    void forget() {}

  private:
    const McuProgram &prog_;
    const EhScheme scheme_;
    double eff_;
    /** Per-op overhead: the scheme's plus its amortized region
     *  checkpoints. */
    McuCost op_;
    double usable_ = 0.0;
    double firstCharge_ = 0.0;
    bool uniform_ = true;
    double avail_ = 0.0;
    /** Ops committed so far; re-executed ops below it are Dead. */
    std::uint64_t highWater_ = 0;
    /** Watchdog-forced checkpoint (no effect on schemes that resume
     *  at the cut: resumeOp >= this). */
    std::uint64_t watchdog_ = 0;
};

} // namespace

RunStats
mcuRunContinuous(const McuProgram &prog, const EhScheme &scheme)
{
    RunStats stats;
    const McuCost cp = checkpointPerOp(prog, scheme);
    const double ops = static_cast<double>(prog.totalOps);
    stats.instructionsCommitted = prog.totalOps;
    stats.activeTime = prog.totalSeconds +
                       ops * (scheme.perOp.seconds + cp.seconds);
    stats.computeEnergy = prog.totalEnergy;
    stats.backupEnergy = ops * (scheme.perOp.energy + cp.energy);
    return stats;
}

RunStats
mcuRunHarvested(const McuProgram &prog, const EhScheme &scheme,
                const HarvestConfig &harvest)
{
    if (prog.totalOps == 0) {
        return RunStats{};
    }
    const double eff = effectiveConverterEfficiency(harvest);
    if (eff <= 0.0) {
        mouse_fatal("MCU baseline: converter efficiency %.3g means "
                    "the buffer can never charge", eff);
    }
    const std::unique_ptr<PowerSource> src = harvest.source.make();
    McuPolicy policy(prog, scheme, harvest, eff);
    return runHarvestLoop(policy, *src, eff, prog.blocks,
                          harvest.nonTerminationLimit);
}

} // namespace mouse::mcu
