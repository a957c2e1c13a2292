/**
 * @file
 * The harvested burst/outage loop shared by MOUSE and the MCU
 * baseline (docs/HARVESTING.md, "Outage cycles in closed form").
 *
 * Both systems run one cycle: recharge, restore, a burst over a
 * per-block cost stream, an outage.  The loop owns the clock, the op
 * position and block index, the non-termination check and the skip
 * over repeated cycles.  A backup policy prices the rest; it is a
 * template parameter, so no virtual call runs per chunk:
 *
 *   rechargeEnergy(first), recharged(t0, dt), restore(blk, ..)
 *   execute(blk, pos, left, power, ..)  ops done; 0 ends the burst
 *   outage(blk, pos, progress, ..)      the op to resume at
 *   key(pos)      restart state relative to pos; key[0] is the
 *                 distance to the furthest op reached
 *   shift(ops), mark(), repeat(mark, k, dt), forget()
 *   kResample     sample the source at every chunk, not per burst
 *   kWalk         replay copies' clocks on a time-varying source
 */

#ifndef MOUSE_SIM_HARVEST_LOOP_HH
#define MOUSE_SIM_HARVEST_LOOP_HH

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <type_traits>
#include <vector>

#include "common/logging.hh"
#include "harvest/power_source.hh"
#include "sim/stats.hh"

namespace mouse
{

/** One step of a harvested run's clock: a fixed advance, a recharge
 *  of a fixed energy, or a sample of the source power. */
struct ClockStep
{
    enum Kind { kAdvance, kCharge, kPower } kind;
    double value;
};

/** The run's absolute time.  A clock that is @p Logged keeps every
 *  step, so the loop can replay a cycle's clock. */
template <bool Logged>
struct HarvestClock
{
    Seconds now = 0.0;
    std::vector<ClockStep> steps;

    void
    advance(Seconds dt)
    {
        now += dt;
        log(ClockStep::kAdvance, dt);
    }

    void
    log(ClockStep::Kind kind, double value)
    {
        if constexpr (Logged) {
            steps.push_back({kind, value});
        }
    }
};

/** Add @p k more copies of everything but the charging time that
 *  @p stats gained since @p from. */
inline void
repeatGain(RunStats &stats, const RunStats &from, std::uint64_t k)
{
    const auto repeat = [&](auto RunStats::*field) {
        using T = std::remove_reference_t<decltype(stats.*field)>;
        stats.*field +=
            static_cast<T>(k) * (stats.*field - from.*field);
    };
    repeat(&RunStats::instructionsCommitted);
    repeat(&RunStats::instructionsDead);
    repeat(&RunStats::outages);
    repeat(&RunStats::activeTime);
    repeat(&RunStats::deadTime);
    repeat(&RunStats::restoreTime);
    repeat(&RunStats::computeEnergy);
    repeat(&RunStats::backupEnergy);
    repeat(&RunStats::deadEnergy);
    repeat(&RunStats::restoreEnergy);
    repeat(&RunStats::idleEnergy);
}

/**
 * Run @p pol over the ops of @p blocks (each with a `count`) in
 * order, charging from @p src derated by @p scale.
 *
 * Each restart point is looked up among the restarts since the block
 * or the source power last changed.  If its state recurs, the cycle
 * since then repeats while the block lasts and the power holds: k
 * copies are added at once.  On a constant stretch the clock moves
 * k·dt; past it, each copy's clock and recharges are replayed in
 * the loop's order up to the first power sample that differs.
 * Fatal after @p limit + 1 consecutive bursts that commit nothing.
 */
template <class Policy, class Blocks>
RunStats
runHarvestLoop(Policy &pol, const PowerSource &src, double scale,
               const Blocks &blocks, unsigned limit)
{
    struct Restart
    {
        std::array<std::uint64_t, 3> key;
        unsigned idle;
        std::uint64_t pos;
        Seconds now;
        RunStats stats;
        std::size_t step;
        typename Policy::Mark mark;
    };
    std::vector<Restart> seen;
    RunStats stats;
    HarvestClock<Policy::kWalk> clock;
    const auto forget = [&] {
        seen.clear();
        clock.steps.clear();
        pol.forget();
    };
    Watts power = -1.0;
    const auto sample = [&] {
        const Watts p = src.power(clock.now);
        if (p != power) {
            forget();
            power = p;
        }
        return p;
    };
    std::uint64_t pos = 0;
    /** Block blk holds the ops [begin, end). */
    std::size_t blk = 0;
    std::uint64_t begin = 0;
    std::uint64_t end = blocks.empty() ? 0 : blocks[0].count;
    unsigned idle = 0;
    for (bool first = true;; first = false) {
        // -- Recharge, and restore after an outage --------------------
        const Joules energy = pol.rechargeEnergy(first);
        const Seconds t0 = clock.now;
        const Seconds dt = src.timeToHarvest(energy, t0, scale);
        stats.chargingTime += dt;
        clock.now += dt;
        clock.log(ClockStep::kCharge, energy);
        pol.recharged(t0, dt);
        if (!first) {
            pol.restore(blk, stats, clock);
        }

        Watts p = sample();
        if (!first) {
            auto key = pol.key(pos);
            const auto r = std::find_if(
                seen.rbegin(), seen.rend(), [&](const Restart &s) {
                    // Element by element: std::array == calls memcmp.
                    return s.idle == idle && s.key[0] == key[0] &&
                           s.key[1] == key[1] && s.key[2] == key[2];
                });
            const std::uint64_t reach = pos + key[0] + 1;
            if (r != seen.rend() && reach < end && pos > r->pos) {
                const std::uint64_t f = pos - r->pos;
                const std::uint64_t most = (end - reach) / f;
                const Seconds span = clock.now - r->now;
                auto k = static_cast<std::uint64_t>(std::clamp(
                    std::floor((src.nextChange(r->now) - clock.now) /
                               span),
                    0.0, static_cast<double>(most)));
                clock.now += span * static_cast<double>(k);
                stats.chargingTime += static_cast<double>(k) *
                                      (stats.chargingTime -
                                       r->stats.chargingTime);
                for (bool same = Policy::kWalk; same && k < most;) {
                    Seconds t = clock.now;
                    Seconds charging = stats.chargingTime;
                    for (std::size_t i = r->step;
                         same && i < clock.steps.size(); ++i) {
                        const ClockStep &s = clock.steps[i];
                        if (s.kind == ClockStep::kPower) {
                            same = src.power(t) == s.value;
                        } else if (s.kind == ClockStep::kCharge) {
                            const Seconds c =
                                src.timeToHarvest(s.value, t, scale);
                            charging += c;
                            t += c;
                        } else {
                            t += s.value;
                        }
                    }
                    if (same) {
                        clock.now = t;
                        stats.chargingTime = charging;
                        ++k;
                    }
                }
                if (k > 0) {
                    repeatGain(stats, r->stats, k);
                    pos += k * f;
                    pol.shift(k * f);
                    pol.repeat(r->mark, k, span);
                    forget();
                    p = sample();
                    key = pol.key(pos);
                }
            }
            if (seen.size() >= 256) {
                forget();
            }
            // One small allocation per run covers most blocks' tables.
            seen.reserve(4);
            // Built in place: a braced temporary costs a second copy.
            seen.emplace_back(key, idle, pos, clock.now, stats,
                              clock.steps.size(), pol.mark());
        }
        clock.log(ClockStep::kPower, p);

        // -- Burst ---------------------------------------------------
        const std::uint64_t committed = stats.instructionsCommitted;
        for (bool chunk = false;; chunk = true) {
            while (pos >= end && blk + 1 < blocks.size()) {
                begin = end;
                end += blocks[++blk].count;
                forget();
            }
            if (pos >= end) {
                break;
            }
            if (Policy::kResample && chunk) {
                p = sample();
                clock.log(ClockStep::kPower, p);
            }
            const std::uint64_t n =
                pol.execute(blk, pos, end - pos, p, stats, clock);
            if (n == 0) {
                break;
            }
            pos += n;
        }
        if (pos >= end) {
            break;
        }

        // -- Outage ---------------------------------------------------
        const bool progress = stats.instructionsCommitted > committed;
        idle = progress ? 0 : idle + 1;
        if (idle > limit) {
            mouse_fatal("non-termination: %u consecutive bursts "
                        "committed nothing at op %llu (block %zu); "
                        "the buffer cannot cover one op plus restore "
                        "— enlarge the capacitor or reduce parallelism",
                        idle, static_cast<unsigned long long>(pos), blk);
        }
        pos = pol.outage(blk, pos, progress, stats, clock);
        while (pos < begin) {
            end = begin;
            begin -= blocks[--blk].count;
            forget();
        }
    }
    return stats;
}

} // namespace mouse

#endif // MOUSE_SIM_HARVEST_LOOP_HH
