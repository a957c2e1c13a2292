#include "simulator.hh"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <vector>

#include "common/json.hh"
#include "common/logging.hh"
#include "sim/harvest_loop.hh"

namespace mouse
{

namespace
{

/** Per-instruction cost split used by both runners. */
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

InstrCost
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

/**
 * Telemetry probe shared by the four runners.  Holds raw pointers
 * into the run's Telemetry bundle; every method self-gates, and the
 * hot-loop call sites are additionally wrapped in MOUSE_OBS_HOOK so
 * a null telemetry costs one predictable branch (or nothing at all
 * under MOUSE_OBS_DISABLE_HOOKS).  The larger methods only traced
 * runs reach stay out of line, so untraced loops keep a small code
 * footprint.
 */
class SimProbe
{
  public:
    explicit SimProbe(obs::Telemetry *telem)
    {
        if (telem == nullptr) {
            return;
        }
        cfg_ = telem->config;
        sink_ = telem->sink.get();
        reg_ = telem->stats.get();
        if (reg_ != nullptr) {
            committed_ = &reg_->counter(
                "sim.instr.committed",
                "instructions that committed");
            dead_ = &reg_->counter(
                "sim.instr.dead",
                "instruction attempts killed by outages (incl. "
                "replays)");
            outages_ = &reg_->counter("sim.outage.count",
                                      "power outages (= restarts)");
            outageDur_ = &reg_->histogram(
                "sim.outage.duration_s",
                "seconds powered off per outage");
            burstInstr_ = &reg_->histogram(
                "sim.burst.instructions",
                "instructions committed per powered-on burst");
            restores_ =
                &reg_->counter("sim.restore.count",
                               "restart-protocol executions");
            recharges_ = &reg_->counter(
                "harvest.cap.recharges",
                "full recharges of the buffer capacitor");
            vMin_ = &reg_->scalar("harvest.cap.voltage_min_v",
                                  obs::MergePolicy::kMin,
                                  "lowest sampled buffer voltage");
            vMax_ = &reg_->scalar("harvest.cap.voltage_max_v",
                                  obs::MergePolicy::kMax,
                                  "highest sampled buffer voltage");
        }
    }

    bool wantsEvents() const { return sink_ && cfg_.events; }
    bool wantsWaveform() const { return sink_ && cfg_.waveform; }

    /** A chunk of @p n identical instructions committed (trace). */
    void
    commitChunk(std::uint64_t n, Seconds t0, Seconds dur,
                unsigned checkpointPeriod)
    {
        if (committed_ != nullptr) {
            *committed_ += n;
        }
        burst_ += n;
        if (wantsEvents()) {
            sink_->complete(
                "burst", "exec", t0, dur,
                "{\"instructions\":" + std::to_string(n) + "}");
            sink_->instant(
                "checkpoint", "backup", t0 + dur,
                "{\"instructions\":" + std::to_string(n) +
                    ",\"period\":" +
                    std::to_string(checkpointPeriod) + "}");
        }
    }

    /** One instruction committed (functional). */
    void
    commitInstr(Seconds t0, Seconds dur, std::size_t pc, int op)
    {
        if (committed_ != nullptr) {
            committed_->increment();
        }
        ++burst_;
        if (wantsEvents()) {
            sink_->complete("instr", "exec", t0, dur,
                            "{\"pc\":" + std::to_string(pc) +
                                ",\"op\":" + std::to_string(op) +
                                "}");
            sink_->instant("checkpoint", "backup", t0 + dur);
        }
    }

    /** An attempt died mid-instruction; the outage window opens. */
    void
    outageBegin(Seconds t, Seconds attemptDur, Joules wasted)
    {
        if (dead_ != nullptr) {
            dead_->increment();
            outages_->increment();
            burstInstr_->sample(static_cast<double>(burst_));
            if (recording_) {
                cycleBursts_.push_back(static_cast<double>(burst_));
            }
        }
        burst_ = 0;
        offSince_ = t + attemptDur;
        if (wantsEvents()) {
            sink_->complete("dead_attempt", "exec", t, attemptDur,
                            "{\"wasted_j\":" + json::num(wasted) + "}");
            sink_->instant("power_off", "power", offSince_);
            sink_->counter("power_state", "power", offSince_, 0.0);
        }
    }

    /** Replayed instructions after a restart are Dead work too. */
    [[gnu::noinline]] void
    deadReplay(std::uint64_t n, Seconds t0, Seconds dur)
    {
        if (dead_ != nullptr) {
            dead_->increment();
        }
        if (wantsEvents()) {
            sink_->complete(
                "replay", "exec", t0, dur,
                "{\"instructions\":" + std::to_string(n) + "}");
        }
    }

    /** The capacitor refilled; power is back at @p t. */
    void
    rechargeDone(Seconds t)
    {
        if (recharges_ != nullptr) {
            recharges_->increment();
            if (offSince_ >= 0.0) {
                outageDur_->sample(t - offSince_);
                if (recording_) {
                    cycleOutages_.push_back(t - offSince_);
                }
            }
        }
        if (wantsEvents() && offSince_ >= 0.0) {
            sink_->complete("outage", "power", offSince_,
                            t - offSince_);
            // Same interval under the "stall" category: live-metrics
            // consumers attribute brownout time separately from
            // compute and queueing without re-deriving it from the
            // power track (docs/OBSERVABILITY.md span taxonomy).
            sink_->complete("outage_stall", "stall", offSince_,
                            t - offSince_);
            sink_->instant("power_on", "power", t);
            sink_->counter("power_state", "power", t, 1.0);
        }
        offSince_ = -1.0;
    }

    /** Restart protocol re-issued the activation journal. */
    void
    restore(Seconds t0, Seconds dur, Joules energy)
    {
        if (restores_ != nullptr) {
            restores_->increment();
        }
        if (wantsEvents()) {
            sink_->complete("restore", "power", t0, dur,
                            "{\"energy_j\":" + json::num(energy) + "}");
        }
    }

    /** Observe the buffer voltage and offer a waveform sample. */
    [[gnu::noinline]] void
    maybeSample(Seconds t, Volts v, Watts p)
    {
        if (vMin_ != nullptr) {
            vMin_->observe(v);
            vMax_->observe(v);
        }
        if (recording_ && wantsWaveform()) {
            cycleSamples_.push_back({t, v, p});
        }
        emitSample(t, v, p);
    }

    /**
     * Synthesize closed-form waveform samples for a recharge of
     * @p dt from @p v0 to @p v1: v(t) = sqrt(v^2 + 2 P t / C) inside
     * each constant-power piece of @p src, sampled on an even grid
     * and at each segment boundary the recharge crosses.  Both are
     * capped at 256; past 256 boundaries only the end is sampled.
     */
    [[gnu::noinline]] void
    sampleRecharge(Seconds t0, Seconds dt, Volts v0, Volts v1,
                   Farads c, const PowerSource &src)
    {
        if (!wantsWaveform() || dt <= 0.0) {
            maybeSample(t0 + dt, v1, src.power(t0 + dt));
            return;
        }
        const double steps = std::clamp(
            std::floor(dt / cfg_.waveformPeriod), 1.0, 256.0);
        const Seconds step = dt / steps;
        // The constant-power piece [from, to) the grid is in, with
        // its start voltage and its power (read clear of the ends).
        Seconds from = 0.0;
        Seconds to = src.nextChange(t0) - t0;
        Volts vFrom = v0;
        const auto pieceWatts = [&] {
            return src.power(t0 + (from + std::min(to, dt)) / 2.0);
        };
        Watts p = pieceWatts();
        const auto volts = [&](Seconds at) {
            return std::min(
                std::sqrt(vFrom * vFrom + 2.0 * p * (at - from) / c),
                v1);
        };
        unsigned crossed = 0;
        for (double k = 1.0; k <= steps; k += 1.0) {
            const Seconds at = step * k;
            while (to < at) {
                if (++crossed > 256) {
                    maybeSample(t0 + dt, v1, src.power(t0 + dt));
                    return;
                }
                vFrom = volts(to);
                from = to;
                to = src.nextChange(t0 + from) - t0;
                p = pieceWatts();
                maybeSample(t0 + from, vFrom, p);
            }
            maybeSample(t0 + at, volts(at), p);
        }
    }

    /** What the probe had recorded at a restart point. */
    struct Mark
    {
        std::array<std::uint64_t, 5> counters{};
        obs::TraceSink::Mark sink{};
        std::size_t outages = 0;
        std::size_t bursts = 0;
        std::size_t samples = 0;
    };

    /** Start recording for repeatCycles() (the trace loop). */
    [[gnu::noinline]] Mark
    mark()
    {
        recording_ = true;
        Mark m;
        if (reg_ != nullptr) {
            const auto counters = cycleCounters();
            for (std::size_t i = 0; i < counters.size(); ++i) {
                m.counters[i] = counters[i]->value();
            }
        }
        if (sink_ != nullptr) {
            m.sink = sink_->mark();
        }
        m.outages = cycleOutages_.size();
        m.bursts = cycleBursts_.size();
        m.samples = cycleSamples_.size();
        return m;
    }

    /**
     * The cycle since @p m happens @p k more times, each @p dt after
     * the one before: counters gain k times what the cycle added,
     * its outages and bursts are sampled with weight k, and its
     * events and waveform samples repeat k times, shifted.
     */
    [[gnu::noinline]] void
    repeatCycles(const Mark &m, std::uint64_t k, Seconds dt)
    {
        if (reg_ != nullptr) {
            const auto counters = cycleCounters();
            for (std::size_t i = 0; i < counters.size(); ++i) {
                *counters[i] += k * (counters[i]->value() -
                                     m.counters[i]);
            }
            for (std::size_t i = m.outages; i < cycleOutages_.size();
                 ++i) {
                outageDur_->sample(cycleOutages_[i], k);
            }
            for (std::size_t i = m.bursts; i < cycleBursts_.size();
                 ++i) {
                burstInstr_->sample(cycleBursts_[i], k);
            }
        }
        if (sink_ != nullptr) {
            sink_->repeatEvents(m.sink, k, dt);
        }
        const std::size_t end = cycleSamples_.size();
        for (std::uint64_t j = 1; j <= k; ++j) {
            const Seconds shift = static_cast<double>(j) * dt;
            for (std::size_t i = m.samples; i < end; ++i) {
                const SampleCall &c = cycleSamples_[i];
                emitSample(c.t + shift, c.v, c.p);
            }
        }
    }

    /** Drop what was recorded for marks no longer needed. */
    [[gnu::noinline]] void
    forget()
    {
        cycleOutages_.clear();
        cycleBursts_.clear();
        cycleSamples_.clear();
    }

    /** Close out the run: totals, shares, and overflow counters. */
    void
    finalize(const RunStats &stats)
    {
        if (reg_ != nullptr) {
            if (burst_ > 0 && outages_->value() > 0) {
                burstInstr_->sample(static_cast<double>(burst_));
            }
            auto set = [&](const char *name, double v,
                           const char *desc) {
                reg_->scalar(name, obs::MergePolicy::kSum, desc)
                    .observe(v);
            };
            set("sim.energy.compute_j", stats.computeEnergy,
                "energy of committed instructions");
            set("sim.energy.backup_j", stats.backupEnergy,
                "checkpoint-write energy");
            set("sim.energy.dead_j", stats.deadEnergy,
                "energy of attempts an outage killed");
            set("sim.energy.restore_j", stats.restoreEnergy,
                "restart-protocol energy");
            set("sim.energy.idle_j", stats.idleEnergy,
                "standby leakage while energized");
            set("sim.energy.total_j", stats.totalEnergy(),
                "total load-side energy");
            set("sim.time.active_s", stats.activeTime,
                "time executing committed instructions");
            set("sim.time.dead_s", stats.deadTime,
                "time lost to killed attempts");
            set("sim.time.restore_s", stats.restoreTime,
                "time re-issuing activations");
            set("sim.time.charging_s", stats.chargingTime,
                "time powered off, recharging");
            set("sim.time.total_s", stats.totalTime(),
                "end-to-end simulated time");
            reg_->formula(
                "sim.energy.dead_share",
                [](const obs::StatRegistry &r) {
                    const double total =
                        r.scalarValue("sim.energy.total_j");
                    return total > 0.0
                               ? r.scalarValue(
                                     "sim.energy.dead_j") /
                                     total
                               : 0.0;
                },
                "dead / total energy (Fig. 10-12 commentary)");
            reg_->formula(
                "sim.energy.backup_share",
                [](const obs::StatRegistry &r) {
                    const double total =
                        r.scalarValue("sim.energy.total_j");
                    return total > 0.0
                               ? r.scalarValue(
                                     "sim.energy.backup_j") /
                                     total
                               : 0.0;
                },
                "backup / total energy");
            reg_->formula(
                "sim.time.charging_share",
                [](const obs::StatRegistry &r) {
                    const double total =
                        r.scalarValue("sim.time.total_s");
                    return total > 0.0
                               ? r.scalarValue(
                                     "sim.time.charging_s") /
                                     total
                               : 0.0;
                },
                "charging / total time");
            if (sink_ != nullptr) {
                reg_->counter("obs.trace.dropped_events",
                              "events lost to the buffer cap") +=
                    sink_->droppedEvents();
                reg_->counter("obs.trace.dropped_samples",
                              "waveform samples lost to the cap") +=
                    sink_->droppedSamples();
            }
        }
        if (sink_ != nullptr && sink_->droppedEvents() > 0) {
            mouse_warn("trace sink dropped %llu events (raise "
                       "TraceConfig.maxEvents)",
                       static_cast<unsigned long long>(
                           sink_->droppedEvents()));
        }
    }

  private:
    /** One maybeSample() call, kept to replay a repeated cycle. */
    struct SampleCall
    {
        Seconds t;
        Volts v;
        Watts p;
    };

    /** The counters one outage cycle moves. */
    std::array<obs::Counter *, 5>
    cycleCounters() const
    {
        return {committed_, dead_, outages_, restores_, recharges_};
    }

    /** Waveform sample, rate-limited to the configured period. */
    void
    emitSample(Seconds t, Volts v, Watts p)
    {
        if (!wantsWaveform() ||
            (lastSample_ >= 0.0 &&
             t - lastSample_ < cfg_.waveformPeriod)) {
            return;
        }
        lastSample_ = t;
        sink_->sample(t, v, p);
    }

    obs::TraceConfig cfg_{};
    obs::StatRegistry *reg_ = nullptr;
    obs::TraceSink *sink_ = nullptr;
    obs::Counter *committed_ = nullptr;
    obs::Counter *dead_ = nullptr;
    obs::Counter *outages_ = nullptr;
    obs::Counter *restores_ = nullptr;
    obs::Counter *recharges_ = nullptr;
    obs::Histogram *outageDur_ = nullptr;
    obs::Histogram *burstInstr_ = nullptr;
    obs::Scalar *vMin_ = nullptr;
    obs::Scalar *vMax_ = nullptr;
    /** Instructions committed since the last outage. */
    std::uint64_t burst_ = 0;
    /** Start of the current off period; -1 while powered. */
    Seconds offSince_ = -1.0;
    Seconds lastSample_ = -1.0;
    /** Outage lengths, burst sizes and (waveform on) maybeSample()
     *  calls since the last forget(), for repeatCycles(). */
    std::vector<Seconds> cycleOutages_;
    std::vector<double> cycleBursts_;
    std::vector<SampleCall> cycleSamples_;
    bool recording_ = false;
};

/** Shared harvesting-loop state. */
struct HarvestEnv
{
    HarvestEnv(const EnergyModel &energy, const HarvestConfig &cfg,
               SimProbe *probe)
        : cap(effectiveCapacitance(cfg,
                                   energy.config().bufferCapacitance),
              cfg.startEmpty ? 0.0 : energy.config().capVoltageLow),
          converter(effectiveConverterEfficiency(cfg)),
          sourceOwner(cfg.source.make()),
          source(*sourceOwner),
          vLow(energy.config().capVoltageLow),
          vHigh(energy.config().capVoltageHigh),
          probe(probe)
    {
    }

    /** Advance the wall clock (active/dead/restore time). */
    void
    advance(Seconds dt)
    {
        now += dt;
    }

    /** Charge to the restart voltage, logging the off time. */
    void
    rechargeTo(Volts v, RunStats &stats)
    {
        const Seconds dt =
            source.timeToHarvest(cap.energyTo(v), now, 1.0);
        charged(now, dt, v);
        stats.chargingTime += dt;
        now += dt;
    }

    /** The buffer reached @p v after charging for @p dt from @p t0. */
    void
    charged(Seconds t0, Seconds dt, Volts v)
    {
        MOUSE_OBS_HOOK(probe,
                       probe->sampleRecharge(t0, dt, cap.voltage(), v,
                                             cap.capacitance(), source));
        cap.setVoltage(v);
        MOUSE_OBS_HOOK(probe, probe->rechargeDone(t0 + dt));
    }

    Joules
    available() const
    {
        return cap.energyAbove(vLow);
    }

    /** Draw @p load joules of *load-side* energy from the buffer. */
    void
    drawLoad(Joules load)
    {
        cap.draw(converter.bufferEnergyFor(load));
    }

    Capacitor cap;
    SwitchedCapConverter converter;
    std::unique_ptr<PowerSource> sourceOwner;
    const PowerSource &source;
    Volts vLow;
    Volts vHigh;
    SimProbe *probe;
    /** Absolute simulation time (for time-varying sources). */
    Seconds now = 0.0;
};

/**
 * MOUSE as a policy of the shared harvested loop: a capacitor drained
 * through the converter, a dead attempt at the instruction the buffer
 * dies in, a restore of the Activate Columns checkpoint on restart,
 * and a replay of the instructions since the last checkpoint.
 */
class MousePolicy
{
  public:
    static constexpr bool kResample = true;
    /** Each copy's recharge waveform and events differ on a
     *  time-varying source, so MOUSE takes only the closed form. */
    static constexpr bool kWalk = false;
    /** Index of the probe's mark (traced runs only). */
    using Mark = std::size_t;

    MousePolicy(const Trace &trace, const EnergyModel &energy,
                const HarvestConfig &harvest, SimProbe &probe,
                bool traced)
        : env(energy, harvest, traced ? &probe : nullptr),
          trace_(trace), energy_(energy), probe_(probe),
          cycle_(energy.cycleTime()),
          period_(std::max(1u, harvest.checkpointPeriod))
    {
    }

    Joules
    rechargeEnergy(bool) const
    {
        return env.cap.energyTo(env.vHigh);
    }

    void
    recharged(Seconds t0, Seconds dt)
    {
        env.charged(t0, dt, env.vHigh);
    }

    /** Re-issue the (single, in compiled kernels) Activate Columns
     *  checkpoint, then replay the instructions committed since the
     *  last checkpoint as Dead work (idempotent, so only their cost
     *  matters). */
    void
    restore(std::size_t blk, RunStats &stats, auto &clock)
    {
        const Joules restore =
            energy_.restoreEnergy(1, trace_.blocks[blk].activeColsAfter);
        const InstrCost &instr = costOf(blk).instr;
        stats.restoreEnergy += restore;
        stats.restoreTime += cycle_;
        MOUSE_OBS_HOOK(env.probe,
                       probe_.restore(clock.now, cycle_, restore));
        clock.advance(cycle_);
        env.drawLoad(restore);
        if (uncheckpointed_ > 0) {
            const double replay = static_cast<double>(uncheckpointed_);
            const Joules cost = instr.total() * replay;
            stats.deadEnergy += cost;
            stats.deadTime += cycle_ * replay;
            ++stats.instructionsDead;
            MOUSE_OBS_HOOK(env.probe,
                           probe_.deadReplay(uncheckpointed_, clock.now,
                                             cycle_ * replay));
            clock.advance(cycle_ * replay);
            env.drawLoad(cost);
            uncheckpointed_ = 0;
        }
    }

    /** The source keeps trickling into the buffer while MOUSE
     *  executes: the net drain per instruction decides how many fit,
     *  and a source stronger than the draw runs continuously. */
    std::uint64_t
    execute(std::size_t blk, std::uint64_t, std::uint64_t left,
            Watts p, RunStats &stats, auto &clock)
    {
        const Cost &c = costOf(blk);
        const Joules credit = p * cycle_;
        const Joules net = c.buffer > credit ? c.buffer - credit : 0.0;
        const std::uint64_t n = std::min(
            left, net > 0.0
                      ? static_cast<std::uint64_t>(env.available() / net)
                      : left);
        if (n == 0) {
            return 0;
        }
        const double nd = static_cast<double>(n);
        const Seconds t0 = clock.now;
        env.cap.draw(net * nd);
        clock.advance(cycle_ * nd);
        stats.computeEnergy += c.instr.exec * nd;
        stats.backupEnergy += c.instr.backup * nd;
        stats.activeTime += cycle_ * nd;
        stats.instructionsCommitted += n;
        uncheckpointed_ = (uncheckpointed_ + n) % period_;
        MOUSE_OBS_HOOK(env.probe, {
            probe_.commitChunk(n, t0, clock.now - t0, period_);
            probe_.maybeSample(clock.now, env.cap.voltage(),
                               env.source.power(clock.now));
        });
        return n;
    }

    /** The attempt drains the buffer to the shutdown voltage and all
     *  of it is Dead; the restart resumes at the same instruction. */
    std::uint64_t
    outage(std::size_t blk, std::uint64_t pos, bool, RunStats &stats,
           auto &clock)
    {
        const Joules avail = env.available();
        const Joules cost = costOf(blk).buffer;
        const Seconds attempt =
            cycle_ * std::min(1.0, cost > 0.0 ? avail / cost : 0.0);
        const Joules wasted = avail * env.converter.efficiency();
        stats.deadEnergy += wasted;
        stats.deadTime += attempt;
        MOUSE_OBS_HOOK(env.probe,
                       probe_.outageBegin(clock.now, attempt, wasted));
        clock.advance(attempt);
        ++stats.instructionsDead;
        ++stats.outages;
        env.cap.draw(avail);
        return pos;
    }

    /** A restart's cycle depends on the buffer voltage and the
     *  instructions not yet checkpointed; it reaches no further than
     *  the restart itself. */
    std::array<std::uint64_t, 3>
    key(std::uint64_t) const
    {
        return {0, std::bit_cast<std::uint64_t>(env.cap.voltage()),
                uncheckpointed_};
    }

    void shift(std::uint64_t) {}

    Mark
    mark()
    {
        MOUSE_OBS_HOOK(env.probe, marks_.push_back(probe_.mark()));
        return marks_.size();
    }

    void
    repeat(Mark m, std::uint64_t k, Seconds dt)
    {
        MOUSE_OBS_HOOK(env.probe,
                       probe_.repeatCycles(marks_[m - 1], k, dt));
    }

    void
    forget()
    {
        MOUSE_OBS_HOOK(env.probe, {
            probe_.forget();
            marks_.clear();
        });
    }

    HarvestEnv env;

  private:
    /** A block's instruction cost and its buffer-side energy. */
    struct Cost
    {
        InstrCost instr;
        Joules buffer;
    };

    /** The cost of block @p blk (of the last block asked for). */
    const Cost &
    costOf(std::size_t blk)
    {
        if (blk != costBlock_) {
            InstrCost cost = traceInstrCost(energy_, trace_.blocks[blk]);
            // A wider checkpoint period amortizes the per-cycle
            // backup.
            cost.backup /= period_;
            cost_ = {cost, env.converter.bufferEnergyFor(cost.total())};
            costBlock_ = blk;
        }
        return cost_;
    }

    const Trace &trace_;
    const EnergyModel &energy_;
    SimProbe &probe_;
    Seconds cycle_;
    unsigned period_;
    Cost cost_{};
    std::size_t costBlock_ = ~std::size_t{0};
    std::vector<SimProbe::Mark> marks_;
    /** Instructions committed since the last checkpoint; an outage
     *  replays them (Section IV-D trade-off). */
    std::uint64_t uncheckpointed_ = 0;
};

} // namespace

Farads
effectiveCapacitance(const HarvestConfig &harvest, Farads techBuffer)
{
    if (harvest.capacitanceOverride > 0.0) {
        return harvest.capacitanceOverride;
    }
    if (!harvest.platform.empty()) {
        const Platform *p = platformByName(harvest.platform);
        if (p == nullptr) {
            mouse_fatal("unknown platform '%s'",
                        harvest.platform.c_str());
        }
        return p->capacitance;
    }
    return techBuffer;
}

double
effectiveConverterEfficiency(const HarvestConfig &harvest)
{
    if (harvest.platform.empty()) {
        return harvest.converterEfficiency;
    }
    const Platform *p = platformByName(harvest.platform);
    if (p == nullptr) {
        mouse_fatal("unknown platform '%s'",
                    harvest.platform.c_str());
    }
    return harvest.converterEfficiency * p->converterEfficiency;
}

RunStats
runContinuousFunctional(Controller &ctrl, obs::Telemetry *telem)
{
    RunStats stats;
    SimProbe probe(telem);
    const Seconds cycle = ctrl.energyModel().cycleTime();
    while (!ctrl.halted()) {
        const std::size_t pc = ctrl.pc();
        const StepResult r = ctrl.step();
        stats.computeEnergy += r.energy - r.backupEnergy;
        stats.backupEnergy += r.backupEnergy;
        stats.activeTime += cycle;
        if (!r.halted) {
            ++stats.instructionsCommitted;
            MOUSE_OBS_HOOK(telem,
                           probe.commitInstr(
                               stats.activeTime - cycle, cycle, pc,
                               static_cast<int>(r.inst.op)));
        }
    }
    stats.idleEnergy +=
        ctrl.energyModel().idlePower() * stats.activeTime;
    MOUSE_OBS_HOOK(telem, probe.finalize(stats));
    return stats;
}

RunStats
runContinuousTrace(const Trace &trace, const EnergyModel &energy,
                   obs::Telemetry *telem)
{
    RunStats stats;
    SimProbe probe(telem);
    const Seconds cycle = energy.cycleTime();
    for (const TraceBlock &blk : trace.blocks) {
        const InstrCost cost = traceInstrCost(energy, blk);
        const double n = static_cast<double>(blk.count);
        MOUSE_OBS_HOOK(telem,
                       probe.commitChunk(blk.count,
                                         stats.activeTime,
                                         cycle * n, 1));
        stats.computeEnergy += cost.exec * n;
        stats.backupEnergy += cost.backup * n;
        stats.activeTime += cycle * n;
        stats.instructionsCommitted += blk.count;
    }
    stats.idleEnergy +=
        energy.idlePower() * stats.activeTime;
    MOUSE_OBS_HOOK(telem, probe.finalize(stats));
    return stats;
}

RunStats
runHarvestedTrace(const Trace &trace, const EnergyModel &energy,
                  const HarvestConfig &harvest,
                  obs::Telemetry *telem)
{
    SimProbe probe(telem);
    MousePolicy policy(trace, energy, harvest, probe, telem != nullptr);
    RunStats stats = runHarvestLoop(policy, policy.env.source, 1.0,
                                    trace.blocks,
                                    harvest.nonTerminationLimit);
    stats.idleEnergy += energy.idlePower() * stats.activeTime;
    MOUSE_OBS_HOOK(telem, probe.finalize(stats));
    return stats;
}

namespace
{

/** Map the failing load fraction onto a Figure-7 micro-step. */
MicroStep
microStepFor(double fraction, Rng &rng)
{
    // The fetch and commit machinery occupy small windows at the
    // cycle's ends; most of the cycle is the array operation.  Add
    // jitter so repeated outages do not always land identically.
    const double f =
        std::clamp(fraction + rng.uniform(-0.05, 0.05), 0.0, 1.0);
    if (f < 0.08) {
        return MicroStep::kFetch;
    }
    if (f < 0.80) {
        return MicroStep::kExecute;
    }
    if (f < 0.94) {
        return MicroStep::kWritePc;
    }
    return MicroStep::kCommit;
}

} // namespace

RunStats
runScheduledFunctional(Controller &ctrl,
                       const OutageSchedule &schedule,
                       std::uint64_t maxAttempts,
                       obs::Telemetry *telem)
{
    RunStats stats;
    SimProbe probe(telem);
    const EnergyModel &energy = ctrl.energyModel();
    const Seconds cycle = energy.cycleTime();
    const unsigned period = std::max(1u, schedule.checkpointPeriod);

    std::size_t next = 0;
    std::uint64_t attempt = 0;
    // Window-checkpoint emulation: the PC a SONIC-style restart
    // rolls back to, advanced every `period` committed instructions.
    std::size_t windowStart = ctrl.pc();
    std::uint64_t sinceCheckpoint = 0;
    Seconds now = 0.0;

    while (!ctrl.halted()) {
        if (maxAttempts > 0 && attempt >= maxAttempts) {
            // Non-terminating under this schedule; the caller sees
            // halted() == false.
            break;
        }
        if (next < schedule.points.size() &&
            attempt >= schedule.points[next].attempt) {
            const OutagePoint &p = schedule.points[next++];
            const double f = std::clamp(p.fraction, 0.0, 1.0);
            const Joules wasted = ctrl.stepInterrupted(p.step, f);
            ++attempt;
            stats.deadEnergy += wasted;
            stats.deadTime += cycle * f;
            ++stats.instructionsDead;
            ++stats.outages;
            MOUSE_OBS_HOOK(telem, {
                probe.outageBegin(now, cycle * f, wasted);
                // The schedule abstracts the environment away: power
                // is back as soon as the restart protocol can run.
                probe.rechargeDone(now + cycle * f);
            });
            now += cycle * f;
            ctrl.powerLoss();
            if (schedule.restoreJournal) {
                const RestartResult rr = ctrl.restart();
                const Seconds dt =
                    cycle * static_cast<double>(rr.restoreCycles);
                stats.restoreEnergy += rr.restoreEnergy;
                stats.restoreTime += dt;
                MOUSE_OBS_HOOK(telem,
                               probe.restore(now, dt,
                                             rr.restoreEnergy));
                now += dt;
            }
            if (period > 1) {
                if (!schedule.checkpoints.empty()) {
                    // Roll back to the last checkpoint the run
                    // crossed (largest checkpoint PC <= current PC).
                    const auto it = std::upper_bound(
                        schedule.checkpoints.begin(),
                        schedule.checkpoints.end(),
                        static_cast<std::uint32_t>(ctrl.pc()));
                    if (it != schedule.checkpoints.begin()) {
                        ctrl.rollbackPc(*(it - 1));
                    }
                } else {
                    ctrl.rollbackPc(windowStart);
                }
                sinceCheckpoint = 0;
            }
            continue;
        }
        const std::size_t pc = ctrl.pc();
        const StepResult r = ctrl.step();
        ++attempt;
        stats.computeEnergy += r.energy - r.backupEnergy;
        stats.backupEnergy += r.backupEnergy;
        stats.activeTime += cycle;
        if (!r.halted) {
            ++stats.instructionsCommitted;
            MOUSE_OBS_HOOK(telem,
                           probe.commitInstr(
                               now, cycle, pc,
                               static_cast<int>(r.inst.op)));
            if (period > 1 && ++sinceCheckpoint >= period) {
                windowStart = ctrl.pc();
                sinceCheckpoint = 0;
            }
        }
        now += cycle;
    }
    stats.idleEnergy += energy.idlePower() * stats.activeTime;
    MOUSE_OBS_HOOK(telem, probe.finalize(stats));
    return stats;
}

RunStats
runHarvestedFunctional(Controller &ctrl, const HarvestConfig &harvest,
                       obs::Telemetry *telem)
{
    RunStats stats;
    SimProbe probe(telem);
    const EnergyModel &energy = ctrl.energyModel();
    const Seconds cycle = energy.cycleTime();
    HarvestEnv env(energy, harvest, telem ? &probe : nullptr);
    Rng rng(harvest.seed);
    env.rechargeTo(env.vHigh, stats);

    unsigned consecutive_failures = 0;
    while (!ctrl.halted()) {
        const Instruction inst = ctrl.peekInstruction();
        InstrCost cost;
        cost.exec =
            energy.fetchEnergy() +
            energy.estimateInstructionEnergy(
                inst.op, ctrl.touchedColumns(inst));
        if (inst.op != Opcode::kHalt) {
            cost.backup = energy.backupEnergyPerCycle();
            if (inst.op == Opcode::kActivateList ||
                inst.op == Opcode::kActivateRange) {
                cost.backup += energy.actRegisterBackupEnergy();
            }
        }
        const Joules buffer_cost =
            env.converter.bufferEnergyFor(cost.total());
        const Joules avail = env.available();

        if (avail >= buffer_cost) {
            consecutive_failures = 0;
            const std::size_t pc = ctrl.pc();
            const StepResult r = ctrl.step();
            env.drawLoad(r.energy);
            // Source credit for the cycle, capped at the window top.
            env.cap.charge(env.source.power(env.now), cycle);
            if (env.cap.voltage() > env.vHigh) {
                env.cap.setVoltage(env.vHigh);
            }
            env.advance(cycle);
            stats.computeEnergy += r.energy - r.backupEnergy;
            stats.backupEnergy += r.backupEnergy;
            stats.activeTime += cycle;
            if (!r.halted) {
                ++stats.instructionsCommitted;
                MOUSE_OBS_HOOK(telem, {
                    probe.commitInstr(env.now - cycle, cycle, pc,
                                      static_cast<int>(r.inst.op));
                    probe.maybeSample(env.now, env.cap.voltage(),
                                      env.source.power(env.now));
                });
            }
            continue;
        }

        // The buffer cannot cover this instruction: it dies at the
        // micro-step where the energy runs out.
        const double fraction =
            buffer_cost > 0.0 ? avail / buffer_cost : 0.0;
        const MicroStep at = microStepFor(fraction, rng);
        const double exec_fraction = std::clamp(
            (fraction - 0.08) / 0.72, 0.0, 1.0);
        const Joules wasted = ctrl.stepInterrupted(at, exec_fraction);
        env.cap.draw(env.available());  // drained to the threshold
        stats.deadEnergy += wasted;
        stats.deadTime += cycle * std::min(1.0, fraction);
        MOUSE_OBS_HOOK(
            telem,
            probe.outageBegin(env.now,
                              cycle * std::min(1.0, fraction),
                              wasted));
        env.advance(cycle * std::min(1.0, fraction));
        ++stats.instructionsDead;
        ++stats.outages;
        ctrl.powerLoss();

        env.rechargeTo(env.vHigh, stats);
        const RestartResult rr = ctrl.restart();
        stats.restoreEnergy += rr.restoreEnergy;
        stats.restoreTime +=
            cycle * static_cast<double>(rr.restoreCycles);
        MOUSE_OBS_HOOK(
            telem,
            probe.restore(env.now,
                          cycle *
                              static_cast<double>(rr.restoreCycles),
                          rr.restoreEnergy));
        env.advance(cycle * static_cast<double>(rr.restoreCycles));
        env.drawLoad(rr.restoreEnergy);

        if (++consecutive_failures > harvest.nonTerminationLimit) {
            mouse_fatal("non-termination at PC %zu: instruction "
                        "needs %.3g J but a full burst provides "
                        "%.3g J",
                        ctrl.pc(), buffer_cost, env.available());
        }
    }
    stats.idleEnergy += energy.idlePower() * stats.activeTime;
    MOUSE_OBS_HOOK(telem, probe.finalize(stats));
    return stats;
}

} // namespace mouse
