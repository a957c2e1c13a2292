/**
 * @file
 * The sweep workloads (paper-sweep, harvest-matrix) and the serial
 * replay that splits a sweep pass into its layers.
 */

#include <algorithm>
#include <map>
#include <memory>

#include "baseline/mcu/mcu_model.hh"
#include "baseline/selector.hh"
#include "baseline/sonic_scheme.hh"
#include "checks.hh"
#include "core/accelerator.hh"
#include "exp/names.hh"
#include "exp/workloads.hh"
#include "workloads.hh"

namespace perfbench
{

using namespace mouse;

namespace
{

/** Fewest measured passes per run, whatever the time budget. */
constexpr unsigned kMinPasses = 3;

const exp::Benchmark &
benchmarkNamed(const std::string &key)
{
    return exp::paperBenchmarks()[*names::benchmarkIndex(key)];
}

/** Square wave: 10 ms period, 30 % duty, 200 uW mean. */
SourceSpec
squareSource()
{
    constexpr double kDuty = 0.3;
    return SourceSpec::square(0.01, kDuty, 200e-6 / kDuty);
}

/** 3 techs x 6 benchmarks x {continuous, the Figure 9 powers}. */
exp::SweepGrid
paperGrid(const Options &opt)
{
    exp::SweepGrid g;
    g.techs = names::allTechs();
    g.benchmarks = exp::paperBenchmarks();
    g.powers = {exp::kContinuousPower};
    for (const Watts p : exp::powerSweep()) {
        g.powers.push_back(p);
    }
    if (opt.tiny) {
        g.techs = {TechConfig::ModernStt};
        g.benchmarks = {benchmarkNamed("adult"), benchmarkNamed("finn")};
        g.powers = {exp::kContinuousPower, 1e-3};
    }
    g.rootSeed = opt.seed;
    return g;
}

/** One benchmark x schemes x {constant, corpus, square} sources on
 *  the mementos platform. */
exp::SweepGrid
harvestGrid(const Options &opt, const std::string &bench,
            std::vector<std::string> schemes)
{
    exp::SweepGrid g;
    g.benchmarks = {benchmarkNamed(bench)};
    g.sources = {SourceSpec::constant(60e-6),
                 SourceSpec::corpusTrace("solar-day-night"),
                 squareSource()};
    g.platforms = {"mementos"};
    g.schemes = std::move(schemes);
    g.rootSeed = opt.seed;
    return g;
}

exp::SweepGrid
workloadGrid(const Options &opt)
{
    if (opt.workload == "paper-sweep") {
        return paperGrid(opt);
    }
    if (opt.tiny) {
        return harvestGrid(opt, "har", {"mouse", "sonic"});
    }
    return harvestGrid(opt, "har",
                       {"mouse", "mcu:bec", "mcu:clank", "sonic"});
}

/** Every source kind and MCU scheme, on the smallest benchmark. */
exp::SweepGrid
probeGrid(const Options &opt)
{
    return harvestGrid(opt, "adult", {"mouse", "mcu:bec", "mcu:clank"});
}

/** One pass of @p grid and its host wall. */
struct Pass
{
    exp::SweepResult result;
    double wall = 0.0;
};

Pass
runPass(const exp::ExperimentRunner &runner, const exp::SweepGrid &grid)
{
    Pass p;
    const Clock::time_point t0 = Clock::now();
    p.result = runner.run(grid);
    p.wall = secondsSince(t0);
    return p;
}

std::size_t
failedPoints(const exp::SweepResult &r)
{
    return static_cast<std::size_t>(
        std::count_if(r.points.begin(), r.points.end(),
                      [](const RunResult &p) { return !p.ok(); }));
}

void
checkPassOk(const exp::SweepResult &r, const char *what, Outcome &out)
{
    std::string why;
    out.check(allPointsOk(r, &why), std::string(what) + ": " + why);
}

/** The pass's Modern STT continuous MOUSE points equal the direct
 *  Table IV simulation. */
void
checkTable4Points(const exp::SweepResult &r, const Table4 &t4,
                  Outcome &out)
{
    const auto &rows = paperTable4();
    for (const RunResult &p : r.points) {
        if (p.meta.tech != names::techName(TechConfig::ModernStt) ||
            p.meta.power != 0.0 || p.meta.system != "mouse") {
            continue;
        }
        for (std::size_t i = 0; i < rows.size(); ++i) {
            if (p.meta.benchmark == rows[i].benchmark) {
                out.check(p.stats.totalTime() * 1e6 == t4.latencyUs[i] &&
                              p.stats.totalEnergy() * 1e6 ==
                                  t4.energyUj[i],
                          "sweep point " + p.meta.benchmark +
                              " differs from the direct Table IV run");
            }
        }
    }
}

int
sourceKindIndex(const SourceSpec &s)
{
    switch (s.kind) {
      case SourceKind::kConstant:
        return 0;
      case SourceKind::kSquare:
        return 2;
      default:
        return 1;
    }
}

/**
 * Serial replay of every point of @p g, timing each layer call:
 * GateLibrary solve, traceFor, Accelerator::execute and the direct
 * simulator call it wraps, plus the continuous-power reference run
 * that isolates charge integration.  With @p passLevel the replay
 * also fills the per-pass exp/harvest shares.  When @p reference is
 * given, every replayed point must equal that pass's point.
 */
void
replayGrid(const exp::SweepGrid &g, const exp::SweepResult *reference,
           bool passLevel, Tracer &tr, Ledger &led, Outcome &out)
{
    static const char *const kHarvestedSpan[3] = {
        "sim.harvested.constant", "sim.harvested.trace",
        "sim.harvested.square"};
    struct Context
    {
        std::unique_ptr<GateLibrary> lib;
        std::unique_ptr<EnergyModel> energy;
        std::unique_ptr<Accelerator> acc;
    };
    double logic = 0.0;
    double compile = 0.0;
    double simulate = 0.0;
    double charge = 0.0;
    const std::size_t nm = g.margins.size();
    const std::size_t nb = g.benchmarks.size();
    std::vector<Context> ctx(g.techs.size() * nm);
    for (std::size_t c = 0; c < ctx.size(); ++c) {
        const TechConfig tech = g.techs[c / nm];
        const double margin = g.margins[c % nm];
        const double s = tr.span("logic.solve", c, [&] {
            ctx[c].lib = std::make_unique<GateLibrary>(
                makeDeviceConfig(tech), margin);
            ctx[c].energy = std::make_unique<EnergyModel>(*ctx[c].lib);
        });
        led.solveMs.push_back(s * 1e3);
        logic += s;
        tr.span("core.setup", c, [&] {
            MouseConfig mc;
            mc.tech = tech;
            mc.gateMargin = margin;
            ctx[c].acc = std::make_unique<Accelerator>(mc);
        });
    }
    std::vector<Trace> traces(ctx.size() * nb);
    for (std::size_t i = 0; i < traces.size(); ++i) {
        const double s = tr.span("compile.trace_build", i, [&] {
            traces[i] = exp::traceFor(*ctx[i / nb].lib,
                                      g.benchmarks[i % nb]);
        });
        led.traceBuildMs.push_back(s * 1e3);
        compile += s;
    }

    for (std::size_t i = 0; i < g.size(); ++i) {
        const exp::SweepPoint point = g.at(i);
        const std::size_t techIdx = static_cast<std::size_t>(
            std::find(g.techs.begin(), g.techs.end(), point.tech) -
            g.techs.begin());
        const std::size_t marginIdx = static_cast<std::size_t>(
            std::find(g.margins.begin(), g.margins.end(),
                      point.margin) -
            g.margins.begin());
        const std::size_t c = techIdx * nm + marginIdx;
        const Trace &trace = traces[c * nb + point.benchmark];
        const EnergyModel &energy = *ctx[c].energy;
        BaselineSelector sel;
        parseBaselineSelector(point.scheme, &sel);
        const HarvestConfig harvest = g.harvestFor(point);

        RunStats direct;
        double pointSeconds = 0.0;
        double directSeconds = 0.0;
        tr.span("exp.point", i, [&] {
            if (sel.system == BaselineSystem::kSonic) {
                const auto sb =
                    sonicBenchmarkFor(g.benchmarks[point.benchmark].name);
                if (!sb) {
                    out.check(false, "no SONIC calibration for " +
                                         g.benchmarks[point.benchmark].name);
                    return;
                }
                pointSeconds = tr.span("baseline.sonic", i, [&] {
                    direct = point.continuous()
                                 ? sonicRunContinuous(*sb)
                                 : sonicRunHarvested(*sb, point.power);
                });
                directSeconds = pointSeconds;
                return;
            }
            RunRequestBuilder rb;
            rb.trace(trace).baselineScheme(
                point.scheme.empty() ? "mouse" : point.scheme);
            if (point.continuous()) {
                rb.continuous();
            } else {
                rb.harvested(harvest);
            }
            const RunRequest req = rb.build();
            RunResult executed;
            const double execS = tr.span("core.execute", i, [&] {
                executed = ctx[c].acc->execute(req);
            });
            double directS = 0.0;
            if (sel.system == BaselineSystem::kMcu) {
                const auto scheme = mcu::makeEhScheme(sel.scheme);
                mcu::McuProgram mp;
                directS += tr.span("baseline.mcu_program", i, [&] {
                    mp = mcu::mcuProgramFromTrace(
                        trace, point.checkpointPeriod > 1
                                   ? point.checkpointPeriod
                                   : 0);
                });
                if (point.continuous()) {
                    directS += tr.span("baseline.mcu_continuous", i, [&] {
                        direct = mcu::mcuRunContinuous(mp, *scheme);
                    });
                } else {
                    const double runS = tr.span("baseline.mcu", i, [&] {
                        direct = mcu::mcuRunHarvested(mp, *scheme, harvest);
                    });
                    const double refS =
                        tr.span("baseline.mcu_continuous", i, [&] {
                            mcu::mcuRunContinuous(mp, *scheme);
                        });
                    directS += runS;
                    if (sel.scheme == "bec" || sel.scheme == "clank") {
                        led.mcuMs[sel.scheme == "bec" ? 0 : 1].push_back(
                            runS * 1e3);
                    }
                    led.mcuChargeMs.push_back((runS - refS) * 1e3);
                    charge += runS - refS;
                }
            } else if (point.continuous()) {
                directS = tr.span("sim.continuous", i, [&] {
                    direct = runContinuousTrace(trace, energy);
                });
                led.continuousMs.push_back(directS * 1e3);
            } else {
                const int kind = sourceKindIndex(point.source);
                directS = tr.span(kHarvestedSpan[kind], i, [&] {
                    direct = runHarvestedTrace(trace, energy, harvest);
                });
                const double refS = tr.span("sim.continuous", i, [&] {
                    runContinuousTrace(trace, energy);
                });
                led.harvestedMs[static_cast<std::size_t>(kind)].push_back(
                    directS * 1e3);
                led.continuousMs.push_back(refS * 1e3);
                led.chargeMs.push_back((directS - refS) * 1e3);
                led.harvestedHostSeconds += directS;
                led.harvestedOutages +=
                    static_cast<double>(direct.outages);
                charge += directS - refS;
            }
            if (sel.system == BaselineSystem::kMouse) {
                led.mouseInsts += static_cast<double>(
                    direct.instructionsCommitted +
                    direct.instructionsDead);
                led.mouseHostSeconds += directS;
            }
            led.executeOverheadUs.push_back((execS - directS) * 1e6);
            out.check(executed.ok() &&
                          toJson(executed.stats) == toJson(direct),
                      "Accelerator::execute differs from the direct "
                      "call at point " +
                          std::to_string(i));
            pointSeconds = execS;
            directSeconds = directS;
        });
        if (reference != nullptr) {
            out.check(toJson(reference->points[i].stats) == toJson(direct),
                      "replayed point " + std::to_string(i) +
                          " differs from the sweep pass");
        }
        if (passLevel) {
            led.pointMs.push_back(pointSeconds * 1e3);
            simulate += directSeconds;
        }
    }
    if (passLevel) {
        led.passLogicSeconds = logic;
        led.passCompileSeconds = compile;
        led.passSimulateSeconds = simulate;
        led.chargeSeconds = charge;
    }
}

/**
 * Measured passes for the time budget.  In a traced run passes
 * alternate between untraced and traced (inside an exp.pass span),
 * and the ratio of their median walls is obs.bench_trace_overhead.
 */
struct Measured
{
    std::vector<double> pointsPerSecond;
    /** Per pass: p50 and p99 of its points' host run times. */
    std::vector<double> latencyP50Ms;
    std::vector<double> latencyP99Ms;
    std::vector<double> untracedWall;
    std::vector<double> tracedWall;
    double rssMb = 0.0;
    exp::SweepResult last;
};

Measured
measurePasses(const Options &opt, const exp::SweepGrid &grid,
              Tracer &tr, Outcome &out)
{
    Measured m;
    const exp::ExperimentRunner runner(opt.threads);
    const Clock::time_point t0 = Clock::now();
    for (unsigned n = 0;
         n < kMinPasses || secondsSince(t0) < opt.seconds; ++n) {
        Pass p;
        if (opt.trace && n % 2 == 1) {
            tr.span("exp.pass", n, [&] { p = runPass(runner, grid); });
            m.tracedWall.push_back(p.wall);
        } else {
            p = runPass(runner, grid);
            m.untracedWall.push_back(p.wall);
        }
        checkPassOk(p.result, "measured pass", out);
        out.attempted += p.result.points.size();
        out.failed += failedPoints(p.result);
        m.pointsPerSecond.push_back(
            static_cast<double>(p.result.points.size()) / p.wall);
        std::vector<double> pointMs;
        for (const RunResult &r : p.result.points) {
            pointMs.push_back(r.wallSeconds * 1e3);
        }
        m.latencyP50Ms.push_back(percentile(pointMs, 0.50));
        m.latencyP99Ms.push_back(percentile(pointMs, 0.99));
        m.last = std::move(p.result);
    }
    m.rssMb = peakRssMb();
    return m;
}

} // namespace

Table4
simulateTable4()
{
    const GateLibrary lib(makeDeviceConfig(TechConfig::ModernStt));
    const EnergyModel energy(lib);
    Table4 t;
    for (const PaperRow &row : paperTable4()) {
        for (const exp::Benchmark &b : exp::paperBenchmarks()) {
            if (b.name != row.benchmark) {
                continue;
            }
            const Trace trace = exp::traceFor(lib, b);
            const RunStats s = runContinuousTrace(trace, energy);
            t.latencyUs.push_back(s.totalTime() * 1e6);
            t.energyUj.push_back(s.totalEnergy() * 1e6);
            t.traceInsts += trace.totalInstructions();
        }
    }
    return t;
}

void
addPaperGaps(const Table4 &t, Outcome &out)
{
    std::vector<double> lat;
    std::vector<double> energy;
    for (const PaperRow &row : paperTable4()) {
        lat.push_back(row.latencyUs);
        energy.push_back(row.energyUj);
    }
    out.add("paper_gap_latency", paperGap(t.latencyUs, lat), "ratio");
    out.add("paper_gap_energy", paperGap(t.energyUj, energy), "ratio");
}

double
measureSimTax(Tracer &tr)
{
    const GateLibrary lib(makeDeviceConfig(TechConfig::ModernStt));
    const EnergyModel energy(lib);
    const Trace trace = exp::traceFor(lib, benchmarkNamed("har"));
    const HarvestConfig harvest; // the paper's constant 60 uW
    obs::TraceConfig all;
    all.stats = all.events = all.waveform = true;
    std::vector<double> plain;
    std::vector<double> full;
    for (unsigned r = 0; r < 3; ++r) {
        plain.push_back(tr.span("obs.sim_plain", r, [&] {
            runHarvestedTrace(trace, energy, harvest);
        }));
        full.push_back(tr.span("obs.sim_telemetry", r, [&] {
            obs::Telemetry telem = obs::Telemetry::make(all);
            runHarvestedTrace(trace, energy, harvest, &telem);
        }));
    }
    return median(full) / median(plain);
}

void
probeSweepLayers(const Options &opt, Tracer &tr, Ledger &led,
                 Outcome &out)
{
    const exp::SweepGrid g = probeGrid(opt);
    const bool passLevel = led.pointMs.empty();
    exp::SweepResult pass;
    if (passLevel) {
        // The probe grid is this run's only grid: time its passes
        // too, for the exp utilisation metrics.
        const exp::ExperimentRunner runner(opt.threads);
        std::vector<double> walls;
        for (unsigned n = 0; n < kMinPasses; ++n) {
            Pass p;
            tr.span("exp.pass", n, [&] { p = runPass(runner, g); });
            checkPassOk(p.result, "probe pass", out);
            walls.push_back(p.wall);
            pass = std::move(p.result);
        }
        led.passWallSeconds = median(walls);
        led.passThreads = opt.threads;
    }
    tr.span("probe.sweep_replay", 0, [&] {
        replayGrid(g, passLevel ? &pass : nullptr, passLevel, tr, led,
                   out);
    });
}

void
runSweepWorkload(const Options &opt, Tracer &tr, Outcome &out)
{
    const exp::SweepGrid grid = workloadGrid(opt);

    // Set-up: a cold pass on a fresh runner.
    const double setup = medianSetup(opt.start, [&] {
        tr.span("setup.pass", 0, [&] {
            const exp::ExperimentRunner runner(opt.threads);
            checkPassOk(runner.run(grid), "set-up pass", out);
        });
    });

    Measured m = measurePasses(opt, grid, tr, out);

    // Determinism: one pass repeated on one thread is byte-identical.
    tr.span("check.serial_pass", 0, [&] {
        const exp::ExperimentRunner serial(1);
        std::string why;
        out.check(samePass(m.last, serial.run(grid), &why),
                  "1-thread pass: " + why);
    });
    const Table4 t4 = simulateTable4();
    if (opt.workload == "paper-sweep" && !opt.tiny) {
        checkTable4Points(m.last, t4, out);
    }

    if (!opt.trace) {
        double energy = 0.0;
        for (const RunResult &p : m.last.points) {
            energy += p.stats.totalEnergy();
        }
        out.add("setup_s", setup, "s");
        out.add("peak_rss_mb", m.rssMb, "MB");
        out.add("classifications_per_s", median(m.pointsPerSecond),
                "1/s");
        out.add("latency_p50_ms", median(m.latencyP50Ms), "ms");
        out.add("latency_p99_ms", median(m.latencyP99Ms), "ms");
        addPaperGaps(t4, out);
        out.add("sim_uj_per_classification",
                energy * 1e6 / static_cast<double>(m.last.points.size()),
                "uJ");
        out.notes.push_back(
            "passes: " + std::to_string(m.pointsPerSecond.size()) + " of " +
            std::to_string(grid.size()) + " points; points/s quartiles " +
            std::to_string(percentile(m.pointsPerSecond, 0.25)) + " " +
            std::to_string(percentile(m.pointsPerSecond, 0.5)) + " " +
            std::to_string(percentile(m.pointsPerSecond, 0.75)));
        return;
    }

    Ledger led;
    led.passWallSeconds = median(m.untracedWall);
    led.passThreads = opt.threads;
    led.benchTraceOverhead = median(m.tracedWall) / median(m.untracedWall);
    tr.span("replay.sweep", 0,
            [&] { replayGrid(grid, &m.last, true, tr, led, out); });
    if (!led.sweepLayersComplete()) {
        probeSweepLayers(opt, tr, led, out);
    }
    probeServeLayers(opt, tr, 2, led, out);
    led.simTax = measureSimTax(tr);
    addLayerMetrics(led, t4, out);
}

} // namespace perfbench
