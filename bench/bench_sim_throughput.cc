/**
 * @file
 * Google-benchmark microbenchmarks of the simulator itself: gate
 * operating-point solving, tile-level functional execution, one
 * served batch, trace-level simulation throughput, and the parallel
 * experiment engine's points/sec on the full Figure-9 grid (serial
 * vs N threads).  These guard against performance regressions that would
 * make the Figure 9 sweeps impractical.
 */

#include <benchmark/benchmark.h>

#include "baseline/mcu/eh_scheme.hh"
#include "baseline/mcu/mcu_model.hh"
#include "compile/builder.hh"
#include "controller/controller.hh"
#include "serve/demo.hh"
#include "serve/service.hh"
#include "sim/simulator.hh"
#include "workloads.hh"

using namespace mouse;

namespace
{

void
BM_SolveGateLibrary(benchmark::State &state)
{
    const DeviceConfig cfg = makeDeviceConfig(TechConfig::ModernStt);
    for (auto _ : state) {
        GateLibrary lib(cfg);
        benchmark::DoNotOptimize(&lib);
    }
}
BENCHMARK(BM_SolveGateLibrary);

/** Gate @p g in the first state.range(0) columns of a 1024x1024
 *  ProjectedStt tile, on the word path or the scalar oracle. */
void
tileGateExecution(benchmark::State &state, GateType g, bool scalar)
{
    const GateLibrary lib(makeDeviceConfig(TechConfig::ProjectedStt));
    Tile tile(1024, 1024);
    ColumnSet cols(1024);
    cols.addRange(0, static_cast<ColAddr>(state.range(0) - 1));
    Tile::setScalarOracle(scalar);
    for (auto _ : state) {
        auto r = tile.executeGate(lib, g, {0, 2, 4}, 1, cols);
        benchmark::DoNotOptimize(r);
    }
    Tile::setScalarOracle(false);
    state.SetItemsProcessed(state.iterations() * state.range(0));
    state.counters["columns_per_gate"] =
        static_cast<double>(state.range(0));
}

void
BM_TileGateExecution(benchmark::State &state)
{
    tileGateExecution(state, GateType::kNand2, false);
}
BENCHMARK(BM_TileGateExecution)->Arg(16)->Arg(256)->Arg(1024);

/** The word path's 1- and 3-input kernels (BUF, MIN3). */
void
BM_TileGateExecutionByInputs(benchmark::State &state, GateType g)
{
    tileGateExecution(state, g, false);
}
BENCHMARK_CAPTURE(BM_TileGateExecutionByInputs, buf, GateType::kBuf)
    ->Arg(1024);
BENCHMARK_CAPTURE(BM_TileGateExecutionByInputs, min3, GateType::kMin3)
    ->Arg(1024);

/**
 * The retained per-column scalar model (the differential-test
 * oracle) on the identical workload.  The items/sec ratio against
 * BM_TileGateExecution is the word-parallel speedup; CI checks it
 * stays machine-independently large (tools/check_bench_regression.py).
 */
void
BM_TileGateExecutionScalar(benchmark::State &state)
{
    tileGateExecution(state, GateType::kNand2, true);
}
BENCHMARK(BM_TileGateExecutionScalar)->Arg(16)->Arg(256)->Arg(1024);

/**
 * One full batch of the demo BNN (256 requests) or SVM (128) on the
 * serving geometry (ProjectedStt, 512x1024): pack every slot, run
 * the program, read every prediction.  Weights are deployed once, as
 * an engine that keeps serving one model does (InferenceService
 * resets the controller between batches).
 */
void
BM_ServeBatch(benchmark::State &state, bool bnn)
{
    serve::ServiceConfig cfg;
    cfg.engine.tech = TechConfig::ProjectedStt;
    cfg.engine.array.tileRows = 512;
    cfg.engine.array.tileCols = 1024;
    cfg.engine.array.numDataTiles = 1;
    cfg.engine.array.numInstructionTiles = 4096;
    cfg.workers = 1;
    serve::InferenceService svc(cfg);
    const serve::ModelId id = bnn ? svc.addModel(serve::demoBnn(1))
                                  : svc.addModel(serve::demoSvm(2));
    const serve::PackedModel &m = svc.model(id);
    Rng rng(7);
    std::vector<serve::Input> in;
    for (unsigned s = 0; s < m.slots(); ++s) {
        in.push_back(serve::randomInput(rng, m));
    }
    Accelerator acc(cfg.engine);
    acc.loadProgram(m.program());
    m.deployWeights(acc.grid());
    std::vector<int> predicted(m.slots());
    for (auto _ : state) {
        acc.controller().reset();
        for (unsigned s = 0; s < m.slots(); ++s) {
            m.packInput(acc.grid(), s, in[s]);
        }
        const RunResult res = acc.execute(RunRequest{});
        for (unsigned s = 0; s < m.slots(); ++s) {
            predicted[s] = m.readPrediction(acc.grid(), s);
        }
        benchmark::DoNotOptimize(res.stats);
        benchmark::DoNotOptimize(predicted.data());
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(m.slots()));
}
BENCHMARK_CAPTURE(BM_ServeBatch, bnn, true)
    ->Unit(benchmark::kMicrosecond);
BENCHMARK_CAPTURE(BM_ServeBatch, svm, false)
    ->Unit(benchmark::kMicrosecond);

/**
 * Controller::step() over one full demo batch on the serving
 * geometry, from reset to HALT: the controller's fetch, execute and
 * commit per instruction without the run API around them.  Items are
 * instructions stepped.
 */
void
BM_ControllerStep(benchmark::State &state, bool bnn)
{
    serve::ServiceConfig cfg;
    cfg.engine.tech = TechConfig::ProjectedStt;
    cfg.engine.array.tileRows = 512;
    cfg.engine.array.tileCols = 1024;
    cfg.engine.array.numDataTiles = 1;
    cfg.engine.array.numInstructionTiles = 4096;
    serve::InferenceService svc(cfg);
    const serve::ModelId id = bnn ? svc.addModel(serve::demoBnn(1))
                                  : svc.addModel(serve::demoSvm(2));
    const serve::PackedModel &m = svc.model(id);
    Rng rng(7);
    Accelerator acc(cfg.engine);
    acc.loadProgram(m.program());
    m.deployWeights(acc.grid());
    for (unsigned s = 0; s < m.slots(); ++s) {
        m.packInput(acc.grid(), s, serve::randomInput(rng, m));
    }
    Controller &ctrl = acc.controller();
    std::int64_t steps = 0;
    for (auto _ : state) {
        ctrl.reset();
        while (!ctrl.halted()) {
            const StepResult r = ctrl.step();
            benchmark::DoNotOptimize(r.energy);
            ++steps;
        }
    }
    state.SetItemsProcessed(steps);
}
BENCHMARK_CAPTURE(BM_ControllerStep, bnn, true)
    ->Unit(benchmark::kMicrosecond);
BENCHMARK_CAPTURE(BM_ControllerStep, svm, false)
    ->Unit(benchmark::kMicrosecond);

void
BM_FunctionalAdder(benchmark::State &state)
{
    const GateLibrary lib(makeDeviceConfig(TechConfig::ProjectedStt));
    ArrayConfig cfg;
    cfg.tileRows = 128;
    cfg.tileCols = 8;
    cfg.numDataTiles = 1;
    cfg.numInstructionTiles = 64;
    KernelBuilder kb(lib, cfg, 0, 20);
    kb.activate(0, 7);
    Word s = kb.add(kb.pinnedWord(0, 4), kb.pinnedWord(8, 4));
    (void)s;
    const Program prog = kb.finish();
    const EnergyModel energy(lib);
    for (auto _ : state) {
        TileGrid grid(cfg, lib);
        InstructionMemory imem(cfg, lib);
        imem.load(prog.encode());
        Controller ctrl(grid, imem, energy);
        while (!ctrl.halted()) {
            ctrl.step();
        }
        benchmark::DoNotOptimize(&grid);
    }
    state.SetItemsProcessed(
        state.iterations() *
        static_cast<std::int64_t>(prog.size()));
}
BENCHMARK(BM_FunctionalAdder);

/**
 * TracePowerSource::power() lookup cost as the segment count grows.
 * The lookup is O(log n) via precomputed thresholds (bit-identical
 * to the historical linear scan); this point keeps the query on the
 * numeric integrator's hot path from regressing back to O(n).  The
 * queries start at 10^4 s, the absolute times harvested runs reach,
 * so the phase reduction pays for a quotient of 10^6 and more.
 */
void
BM_TracePowerSourceQuery(benchmark::State &state)
{
    std::vector<TracePowerSource::Segment> segs;
    for (std::int64_t i = 0; i < state.range(0); ++i) {
        segs.push_back(
            {1e-3 + 1e-5 * static_cast<double>(i % 7),
             static_cast<double>(i % 3) * 1e-4});
    }
    const TracePowerSource src(segs);
    Seconds t = 1e4;
    for (auto _ : state) {
        benchmark::DoNotOptimize(src.power(t));
        t += 1.7e-4;
    }
    state.SetItemsProcessed(state.iterations());
    state.counters["segments"] =
        static_cast<double>(state.range(0));
}
BENCHMARK(BM_TracePowerSourceQuery)->Arg(2)->Arg(16)->Arg(128);

void
BM_HarvestedTraceSvmMnist(benchmark::State &state)
{
    const GateLibrary lib(makeDeviceConfig(TechConfig::ModernStt));
    const EnergyModel energy(lib);
    const auto benchmarks = bench::paperBenchmarks();
    const Trace trace = bench::traceFor(lib, benchmarks[0]);
    HarvestConfig harvest;
    harvest.source = SourceSpec::constant(60e-6);
    for (auto _ : state) {
        const RunStats s = runHarvestedTrace(trace, energy, harvest);
        benchmark::DoNotOptimize(s);
    }
    state.SetItemsProcessed(
        state.iterations() *
        static_cast<std::int64_t>(trace.totalInstructions()));
}
BENCHMARK(BM_HarvestedTraceSvmMnist);

/**
 * The same trace under continuous power: no outages, so it costs one
 * step per block.  CI gates the items/sec ratio of
 * BM_HarvestedTraceSvmMnist to this one, which stays machine-
 * independently high only while repeated outage cycles are stepped
 * over in closed form instead of walked one at a time.
 */
void
BM_ContinuousTraceSvmMnist(benchmark::State &state)
{
    const GateLibrary lib(makeDeviceConfig(TechConfig::ModernStt));
    const EnergyModel energy(lib);
    const auto benchmarks = bench::paperBenchmarks();
    const Trace trace = bench::traceFor(lib, benchmarks[0]);
    for (auto _ : state) {
        const RunStats s = runContinuousTrace(trace, energy);
        benchmark::DoNotOptimize(s);
    }
    state.SetItemsProcessed(
        state.iterations() *
        static_cast<std::int64_t>(trace.totalInstructions()));
}
BENCHMARK(BM_ContinuousTraceSvmMnist);

/**
 * The same harvested run with every telemetry channel recording
 * (stats + events + waveform).  The delta against
 * BM_HarvestedTraceSvmMnist is the full observability overhead; the
 * tracing-off run above must stay within noise of historical numbers
 * (telemetry is a null pointer there, so the hooks cost one
 * never-taken branch).
 */
void
BM_HarvestedTraceSvmMnistTraced(benchmark::State &state)
{
    const GateLibrary lib(makeDeviceConfig(TechConfig::ModernStt));
    const EnergyModel energy(lib);
    const auto benchmarks = bench::paperBenchmarks();
    const Trace trace = bench::traceFor(lib, benchmarks[0]);
    HarvestConfig harvest;
    harvest.source = SourceSpec::constant(60e-6);
    obs::TraceConfig cfg;
    cfg.stats = true;
    cfg.events = true;
    cfg.waveform = true;
    for (auto _ : state) {
        obs::Telemetry telem = obs::Telemetry::make(cfg);
        const RunStats s =
            runHarvestedTrace(trace, energy, harvest, &telem);
        benchmark::DoNotOptimize(s);
        benchmark::DoNotOptimize(telem.stats.get());
    }
    state.SetItemsProcessed(
        state.iterations() *
        static_cast<std::int64_t>(trace.totalInstructions()));
}
BENCHMARK(BM_HarvestedTraceSvmMnistTraced);

/**
 * Clank on SVM HAR through the MCU model, harvested on the mementos
 * platform (34,497 outages from a constant 60 uW, 34,454 from the
 * harvest-matrix square wave), and on wall power.  CI gates the
 * items/sec ratio of the square run to the continuous one, which
 * stays high only while repeated outage cycles are stepped over —
 * in closed form or by walking their clock — instead of run one at
 * a time.
 */
void
BM_McuHarvestedClankSvmHar(benchmark::State &state, SourceSpec source)
{
    const GateLibrary lib(makeDeviceConfig(TechConfig::ModernStt));
    const Trace trace =
        bench::traceFor(lib, bench::paperBenchmarks()[2]);
    const mcu::McuProgram prog = mcu::mcuProgramFromTrace(trace);
    const auto clank = mcu::makeEhScheme("clank");
    HarvestConfig harvest;
    harvest.source = std::move(source);
    harvest.platform = "mementos";
    for (auto _ : state) {
        const RunStats s = mcu::mcuRunHarvested(prog, *clank, harvest);
        benchmark::DoNotOptimize(s);
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(prog.totalOps));
}
BENCHMARK_CAPTURE(BM_McuHarvestedClankSvmHar, constant,
                  SourceSpec::constant(60e-6));
BENCHMARK_CAPTURE(BM_McuHarvestedClankSvmHar, square,
                  SourceSpec::square(0.01, 0.3, 200e-6 / 0.3));

void
BM_McuContinuousClankSvmHar(benchmark::State &state)
{
    const GateLibrary lib(makeDeviceConfig(TechConfig::ModernStt));
    const Trace trace =
        bench::traceFor(lib, bench::paperBenchmarks()[2]);
    const mcu::McuProgram prog = mcu::mcuProgramFromTrace(trace);
    const auto clank = mcu::makeEhScheme("clank");
    for (auto _ : state) {
        const RunStats s = mcu::mcuRunContinuous(prog, *clank);
        benchmark::DoNotOptimize(s);
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(prog.totalOps));
}
BENCHMARK(BM_McuContinuousClankSvmHar);

/**
 * The full Figure-9 grid (3 techs x 6 benchmarks x 7 powers = 126
 * points) through the ExperimentRunner.  Arg = worker threads;
 * Arg(1) is the serial baseline, so the ratio of the points_per_s
 * counters is the parallel speedup that lands in BENCH_*.json.
 */
void
BM_Fig9GridPoints(benchmark::State &state)
{
    exp::SweepGrid grid;
    grid.techs = names::allTechs();
    grid.benchmarks = exp::paperBenchmarks();
    grid.powers = exp::powerSweep();
    const exp::ExperimentRunner runner(
        static_cast<unsigned>(state.range(0)));
    for (auto _ : state) {
        const exp::SweepResult res = runner.run(grid);
        benchmark::DoNotOptimize(res.points.data());
    }
    state.SetItemsProcessed(
        state.iterations() *
        static_cast<std::int64_t>(grid.size()));
    state.counters["points_per_s"] = benchmark::Counter(
        static_cast<double>(state.iterations() * grid.size()),
        benchmark::Counter::kIsRate);
}
BENCHMARK(BM_Fig9GridPoints)
    ->ArgName("threads")
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

/**
 * The runner's per-call floor: a forEach of 144 no-op indices (the
 * size of the paper-sweep grid) on one long-lived runner, so only
 * the fan-out itself is timed.  Arg = threads.  The host decides how
 * this scales, so no ratio of it is gated.
 */
void
BM_RunnerFanOut(benchmark::State &state)
{
    constexpr std::size_t kIndices = 144;
    const exp::ExperimentRunner runner(
        static_cast<unsigned>(state.range(0)));
    std::vector<std::size_t> seen(kIndices);
    for (auto _ : state) {
        runner.forEach(kIndices, [&](std::size_t i) { seen[i] = i; });
        benchmark::DoNotOptimize(seen.data());
        benchmark::ClobberMemory();
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(kIndices));
}
BENCHMARK(BM_RunnerFanOut)
    ->ArgName("threads")
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->UseRealTime()
    ->Unit(benchmark::kMicrosecond);

} // namespace

BENCHMARK_MAIN();
