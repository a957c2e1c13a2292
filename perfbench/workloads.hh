/**
 * @file
 * The three benchmark workloads and the per-layer ledger their
 * traced runs fill.
 *
 *   paper-sweep     Table IV / Figure 9 grid through ExperimentRunner
 *   harvest-matrix  SVM HAR x schemes x harvested sources
 *   serve-mixed     closed-loop BNN+SVM serving windows
 *
 * An untraced run reports the end-to-end metrics.  A traced run
 * reports every per-layer metric: layers on the workload's own path
 * are timed on its own inputs; a layer the workload does not reach
 * is timed on the fixed probe inputs (a small harvested grid, one
 * BNN and one SVM serving batch), so every layer is measured on
 * every workload.
 */

#ifndef PERFBENCH_WORKLOADS_HH
#define PERFBENCH_WORKLOADS_HH

#include <array>
#include <cstdint>
#include <vector>

#include "bench.hh"

namespace perfbench
{

/** Host timings and counts collected by a traced run. */
struct Ledger
{
    // logic / compile
    std::vector<double> solveMs;
    std::vector<double> traceBuildMs;
    std::vector<double> modelCompileMs;
    std::uint64_t programInstsBnn = 0;
    std::uint64_t programInstsSvm = 0;

    // sim / harvest / baseline / core, per call
    std::vector<double> continuousMs;
    /** runHarvestedTrace by source kind: constant, trace, square. */
    std::array<std::vector<double>, 3> harvestedMs;
    std::vector<double> chargeMs;
    double mouseInsts = 0.0;
    double mouseHostSeconds = 0.0;
    double harvestedHostSeconds = 0.0;
    double harvestedOutages = 0.0;
    /** mcuRunHarvested by scheme: bec, clank. */
    std::array<std::vector<double>, 2> mcuMs;
    std::vector<double> mcuChargeMs;
    std::vector<double> executeOverheadUs;

    // exp: the first replayed grid's pass
    std::vector<double> pointMs;
    /** Serial pass = logic + compile + direct simulator calls. */
    double passLogicSeconds = 0.0;
    double passCompileSeconds = 0.0;
    double passSimulateSeconds = 0.0;
    /** Part of the simulator calls spent integrating charge. */
    double chargeSeconds = 0.0;
    double passWallSeconds = 0.0;
    unsigned passThreads = 1;

    // controller / arch, per step of the batch replays
    std::array<double, 3> stepSeconds{};
    std::array<std::uint64_t, 3> steps{};
    /** Times each batch was stepped through (steps counts all). */
    unsigned batchReplays = 0;

    // serve, per replayed batch and per window
    std::vector<double> deployMs;
    std::vector<double> packMs;
    std::vector<double> simMs;
    std::vector<double> readoutMs;
    std::vector<double> submitUs;
    std::vector<double> workerEfficiency;
    double slotRequests = 0.0;
    double slotsOffered = 0.0;
    std::vector<double> obsOnDrain;
    std::vector<double> obsOffDrain;

    // obs
    double simTax = 0.0;
    double benchTraceOverhead = 0.0;

    /** True once every sweep-layer bucket holds a sample. */
    bool sweepLayersComplete() const;
};

/** Table IV rows simulated directly (Modern STT, continuous). */
struct Table4
{
    std::vector<double> latencyUs;
    std::vector<double> energyUj;
    /** Trace::totalInstructions() summed over the six rows. */
    std::uint64_t traceInsts = 0;
};

Table4 simulateTable4();

/** paper_gap_latency / paper_gap_energy of @p t. */
void addPaperGaps(const Table4 &t, Outcome &out);

/** Run the named sweep workload (paper-sweep | harvest-matrix). */
void runSweepWorkload(const Options &opt, Tracer &tracer,
                      Outcome &out);

/** Run serve-mixed. */
void runServeWorkload(const Options &opt, Tracer &tracer,
                      Outcome &out);

/** Fill the sweep-layer part of @p led from the probe grid. */
void probeSweepLayers(const Options &opt, Tracer &tracer,
                      Ledger &led, Outcome &out);

/** Fill the serve-layer part of @p led from a short serving run
 *  of @p windows windows plus one BNN and one SVM batch replay. */
void probeServeLayers(const Options &opt, Tracer &tracer,
                      unsigned windows, Ledger &led, Outcome &out);

/** obs.sim_tax: runHarvestedTrace with stats, events and waveform
 *  on, over the same run with them off. */
double measureSimTax(Tracer &tracer);

/** Report every per-layer metric from @p led, in fixed order. */
void addLayerMetrics(const Ledger &led, const Table4 &t4,
                     Outcome &out);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HH
