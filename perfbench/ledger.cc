/**
 * @file
 * The per-layer metrics of a traced run, derived from its Ledger.
 * Timings are means per call unless the name says otherwise.
 */

#include <algorithm>
#include <cstdio>
#include <numeric>

#include "workloads.hh"

namespace perfbench
{

namespace
{

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

double
maxOf(const std::vector<double> &v)
{
    return v.empty() ? 0.0 : *std::max_element(v.begin(), v.end());
}

double
sum(const std::vector<double> &v)
{
    return std::accumulate(v.begin(), v.end(), 0.0);
}

} // namespace

bool
Ledger::sweepLayersComplete() const
{
    const auto filled = [](const std::vector<double> &v) {
        return !v.empty();
    };
    return filled(solveMs) && filled(traceBuildMs) &&
           filled(continuousMs) &&
           std::all_of(harvestedMs.begin(), harvestedMs.end(), filled) &&
           filled(chargeMs) &&
           std::all_of(mcuMs.begin(), mcuMs.end(), filled) &&
           filled(mcuChargeMs) && filled(executeOverheadUs) &&
           filled(pointMs) && harvestedOutages > 0.0;
}

void
addLayerMetrics(const Ledger &led, const Table4 &t4, Outcome &out)
{
    const double replays = std::max(1u, led.batchReplays);
    const double passWall = led.passWallSeconds;

    out.add("logic.solve_ms", mean(led.solveMs), "ms");

    out.add("compile.trace_build_ms", mean(led.traceBuildMs), "ms");
    out.add("compile.trace_insts", static_cast<double>(t4.traceInsts),
            "count");
    out.add("compile.model_compile_ms", mean(led.modelCompileMs), "ms");
    out.add("compile.program_insts.bnn",
            static_cast<double>(led.programInstsBnn), "count");
    out.add("compile.program_insts.svm",
            static_cast<double>(led.programInstsSvm), "count");

    out.add("sim.continuous_ms", mean(led.continuousMs), "ms");
    out.add("sim.harvested_ms.constant", mean(led.harvestedMs[0]), "ms");
    out.add("sim.harvested_ms.trace", mean(led.harvestedMs[1]), "ms");
    out.add("sim.harvested_ms.square", mean(led.harvestedMs[2]), "ms");
    out.add("sim.insts_per_host_s",
            ratio(led.mouseInsts, led.mouseHostSeconds), "1/s");
    out.add("sim.host_us_per_outage",
            ratio(led.harvestedHostSeconds * 1e6, led.harvestedOutages),
            "us");

    out.add("harvest.charge_ms", mean(led.chargeMs), "ms");
    const double serial = led.passLogicSeconds + led.passCompileSeconds +
                          led.passSimulateSeconds;
    out.add("harvest.share", ratio(led.chargeSeconds, serial), "ratio");

    out.add("baseline.mcu_ms.bec", mean(led.mcuMs[0]), "ms");
    out.add("baseline.mcu_ms.clank", mean(led.mcuMs[1]), "ms");
    out.add("baseline.charge_ms", mean(led.mcuChargeMs), "ms");

    out.add("exp.point_ms.p50", median(led.pointMs), "ms");
    out.add("exp.point_ms.max", maxOf(led.pointMs), "ms");
    out.add("exp.worker_utilization",
            ratio(sum(led.pointMs) / 1e3, passWall * led.passThreads),
            "ratio");
    out.add("exp.max_point_share", ratio(maxOf(led.pointMs) / 1e3, passWall),
            "ratio");

    out.add("core.execute_overhead_us", median(led.executeOverheadUs),
            "us");

    static const char *const kStepNs[3] = {"controller.step_ns.gate",
                                           "controller.step_ns.preset",
                                           "controller.step_ns.other"};
    static const char *const kSteps[3] = {"controller.steps.gate",
                                          "controller.steps.preset",
                                          "controller.steps.other"};
    for (std::size_t i = 0; i < 3; ++i) {
        out.add(kStepNs[i],
                ratio(led.stepSeconds[i] * 1e9,
                      static_cast<double>(led.steps[i])),
                "ns");
    }
    for (std::size_t i = 0; i < 3; ++i) {
        out.add(kSteps[i], static_cast<double>(led.steps[i]) / replays,
                "count");
    }
    const double stepTotal = led.stepSeconds[0] + led.stepSeconds[1] +
                             led.stepSeconds[2];
    out.add("arch.gate_share", ratio(led.stepSeconds[0], stepTotal),
            "ratio");

    out.add("serve.deploy_ms", mean(led.deployMs), "ms");
    out.add("serve.pack_ms", mean(led.packMs), "ms");
    out.add("serve.sim_ms", mean(led.simMs), "ms");
    out.add("serve.readout_ms", mean(led.readoutMs), "ms");
    out.add("serve.submit_us", mean(led.submitUs), "us");
    out.add("serve.worker_efficiency", median(led.workerEfficiency),
            "ratio");
    out.add("serve.slot_fill", ratio(led.slotRequests, led.slotsOffered),
            "ratio");

    out.add("obs.serve_tax",
            ratio(median(led.obsOnDrain), median(led.obsOffDrain)),
            "ratio");
    out.add("obs.sim_tax", led.simTax, "ratio");
    out.add("obs.bench_trace_overhead", led.benchTraceOverhead, "ratio");

    // Where the time goes: shares of the serial sweep pass and of
    // the replayed gate pass.
    auto share = [&](const char *name, double seconds, double whole) {
        char buf[120];
        std::snprintf(buf, sizeof(buf), "  %-28s %10.3f ms  %6.1f %%",
                      name, seconds * 1e3, 100.0 * ratio(seconds, whole));
        out.notes.push_back(buf);
    };
    out.notes.push_back("where the time goes, serial sweep pass (" +
                        std::to_string(serial * 1e3) + " ms):");
    share("logic (GateLibrary)", led.passLogicSeconds, serial);
    share("compile (traceFor)", led.passCompileSeconds, serial);
    share("simulate (sim, baseline)", led.passSimulateSeconds, serial);
    share("  of which charging", led.chargeSeconds, serial);
    const double batch = (sum(led.deployMs) + sum(led.packMs) +
                          sum(led.simMs) + sum(led.readoutMs)) /
                         1e3;
    out.notes.push_back("where the time goes, replayed gate passes (" +
                        std::to_string(batch * 1e3) + " ms):");
    share("serve deploy", sum(led.deployMs) / 1e3, batch);
    share("serve pack", sum(led.packMs) / 1e3, batch);
    share("serve sim", sum(led.simMs) / 1e3, batch);
    share("serve readout", sum(led.readoutMs) / 1e3, batch);
}

} // namespace perfbench
