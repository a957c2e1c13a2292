/**
 * @file
 * Scenario-matrix sweep: (workload x power source x platform).
 *
 * The harvesting scenario library (docs/HARVESTING.md) turns the
 * paper's single constant-power axis into a matrix of environments:
 * every corpus trace and platform preset crossed with the paper
 * benchmarks, run through the parallel ExperimentRunner.  The JSON
 * report deliberately carries no wall clock or thread count, so
 * `--threads 1` and `--threads 4` must emit byte-identical documents
 * — CI diffs them.
 *
 *   bench_scenario_matrix [--threads N] [--json]
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "common/json.hh"
#include "exp/names.hh"
#include "exp/runner.hh"

using namespace mouse;
using json::num;

namespace
{

/** Deterministic matrix document: schema + axes + per-point stats,
 *  no wall_seconds / threads (unlike SweepResult::toJson). */
std::string
matrixJson(const exp::SweepGrid &grid, const exp::SweepResult &res)
{
    std::string j = "{";
    j += "\"schema\":" + std::to_string(kResultSchemaVersion);
    j += ",\"matrix\":{\"benchmarks\":[";
    for (std::size_t i = 0; i < grid.benchmarks.size(); ++i) {
        if (i > 0) {
            j += ",";
        }
        j += "\"" + json::escape(grid.benchmarks[i].name) + "\"";
    }
    j += "],\"sources\":[";
    for (std::size_t i = 0; i < grid.sources.size(); ++i) {
        if (i > 0) {
            j += ",";
        }
        j += "\"" + json::escape(grid.sources[i].name()) + "\"";
    }
    j += "],\"platforms\":[";
    for (std::size_t i = 0; i < grid.platforms.size(); ++i) {
        if (i > 0) {
            j += ",";
        }
        j += "\"" + json::escape(grid.platforms[i]) + "\"";
    }
    j += "]},\"points\":[";
    for (std::size_t i = 0; i < res.points.size(); ++i) {
        const RunResult &r = res.points[i];
        if (i > 0) {
            j += ",";
        }
        j += "{\"index\":" + std::to_string(r.meta.index);
        j += ",\"benchmark\":\"" + json::escape(r.meta.benchmark) +
             "\"";
        j += ",\"source\":\"" + json::escape(r.meta.source) + "\"";
        j += ",\"platform\":\"" + json::escape(r.meta.platform) + "\"";
        j += ",\"power_w\":" + num(r.meta.power);
        j += ",\"seed\":" + std::to_string(r.meta.seed);
        j += ",\"stats\":" + toJson(r.stats);
        j += "}";
    }
    j += "]}";
    return j;
}

} // namespace

int
main(int argc, char **argv)
{
    unsigned threads = 1;
    bool json = false;
    for (int i = 1; i < argc; ++i) {
        if (!std::strcmp(argv[i], "--threads") && i + 1 < argc) {
            threads = static_cast<unsigned>(std::atoi(argv[++i]));
        } else if (!std::strcmp(argv[i], "--json")) {
            json = true;
        } else {
            std::fprintf(stderr,
                         "usage: bench_scenario_matrix [--threads N] "
                         "[--json]\n");
            return 2;
        }
    }

    const auto &all = exp::paperBenchmarks();
    exp::SweepGrid grid;
    grid.techs = {TechConfig::ModernStt};
    grid.benchmarks = {all[1], all[3]};
    grid.sources = {
        SourceSpec::constant(60e-6),
        SourceSpec::corpusTrace("solar-day-night"),
        SourceSpec::corpusTrace("rf-bursty"),
        SourceSpec::corpusTrace("piezo-impulse"),
        // 30 % duty square wave, 60 uW mean: the drought phase
        // guarantees outages on every platform.
        SourceSpec::square(0.01, 0.3, 200e-6),
    };
    grid.platforms = {"mementos", "nvp", "batteryless"};

    const exp::ExperimentRunner runner(threads);
    const exp::SweepResult res = runner.run(grid);
    for (const RunResult &r : res.points) {
        if (!r.ok()) {
            std::fprintf(stderr, "invalid point %zu: %s\n",
                         r.meta.index, runErrorMessage(r.error));
            return 2;
        }
    }

    if (json) {
        std::printf("%s\n", matrixJson(grid, res).c_str());
        return 0;
    }

    std::printf("Scenario matrix: %zu benchmarks x %zu sources x "
                "%zu platforms = %zu points\n\n",
                grid.benchmarks.size(), grid.sources.size(),
                grid.platforms.size(), res.points.size());
    std::printf("%-18s %-16s %-12s %10s %14s %10s\n", "benchmark",
                "source", "platform", "mean uW", "latency (us)",
                "outages");
    for (const RunResult &r : res.points) {
        std::printf("%-18s %-16s %-12s %10.1f %14.0f %10llu\n",
                    r.meta.benchmark.c_str(), r.meta.source.c_str(),
                    r.meta.platform.c_str(), r.meta.power * 1e6,
                    r.stats.totalTime() * 1e6,
                    static_cast<unsigned long long>(
                        r.stats.outages));
    }
    std::fprintf(stderr, "(%zu points in %.1f ms on %u threads)\n",
                 res.points.size(), res.wallSeconds * 1e3,
                 res.threads);
    return 0;
}
