/**
 * @file
 * perfbench: the repository benchmark driver.
 *
 *   perfbench --workload paper-sweep|harvest-matrix|serve-mixed
 *             --seed N --seconds S --trace 0|1
 *             [--tiny] [--trace-out FILE] [--commit REV]
 *
 * Prints a host-context line, notes, and as its last line one JSON
 * object {"correct","attempted","failed","metrics"}: the end-to-end
 * metrics with --trace 0, the per-layer metrics with --trace 1.
 * Exits 1 when a correctness check fails, 2 on a usage error.
 */

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <thread>

#include "bench.hh"
#include "workloads.hh"

namespace
{

using perfbench::Options;

int
usage(const char *argv0, const std::string &why)
{
    std::fprintf(stderr,
                 "%s\nusage: %s --workload paper-sweep|harvest-matrix|"
                 "serve-mixed --seed N --seconds S --trace 0|1 [--tiny]"
                 " [--trace-out FILE] [--commit REV]\n",
                 why.c_str(), argv0);
    return 2;
}

bool
parseUnsigned(const char *text, std::uint64_t *out)
{
    char *end = nullptr;
    const unsigned long long v = std::strtoull(text, &end, 10);
    if (end == text || *end != '\0' || text[0] == '-') {
        return false;
    }
    *out = v;
    return true;
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt;
    opt.start = perfbench::Clock::now();
    bool haveSeed = false;
    bool haveSeconds = false;
    bool haveTrace = false;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        const bool hasValue = i + 1 < argc;
        std::uint64_t v = 0;
        if (a == "--tiny") {
            opt.tiny = true;
        } else if (!hasValue) {
            return usage(argv[0], "missing value for " + a);
        } else if (a == "--workload") {
            opt.workload = argv[++i];
        } else if (a == "--seed" && parseUnsigned(argv[i + 1], &v)) {
            opt.seed = v;
            haveSeed = true;
            ++i;
        } else if (a == "--seconds" && parseUnsigned(argv[i + 1], &v) &&
                   v >= 1 && v <= 600) {
            opt.seconds = static_cast<double>(v);
            haveSeconds = true;
            ++i;
        } else if (a == "--trace" && parseUnsigned(argv[i + 1], &v) &&
                   v <= 1) {
            opt.trace = v == 1;
            haveTrace = true;
            ++i;
        } else if (a == "--trace-out") {
            opt.traceOut = argv[++i];
        } else if (a == "--commit") {
            opt.commit = argv[++i];
        } else {
            return usage(argv[0], "bad argument " + a + " " + argv[i + 1]);
        }
    }
    if (!haveSeed || !haveSeconds || !haveTrace) {
        return usage(argv[0], "--seed, --seconds and --trace are required");
    }
    if (opt.workload != "paper-sweep" && opt.workload != "harvest-matrix" &&
        opt.workload != "serve-mixed") {
        return usage(argv[0], "unknown workload '" + opt.workload + "'");
    }
    opt.threads = std::clamp(std::thread::hardware_concurrency(), 1u, 4u);

    std::printf("%s\n", perfbench::hostContextJson(opt).c_str());
    std::fflush(stdout);

    perfbench::Tracer tracer(opt.trace);
    perfbench::Outcome out;
    if (opt.workload == "serve-mixed") {
        perfbench::runServeWorkload(opt, tracer, out);
    } else {
        perfbench::runSweepWorkload(opt, tracer, out);
    }

    if (opt.trace) {
        std::printf("self time per span:\n");
        for (const std::string &line : tracer.selfTimeTable()) {
            std::printf("  %s\n", line.c_str());
        }
        if (!opt.traceOut.empty()) {
            std::ofstream f(opt.traceOut, std::ios::binary);
            f << tracer.chromeJson();
            if (!f) {
                out.check(false, "cannot write " + opt.traceOut);
            }
        }
    }
    for (const std::string &note : out.notes) {
        std::printf("%s\n", note.c_str());
    }
    for (const std::string &failure : out.checkFailures) {
        std::printf("CHECK FAILED: %s\n", failure.c_str());
    }
    std::printf("%s\n", out.resultJson().c_str());
    return out.checkFailures.empty() ? 0 : 1;
}
