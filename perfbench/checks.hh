/**
 * @file
 * Correctness checks of the benchmark and the Table IV reference.
 *
 * Each check returns true when the program's output is right and
 * otherwise fills @p why with one line.  A failed check fails the
 * run; checks are never reported as metrics.
 */

#ifndef PERFBENCH_CHECKS_HH
#define PERFBENCH_CHECKS_HH

#include <string>
#include <vector>

#include "exp/runner.hh"
#include "serve/models.hh"

namespace perfbench
{

/** Every point of @p r ran (RunResult::ok()). */
bool allPointsOk(const mouse::exp::SweepResult &r, std::string *why);

/** @p json with every "wall_seconds" and "threads" field removed. */
std::string withoutHostFields(const std::string &json);

/** Two passes over one grid agree byte for byte in
 *  SweepResult::toJson(), host-clock and thread fields aside. */
bool samePass(const mouse::exp::SweepResult &a,
              const mouse::exp::SweepResult &b, std::string *why);

/** Software argmax of a BNN serving model: the class whose weights
 *  agree with @p in on most bits, lowest index on ties. */
int bnnArgmax(const mouse::serve::BnnServeModel &m,
              const mouse::serve::Input &in);

/** served[i] == expected[i] for every i. */
bool samePredictions(const std::vector<int> &served,
                     const std::vector<int> &expected,
                     const std::string &what, std::string *why);

/** Two stat-registry documents are byte-identical. */
bool sameStats(const std::string &a, const std::string &b,
               std::string *why);

/** One row of Table IV (Modern STT, continuous power). */
struct PaperRow
{
    const char *benchmark;
    double latencyUs;
    double energyUj;
};

/** The six MOUSE rows of the paper's Table IV. */
const std::vector<PaperRow> &paperTable4();

/** Geometric mean over rows of max(sim/paper, paper/sim). */
double paperGap(const std::vector<double> &sim,
                const std::vector<double> &paper);

} // namespace perfbench

#endif // PERFBENCH_CHECKS_HH
