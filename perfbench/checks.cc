#include "checks.hh"

#include <cmath>
#include <regex>

namespace perfbench
{

bool
allPointsOk(const mouse::exp::SweepResult &r, std::string *why)
{
    for (const mouse::RunResult &p : r.points) {
        if (!p.ok()) {
            *why = "point " + std::to_string(p.meta.index) + " (" +
                   p.meta.benchmark + ", " + p.meta.scheme + ") failed: " +
                   mouse::runErrorName(p.error);
            return false;
        }
    }
    return true;
}

std::string
withoutHostFields(const std::string &json)
{
    static const std::regex host(
        R"re(,?"(wall_seconds|threads)":[-+0-9.eE]+)re");
    return std::regex_replace(json, host, "");
}

bool
samePass(const mouse::exp::SweepResult &a,
         const mouse::exp::SweepResult &b, std::string *why)
{
    const std::string ja = withoutHostFields(a.toJson());
    const std::string jb = withoutHostFields(b.toJson());
    if (ja == jb) {
        return true;
    }
    std::size_t at = 0;
    while (at < ja.size() && at < jb.size() && ja[at] == jb[at]) {
        ++at;
    }
    const std::size_t from = at > 60 ? at - 60 : 0;
    *why = "passes differ at byte " + std::to_string(at) + ": ..." +
           ja.substr(from, 120) + " vs ..." + jb.substr(from, 120);
    return false;
}

int
bnnArgmax(const mouse::serve::BnnServeModel &m,
          const mouse::serve::Input &in)
{
    int best = 0;
    int bestPop = -1;
    for (std::size_t c = 0; c < m.layer.weights.size(); ++c) {
        int pop = 0;
        for (std::size_t b = 0; b < in.size(); ++b) {
            pop += m.layer.weights[c][b] == in[b];
        }
        if (pop > bestPop) {
            bestPop = pop;
            best = static_cast<int>(c);
        }
    }
    return best;
}

bool
samePredictions(const std::vector<int> &served,
                const std::vector<int> &expected,
                const std::string &what, std::string *why)
{
    if (served.size() != expected.size()) {
        *why = what + ": " + std::to_string(served.size()) +
               " predictions served, " +
               std::to_string(expected.size()) + " expected";
        return false;
    }
    for (std::size_t i = 0; i < served.size(); ++i) {
        if (served[i] != expected[i]) {
            *why = what + ": request " + std::to_string(i) +
                   " predicted " + std::to_string(served[i]) +
                   ", expected " + std::to_string(expected[i]);
            return false;
        }
    }
    return true;
}

bool
sameStats(const std::string &a, const std::string &b,
          std::string *why)
{
    if (a == b) {
        return true;
    }
    *why = "serve stats differ from the 1-worker replay (" +
           std::to_string(a.size()) + " vs " +
           std::to_string(b.size()) + " bytes)";
    return false;
}

const std::vector<PaperRow> &
paperTable4()
{
    // Table IV, MOUSE on Modern STT: latency (us) / energy (uJ).
    static const std::vector<PaperRow> rows = {
        {"SVM MNIST", 23936, 1384},
        {"SVM MNIST (Bin)", 6575, 65.5},
        {"SVM HAR", 11805, 468.6},
        {"SVM ADULT", 1189, 7.24},
        {"BNN FINN MNIST", 1485, 14.33},
        {"BNN FP-BNN MNIST", 2007, 99.9},
    };
    return rows;
}

double
paperGap(const std::vector<double> &sim, const std::vector<double> &paper)
{
    double logSum = 0.0;
    for (std::size_t i = 0; i < sim.size(); ++i) {
        logSum += std::abs(std::log(sim[i] / paper[i]));
    }
    return sim.empty() ? 0.0
                       : std::exp(logSum / static_cast<double>(sim.size()));
}

} // namespace perfbench
