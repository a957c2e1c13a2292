#include "bench.hh"

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <ctime>
#include <fstream>
#include <map>
#include <numeric>
#include <thread>

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench
{

namespace
{

std::string
num(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

std::string
quoted(const std::string &s)
{
    std::string out = "\"";
    for (const char c : s) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            out += ' ';
        } else {
            out += c;
        }
    }
    return out + "\"";
}

std::string
cpuModel()
{
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("model name", 0) == 0) {
            const std::size_t colon = line.find(':');
            if (colon != std::string::npos) {
                return line.substr(line.find_first_not_of(' ', colon + 1));
            }
        }
    }
    return "unknown";
}

} // namespace

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

double
percentile(std::vector<double> v, double q)
{
    if (v.empty()) {
        return 0.0;
    }
    std::sort(v.begin(), v.end());
    const double pos = q * static_cast<double>(v.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double
mean(const std::vector<double> &v)
{
    return v.empty() ? 0.0
                     : std::accumulate(v.begin(), v.end(), 0.0) /
                           static_cast<double>(v.size());
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

std::string
Outcome::resultJson() const
{
    std::string j = "{\"correct\":";
    j += checkFailures.empty() ? "true" : "false";
    j += ",\"attempted\":" + std::to_string(attempted);
    j += ",\"failed\":" + std::to_string(failed);
    j += ",\"metrics\":{";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        if (i > 0) {
            j += ",";
        }
        j += quoted(metrics[i].name) + ":{\"value\":" +
             num(metrics[i].value) +
             ",\"unit\":" + quoted(metrics[i].unit) + "}";
    }
    return j + "}}";
}

int
Tracer::open(const char *name, std::uint64_t id, Clock::time_point t)
{
    if (!enabled_) {
        return -1;
    }
    Rec r;
    r.name = name;
    r.start = at(t);
    r.parent = stack_.empty() ? -1 : stack_.back();
    r.id = id;
    spans_.push_back(std::move(r));
    stack_.push_back(static_cast<int>(spans_.size() - 1));
    return stack_.back();
}

void
Tracer::close(int idx, Clock::time_point t)
{
    if (idx < 0) {
        return;
    }
    spans_[static_cast<std::size_t>(idx)].end = at(t);
    stack_.pop_back();
}

void
Tracer::record(const char *name, std::uint64_t id,
               Clock::time_point begin, Clock::time_point end)
{
    if (!enabled_) {
        return;
    }
    Rec r;
    r.name = name;
    r.start = at(begin);
    r.end = at(end);
    r.parent = stack_.empty() ? -1 : stack_.back();
    r.id = id;
    spans_.push_back(std::move(r));
}

double
Tracer::at(Clock::time_point t) const
{
    return std::chrono::duration<double>(t - epoch_).count();
}

std::string
Tracer::chromeJson() const
{
    std::string j = "{\"traceEvents\":[";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Rec &r = spans_[i];
        if (i > 0) {
            j += ",\n";
        }
        j += "{\"name\":" + quoted(r.name) +
             ",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":" +
             num(r.start * 1e6) + ",\"dur\":" +
             num((r.end - r.start) * 1e6) +
             ",\"args\":{\"span\":" + std::to_string(i) +
             ",\"parent\":" + std::to_string(r.parent) +
             ",\"id\":" + std::to_string(r.id) + "}}";
    }
    return j + "],\"displayTimeUnit\":\"ms\"}\n";
}

std::vector<std::string>
Tracer::selfTimeTable() const
{
    // Children may overlap (point spans of a parallel pass), so a
    // span's covered time is the union of its children's intervals.
    std::vector<std::vector<std::pair<double, double>>> children(
        spans_.size());
    for (const Rec &r : spans_) {
        if (r.parent >= 0) {
            children[static_cast<std::size_t>(r.parent)].emplace_back(
                r.start, r.end);
        }
    }
    std::vector<double> childTime(spans_.size(), 0.0);
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        auto &iv = children[i];
        std::sort(iv.begin(), iv.end());
        double reach = spans_[i].start;
        for (const auto &[lo, hi] : iv) {
            const double from = std::max(lo, reach);
            const double to = std::min(hi, spans_[i].end);
            if (to > from) {
                childTime[i] += to - from;
            }
            reach = std::max(reach, to);
        }
    }
    struct Row
    {
        std::size_t count = 0;
        double total = 0.0;
        double self = 0.0;
    };
    std::map<std::string, Row> rows;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        Row &row = rows[spans_[i].name];
        const double dur = spans_[i].end - spans_[i].start;
        ++row.count;
        row.total += dur;
        row.self += dur - childTime[i];
    }
    std::vector<std::pair<std::string, Row>> sorted(rows.begin(),
                                                    rows.end());
    std::sort(sorted.begin(), sorted.end(),
              [](const auto &a, const auto &b) {
                  return a.second.self > b.second.self;
              });
    std::vector<std::string> out;
    char buf[160];
    std::snprintf(buf, sizeof(buf), "%-30s %8s %12s %12s", "span",
                  "count", "total ms", "self ms");
    out.push_back(buf);
    for (const auto &[name, row] : sorted) {
        std::snprintf(buf, sizeof(buf), "%-30s %8zu %12.3f %12.3f",
                      name.c_str(), row.count, row.total * 1e3,
                      row.self * 1e3);
        out.push_back(buf);
    }
    return out;
}

std::string
hostContextJson(const Options &opt)
{
    char date[32] = "unknown";
    const std::time_t now = std::time(nullptr);
    if (std::tm tm{}; gmtime_r(&now, &tm) != nullptr) {
        std::strftime(date, sizeof(date), "%Y-%m-%dT%H:%M:%SZ", &tm);
    }
    const std::string build = PERFBENCH_BUILD_TYPE;
    std::string j = "{\"context\":{";
    j += "\"build_type\":" + quoted(build);
    j += ",\"release_build\":";
    j += build == "Release" ? "true" : "false";
#if defined(__clang__)
    j += ",\"compiler\":" + quoted(std::string("clang ") + __VERSION__);
#else
    j += ",\"compiler\":" + quoted(std::string("gcc ") + __VERSION__);
#endif
    j += ",\"nproc\":" +
         std::to_string(std::thread::hardware_concurrency());
    j += ",\"cpu\":" + quoted(cpuModel());
    j += ",\"threads\":" + std::to_string(opt.threads);
    j += ",\"workload\":" + quoted(opt.workload);
    j += ",\"seed\":" + std::to_string(opt.seed);
    j += ",\"seconds\":" + num(opt.seconds);
    j += ",\"trace\":";
    j += opt.trace ? "true" : "false";
    j += ",\"tiny\":";
    j += opt.tiny ? "true" : "false";
    j += ",\"commit\":" + quoted(opt.commit);
    j += ",\"date\":" + quoted(date);
    return j + "}}";
}

} // namespace perfbench
