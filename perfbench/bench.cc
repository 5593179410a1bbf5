#include "bench.hh"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <limits>
#include <sstream>
#include <stdexcept>

#include "common/json.hh"
#include "cpu/cpi_stack.hh"
#include "profile/profiler.hh"

namespace perfbench
{

double
seconds(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

double
secondsSince(Clock::time_point t)
{
    return seconds(t, Clock::now());
}

double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return std::numeric_limits<double>::quiet_NaN();
    std::sort(v.begin(), v.end());
    double pos = q * static_cast<double>(v.size() - 1);
    std::size_t lo = static_cast<std::size_t>(std::floor(pos));
    std::size_t hi = std::min(lo + 1, v.size() - 1);
    double frac = pos - static_cast<double>(lo);
    return v[lo] + (v[hi] - v[lo]) * frac;
}

double
best(const std::vector<double> &v)
{
    return v.empty() ? 0.0 : *std::min_element(v.begin(), v.end());
}

double
peakRssMb()
{
    std::ifstream in("/proc/self/status");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("VmHWM:", 0) == 0)
            return std::stod(line.substr(6)) / 1024.0; // kB -> MiB
    }
    return 0.0;
}

bool
resetPeakRss()
{
    std::ofstream out("/proc/self/clear_refs");
    out << "5";
    out.flush();
    return static_cast<bool>(out);
}

void
Report::add(const std::string &name, double value,
            const std::string &unit, std::size_t samples)
{
    items_.push_back({name, Metric{value, unit, samples}});
}

void
Report::addMedian(const std::string &name, const std::vector<double> &v,
                  const std::string &unit)
{
    add(name, v.empty() ? 0.0 : median(v), unit, v.size());
}

SpanLog::SpanLog()
    : epoch_(Clock::now() - std::chrono::nanoseconds(
                                mlpwin::Profiler::instance().nowNs()))
{
}

void
SpanLog::span(const std::string &name, const std::string &cat,
              Clock::time_point a, Clock::time_point b, unsigned tid,
              const std::string &args_json)
{
    auto us = [&](Clock::time_point t) {
        return std::chrono::duration<double, std::micro>(t - epoch_)
            .count();
    };
    std::ostringstream os;
    os.precision(3);
    os << std::fixed << "{\"name\":\"" << mlpwin::jsonEscape(name)
       << "\",\"cat\":\"" << cat << "\",\"ph\":\"X\",\"pid\":2,\"tid\":"
       << tid << ",\"ts\":" << us(a) << ",\"dur\":" << us(b) - us(a);
    if (!args_json.empty())
        os << ",\"args\":" << args_json;
    os << '}';
    events_.push_back(os.str());
}

Pin
pinOf(const mlpwin::SimResult &r)
{
    Pin p;
    p.cycles = r.cycles;
    p.committed = r.committed;
    p.archRegChecksum = r.archRegChecksum;
    p.ffInsts = r.ffInsts;
    p.sampleIntervals = r.sampleIntervals;
    mlpwin::CpiStack cpi = r.cpiTotal();
    p.cpi.assign(cpi.counts.begin(), cpi.counts.end());
    p.levels = r.cyclesAtLevel;
    return p;
}

std::string
checkPin(const mlpwin::SimResult &r, const Pin &p)
{
    const Pin got = pinOf(r);
    std::ostringstream why;
    auto cmp = [&](const char *field, std::uint64_t a, std::uint64_t b) {
        if (a != b)
            why << field << " " << a << " != pinned " << b << "; ";
    };
    cmp("cycles", got.cycles, p.cycles);
    cmp("committed", got.committed, p.committed);
    cmp("arch_reg_checksum", got.archRegChecksum, p.archRegChecksum);
    cmp("ff_insts", got.ffInsts, p.ffInsts);
    cmp("sample_intervals", got.sampleIntervals, p.sampleIntervals);
    if (got.cpi != p.cpi)
        why << "cpi leaves differ; ";
    if (got.levels != p.levels)
        why << "level residency differs; ";
    std::uint64_t sum = 0;
    for (std::uint64_t c : got.cpi)
        sum += c;
    if (sum != got.cycles)
        why << "cpi leaves sum to " << sum << ", not cycles "
            << got.cycles << "; ";
    return why.str();
}

std::string
pinSelfCheck(const mlpwin::SimResult &r, const Pin &good)
{
    if (!checkPin(r, good).empty())
        return "the known-good pin does not match";
    std::vector<std::pair<const char *, Pin>> wrong;
    auto bad = [&](const char *what) -> Pin & {
        wrong.push_back({what, good});
        return wrong.back().second;
    };
    bad("cycles").cycles += 1;
    bad("committed").committed += 1;
    bad("arch_reg_checksum").archRegChecksum ^= 1;
    bad("ff_insts").ffInsts += 1;
    bad("sample_intervals").sampleIntervals += 1;
    if (!good.cpi.empty())
        bad("cpi leaf").cpi.back() += 1;
    if (!good.levels.empty())
        bad("level residency").levels.front() += 1;
    for (const auto &[what, pin] : wrong)
        if (checkPin(r, pin).empty())
            return std::string("a wrong ") + what + " went unnoticed";

    // A result whose leaves no longer sum to its cycles must fail
    // even against its own pin.
    mlpwin::SimResult skewed = r;
    if (skewed.threadCpi.empty())
        return "result has no CPI stack";
    skewed.threadCpi[0].counts[0] += 1;
    if (checkPin(skewed, pinOf(skewed)).empty())
        return "a CPI stack that misses its cycle count went unnoticed";
    return "";
}

void
addSimCounts(Report &out, const std::vector<mlpwin::SimResult> &rs)
{
    std::uint64_t cycles = 0, committed = 0, squashed = 0, misses = 0;
    std::uint64_t ff = 0, intervals = 0;
    double latency = 0, mlp = 0;
    std::vector<std::uint64_t> levels(3, 0);
    mlpwin::CpiStack cpi;
    for (const mlpwin::SimResult &r : rs) {
        cycles += r.cycles;
        committed += r.committed;
        squashed += r.squashed;
        misses += r.l2DemandMisses;
        ff += r.ffInsts;
        intervals += r.sampleIntervals;
        latency += r.avgLoadLatency / rs.size();
        mlp += r.observedMlp / rs.size();
        for (std::size_t l = 0; l < r.cyclesAtLevel.size(); ++l) {
            if (l >= levels.size())
                levels.resize(l + 1, 0);
            levels[l] += r.cyclesAtLevel[l];
        }
        cpi += r.cpiTotal();
    }
    const std::size_t n = rs.size();
    out.add("cpu.cycles", cycles, "count", n);
    out.add("cpu.committed", committed, "count", n);
    out.add("cpu.squashed", squashed, "count", n);
    out.add("mem.l2_demand_misses", misses, "count", n);
    out.add("mem.avg_load_latency_cycles", latency, "cycles", n);
    out.add("mem.observed_mlp", mlp, "misses", n);
    std::uint64_t level_cycles = 0;
    for (std::uint64_t c : levels)
        level_cycles += c;
    for (std::size_t l = 0; l < 3; ++l)
        out.add("resize.level_share.l" + std::to_string(l + 1),
                level_cycles ? double(levels[l]) / level_cycles : 0,
                "share", n);
    out.add("sample.ff_insts", ff, "count", n);
    out.add("sample.intervals", intervals, "count", n);
    using mlpwin::CpiComponent;
    for (CpiComponent leaf :
         {CpiComponent::Base, CpiComponent::IFetch,
          CpiComponent::BranchMispredict, CpiComponent::CacheMiss,
          CpiComponent::Dram, CpiComponent::RobFull, CpiComponent::IqFull,
          CpiComponent::LsqFull, CpiComponent::ResizeDrain})
        out.add(std::string("cpu.cpi.") + mlpwin::cpiComponentName(leaf),
                cycles ? double(cpi[leaf]) / cycles : 0, "share", n);
}

namespace
{

std::string
u64List(const std::vector<std::uint64_t> &v)
{
    std::string s = "[";
    for (std::size_t i = 0; i < v.size(); ++i)
        s += (i ? "," : "") + mlpwin::fmtU64(v[i]);
    return s + "]";
}

std::vector<std::uint64_t>
u64Array(const mlpwin::JsonValue &v)
{
    std::vector<std::uint64_t> out;
    for (const mlpwin::JsonValue &e : v.array)
        out.push_back(e.asU64());
    return out;
}

} // namespace

PinTable
loadPins(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        throw std::runtime_error("cannot read pins file " + path);
    std::stringstream ss;
    ss << in.rdbuf();
    const std::string text = ss.str();
    mlpwin::JsonValue root = mlpwin::parseJson(text);
    PinTable pins;
    for (const auto &[key, v] : root.field("cells").object) {
        Pin p;
        p.cycles = v.field("cycles").asU64();
        p.committed = v.field("committed").asU64();
        p.archRegChecksum = v.field("arch_reg_checksum").asU64();
        p.ffInsts = v.field("ff_insts").asU64();
        p.sampleIntervals = v.field("sample_intervals").asU64();
        p.cpi = u64Array(v.field("cpi"));
        p.levels = u64Array(v.field("levels"));
        pins[key] = p;
    }
    return pins;
}

void
savePins(const std::string &path, const PinTable &pins)
{
    std::ofstream os(path, std::ios::trunc);
    os << "{\"cells\":{\n";
    std::size_t i = 0;
    for (const auto &[key, p] : pins) {
        os << "\"" << mlpwin::jsonEscape(key) << "\":{\"cycles\":"
           << p.cycles << ",\"committed\":" << p.committed
           << ",\"arch_reg_checksum\":" << p.archRegChecksum
           << ",\"ff_insts\":" << p.ffInsts
           << ",\"sample_intervals\":" << p.sampleIntervals
           << ",\"cpi\":" << u64List(p.cpi)
           << ",\"levels\":" << u64List(p.levels) << "}"
           << (++i < pins.size() ? ",\n" : "\n");
    }
    os << "}}\n";
    if (!os)
        throw std::runtime_error("cannot write pins file " + path);
}

} // namespace perfbench
