/**
 * @file
 * Shared pieces of the repository benchmark driver: host clocks and
 * order statistics, the metric report, the bench-side span log that
 * becomes a Chrome trace, and the correctness pins every simulated
 * result is compared against.
 *
 * All timing here is done from outside the simulator: the driver
 * times its own calls into each layer's public functions and reads
 * the aggregates of the existing host profiler; it adds no spans to
 * the simulator itself.
 */

#ifndef MLPWIN_PERFBENCH_BENCH_HH
#define MLPWIN_PERFBENCH_BENCH_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "sim/simulator.hh"

namespace perfbench
{

using Clock = std::chrono::steady_clock;

/** Seconds from `t` to now. */
double secondsSince(Clock::time_point t);

/** Seconds between two instants. */
double seconds(Clock::time_point a, Clock::time_point b);

/**
 * Quantile q in [0,1] by linear interpolation between order
 * statistics (the "inclusive" method); NaN for an empty sample.
 */
double quantile(std::vector<double> v, double q);

inline double
median(const std::vector<double> &v)
{
    return quantile(v, 0.5);
}

/** The smallest value (the best repetition's time); 0 for none. */
double best(const std::vector<double> &v);

/** Peak resident set of this process in MiB (VmHWM). */
double peakRssMb();

/**
 * Reset this process's VmHWM to its current RSS so the next
 * peakRssMb() covers only what follows. Returns false where the
 * kernel refuses, in which case peaks are process-lifetime peaks.
 */
bool resetPeakRss();

/** One reported number. `samples` is how many values it summarises. */
struct Metric
{
    double value = 0.0;
    std::string unit;
    std::size_t samples = 0;
};

/** Metrics of one workload in the order they were added. */
class Report
{
  public:
    void add(const std::string &name, double value,
             const std::string &unit, std::size_t samples);

    /** Median of `v` under `name`, with v.size() as the count. */
    void addMedian(const std::string &name,
                   const std::vector<double> &v,
                   const std::string &unit);

    const std::vector<std::pair<std::string, Metric>> &
    items() const
    {
        return items_;
    }

  private:
    std::vector<std::pair<std::string, Metric>> items_;
};

/**
 * Bench-side spans in Chrome trace_event form, kept in memory and
 * written when the run ends. Spans land under pid 2 ("perfbench")
 * next to the profiler's pid-1 host spans, on the profiler's clock.
 */
class SpanLog
{
  public:
    SpanLog();

    /** Record a complete span [a, b] on track `tid`. */
    void span(const std::string &name, const std::string &cat,
              Clock::time_point a, Clock::time_point b,
              unsigned tid = 0, const std::string &args_json = "");

    /** Record a raw, already serialized trace event. */
    void raw(std::string event) { events_.push_back(std::move(event)); }

    const std::vector<std::string> &events() const { return events_; }

  private:
    Clock::time_point epoch_;
    std::vector<std::string> events_;
};

/**
 * The simulated outputs one cell must reproduce exactly. Simulated
 * statistics are deterministic, so any difference is a changed
 * simulation, never noise.
 */
struct Pin
{
    std::uint64_t cycles = 0;
    std::uint64_t committed = 0;
    std::uint64_t archRegChecksum = 0;
    std::uint64_t ffInsts = 0;
    std::uint64_t sampleIntervals = 0;
    /** CPI leaves, mlpwin::CpiComponent order. */
    std::vector<std::uint64_t> cpi;
    /** Cycles spent at each window level. */
    std::vector<std::uint64_t> levels;
};

/** The pin a result would have. */
Pin pinOf(const mlpwin::SimResult &r);

/**
 * Compare a result with its pin, and check that its CPI leaves sum
 * to its cycles. Returns "" on a match, else what differs.
 */
std::string checkPin(const mlpwin::SimResult &r, const Pin &p);

/** Pins by cell key (see cells.cc and serve_mix.cc for the keys). */
using PinTable = std::map<std::string, Pin>;

/** @throws std::runtime_error if the file is missing or malformed. */
PinTable loadPins(const std::string &path);

void savePins(const std::string &path, const PinTable &pins);

/**
 * Prove the pin comparison catches a wrong pin: perturb each field
 * of a known-good pin in turn and require checkPin to object.
 *
 * @return "" when every perturbation is caught, else which was not.
 */
std::string pinSelfCheck(const mlpwin::SimResult &r, const Pin &good);

/**
 * The exact simulated counts of a set of results, summed (latency
 * and MLP averaged): cycles, commits, squashes, L2 demand misses,
 * level residency and CPI leaves as shares of cycles, fast-forwarded
 * instructions and sampling intervals. Counts, never speeds.
 */
void addSimCounts(Report &out, const std::vector<mlpwin::SimResult> &rs);

/** Everything the driver passes to every workload. */
struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    /** Directory for run files (daemon state, traces, layer JSON). */
    std::string runDir = ".bench_build/run";
    /** Directory holding mlpwind and mlpwin_worker. */
    std::string binDir;
    std::string pinsPath;
};

/**
 * One benchmark workload. The driver warms it once untimed, then
 * calls step() repeatedly (interleaved with other workloads when
 * several run in one process) until the time budget is spent and
 * the workload reports a clean stopping point.
 */
class Workload
{
  public:
    virtual ~Workload() = default;

    virtual std::string name() const = 0;

    /** Untimed warm-up unit; also runs the pin self-check. */
    virtual void warm() = 0;

    /**
     * One measured repetition. In a traced run (Options::trace) each
     * workload alternates traced and untraced units inside its steps,
     * so the two are measured under the same host conditions.
     */
    virtual void step() = 0;

    /** True when a stop here keeps the measured mix balanced. */
    virtual bool atStopPoint() const { return true; }

    /** End-to-end metrics (untraced run). */
    virtual void reportEndToEnd(Report &out) = 0;

    /** Per-layer metrics (traced run). */
    virtual void reportLayers(Report &out) = 0;

    /** Cells attempted and failed (failed, timed out, or mismatched). */
    virtual std::uint64_t attempted() const = 0;
    virtual std::uint64_t failed() const = 0;

    /** Stop every process the workload started. */
    virtual void shutdown() {}

    /** Bench-side spans recorded in traced steps. */
    SpanLog &spans() { return spans_; }

  protected:
    SpanLog spans_;
};

/** The three in-process cell workloads, by name; nullptr if unknown. */
std::unique_ptr<Workload> makeCellWorkload(const std::string &name,
                                           const Options &opts,
                                           const PinTable &pins);

/** The mlpwind workload. */
std::unique_ptr<Workload> makeServeMix(const Options &opts,
                                       const PinTable &pins);

/**
 * Simulate every pinned cell in-process and return the pins (the
 * maintainer's path after an intended change to simulated results).
 */
PinTable computeCellPins();
PinTable computeServePins();

} // namespace perfbench

#endif // MLPWIN_PERFBENCH_BENCH_HH
