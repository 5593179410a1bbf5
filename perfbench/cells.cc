/**
 * @file
 * The in-process cell workloads: one Simulator at a time, each cell
 * timed from outside as workload build (findWorkload().make),
 * Simulator construction, and Simulator::run(). Traced cells also
 * enable the existing host profiler and read its aggregates.
 *
 * The cell programs are fixed; they do not depend on the seed.
 */

#include <algorithm>
#include <array>
#include <stdexcept>

#include <sched.h>

#include "bench.hh"
#include "common/json.hh"
#include "mem/main_memory.hh"
#include "profile/profiler.hh"
#include "sample/sample_config.hh"
#include "workloads/suite.hh"

namespace perfbench
{

namespace
{

using mlpwin::ModelKind;

constexpr std::uint64_t kForever = 1ULL << 40;

/** Stage spans time one cycle in 64 (see OooCore::tick). */
constexpr double kStageSampling = 64.0;

struct CellDef
{
    const char *name;
    const char *program;
    ModelKind model;
    bool sampled;
    /** Post-warm-up instruction budget (detailed + fast-forwarded). */
    std::uint64_t insts;
};

// Why these three: see perfbench/README.md. In short, gcc/base is
// compute-bound with negligible setup; libquantum/resizing sits at
// level 3 with long DRAM stalls and a heavy setup; gcc/resizing under
// the default SMARTS regime is the one cell where fast-forward and
// drain carry real weight.
const CellDef kCells[] = {
    {"cell-compute", "gcc", ModelKind::Base, false, 300000},
    {"cell-memory", "libquantum", ModelKind::Resizing, false, 100000},
    {"cell-sampled", "gcc", ModelKind::Resizing, true, 2000000},
};

mlpwin::SimConfig
cellConfig(const CellDef &def)
{
    mlpwin::SimConfig cfg;
    cfg.model = def.model;
    cfg.warmupInsts = mlpwin::kDefaultWarmupInsts;
    cfg.functionalWarmup = true;
    cfg.warmDataCaches = true;
    cfg.maxInsts = def.insts;
    cfg.sampling.enabled = def.sampled; // default 1000/20000/1000
    return cfg;
}

/** One cell, timed per layer: build [t0,t1], construct, run [t2,t3]. */
struct CellRun
{
    mlpwin::SimResult result;
    Clock::time_point t0, t1, t2, t3;
    double makeS() const { return seconds(t0, t1); }
    double constructS() const { return seconds(t1, t2); }
    double runS() const { return seconds(t2, t3); }
};

CellRun
runCell(const CellDef &def, mlpwin::Program *keep = nullptr)
{
    CellRun c;
    c.t0 = Clock::now();
    mlpwin::Program prog = mlpwin::findWorkload(def.program).make(kForever);
    c.t1 = Clock::now();
    mlpwin::Simulator sim(cellConfig(def), prog);
    c.t2 = Clock::now();
    c.result = sim.run();
    c.t3 = Clock::now();
    if (keep)
        *keep = std::move(prog);
    return c;
}

/**
 * Pins this thread to the next CPU it may run on, round robin, so the
 * cells of one run visit every CPU. Interference that slows one vCPU
 * for minutes then cannot decide a whole run; see reportEndToEnd.
 */
class CpuRotation
{
  public:
    CpuRotation()
    {
        cpu_set_t set;
        CPU_ZERO(&set);
        if (sched_getaffinity(0, sizeof(set), &set) == 0)
            for (int c = 0; c < CPU_SETSIZE; ++c)
                if (CPU_ISSET(c, &set))
                    cpus_.push_back(c);
    }

    void
    next()
    {
        if (cpus_.size() < 2)
            return;
        cpu_set_t set;
        CPU_ZERO(&set);
        CPU_SET(cpus_[next_++ % cpus_.size()], &set);
        sched_setaffinity(0, sizeof(set), &set);
    }

  private:
    std::vector<int> cpus_;
    std::size_t next_ = 0;
};

/** Simulated instructions of a cell after warm-up. */
double
simInsts(const mlpwin::SimResult &r)
{
    return static_cast<double>(r.committed + r.ffInsts);
}

/** Host-time layers of one traced cell. */
struct Layers
{
    double makeS = 0, loadProgramS = 0, constructS = 0, runS = 0;
    std::array<double, 7> stageS{}; // Fetch..WibReinsert
    double warmupS = 0, fastForwardS = 0, drainS = 0;
    double ffKips = 0; // functional warm-up + fast-forward speed
    double loopOtherS = 0;
};

class CellWorkload : public Workload
{
  public:
    CellWorkload(const CellDef &def, const Options &opts,
                 const PinTable &pins)
        : def_(def), trace_(opts.trace)
    {
        auto it = pins.find(def.name);
        if (it == pins.end())
            throw std::runtime_error(std::string("no pin for ") +
                                     def.name);
        pin_ = it->second;
    }

    std::string name() const override { return def_.name; }

    void
    warm() override
    {
        ++attempted_;
        CellRun c = runCell(def_);
        if (!verify(c.result))
            return;
        std::string err = pinSelfCheck(c.result, pin_);
        if (!err.empty())
            throw std::runtime_error(name() + " pin self-check: " + err);
    }

    void
    step() override
    {
        ++attempted_;
        cpus_.next();
        try {
            if (trace_)
                tracedStep();
            else
                plainStep();
        } catch (const std::exception &e) {
            ++failed_;
            mismatch(e.what());
        }
    }

    /**
     * Interference from other tenants of a shared host only ever adds
     * time, and on the development host it comes in phases of seconds
     * to minutes that slow a vCPU by up to 1.8x, so the median of a run
     * moves with the share of time spent in a slow phase. The fastest
     * repetition, with cells rotated over every CPU, does not.
     * In-process timings therefore report the best
     * repetition: sim_kips from the fastest run(), cell_s as the
     * fastest setup plus the fastest run() (setup_s keeps the median
     * of every cell's setup). With one in-process client and no queue
     * a spec is one cell, so the spec percentiles and cells_per_s
     * follow from cell_s.
     */
    void
    reportEndToEnd(Report &out) override
    {
        const std::size_t n = runS_.size();
        const double run = best(runS_);
        const double cell = best(setupS_) + run;
        out.add("sim_kips", run > 0 ? insts_ / run / 1e3 : 0.0, "kinst/s",
                n);
        out.add("cell_s", cell, "s", n);
        out.addMedian("setup_s", setupS_, "s");
        out.add("peak_rss_mb", peakRss_, "MiB", n);
        out.add("cells_per_s", cell > 0 ? 1.0 / cell : 0.0, "1/s", n);
        out.add("spec_s.p50", cell, "s", n);
        out.add("spec_s.p90", cell, "s", n);
    }

    void reportLayers(Report &out) override;

    std::uint64_t attempted() const override { return attempted_; }
    std::uint64_t failed() const override { return failed_; }

  private:
    void
    mismatch(const std::string &why)
    {
        std::fprintf(stderr, "perfbench: %s: %s\n", def_.name,
                     why.c_str());
    }

    bool
    verify(const mlpwin::SimResult &r)
    {
        std::string why = checkPin(r, pin_);
        if (why.empty())
            return true;
        ++failed_;
        mismatch("pin mismatch: " + why);
        return false;
    }

    void
    plainStep()
    {
        bool reset = resetPeakRss();
        CellRun c = runCell(def_);
        double rss = peakRssMb();
        if (!verify(c.result))
            return;
        peakRss_ = reset ? std::max(peakRss_, rss) : rss;
        setupS_.push_back(c.makeS() + c.constructS());
        runS_.push_back(c.runS());
        insts_ = simInsts(c.result);
    }

    /**
     * Traced steps alternate: an untraced cell (the overhead
     * baseline), then a cell with the host profiler on.
     */
    void
    tracedStep()
    {
        if (!(tracedSteps_++ & 1)) {
            CellRun c = runCell(def_);
            if (verify(c.result))
                runUntracedS_.push_back(c.runS());
            return;
        }

        mlpwin::Profiler &prof = mlpwin::Profiler::instance();
        prof.reset();
        prof.setEnabled(true);
        mlpwin::Program prog;
        CellRun c = runCell(def_, &prog);
        prof.setEnabled(false);
        if (!verify(c.result))
            return;
        last_ = c.result;

        Layers l;
        l.makeS = c.makeS();
        l.constructS = c.constructS();
        l.runS = c.runS();
        auto tl0 = Clock::now();
        {
            mlpwin::MainMemory standalone;
            standalone.loadProgram(prog);
        }
        auto tl1 = Clock::now();
        l.loadProgramS = seconds(tl0, tl1);
        readProfiler(prof, l);
        layers_.push_back(l);
        runTracedS_.push_back(l.runS);

        spans_.span("cell", "cell", c.t0, c.t3);
        spans_.span("build", "setup", c.t0, c.t1, 1);
        spans_.span("construct", "setup", c.t1, c.t2, 1);
        spans_.span("run", "run", c.t2, c.t3, 1);
        spans_.span("load_program", "setup", tl0, tl1, 1);
        for (std::string &e : prof.traceEvents())
            spans_.raw(std::move(e));
        spans_.raw(profilerAggregateEvent(prof));
    }

    /** Profiler aggregates as one trace instant event. */
    static std::string
    profilerAggregateEvent(const mlpwin::Profiler &prof)
    {
        std::string args = "{";
        auto agg = prof.aggregate();
        for (std::size_t k = 0; k < agg.size(); ++k) {
            args += (k ? ",\"" : "\"") +
                    std::string(mlpwin::spanKindName(
                        static_cast<mlpwin::SpanKind>(k))) +
                    "_ns\":" + mlpwin::fmtU64(agg[k].totalNs);
        }
        args += "}";
        std::uint64_t now_us = prof.nowNs() / 1000;
        return "{\"name\":\"profiler_aggregates\",\"ph\":\"i\",\"s\":"
               "\"p\",\"pid\":1,\"tid\":0,\"ts\":" +
               mlpwin::fmtU64(now_us) + ",\"args\":" + args + "}";
    }

    void
    readProfiler(const mlpwin::Profiler &prof, Layers &l)
    {
        using mlpwin::SpanKind;
        auto agg = prof.aggregate();
        auto total = [&](SpanKind k) {
            return agg[static_cast<std::size_t>(k)].totalNs / 1e9;
        };
        double stages = 0;
        for (std::size_t k = 0; k < l.stageS.size(); ++k) {
            l.stageS[k] = agg[k].totalNs / 1e9 * kStageSampling;
            stages += l.stageS[k];
        }
        l.warmupS = total(SpanKind::Warmup);
        l.drainS = total(SpanKind::Drain);

        // Fast-forward spans nested in the warm-up span belong to the
        // warm-up; count only those outside it as fast-forward.
        std::vector<mlpwin::SpanRecord> recs = prof.records();
        std::vector<std::pair<std::uint64_t, std::uint64_t>> warmups;
        for (const mlpwin::SpanRecord &r : recs)
            if (r.kind == SpanKind::Warmup)
                warmups.push_back({r.beginNs, r.endNs});
        for (const mlpwin::SpanRecord &r : recs) {
            if (r.kind != SpanKind::FastForward)
                continue;
            bool nested = false;
            for (const auto &[b, e] : warmups)
                nested |= r.beginNs >= b && r.endNs <= e;
            if (!nested)
                l.fastForwardS += (r.endNs - r.beginNs) / 1e9;
        }
        // Every fast-forward span, warm-up included, runs the
        // functional emulator: the warm-up's instructions plus the
        // sampled fast-forwards.
        double ff_total = total(SpanKind::FastForward);
        double ff_insts = static_cast<double>(
            last_.ffInsts + cellConfig(def_).warmupInsts);
        l.ffKips = ff_total > 0 ? ff_insts / ff_total / 1e3 : 0.0;
        // Drain ticks the pipeline, so its stage time is already in
        // the stage totals; warm-up and fast-forward run no stages.
        l.loopOtherS = l.runS - stages - l.warmupS - l.fastForwardS;
    }

    const CellDef &def_;
    const bool trace_;
    CpuRotation cpus_;
    Pin pin_;
    std::uint64_t attempted_ = 0;
    std::uint64_t failed_ = 0;
    std::uint64_t tracedSteps_ = 0;
    double peakRss_ = 0;
    /** Simulated instructions per cell (identical in every cell). */
    double insts_ = 0;
    std::vector<double> setupS_, runS_;
    std::vector<double> runUntracedS_, runTracedS_;
    std::vector<Layers> layers_;
    mlpwin::SimResult last_;
};

void
CellWorkload::reportLayers(Report &out)
{
    auto col = [&](auto get) {
        std::vector<double> v;
        for (const Layers &l : layers_)
            v.push_back(get(l));
        return v;
    };
    out.addMedian("workloads.make_s", col([](auto &l) { return l.makeS; }),
                  "s");
    out.addMedian("mem.load_program_s",
                  col([](auto &l) { return l.loadProgramS; }), "s");
    out.addMedian("sim.construct_s",
                  col([](auto &l) { return l.constructS; }), "s");
    static const char *kStages[] = {"fetch", "dispatch", "issue", "lsu",
                                    "complete", "commit", "wib_reinsert"};
    // SpanKind order is Fetch, Dispatch, Issue, Lsu, Complete, Commit,
    // WibReinsert.
    for (std::size_t k = 0; k < 7; ++k)
        out.addMedian(std::string("cpu.") + kStages[k] + "_s",
                      col([k](auto &l) { return l.stageS[k]; }), "s");
    out.addMedian("sim.loop_other_s",
                  col([](auto &l) { return l.loopOtherS; }), "s");

    const mlpwin::SimResult &r = last_;
    auto detailedS = col([](auto &l) {
        return l.runS - l.warmupS - l.fastForwardS;
    });
    double detailed = detailedS.empty() ? 0 : median(detailedS);
    out.add("cpu.host_ns_per_cycle",
            r.cycles ? detailed * 1e9 / r.cycles : 0, "ns",
            detailedS.size());
    out.add("cpu.host_ns_per_inst",
            r.committed ? detailed * 1e9 / r.committed : 0, "ns",
            detailedS.size());

    out.addMedian("sample.warmup_s",
                  col([](auto &l) { return l.warmupS; }), "s");
    out.addMedian("sample.fast_forward_s",
                  col([](auto &l) { return l.fastForwardS; }), "s");
    out.addMedian("sample.drain_s", col([](auto &l) { return l.drainS; }),
                  "s");
    out.addMedian("emu.ff_kips",
                  col([](auto &l) { return l.ffKips; }), "kinst/s");

    addSimCounts(out, {r});

    // Best against best, as for the end-to-end timings.
    double plain = best(runUntracedS_);
    double traced = best(runTracedS_);
    out.add("trace.overhead_pct",
            plain > 0 ? (traced / plain - 1.0) * 100.0 : 0, "%",
            std::min(runUntracedS_.size(), runTracedS_.size()));
}

} // namespace

std::unique_ptr<Workload>
makeCellWorkload(const std::string &name, const Options &opts,
                 const PinTable &pins)
{
    for (const CellDef &def : kCells)
        if (name == def.name)
            return std::make_unique<CellWorkload>(def, opts, pins);
    return nullptr;
}

PinTable
computeCellPins()
{
    PinTable pins;
    for (const CellDef &def : kCells)
        pins[def.name] = pinOf(runCell(def).result);
    return pins;
}

} // namespace perfbench
