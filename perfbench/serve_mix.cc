/**
 * @file
 * The serve-mix workload: an mlpwind daemon with two worker
 * processes, a fresh cache and state directory per run, and one
 * closed-loop client (this process) speaking the daemon's socket
 * protocol. Every timing is taken on the client side.
 *
 * Each spec names one fig07 program together with sphinx3 (see
 * kCompanion), both under the base and the resizing model: four short
 * cells. Specs come in rounds that visit the other thirteen fig07
 * programs once, in a seeded order. Rounds repeat the pattern of one
 * fresh round and four repeat rounds:
 *  - a fresh round uses an instruction budget no earlier round used,
 *    so every cell simulates and is stored in the result cache;
 *  - a repeat round gives each program a seeded pick among the
 *    budgets already used, under a new spec id, so every cell is
 *    adopted from the cache.
 * The run stops only between whole patterns, so every run measures
 * the same mix of writes and reads whatever its length.
 */

#include <algorithm>
#include <cerrno>
#include <csignal>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <stdexcept>

#include <fcntl.h>
#include <poll.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include "bench.hh"
#include "cache/result_cache.hh"
#include "common/json.hh"
#include "common/random.hh"
#include "exp/experiment.hh"
#include "exp/result_writer.hh"
#include "serve/daemon.hh"
#include "serve/protocol.hh"
#include "workloads/suite.hh"

namespace perfbench
{

namespace
{

namespace fs = std::filesystem;

constexpr unsigned kWorkers = 2;
/** Daemon launches per run; setup_s is their median. */
constexpr unsigned kSetupLaunches = 15;
/** Distinct instruction budgets, i.e. fresh rounds available. */
constexpr unsigned kVariants = 12;
/**
 * Rounds per pattern: one fresh round, then repeats. Adopting a cell
 * still rebuilds its program for the cache key: about 0.5 ms for most
 * programs, 12 ms for sphinx3, 55 ms for milc, 140 ms for soplex and
 * 240 ms for libquantum. With four repeats per fresh round the median
 * spec is an adopted spec of a cheap program and the 90th percentile
 * an adopted libquantum spec, each well inside its group.
 */
constexpr unsigned kPattern = 5;
/** Give up on a daemon that says nothing for this long. */
constexpr int kReplyTimeoutMs = 60000;
/**
 * Named by every spec next to its program. Its 12 ms cache lookup
 * lifts the adopted specs of cheap programs from a sub-millisecond
 * round trip, which host scheduling noise dominates, to a plateau
 * set by program build and cache reads.
 */
const char *const kCompanion = "sphinx3";
/** Two programs under the base and resizing models. */
constexpr std::size_t kCellsPerSpec = 4;

/**
 * Budgets differ so each names distinct cells (the cache key covers
 * the budget), but only slightly, so the simulated work of a round
 * does not depend on which budgets the seed picks.
 */
std::uint64_t
variantInsts(unsigned v)
{
    return 20000 + 10 * static_cast<std::uint64_t>(v);
}

std::vector<std::string>
fig07Programs()
{
    std::vector<std::string> p = mlpwin::selectedMemPrograms();
    for (const std::string &c : mlpwin::selectedCompPrograms())
        p.push_back(c);
    return p;
}

/** The programs a round visits: every fig07 program but kCompanion. */
std::vector<std::string>
specPrograms()
{
    std::vector<std::string> p = fig07Programs();
    p.erase(std::find(p.begin(), p.end(), kCompanion));
    return p;
}

std::string
pinKey(const std::string &program, const std::string &model,
       std::uint64_t insts)
{
    return "serve/" + program + "/" + model + "/" + std::to_string(insts);
}

std::string
specLine(const std::string &id, const std::vector<std::string> &programs,
         std::uint64_t insts)
{
    std::string s = "{\"id\":\"" + id + "\",\"workloads\":[";
    for (std::size_t i = 0; i < programs.size(); ++i)
        s += (i ? ",\"" : "\"") + programs[i] + "\"";
    s += "],\"models\":[\"base\",\"resizing\"],\"insts\":" +
         std::to_string(insts) + "}";
    return s;
}

/** Seeded Fisher-Yates shuffle (portable across standard libraries). */
template <typename T>
void
shuffle(std::vector<T> &v, mlpwin::Rng &rng)
{
    for (std::size_t i = v.size(); i > 1; --i)
        std::swap(v[i - 1], v[rng.below(i)]);
}

int
connectUnix(const std::string &path)
{
    int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd < 0)
        return -1;
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (path.size() >= sizeof(addr.sun_path)) {
        ::close(fd);
        return -1;
    }
    std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
    if (::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                  sizeof(addr)) != 0) {
        ::close(fd);
        return -1;
    }
    return fd;
}

/** One mlpwind process; killed and reaped on destruction. */
class Daemon
{
  public:
    Daemon(const std::string &bin, const std::string &socket,
           const std::string &state, const std::string &cache,
           const std::string &log)
        : socket_(socket)
    {
        std::vector<std::string> args = {
            bin, "--socket", socket, "--state-dir", state,
            "--cache-dir", cache, "-j", std::to_string(kWorkers)};
        start_ = Clock::now();
        pid_ = ::fork();
        if (pid_ < 0)
            throw std::runtime_error("fork failed");
        if (pid_ == 0) {
            int fd = ::open(log.c_str(), O_WRONLY | O_CREAT | O_APPEND,
                            0644);
            if (fd >= 0) {
                ::dup2(fd, 1);
                ::dup2(fd, 2);
            }
            std::vector<char *> argv;
            for (std::string &a : args)
                argv.push_back(a.data());
            argv.push_back(nullptr);
            ::execv(argv[0], argv.data());
            ::_exit(127);
        }
    }

    ~Daemon()
    {
        if (pid_ > 0) {
            ::kill(pid_, SIGKILL);
            ::waitpid(pid_, nullptr, 0);
        }
    }

    Daemon(const Daemon &) = delete;
    Daemon &operator=(const Daemon &) = delete;

    /** Seconds from launch until the socket accepts a connection. */
    double
    waitAccepting()
    {
        for (;;) {
            int fd = connectUnix(socket_);
            if (fd >= 0) {
                double s = secondsSince(start_);
                ::close(fd);
                return s;
            }
            int status = 0;
            if (::waitpid(pid_, &status, WNOHANG) == pid_) {
                pid_ = -1;
                throw std::runtime_error("mlpwind exited at startup");
            }
            if (secondsSince(start_) > 30)
                throw std::runtime_error("mlpwind never accepted");
            ::usleep(100);
        }
    }

    /**
     * Clean shutdown; returns the peak resident set in MiB of the
     * daemon and every worker it reaped.
     */
    double
    stop()
    {
        ::kill(pid_, SIGTERM);
        int status = 0;
        rusage ru{};
        ::wait4(pid_, &status, 0, &ru);
        pid_ = -1;
        return ru.ru_maxrss / 1024.0; // KiB -> MiB
    }

    const std::string &socket() const { return socket_; }

  private:
    std::string socket_;
    Clock::time_point start_;
    pid_t pid_ = -1;
};

/** What the client saw of one spec. */
struct SpecTrace
{
    Clock::time_point submit, hello, done;
    std::vector<Clock::time_point> jobs;
    std::size_t cached = 0;
    std::size_t jobsOk = 0;
    std::string resultsPath;
    std::string error;
    bool timedOut = false;
};

/** Submit one spec line and time every reply line as it arrives. */
SpecTrace
submit(const std::string &socket, const std::string &spec)
{
    SpecTrace t;
    t.submit = Clock::now();
    int fd = connectUnix(socket);
    if (fd < 0) {
        t.error = "cannot connect to mlpwind";
        return t;
    }
    if (!mlpwin::serve::writeAll(fd, spec + "\n")) {
        ::close(fd);
        t.error = "cannot send spec";
        return t;
    }
    ::shutdown(fd, SHUT_WR);

    std::string buf;
    bool finished = false;
    while (!finished) {
        pollfd p{fd, POLLIN, 0};
        int r = ::poll(&p, 1, kReplyTimeoutMs);
        if (r < 0 && errno == EINTR)
            continue;
        if (r <= 0) {
            t.error = "timed out waiting for mlpwind";
            t.timedOut = true;
            break;
        }
        char chunk[4096];
        ssize_t n = ::read(fd, chunk, sizeof(chunk));
        Clock::time_point now = Clock::now();
        if (n < 0 && errno == EINTR)
            continue;
        if (n <= 0) {
            t.error = "mlpwind closed the connection early";
            break;
        }
        buf.append(chunk, static_cast<std::size_t>(n));
        std::size_t nl;
        while (!finished && (nl = buf.find('\n')) != std::string::npos) {
            std::string line = buf.substr(0, nl);
            buf.erase(0, nl + 1);
            mlpwin::JsonValue v = mlpwin::parseJson(line);
            const std::string &type = v.field("type").asString();
            if (type == "hello") {
                t.hello = now;
            } else if (type == "job") {
                t.jobs.push_back(now);
                t.cached += v.field("cached").asBool();
                t.jobsOk += v.field("state").asString() == "ok";
            } else if (type == "done") {
                t.done = now;
                t.resultsPath = v.field("results").asString();
                if (v.field("exit").asU64() != 0)
                    t.error = "spec finished with exit " +
                              std::to_string(v.field("exit").asU64());
                finished = true;
            } else {
                t.error = "mlpwind: " + line;
                finished = true;
            }
        }
    }
    ::close(fd);
    if (t.error.empty() && !finished)
        t.error = "no done line";
    return t;
}

class ServeMix : public Workload
{
  public:
    ServeMix(const Options &opts, const PinTable &pins)
        : opts_(opts), pins_(pins), rng_(opts.seed),
          programs_(specPrograms())
    {
        dir_ = opts.runDir + "/serve-" + std::to_string(::getpid());
        fs::remove_all(dir_);
        fs::create_directories(dir_ + "/state");
        fs::create_directories(dir_ + "/cache");
        variants_.resize(kVariants);
        for (unsigned v = 0; v < kVariants; ++v)
            variants_[v] = v;
        shuffle(variants_, rng_);
    }

    /** Stops the daemon; keeps the run directory only after a failure. */
    ~ServeMix() override
    {
        shutdown();
        if (failed_ == 0)
            fs::remove_all(dir_);
    }

    std::string name() const override { return "serve-mix"; }

    void
    warm() override
    {
        const std::string bin = opts_.binDir + "/mlpwind";
        for (unsigned i = 0; i < kSetupLaunches; ++i) {
            daemon_.reset();
            daemon_ = std::make_unique<Daemon>(
                bin, dir_ + "/d" + std::to_string(i) + ".sock",
                dir_ + "/state", dir_ + "/cache", dir_ + "/mlpwind.log");
            setupS_.push_back(daemon_->waitAccepting());
        }
        // The warm-up round simulates the first budget; its rows are
        // the workload's exact counts.
        round(/*measured=*/false);
        if (warmRows_.empty())
            return;
        std::string err = pinSelfCheck(warmRows_.front(),
                                       pins_.at(rowKey(warmRows_.front())));
        if (!err.empty())
            throw std::runtime_error("serve-mix pin self-check: " + err);
    }

    void
    step() override
    {
        if (!dead_)
            round(/*measured=*/true);
    }

    bool
    atStopPoint() const override
    {
        return dead_ || rounds_ % kPattern == 0;
    }

    void
    shutdown() override
    {
        if (daemon_) {
            peakRss_ = daemon_->stop();
            daemon_.reset();
        }
    }

    void
    reportEndToEnd(Report &out) override
    {
        double busy = 0;
        for (double s : latencyS_)
            busy += s;
        const std::size_t specs = latencyS_.size();
        const std::size_t cells = specs * kCellsPerSpec;
        const double p50 = median(latencyS_);
        out.add("sim_kips", busy > 0 ? simInsts_ / busy / 1e3 : 0,
                "kinst/s", cells);
        out.add("cell_s", p50 / kCellsPerSpec, "s", specs);
        out.addMedian("setup_s", setupS_, "s");
        out.add("peak_rss_mb", peakRss_, "MiB", 1);
        out.add("cells_per_s", busy > 0 ? cells / busy : 0, "1/s", cells);
        out.add("spec_s.p50", p50, "s", specs);
        out.add("spec_s.p90", quantile(latencyS_, 0.9), "s", specs);
    }

    void reportLayers(Report &out) override;

    std::uint64_t attempted() const override { return attempted_; }
    std::uint64_t failed() const override { return failed_; }

  private:
    std::string
    rowKey(const mlpwin::SimResult &r) const
    {
        return pinKey(r.workload, r.model, rowInsts_);
    }

    void
    fail(const std::string &why)
    {
        std::fprintf(stderr, "perfbench: serve-mix: %s\n", why.c_str());
    }

    /** One round: every program but the companion once, seeded order. */
    void
    round(bool measured)
    {
        bool fresh = !measured || rounds_ % kPattern == 0;
        if (fresh && nextVariant_ == kVariants) {
            // Every budget is cached already: a host fast enough to
            // get here measures repeats only (see README).
            fresh = false;
        }
        unsigned fresh_variant = fresh ? variants_[nextVariant_++] : 0;

        std::vector<std::string> order = programs_;
        shuffle(order, rng_);
        for (const std::string &program : order) {
            unsigned v = fresh
                ? fresh_variant
                : variants_[rng_.below(nextVariant_)];
            spec(program, variantInsts(v), measured);
        }
        if (measured)
            ++rounds_;
    }

    void
    spec(const std::string &program, std::uint64_t insts, bool measured)
    {
        const std::string id =
            "pb" + std::to_string(opts_.seed) + "-" + std::to_string(specs_++);
        attempted_ += kCellsPerSpec;
        SpecTrace t = submit(daemon_->socket(),
                             specLine(id, {program, kCompanion}, insts));
        if (!t.error.empty()) {
            failed_ += kCellsPerSpec;
            fail(id + ": " + t.error);
            // A daemon that stopped answering fails every later spec
            // the same way; end the run instead of waiting on each.
            dead_ |= t.timedOut;
            return;
        }

        rowInsts_ = insts;
        std::ifstream in(t.resultsPath);
        std::string line;
        std::size_t rows = 0, bad = 0;
        double insts_done = 0;
        while (std::getline(in, line)) {
            ++rows;
            mlpwin::SimResult r = mlpwin::exp::resultFromJson(line);
            auto pin = pins_.find(rowKey(r));
            std::string why = pin == pins_.end()
                ? "no pin for " + rowKey(r) : checkPin(r, pin->second);
            if (!why.empty()) {
                ++bad;
                fail(id + " " + rowKey(r) + ": " + why);
                continue;
            }
            insts_done += static_cast<double>(r.committed + r.ffInsts);
            if (!measured && warmKeys_.insert(rowKey(r)).second)
                warmRows_.push_back(r);
            if (opts_.trace && payloads_.size() < 256)
                payloads_.push_back(line);
        }
        if (rows != kCellsPerSpec || t.jobsOk != kCellsPerSpec)
            bad = std::max(bad, kCellsPerSpec - std::min(rows, t.jobsOk));
        failed_ += bad;
        if (!measured || bad)
            return;

        double latency = seconds(t.submit, t.done);
        latencyS_.push_back(latency);
        simInsts_ += insts_done;
        helloS_.push_back(seconds(t.submit, t.hello));
        Clock::time_point prev = t.hello;
        for (Clock::time_point j : t.jobs) {
            jobGapS_.push_back(seconds(prev, j));
            prev = j;
        }
        doneTailS_.push_back(seconds(prev, t.done));
        if (t.cached == kCellsPerSpec)
            hitSpecS_.push_back(latency);
        else if (t.cached == 0)
            missSpecS_.push_back(latency);
        cachedCells_ += t.cached;

        // In a traced run every other spec also records its spans;
        // the rest are the overhead baseline.
        if (!opts_.trace)
            return;
        bool traced = specs_ & 1;
        if (t.cached == kCellsPerSpec)
            (traced ? tracedHitS_ : plainHitS_).push_back(latency);
        if (!traced)
            return;
        const std::string args = "{\"id\":\"" + id + "\",\"program\":\"" +
                                 program + "\",\"insts\":" +
                                 std::to_string(insts) + ",\"cached\":" +
                                 std::to_string(t.cached) + "}";
        spans_.span("spec", "serve", t.submit, t.done, 0, args);
        spans_.span("hello", "serve", t.submit, t.hello, 1);
        prev = t.hello;
        for (Clock::time_point j : t.jobs) {
            spans_.span("job", "serve", prev, j, 1);
            prev = j;
        }
        spans_.span("done", "serve", prev, t.done, 1);
    }

    /** Time ResultCache::put and ::get on the run's own payloads. */
    void
    timeCache(std::vector<double> &put_s, std::vector<double> &get_s)
    {
        const std::string dir = dir_ + "/cache-probe";
        fs::remove_all(dir);
        mlpwin::cache::ResultCache cache(dir);
        std::vector<std::uint64_t> keys;
        for (const std::string &p : payloads_) {
            std::uint64_t key = mlpwin::cache::fnv1a(p.data(), p.size());
            keys.push_back(key);
            auto t0 = Clock::now();
            bool ok = cache.put(key, p, "perfbench", "probe", 0, 0);
            put_s.push_back(secondsSince(t0));
            if (!ok)
                throw std::runtime_error("ResultCache::put failed");
        }
        std::string got;
        for (std::size_t i = 0; i < keys.size(); ++i) {
            auto t0 = Clock::now();
            bool hit = cache.get(keys[i], got);
            get_s.push_back(secondsSince(t0));
            if (!hit || got != payloads_[i])
                throw std::runtime_error("ResultCache::get missed");
        }
    }

    const Options &opts_;
    const PinTable &pins_;
    mlpwin::Rng rng_;
    const std::vector<std::string> programs_;
    std::string dir_;
    std::unique_ptr<Daemon> daemon_;
    std::vector<unsigned> variants_;
    unsigned nextVariant_ = 0;
    bool dead_ = false;
    std::uint64_t rounds_ = 0;
    std::uint64_t specs_ = 0;
    std::uint64_t rowInsts_ = 0;
    std::uint64_t attempted_ = 0;
    std::uint64_t failed_ = 0;
    std::uint64_t cachedCells_ = 0;
    double peakRss_ = 0;
    double simInsts_ = 0;
    std::vector<double> setupS_, latencyS_;
    /** Warm-up rows already counted (the companion recurs). */
    std::set<std::string> warmKeys_;
    std::vector<double> helloS_, jobGapS_, doneTailS_;
    std::vector<double> hitSpecS_, missSpecS_;
    std::vector<double> tracedHitS_, plainHitS_;
    std::vector<mlpwin::SimResult> warmRows_;
    std::vector<std::string> payloads_;
};

void
ServeMix::reportLayers(Report &out)
{
    out.addMedian("serve.hello_s.p50", helloS_, "s");
    out.addMedian("serve.job_gap_s.p50", jobGapS_, "s");
    out.addMedian("serve.done_tail_s.p50", doneTailS_, "s");
    out.addMedian("cache.hit_spec_s.p50", hitSpecS_, "s");
    out.addMedian("cache.miss_spec_s.p50", missSpecS_, "s");
    std::vector<double> put_s, get_s;
    timeCache(put_s, get_s);
    out.addMedian("cache.get_s.p50", get_s, "s");
    out.addMedian("cache.put_s.p50", put_s, "s");
    std::size_t cells = latencyS_.size() * kCellsPerSpec;
    out.add("cache.hit_ratio",
            cells ? static_cast<double>(cachedCells_) / cells : 0, "share",
            cells);
    addSimCounts(out, warmRows_);
    double plain = plainHitS_.empty() ? 0 : median(plainHitS_);
    double traced = tracedHitS_.empty() ? 0 : median(tracedHitS_);
    out.add("trace.overhead_pct",
            plain > 0 ? (traced / plain - 1.0) * 100.0 : 0, "%",
            std::min(plainHitS_.size(), tracedHitS_.size()));
}

} // namespace

std::unique_ptr<Workload>
makeServeMix(const Options &opts, const PinTable &pins)
{
    return std::make_unique<ServeMix>(opts, pins);
}

PinTable
computeServePins()
{
    PinTable pins;
    for (unsigned v = 0; v < kVariants; ++v) {
        std::string id, err;
        mlpwin::exp::ExperimentSpec spec;
        if (!mlpwin::serve::parseDaemonSpec(
                specLine("pins", fig07Programs(), variantInsts(v)), id, spec,
                err))
            throw std::runtime_error("pin spec: " + err);
        for (const mlpwin::SimResult &r :
             mlpwin::exp::ExperimentRunner(3, false).run(spec))
            pins[pinKey(r.workload, r.model, variantInsts(v))] = pinOf(r);
    }
    return pins;
}

} // namespace perfbench
