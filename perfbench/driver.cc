/**
 * @file
 * perfbench_driver: runs benchmark workloads and prints one raw JSON
 * report on stdout (perfbench/run.py selects and formats metrics).
 *
 *   perfbench_driver --workload NAME|all --seed N --seconds S
 *                    --trace 0|1 --bin-dir DIR --pins FILE
 *                    --run-dir DIR --out-dir DIR
 *   perfbench_driver --write-pins FILE
 *
 * With `all`, every workload runs in this one process, one step of
 * each in turn (the order rotating every round), so phases of host
 * load hit every workload alike; the time budget is S per workload.
 * Progress and diagnostics go to stderr.
 */

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>

#include "bench.hh"
#include "common/json.hh"
#include "common/parse.hh"
#include "telemetry/export.hh"
#include "telemetry/timeline.hh"

using namespace perfbench;

namespace
{

/** Every workload, in the order `all` interleaves them. */
const std::vector<std::string> kWorkloads = {
    "cell-compute", "cell-memory", "cell-sampled", "serve-mix"};

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "perfbench_driver: %s\n"
                 "usage: perfbench_driver --workload NAME|all --seed N "
                 "--seconds S --trace 0|1 --bin-dir DIR --pins FILE "
                 "--run-dir DIR --out-dir DIR\n"
                 "       perfbench_driver --write-pins FILE\n",
                 why);
    std::exit(2);
}

std::string
reportJson(const Report &r)
{
    std::string s = "{";
    bool first = true;
    for (const auto &[name, m] : r.items()) {
        s += (first ? "\"" : ",\"") + name + "\":{\"value\":" +
             mlpwin::fmtDouble(m.value) + ",\"unit\":\"" + m.unit +
             "\",\"samples\":" + std::to_string(m.samples) + "}";
        first = false;
    }
    return s + "}";
}

void
writeTrace(const std::string &path, std::vector<Workload *> &ws)
{
    std::vector<std::string> events = {
        "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":2,\"args\":"
        "{\"name\":\"perfbench\"}}",
        "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"args\":"
        "{\"name\":\"mlpwin host profiler\"}}"};
    for (Workload *w : ws)
        for (const std::string &e : w->spans().events())
            events.push_back(e);
    std::ofstream os(path, std::ios::trunc);
    mlpwin::writeChromeTrace(os, mlpwin::EventTimeline(), "mlpwin guest",
                             events);
}

} // namespace

int
main(int argc, char **argv)
{
    Options opts;
    std::string out_dir = ".bench_build/out";
    std::string write_pins;
    bool have_trace = false;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (i + 1 >= argc)
            usage(("missing value for " + arg).c_str());
        const char *v = argv[++i];
        if (arg == "--workload") {
            opts.workload = v;
        } else if (arg == "--seed") {
            if (!mlpwin::parseU64(v, opts.seed))
                usage("--seed: not a number");
        } else if (arg == "--seconds") {
            char *end = nullptr;
            opts.seconds = std::strtod(v, &end);
            if (*end || !(opts.seconds > 0))
                usage("--seconds: want a positive number");
        } else if (arg == "--trace") {
            if (std::string(v) != "0" && std::string(v) != "1")
                usage("--trace: want 0 or 1");
            opts.trace = std::string(v) == "1";
            have_trace = true;
        } else if (arg == "--bin-dir") {
            opts.binDir = v;
        } else if (arg == "--pins") {
            opts.pinsPath = v;
        } else if (arg == "--run-dir") {
            opts.runDir = v;
        } else if (arg == "--out-dir") {
            out_dir = v;
        } else if (arg == "--write-pins") {
            write_pins = v;
        } else {
            usage(("unknown option " + arg).c_str());
        }
    }

    try {
        if (!write_pins.empty()) {
            PinTable pins = computeCellPins();
            for (auto &[k, p] : computeServePins())
                pins[k] = p;
            savePins(write_pins, pins);
            std::fprintf(stderr, "wrote %zu pins to %s\n", pins.size(),
                         write_pins.c_str());
            return 0;
        }
        if (opts.workload.empty() || !have_trace || opts.pinsPath.empty() ||
            opts.binDir.empty())
            usage("--workload, --trace, --pins and --bin-dir are required");

        const PinTable pins = loadPins(opts.pinsPath);
        std::vector<std::string> names;
        if (opts.workload == "all")
            names = kWorkloads;
        else
            names = {opts.workload};

        std::vector<std::unique_ptr<Workload>> owned;
        std::vector<Workload *> ws;
        for (const std::string &n : names) {
            std::unique_ptr<Workload> w = n == "serve-mix"
                ? makeServeMix(opts, pins)
                : makeCellWorkload(n, opts, pins);
            if (!w)
                usage(("unknown workload " + n).c_str());
            ws.push_back(w.get());
            owned.push_back(std::move(w));
        }

        // Caches, page cache, allocator arenas and the daemon's worker
        // binaries are warm before anything is timed.
        for (Workload *w : ws) {
            std::fprintf(stderr, "perfbench: warming %s\n",
                         w->name().c_str());
            w->warm();
        }

        const double budget = opts.seconds * ws.size();
        const Clock::time_point start = Clock::now();
        std::vector<bool> done(ws.size(), false);
        std::size_t remaining = ws.size();
        for (std::size_t round = 0; remaining; ++round) {
            for (std::size_t k = 0; k < ws.size(); ++k) {
                std::size_t i = (k + round) % ws.size();
                if (done[i])
                    continue;
                if (secondsSince(start) >= budget && ws[i]->atStopPoint()) {
                    done[i] = true;
                    --remaining;
                    continue;
                }
                ws[i]->step();
            }
        }
        for (Workload *w : ws)
            w->shutdown();

        std::filesystem::create_directories(out_dir);
        const std::string stem = out_dir + "/" + opts.workload + ".seed" +
                                 std::to_string(opts.seed);
        if (opts.trace)
            writeTrace(stem + ".trace.json", ws);

        std::ostringstream os;
        os << "{\"seed\":" << opts.seed << ",\"workloads\":{";
        bool ok = true;
        for (std::size_t i = 0; i < ws.size(); ++i) {
            Report r;
            if (opts.trace)
                ws[i]->reportLayers(r);
            else
                ws[i]->reportEndToEnd(r);
            ok &= ws[i]->failed() == 0;
            os << (i ? ",\"" : "\"") << ws[i]->name()
               << "\":{\"attempted\":" << ws[i]->attempted()
               << ",\"failed\":" << ws[i]->failed()
               << ",\"metrics\":" << reportJson(r) << "}";
        }
        os << "}}";
        std::cout << os.str() << std::endl;
        return ok ? 0 : 1;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench_driver: %s\n", e.what());
        return 1;
    }
}
