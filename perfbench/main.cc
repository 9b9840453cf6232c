/**
 * @file
 * perfbench: end-to-end benchmark of paichar's characterize, schedule
 * and serve paths, with per-layer attribution.
 *
 *   perfbench --workload NAME --seed N --seconds S --trace 0|1
 *             [--work-dir DIR]
 *
 * --trace 0 measures the end-to-end metrics with tracing off:
 *   setup_s       median over repeated set-ups of the inputs
 *   first_pass_s  the first pass in a fresh process: median over
 *                 the fresh processes
 *   items_per_s   items per pass / median warmed pass seconds
 *   peak_rss_mb   median over warmed passes of the pass's resident
 *                 high-water mark (reset before each pass)
 * --trace 1 runs untraced and traced passes alternately and reports
 * per-layer self times from spans the benchmark puts around each
 * library call, plus counts from the program's obs counters, reset
 * before each traced pass.
 *
 * Every pass is checked; a pass fails if it throws, fails a check or
 * its digest differs from the first pass's. The last line of stdout
 * is one JSON object: correct, attempted, failed, metrics. The exit
 * code is 0 only when no pass failed.
 */

#include <sched.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include <malloc.h>

#include "obs/obs.h"
#include "runtime/parallel.h"
#include "span_trace.h"
#include "workloads.h"

extern char **environ;

namespace perfbench {
namespace {

#ifdef __OPTIMIZE__
constexpr bool kOptimized = true;
#else
constexpr bool kOptimized = false;
#endif

/**
 * Fresh processes per --trace 0 run; first_pass_s is their median.
 * Process i runs input i modulo the workload's inputs.
 */
constexpr int kFreshProcesses = 10;
/**
 * Set-ups per --trace 0 run; setup_s is their median. Set-up repeats
 * at least kMinSetupReps times and until kSetupSeconds of it have
 * run, so a cheap set-up is sampled often enough for a steady median.
 * A set-up much cheaper than one slice of that time runs a slice
 * before the passes and one before each fresh process, so its median
 * spans the run's changes in host load rather than one moment of it.
 */
constexpr int kMinSetupReps = 3;
constexpr int kMaxSetupReps = 100000;
constexpr double kSetupSeconds = 1.0;
constexpr double kSetupSliceSeconds = kSetupSeconds / (kFreshProcesses + 1);
/** The most threads the benchmark asks the runtime pool for. */
constexpr int kMaxThreads = 4;

struct Options
{
    std::string workload;
    uint64_t seed = 20181201;
    double seconds = 10.0;
    bool trace = false;
    std::string work_dir = ".bench_build/perfbench-work";
    /** Internal: run one pass in this fresh process and report it. */
    bool child_pass = false;
    /** Internal: the input the --child-pass pass runs. */
    int input = 0;
};

struct Metric
{
    const char *name;
    const char *unit;
};

/** The per-layer metrics, as listed in BENCHMARK.json. */
const std::vector<Metric> kLayerMetrics = {
    {"trace.generate_s", "s"},
    {"trace.write_s", "s"},
    {"trace.read_s", "s"},
    {"trace.rows_mapped", "count"},
    {"trace.materialize_s", "s"},
    {"core.characterize_s", "s"},
    {"core.aggregate_s", "s"},
    {"core.jobs_evaluated", "count"},
    {"core.ns_per_job", "ns/job"},
    {"runtime.tasks", "count"},
    {"runtime.busy_frac", "ratio"},
    {"clustersim.requests_s", "s"},
    {"clustersim.run_s", "s"},
    {"clustersim.us_per_job", "us/job"},
    {"clustersim.placement_attempts", "count"},
    {"clustersim.placement_failures", "count"},
    {"clustersim.placement_success_ratio", "ratio"},
    {"predict.calls", "count"},
    {"sim.events_executed", "count"},
    {"inference.fleet_s8_s", "s"},
    {"inference.fleet_s512_s", "s"},
    {"inference.fleet_512_over_8", "ratio"},
    {"inference.ns_per_request_s8", "ns/request"},
    {"inference.ns_per_request_s512", "ns/request"},
    {"inference.fleet.batches", "count"},
    {"obs.collect_joblog_s", "s"},
    {"obs.render_joblog_s", "s"},
    {"obs.render_timeline_s", "s"},
    {"obs.render_profile_s", "s"},
    {"obs.joblog_bytes", "bytes"},
    {"obs.timeline_bytes", "bytes"},
    {"obs.profile_bytes", "bytes"},
    {"obs.sink_overhead_frac", "ratio"},
    {"bench.trace_overhead_frac", "ratio"},
};

/** Program counters copied into per-layer metrics of the same name. */
const char *const kCounters[] = {
    "trace.rows_mapped",
    "core.jobs_evaluated",
    "runtime.tasks",
    "clustersim.placement_attempts",
    "clustersim.placement_failures",
    "sim.events_executed",
    "inference.fleet.batches",
};

[[noreturn]] void
usage(const std::string &msg)
{
    std::cerr << "perfbench: " << msg
              << "\nusage: perfbench --workload NAME --seed N "
                 "--seconds S --trace 0|1 [--work-dir DIR]\n";
    std::exit(2);
}

Options
parseArgs(int argc, char **argv)
{
    Options o;
    bool have_workload = false;
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        if (a == "--child-pass") {
            o.child_pass = true;
            continue;
        }
        if (i + 1 >= argc)
            usage("missing value for " + a);
        std::string v = argv[++i];
        try {
            if (a == "--workload") {
                o.workload = v;
                have_workload = true;
            } else if (a == "--seed") {
                o.seed = std::stoull(v);
            } else if (a == "--seconds") {
                o.seconds = std::stod(v);
            } else if (a == "--trace") {
                if (v != "0" && v != "1")
                    usage("--trace expects 0 or 1");
                o.trace = v == "1";
            } else if (a == "--work-dir") {
                o.work_dir = v;
            } else if (a == "--input") {
                o.input = std::stoi(v);
            } else {
                usage("unknown argument " + a);
            }
        } catch (const std::logic_error &) {
            usage("bad value '" + v + "' for " + a);
        }
    }
    if (!have_workload)
        usage("--workload is required");
    if (!(o.seconds > 0.0) || o.seconds > 600.0)
        usage("--seconds must be in (0, 600]");
    return o;
}

int
nproc()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof set, &set) != 0)
        return paichar::runtime::hardwareThreads();
    return std::max(1, CPU_COUNT(&set));
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/** Quartiles as Python's statistics.quantiles(v, n=4) gives them. */
std::array<double, 3>
quartiles(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    size_t n = v.size();
    if (n < 2)
        return {median(v), median(v), median(v)};
    std::array<double, 3> q{};
    for (int i = 1; i <= 3; ++i) {
        double pos = i * (n + 1) / 4.0;
        auto j = static_cast<size_t>(std::floor(pos));
        double delta = pos - j;
        j = std::clamp<size_t>(j, 1, n - 1);
        q[i - 1] = v[j - 1] + (v[j] - v[j - 1]) * delta;
    }
    return q;
}

std::string
num(double v)
{
    if (!std::isfinite(v))
        v = 0.0;
    char buf[64];
    auto r = std::to_chars(buf, buf + sizeof buf, v);
    return std::string(buf, r.ptr);
}

std::string
hex(uint64_t v)
{
    char buf[24];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

/** Reset this process's resident high-water mark to its current RSS. */
void
resetPeakRss()
{
    std::ofstream f("/proc/self/clear_refs");
    f << "5";
    f.flush();
    if (!f)
        throw std::runtime_error("cannot write /proc/self/clear_refs");
}

/** VmHWM of this process, in MiB. */
double
peakRssMb()
{
    std::ifstream f("/proc/self/status");
    std::string line;
    while (std::getline(f, line)) {
        if (line.rfind("VmHWM:", 0) == 0)
            return std::stod(line.substr(6)) / 1024.0;
    }
    throw std::runtime_error("no VmHWM in /proc/self/status");
}

/** Pass bookkeeping shared by both run modes. */
struct Tally
{
    int64_t attempted = 0;
    int64_t failed = 0;
    /** Digest of the first pass of each mode and input. */
    std::map<std::pair<PassMode, int>, uint64_t> first_digest;
    std::string headline;

    /** Checks a pass's verdict; returns false if it failed. */
    bool
    record(PassMode mode, int input, const Verdict &v,
           const std::string &where)
    {
        ++attempted;
        std::optional<std::string> err = v.error;
        auto [it, first] = first_digest.emplace(std::pair(mode, input),
                                                v.digest);
        if (mode == PassMode::Normal && headline.empty())
            headline = v.headline;
        if (!err && it->second != v.digest) {
            err = "digest " + hex(v.digest) + " != first pass's " +
                  hex(it->second);
        }
        if (err) {
            ++failed;
            std::cout << "FAILED " << where << ": " << *err << "\n";
        }
        return !err;
    }

    /** Records the workload's once-per-run self-check. */
    void
    recordSelfCheck(Workload &w)
    {
        try {
            if (auto err = w.selfCheck())
                recordThrow("self-check", *err);
            else
                ++attempted;
        } catch (const std::exception &e) {
            recordThrow("self-check", e.what());
        }
    }

    void
    recordThrow(const std::string &where, const std::string &what)
    {
        ++attempted;
        ++failed;
        std::cout << "FAILED " << where << ": " << what << "\n";
    }
};

/**
 * Runs one pass over @p input and checks it. Returns the pass's wall
 * seconds, or nullopt when it threw or failed a check. @p after runs
 * between the end of the pass and the check (peak-RSS reads).
 */
template <typename After>
std::optional<double>
timedPass(Workload &w, PassMode mode, int input, Tally &tally,
          const std::string &where, After after)
{
    try {
        int64_t t0 = nowNs();
        w.pass(mode, input);
        double s = (nowNs() - t0) * 1e-9;
        after();
        if (tally.record(mode, input, w.verify(), where))
            return s;
    } catch (const std::exception &e) {
        tally.recordThrow(where, e.what());
    }
    return std::nullopt;
}

std::optional<double>
timedPass(Workload &w, PassMode mode, int input, Tally &tally,
          const std::string &where)
{
    return timedPass(w, mode, input, tally, where, [] {});
}

void
printResult(const Tally &tally,
            const std::vector<std::pair<Metric, double>> &metrics)
{
    std::ostringstream os;
    os << "{\"correct\": " << (tally.failed == 0 ? "true" : "false")
       << ", \"attempted\": " << std::max<int64_t>(1, tally.attempted)
       << ", \"failed\": " << tally.failed << ", \"metrics\": {";
    for (size_t i = 0; i < metrics.size(); ++i) {
        const auto &[m, v] = metrics[i];
        os << (i ? ", " : "") << "\"" << m.name
           << "\": {\"value\": " << num(v) << ", \"unit\": \"" << m.unit
           << "\"}";
    }
    os << "}}";
    std::cout << os.str() << std::endl;
}

/** Child mode: one pass in this fresh process, reported on stdout. */
int
runChildPass(const Options &o, Workload &w)
{
    Context ctx{o.seed, o.work_dir};
    w.attach(ctx);
    int64_t t0 = nowNs();
    w.pass(PassMode::Normal, o.input);
    double s = (nowNs() - t0) * 1e-9;
    Verdict v = w.verify();
    std::cout << num(s) << " " << hex(v.digest) << " "
              << (v.error ? *v.error : "ok") << std::endl;
    return 0;
}

struct ChildResult
{
    double seconds = 0.0;
    uint64_t digest = 0;
    std::optional<std::string> error;
};

/** Runs this binary in --child-pass mode and collects its report. */
ChildResult
spawnChildPass(const Options &o, int input)
{
    std::vector<std::string> args = {
        "perfbench",   "--child-pass", "--workload", o.workload,
        "--seed",      std::to_string(o.seed),       "--seconds",
        num(o.seconds), "--trace",     "0",          "--work-dir",
        o.work_dir,    "--input",      std::to_string(input)};
    std::vector<char *> argv;
    for (auto &a : args)
        argv.push_back(a.data());
    argv.push_back(nullptr);

    int fds[2];
    if (pipe(fds) != 0)
        throw std::runtime_error("pipe failed");
    posix_spawn_file_actions_t fa;
    posix_spawn_file_actions_init(&fa);
    posix_spawn_file_actions_adddup2(&fa, fds[1], STDOUT_FILENO);
    posix_spawn_file_actions_addclose(&fa, fds[0]);
    posix_spawn_file_actions_addclose(&fa, fds[1]);
    pid_t pid = 0;
    int rc = posix_spawn(&pid, "/proc/self/exe", &fa, nullptr,
                         argv.data(), environ);
    posix_spawn_file_actions_destroy(&fa);
    close(fds[1]);
    std::string out;
    if (rc == 0) {
        char buf[4096];
        ssize_t n;
        while ((n = read(fds[0], buf, sizeof buf)) > 0)
            out.append(buf, static_cast<size_t>(n));
    }
    close(fds[0]);
    if (rc != 0)
        throw std::runtime_error("posix_spawn failed: " +
                                 std::string(std::strerror(rc)));
    int status = 0;
    while (waitpid(pid, &status, 0) < 0 && errno == EINTR) {
    }

    ChildResult r;
    std::istringstream is(out);
    std::string digest, rest;
    if (!WIFEXITED(status) || WEXITSTATUS(status) != 0 ||
        !(is >> r.seconds >> digest)) {
        r.error = "fresh process failed (status " +
                  std::to_string(status) + "): " + out;
        return r;
    }
    r.digest = std::stoull(digest, nullptr, 16);
    std::getline(is >> std::ws, rest);
    if (rest != "ok")
        r.error = rest;
    return r;
}

void
printHost(int threads)
{
    std::cout << "host: {\"nproc\": " << nproc()
              << ", \"threads\": " << threads << ", \"compiler\": \""
              << PERFBENCH_COMPILER << "\", \"build_type\": \""
              << PERFBENCH_BUILD_TYPE << "\"}\n";
}

void
printSeconds(const char *what, const std::vector<double> &v)
{
    auto q = quartiles(v);
    std::cout << what << ": n " << v.size() << ", median "
              << num(median(v)) << " s, quartiles " << num(q[0])
              << " / " << num(q[2]) << " s\n";
}

/** --trace 0: the end-to-end metrics. */
int
runEndToEnd(const Options &o, Workload &w)
{
    Context ctx{o.seed, o.work_dir};
    Tally tally;

    std::vector<double> setup_s;
    double setup_total_s = 0.0;
    auto setUp = [&](double budget_s, int min_reps) {
        int64_t start = nowNs();
        for (int i = 0; i < min_reps ||
                        (setup_s.size() < kMaxSetupReps &&
                         (nowNs() - start) * 1e-9 < budget_s);
             ++i) {
            int64_t t0 = nowNs();
            w.setup(ctx);
            setup_s.push_back((nowNs() - t0) * 1e-9);
            setup_total_s += setup_s.back();
        }
        // Return set-up's freed heap so it is not counted as the
        // passes' resident memory.
        malloc_trim(0);
    };
    setUp(kSetupSliceSeconds, kMinSetupReps);
    const bool sliced_setup =
        median(setup_s) < kSetupSliceSeconds / kMinSetupReps;
    if (!sliced_setup)
        setUp(kSetupSeconds - setup_total_s, 0);
    tally.recordSelfCheck(w);

    const int inputs = w.inputs();
    w.attach(ctx);
    if (auto s = timedPass(w, PassMode::Normal, 0, tally, "warm-up pass"))
        std::cout << "warm-up pass seconds: " << num(*s) << "\n";
    // Fresh processes alternate with warmed passes, so both metrics
    // sample the same stretch of the host's load. Warmed passes run in
    // whole rotations over the inputs, so each input weighs the same.
    std::vector<std::vector<double>> first_s(inputs), input_s(inputs);
    std::vector<double> all_first_s, pass_s, rss_mb;
    double warmed_s = 0.0;
    int64_t start = nowNs();
    for (int i = 0; i < kFreshProcesses || warmed_s < o.seconds ||
                    i % inputs != 0;
         ++i) {
        int input = i % inputs;
        std::string n = std::to_string(i);
        if (i < kFreshProcesses && sliced_setup)
            setUp(kSetupSliceSeconds, 1);
        if (i < kFreshProcesses) {
            try {
                auto c = spawnChildPass(o, input);
                Verdict v;
                v.error = c.error;
                v.digest = c.digest;
                if (tally.record(PassMode::Normal, input, v,
                                 "fresh process " + n)) {
                    first_s[input].push_back(c.seconds);
                    all_first_s.push_back(c.seconds);
                }
            } catch (const std::exception &e) {
                tally.recordThrow("fresh process " + n, e.what());
            }
        }
        resetPeakRss();
        double rss = 0.0;
        auto s = timedPass(w, PassMode::Normal, input, tally, "pass " + n,
                           [&] { rss = peakRssMb(); });
        if (s) {
            warmed_s += *s;
            input_s[input].push_back(*s);
            pass_s.push_back(*s);
            rss_mb.push_back(rss);
        } else if ((nowNs() - start) * 1e-9 > 4 * o.seconds) {
            break; // failing passes add no warmed time
        }
    }
    printSeconds("setup_s", setup_s);
    printSeconds("first pass seconds", all_first_s);
    printSeconds("warmed pass seconds", pass_s);
    // Both metrics take the median over every input's passes. Whole
    // rotations weigh the inputs equally, and a median over all of
    // them does not change character with the number of rotations
    // that fit in a run, as a mean of two per input would.
    for (int i = 0; i < inputs; ++i) {
        std::cout << "input " << i << ": first pass seconds";
        for (double s : first_s[i])
            std::cout << " " << num(s);
        std::cout << "; warmed pass seconds";
        for (double s : input_s[i])
            std::cout << " " << num(s);
        std::cout << "\n";
    }
    double warmed_median_s = median(pass_s);
    double fail_frac = static_cast<double>(tally.failed) /
                       std::max<int64_t>(1, tally.attempted);
    std::cout << "headline (input 0): " << tally.headline << "\n"
              << "digest (input 0): "
              << hex(tally.first_digest[{PassMode::Normal, 0}]) << "\n"
              << "fail_frac: " << num(fail_frac) << " ratio ("
              << tally.failed << " of " << tally.attempted
              << " passes failed)\n";

    std::vector<std::pair<Metric, double>> metrics = {
        {{"setup_s", "s"}, median(setup_s)},
        {{"first_pass_s", "s"}, median(all_first_s)},
        {{"items_per_s", "items/s"},
         warmed_median_s > 0.0 ? w.itemsPerPass() / warmed_median_s
                               : 0.0},
        {{"peak_rss_mb", "MiB"}, median(rss_mb)},
    };
    for (const auto &[m, v] : metrics)
        std::cout << "metric " << m.name << " " << num(v) << " " << m.unit
                  << "\n";
    printResult(tally, metrics);
    return tally.failed == 0 ? 0 : 1;
}

/** Per-layer values of one traced pass. */
using Layers = std::map<std::string, double>;

/**
 * The program's counters after a traced pass of @p wall_s seconds,
 * read before the pass's checks run.
 */
Layers
readCounters(double wall_s, int threads)
{
    Layers l;
    for (const char *c : kCounters)
        l[c] = static_cast<double>(paichar::obs::counter(c).value());
    l["runtime.busy_frac"] =
        paichar::obs::histogram("runtime.task_us").sum() * 1e-6 /
        (threads * wall_s);
    return l;
}

/**
 * Per-layer values of traced pass @p pass: span self times plus
 * @p l, the pass's counters and the workload's own extras, and the
 * values derived from them.
 */
Layers
layersOfPass(int32_t pass, int64_t items, Layers l)
{
    auto spans = tracer().rollup([pass](int32_t p) { return p == pass; });
    auto self = [&](const char *name) {
        auto it = spans.find(name);
        return it == spans.end() ? 0.0 : it->second.self_s;
    };
    l["trace.read_s"] = self("trace.read");
    l["trace.materialize_s"] = self("trace.materialize");
    l["core.characterize_s"] = self("core.characterize");
    l["core.aggregate_s"] = self("core.aggregate");
    if (l["core.jobs_evaluated"] > 0)
        l["core.ns_per_job"] =
            l["core.characterize_s"] / l["core.jobs_evaluated"] * 1e9;
    l["clustersim.requests_s"] = self("clustersim.requests");
    if (spans.count("clustersim.run")) {
        // The predictor returns the model's prediction unchanged, so
        // there is no predictor time to take out of the run.
        l["clustersim.run_s"] = self("clustersim.run");
        l["clustersim.us_per_job"] =
            l["clustersim.run_s"] / static_cast<double>(items) * 1e6;
    }
    double attempts = l["clustersim.placement_attempts"];
    if (attempts > 0)
        l["clustersim.placement_success_ratio"] =
            (attempts - l["clustersim.placement_failures"]) / attempts;
    double s8 = self("inference.fleet_s8");
    double s512 = self("inference.fleet_s512");
    l["inference.fleet_s8_s"] = s8;
    l["inference.fleet_s512_s"] = s512;
    if (s8 > 0.0) {
        // The fleet workload's items are both legs' requests.
        double per_leg = static_cast<double>(items) / 2.0;
        l["inference.fleet_512_over_8"] = s512 / s8;
        l["inference.ns_per_request_s8"] = s8 / per_leg * 1e9;
        l["inference.ns_per_request_s512"] = s512 / per_leg * 1e9;
    }
    l["obs.collect_joblog_s"] = self("obs.collect_joblog");
    l["obs.render_joblog_s"] = self("obs.render_joblog");
    l["obs.render_timeline_s"] = self("obs.render_timeline");
    l["obs.render_profile_s"] = self("obs.render_profile");
    return l;
}

void
printRollup(const std::string &title,
            const std::map<std::string, SpanTotals> &spans, int passes)
{
    std::cout << title << " (mean of " << passes << "):\n";
    char line[160];
    std::snprintf(line, sizeof line, "  %-26s %8s %14s %14s\n", "span",
                  "calls", "self_s", "inclusive_s");
    std::cout << line;
    for (const auto &[name, t] : spans) {
        std::snprintf(line, sizeof line, "  %-26s %8.1f %14.6f %14.6f\n",
                      name.c_str(), double(t.count) / passes,
                      t.self_s / passes, t.inclusive_s / passes);
        std::cout << line;
    }
}

/**
 * Counts known to be wrong today, printed with the reason and kept
 * out of the per-layer metrics.
 */
void
printFlaggedCounters()
{
    using namespace paichar;
    std::cout << "flagged (not layer data):\n";
    if (obs::counter("sim.events_executed").value() > 0) {
        std::cout << "  sim.shard0.events_executed = "
                  << obs::counter("sim.shard0.events_executed").value()
                  << "  (known wrong: reads 0 while sim.events_executed "
                     "counts the events)\n";
    }
    const auto &wait = obs::histogram("clustersim.wait_s");
    if (!wait.empty()) {
        std::cout << "  clustersim.wait_s p50/p95 = "
                  << num(wait.quantile(0.5)) << " / "
                  << num(wait.quantile(0.95))
                  << "  (power-of-two bucket bounds, not quantiles)\n";
    }
}

/** --trace 1: the per-layer metrics. */
int
runTraced(const Options &o, Workload &w, int threads)
{
    Context ctx{o.seed, o.work_dir};
    Tally tally;

    tracer().setPass(-1);
    tracer().setEnabled(true);
    w.setup(ctx);
    tracer().setEnabled(false);
    tally.recordSelfCheck(w);
    malloc_trim(0);
    w.attach(ctx);
    // Every traced-run pass uses input 0, so counts repeat exactly.
    timedPass(w, PassMode::Normal, 0, tally, "warm-up pass");

    std::vector<double> untraced_s, sinks_off_s, traced_s;
    std::vector<Layers> layers;
    int64_t start = nowNs();
    for (int32_t k = 0; k == 0 || (nowNs() - start) * 1e-9 < o.seconds;
         ++k) {
        std::string n = std::to_string(k);
        if (auto s = timedPass(w, PassMode::Normal, 0, tally,
                               "untraced pass " + n))
            untraced_s.push_back(*s);
        if (w.hasSinks()) {
            if (auto s = timedPass(w, PassMode::SinksOff, 0, tally,
                                   "sinks-off pass " + n))
                sinks_off_s.push_back(*s);
        }
        paichar::obs::resetMetrics();
        tracer().setPass(k);
        tracer().setEnabled(true);
        try {
            int64_t t0 = nowNs();
            {
                Scope root("bench.pass");
                w.pass(PassMode::Normal, 0);
            }
            double s = (nowNs() - t0) * 1e-9;
            tracer().setEnabled(false);
            Layers l = readCounters(s, threads);
            if (tally.record(PassMode::Normal, 0, w.verify(),
                             "traced pass " + n)) {
                traced_s.push_back(s);
                for (const auto &[name, v] : w.passExtras())
                    l[name] = v;
                layers.push_back(
                    layersOfPass(k, w.itemsPerPass(), std::move(l)));
            }
        } catch (const std::exception &e) {
            tracer().setEnabled(false);
            tally.recordThrow("traced pass " + n, e.what());
        }
    }

    auto setup_spans =
        tracer().rollup([](int32_t p) { return p == -1; });
    auto pass_spans = tracer().rollup([](int32_t p) { return p >= 0; });
    printSeconds("untraced pass seconds", untraced_s);
    printSeconds("traced pass seconds", traced_s);
    if (w.hasSinks())
        printSeconds("sinks-off pass seconds", sinks_off_s);
    printRollup("set-up spans", setup_spans, 1);
    printRollup("traced pass spans", pass_spans,
                std::max<int>(1, static_cast<int>(layers.size())));
    printFlaggedCounters();

    // Counts must repeat exactly from pass to pass.
    for (const char *c : kCounters) {
        for (const auto &l : layers) {
            if (l.at(c) != layers.front().at(c)) {
                std::cout << "note: counter " << c
                          << " differs between traced passes\n";
                break;
            }
        }
    }

    std::map<std::string, double> values;
    for (const auto &m : kLayerMetrics) {
        std::vector<double> v;
        for (const auto &l : layers) {
            auto it = l.find(m.name);
            v.push_back(it == l.end() ? 0.0 : it->second);
        }
        values[m.name] = median(v);
    }
    auto spanTotal = [&](const char *name) {
        auto it = setup_spans.find(name);
        return it == setup_spans.end() ? 0.0 : it->second.inclusive_s;
    };
    values["trace.generate_s"] = spanTotal("trace.generate");
    values["trace.write_s"] = spanTotal("trace.write");
    double untraced = median(untraced_s);
    if (w.hasSinks() && !sinks_off_s.empty())
        values["obs.sink_overhead_frac"] =
            untraced / median(sinks_off_s) - 1.0;
    if (untraced > 0.0 && !traced_s.empty())
        values["bench.trace_overhead_frac"] =
            median(traced_s) / untraced - 1.0;

    std::string spans_path = o.work_dir + "/spans-" + o.workload + "-" +
                             std::to_string(o.seed) + ".jsonl";
    std::ofstream(spans_path) << tracer().toJsonl();
    std::cout << "spans: " << tracer().spans().size() << " written to "
              << spans_path << "\n";

    std::vector<std::pair<Metric, double>> metrics;
    for (const auto &m : kLayerMetrics) {
        metrics.push_back({m, values[m.name]});
        std::cout << "layer " << m.name << " " << num(values[m.name])
                  << " " << m.unit << "\n";
    }
    printResult(tally, metrics);
    return tally.failed == 0 ? 0 : 1;
}

int
run(int argc, char **argv)
{
    Options o = parseArgs(argc, argv);
    auto w = makeWorkload(o.workload);
    if (!w)
        usage("unknown workload '" + o.workload + "'");
    if (!kOptimized) {
        std::cerr << "perfbench: refusing to measure an unoptimized "
                     "build (build type "
                  << PERFBENCH_BUILD_TYPE << ")\n";
        return 2;
    }
    int threads = std::min(kMaxThreads, nproc());
    paichar::runtime::setThreadCount(threads);
    if (o.child_pass)
        return runChildPass(o, *w);

    std::filesystem::create_directories(o.work_dir);
    std::cout << "perfbench workload " << o.workload << ", seed "
              << o.seed << ", seconds " << num(o.seconds) << ", trace "
              << (o.trace ? 1 : 0) << "\n";
    printHost(threads);
    return o.trace ? runTraced(o, *w, threads) : runEndToEnd(o, *w);
}

} // namespace
} // namespace perfbench

int
main(int argc, char **argv)
{
    try {
        return perfbench::run(argc, argv);
    } catch (const std::exception &e) {
        std::cerr << "perfbench: " << e.what() << "\n";
        return 1;
    }
}
