#include "workloads.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <functional>
#include <stdexcept>
#include <string_view>
#include <type_traits>

#include "clustersim/scheduler.h"
#include "core/analytical_model.h"
#include "core/characterization.h"
#include "hw/hardware_config.h"
#include "inference/fleet_sim.h"
#include "inference/inference_workload.h"
#include "obs/job_log.h"
#include "obs/obs.h"
#include "obs/timeline.h"
#include "runtime/parallel.h"
#include "span_trace.h"
#include "testkit/fleet_oracle.h"
#include "testkit/sched_oracle.h"
#include "trace/synthetic_cluster.h"
#include "trace/trace_io.h"
#include "workload/model_zoo.h"

namespace perfbench {

using namespace paichar;

namespace {

/** FNV-1a 64 over the bytes of the values added. */
class Digest
{
  public:
    template <typename T>
    void
    add(const T &v)
    {
        static_assert(std::is_trivially_copyable_v<T>);
        unsigned char bytes[sizeof(T)];
        std::memcpy(bytes, &v, sizeof(T));
        for (unsigned char b : bytes)
            h_ = (h_ ^ b) * 0x100000001b3ull;
    }

    /** Folds a large text in through std::hash, not byte by byte. */
    void
    addText(std::string_view s)
    {
        add(s.size());
        add(std::hash<std::string_view>{}(s));
    }

    uint64_t value() const { return h_; }

  private:
    uint64_t h_ = 0xcbf29ce484222325ull;
};

std::string
fmt(const char *format, double v)
{
    char buf[64];
    std::snprintf(buf, sizeof buf, format, v);
    return buf;
}

/** Generator seed of input @p input of @p inputs. */
uint64_t
inputSeed(const Context &ctx, int input, int inputs)
{
    return ctx.seed * static_cast<uint64_t>(inputs) +
           static_cast<uint64_t>(input);
}

/** Paths of the paib traces of a workload's inputs. */
std::vector<std::string>
inputPaths(const Context &ctx, const std::string &tag, int inputs)
{
    std::vector<std::string> paths;
    for (int i = 0; i < inputs; ++i) {
        paths.push_back(ctx.work_dir + "/" + tag + "-" +
                        std::to_string(inputSeed(ctx, i, inputs)) +
                        ".paib");
    }
    return paths;
}

/** Generates @p jobs jobs from the seed and writes them as paib. */
void
writeTrace(const std::string &path, uint64_t seed, size_t jobs)
{
    std::vector<workload::TrainingJob> generated;
    {
        Scope s("trace.generate");
        generated = trace::SyntheticClusterGenerator(seed).generate(
            jobs, runtime::globalPool());
    }
    Scope s("trace.write");
    if (!trace::writeTraceFile(path, generated,
                               trace::TraceFormat::Binary))
        throw std::runtime_error("cannot write '" + path + "'");
}

workload::JobStore
readTrace(const std::string &path)
{
    Scope s("trace.read");
    auto r = trace::readTraceStore(path, runtime::globalPool());
    if (!r.ok)
        throw std::runtime_error(r.error);
    return std::move(r.store);
}

bool
sumsToOne(double sum)
{
    return std::abs(sum - 1.0) <= 1e-9;
}

// ---------------------------------------------------------------------------
// characterize
// ---------------------------------------------------------------------------

/** `paichar characterize trace.paib` over a 4M-job trace. */
class Characterize : public Workload
{
  public:
    static constexpr size_t kJobs = 4'000'000;

    void
    setup(const Context &ctx) override
    {
        attach(ctx);
        writeTrace(path_, ctx.seed, kJobs);
    }

    void
    attach(const Context &ctx) override
    {
        path_ = inputPaths(ctx, "characterize", 1)[0];
    }

    int64_t itemsPerPass() const override { return kJobs; }

    void
    pass(PassMode, int) override
    {
        out_ = {};
        core::AnalyticalModel model(hw::paiCluster());
        auto store = readTrace(path_);
        out_.rows = store.size();
        std::optional<core::ClusterCharacterizer> ch;
        {
            Scope s("core.characterize");
            ch.emplace(model, std::move(store));
        }
        Scope s("core.aggregate");
        out_.constitution = ch->constitution();
        for (auto arch : workload::kAllArchTypes) {
            if (!out_.constitution.job_counts.count(arch))
                continue;
            out_.breakdowns.push_back(
                ch->avgBreakdown(arch, core::Level::Job));
            out_.breakdowns.push_back(
                ch->avgBreakdown(arch, core::Level::CNode));
        }
        out_.cluster = ch->avgBreakdown(std::nullopt, core::Level::CNode);
        out_.breakdowns.push_back(out_.cluster);
    }

    Verdict
    verify() override
    {
        Verdict v;
        const auto &c = out_.constitution;
        double job_share = 0.0, cnode_share = 0.0;
        Digest d;
        d.add(out_.rows);
        for (const auto &[arch, n] : c.job_counts) {
            job_share += c.jobShare(arch);
            cnode_share += c.cnodeShare(arch);
            d.add(arch);
            d.add(n);
            d.add(c.cnode_counts.at(arch));
        }
        for (const auto &b : out_.breakdowns) {
            double sum = 0.0;
            for (double x : b) {
                sum += x;
                d.add(x);
            }
            if (!sumsToOne(sum))
                v.error = "a time breakdown sums to " + fmt("%.17g", sum);
        }
        if (out_.rows != kJobs ||
            c.total_jobs != static_cast<int64_t>(out_.rows))
            v.error = "job count " + std::to_string(c.total_jobs) +
                      " != trace rows " + std::to_string(out_.rows);
        if (!sumsToOne(job_share) || !sumsToOne(cnode_share))
            v.error = "constitution shares do not sum to 1";
        v.digest = d.value();
        v.headline = "cNode-level comm share " +
                     fmt("%.9f", out_.cluster[1]) + ", jobs " +
                     std::to_string(c.total_jobs) + ", cNodes " +
                     std::to_string(c.total_cnodes);
        out_ = {};
        return v;
    }

  private:
    struct Outputs
    {
        size_t rows = 0;
        core::Constitution constitution;
        std::vector<std::array<double, 4>> breakdowns;
        std::array<double, 4> cluster{};
    };

    std::string path_;
    Outputs out_;
};

// ---------------------------------------------------------------------------
// schedule_spf, schedule_fifo_recorded
// ---------------------------------------------------------------------------

/**
 * `paichar schedule trace.paib --servers 64 --predictor model --rate R`
 * under one policy, optionally with --job-log, --timeline and
 * --profile on (rendered into memory, not written).
 */
class Schedule : public Workload
{
  public:
    static constexpr int kServers = 64;

    Schedule(const char *tag, clustersim::Policy policy, size_t jobs,
             double jobs_per_hour, int inputs, bool recorded)
        : tag_(tag), jobs_(jobs), jobs_per_hour_(jobs_per_hour),
          inputs_(inputs), recorded_(recorded)
    {
        cfg_.num_servers = kServers;
        cfg_.nvlink_fraction = 0.5;
        cfg_.policy = policy;
        cfg_.placement = clustersim::PlacementStrategy::FirstFit;
        // The CLI's --predictor model returns the analytical
        // prediction itself; this one also counts its calls.
        cfg_.predictor = [this](const workload::TrainingJob &, int64_t,
                                double model_run_s) {
            predict_calls_.fetch_add(1, std::memory_order_relaxed);
            return model_run_s;
        };
    }

    void
    setup(const Context &ctx) override
    {
        attach(ctx);
        for (int i = 0; i < inputs_; ++i)
            writeTrace(paths_[i], inputSeed(ctx, i, inputs_), jobs_);
    }

    void
    attach(const Context &ctx) override
    {
        paths_ = inputPaths(ctx, tag_, inputs_);
    }

    int inputs() const override { return inputs_; }

    int64_t itemsPerPass() const override { return jobs_; }

    bool hasSinks() const override { return recorded_; }

    void
    pass(PassMode mode, int input) override
    {
        out_ = {};
        predict_calls_ = 0;

        auto store = readTrace(paths_.at(input));
        std::vector<workload::TrainingJob> jobs;
        {
            Scope s("trace.materialize");
            jobs = store.materialize();
        }
        for (auto &j : jobs)
            j.num_cnodes = std::min(j.num_cnodes, cfg_.num_servers);
        {
            Scope s("clustersim.requests");
            // The CLI's fixed stream seed: as with `paichar
            // generate --seed N`, the seed picks the trace only.
            out_.requests = clustersim::poissonRequests(
                jobs, jobs_per_hour_, 2000.0, 1.2, 20181201);
        }

        bool sinks = recorded_ && mode == PassMode::Normal;
        out_.sinks = sinks;
        if (sinks) {
            obs::startProfiling();
            obs::startJobLog();
            obs::startTimeline(10.0);
        }
        core::AnalyticalModel model(hw::paiCluster());
        {
            Scope s("clustersim.run");
            clustersim::ClusterScheduler sched(cfg_, model);
            out_.outcome = sched.run(out_.requests);
        }
        if (!sinks)
            return;
        obs::stopProfiling();
        obs::stopTimeline();
        obs::stopJobLog();
        std::vector<obs::JobRecord> records;
        {
            Scope s("obs.collect_joblog");
            records = obs::collectJobLog();
        }
        {
            Scope s("obs.render_joblog");
            out_.joblog = obs::renderJobLogJsonl(records);
        }
        {
            Scope s("obs.render_timeline");
            out_.timeline = obs::renderTimelineCsv();
        }
        Scope s("obs.render_profile");
        out_.profile = obs::profileToJson();
    }

    Verdict
    verify() override
    {
        Verdict v;
        const auto &o = out_.outcome;
        v.error = testkit::checkSchedInvariants(out_.requests, cfg_, o);
        Digest d;
        for (const auto &j : o.jobs) {
            d.add(j.job_id);
            d.add(j.start_time);
            d.add(j.finish_time);
            d.add(j.gpus);
            d.add(j.executed_arch);
            d.add(j.step_s);
            d.add(j.predicted_run_s);
            d.add(j.preemptions);
        }
        d.add(o.makespan);
        d.add(o.mean_wait);
        d.add(o.p95_wait);
        d.add(o.gpu_utilization);
        d.add(o.unplaceable_jobs);
        if (static_cast<int64_t>(o.jobs.size()) + o.unplaceable_jobs !=
            static_cast<int64_t>(jobs_))
            v.error = "scheduled " + std::to_string(o.jobs.size()) +
                      " of " + std::to_string(jobs_) + " jobs";
        extras_["obs.joblog_bytes"] = out_.joblog.size();
        extras_["obs.timeline_bytes"] = out_.timeline.size();
        extras_["obs.profile_bytes"] = out_.profile.size();
        if (out_.sinks) {
            auto lines = std::count(out_.joblog.begin(),
                                    out_.joblog.end(), '\n');
            if (lines != static_cast<int64_t>(o.jobs.size()))
                v.error = "job log has " + std::to_string(lines) +
                          " records for " +
                          std::to_string(o.jobs.size()) + " jobs";
            if (out_.timeline.empty() || out_.profile.empty())
                v.error = "an obs sink rendered nothing";
            // Job log and timeline are in simulated time; the
            // profile holds wall-clock spans and is left out.
            d.addText(out_.joblog);
            d.addText(out_.timeline);
        }
        v.digest = d.value();
        v.headline = clustersim::toString(cfg_.policy) + " mean wait " +
                     fmt("%.9g", o.mean_wait) + " s, p95 wait " +
                     fmt("%.9g", o.p95_wait) + " s, makespan " +
                     fmt("%.9g", o.makespan) + " s, GPU util " +
                     fmt("%.9f", o.gpu_utilization);
        out_ = {};
        if (recorded_)
            releaseSinks();
        return v;
    }

    std::map<std::string, double>
    passExtras() const override
    {
        auto e = extras_;
        e["predict.calls"] = static_cast<double>(predict_calls_.load());
        return e;
    }

  private:
    /**
     * Drop what the sinks still hold after a pass, so one pass's
     * recordings do not sit in memory during the next.
     */
    static void
    releaseSinks()
    {
        obs::startJobLog();
        obs::stopJobLog();
        obs::startProfiling();
        obs::stopProfiling();
        obs::startTimeline(10.0);
        obs::stopTimeline();
    }

    struct Outputs
    {
        std::vector<clustersim::JobRequest> requests;
        clustersim::ClusterOutcome outcome;
        bool sinks = false;
        std::string joblog, timeline, profile;
    };

    std::string tag_;
    size_t jobs_;
    double jobs_per_hour_;
    int inputs_;
    bool recorded_;
    clustersim::SchedulerConfig cfg_;
    std::vector<std::string> paths_;
    Outputs out_;
    std::map<std::string, double> extras_;
    /** Predictor calls of the last pass (from the pool threads). */
    std::atomic<int64_t> predict_calls_{0};
};

// ---------------------------------------------------------------------------
// serve_fleet
// ---------------------------------------------------------------------------

/**
 * `paichar serve resnet50 --servers S --routing p2c --requests 250000`
 * at 8 and then at 512 servers.
 */
class ServeFleet : public Workload
{
  public:
    static constexpr int64_t kRequests = 250'000;
    /** Requests of the self-check run that records every request. */
    static constexpr int64_t kCheckRequests = 50'000;
    static constexpr int kSizes[2] = {8, 512};

    void setup(const Context &ctx) override { attach(ctx); }

    /**
     * The request-level oracle needs record_requests, which the timed
     * passes leave off; run it once at each size.
     */
    std::optional<std::string>
    selfCheck() override
    {
        for (size_t i = 0; i < 2; ++i) {
            auto cfg = cfgs_[i];
            cfg.record_requests = true;
            auto r = inference::FleetSimulator(cfg).run(
                loads_[i], kCheckRequests, seed_);
            if (auto err =
                    testkit::checkFleetInvariants(cfg, loads_[i], r))
                return "fleet invariant at " + std::to_string(kSizes[i]) +
                       " servers: " + *err;
        }
        return std::nullopt;
    }

    void
    attach(const Context &ctx) override
    {
        seed_ = ctx.seed;
        auto w = inference::InferenceWorkload::fromTraining(
            workload::ModelZoo::resnet50());
        for (size_t i = 0; i < 2; ++i) {
            auto &cfg = cfgs_[i];
            cfg.num_servers = kSizes[i];
            cfg.routing = inference::Routing::PowerOfTwo;
            cfg.batching = inference::Batching::Greedy;
            // The CLI's default rate: half of what the fleet serves
            // one request at a time.
            double solo =
                w.serviceTime(1, cfg.server.gpu, cfg.launch_overhead) +
                w.inputTime(1, cfg.server.pcie_bandwidth);
            stats::ArrivalConfig arrival;
            arrival.kind = stats::ArrivalKind::Constant;
            arrival.qps = 0.5 * cfg.num_servers / solo;
            loads_[i] = {{w, arrival}};
        }
    }

    int64_t itemsPerPass() const override { return 2 * kRequests; }

    void
    pass(PassMode, int) override
    {
        {
            Scope s("inference.fleet_s8");
            results_[0] = inference::FleetSimulator(cfgs_[0]).run(
                loads_[0], kRequests, seed_);
        }
        Scope s("inference.fleet_s512");
        results_[1] = inference::FleetSimulator(cfgs_[1]).run(
            loads_[1], kRequests, seed_);
    }

    Verdict
    verify() override
    {
        Verdict v;
        Digest d;
        for (size_t i = 0; i < 2; ++i) {
            const auto &r = results_[i];
            auto at = " at " + std::to_string(kSizes[i]) + " servers";
            if (r.offered != r.admitted + r.rejected)
                v.error = "offered != admitted + rejected" + at;
            if (r.completed != r.admitted)
                v.error = "completed != admitted" + at;
            if (r.offered != kRequests)
                v.error = "offered " + std::to_string(r.offered) + at;
            for (auto x : {r.offered, r.admitted, r.rejected,
                           r.completed, r.batches})
                d.add(x);
            for (double x : {r.duration, r.mean_latency, r.p50_latency,
                             r.p95_latency, r.p99_latency,
                             r.p999_latency, r.max_latency,
                             r.gpu_utilization, r.avg_batch})
                d.add(x);
            v.headline += (i ? ", " : "") + std::string("p99") + at +
                          " " + fmt("%.9g", r.p99_latency) + " s";
            results_[i] = {};
        }
        v.digest = d.value();
        return v;
    }

  private:
    uint64_t seed_ = 0;
    inference::FleetConfig cfgs_[2];
    std::vector<inference::ModelLoad> loads_[2];
    inference::FleetResult results_[2];
};

} // namespace

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names = {
        "characterize", "schedule_spf", "serve_fleet",
        "schedule_fifo_recorded"};
    return names;
}

std::unique_ptr<Workload>
makeWorkload(const std::string &name)
{
    if (name == "characterize")
        return std::make_unique<Characterize>();
    if (name == "schedule_spf")
        return std::make_unique<Schedule>(
            "schedule_spf", clustersim::Policy::Spf, 4'000, 1000.0, 4,
            false);
    if (name == "serve_fleet")
        return std::make_unique<ServeFleet>();
    if (name == "schedule_fifo_recorded")
        return std::make_unique<Schedule>(
            "schedule_fifo_recorded", clustersim::Policy::Fifo,
            50'000, 150.0, 8, true);
    return nullptr;
}

} // namespace perfbench
