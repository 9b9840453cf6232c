#include "scheduler.h"

#include <algorithm>
#include <array>
#include <cassert>
#include <cmath>
#include <deque>
#include <limits>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <tuple>

#include "hw/hardware_config.h"
#include "obs/job_log.h"
#include "obs/obs.h"
#include "obs/timeline.h"
#include "runtime/parallel.h"
#include "runtime/thread_pool.h"
#include "sim/event_queue.h"
#include "stats/cdf.h"
#include "stats/rng.h"

namespace paichar::clustersim {

using workload::ArchType;
using workload::TrainingJob;

std::string
toString(Policy p)
{
    switch (p) {
      case Policy::Fifo:
        return "fifo";
      case Policy::Backfill:
        return "backfill";
      case Policy::Spf:
        return "spf";
      case Policy::SpfPreempt:
        return "spf-preempt";
      case Policy::Gang:
        return "gang";
    }
    return "?";
}

std::optional<Policy>
policyFromString(const std::string &name)
{
    if (name == "fifo")
        return Policy::Fifo;
    if (name == "backfill")
        return Policy::Backfill;
    if (name == "spf")
        return Policy::Spf;
    if (name == "spf-preempt")
        return Policy::SpfPreempt;
    if (name == "gang")
        return Policy::Gang;
    return std::nullopt;
}

const std::vector<std::string> &
policyNames()
{
    static const std::vector<std::string> names{
        "fifo", "backfill", "spf", "spf-preempt", "gang"};
    return names;
}

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/** (server index, gpus taken) pairs of one job's allocation. */
using Allocation = std::vector<std::pair<int, int>>;

/**
 * Mutable cluster capacity. Next to the per-server free counts it
 * keeps, per NVLink class, a histogram of servers by free-GPU count
 * and the cluster-wide free total, so "could anything fit?" and the
 * timeline's free-GPU level cost O(GPUs per server), not a scan.
 */
struct Capacity
{
    std::vector<int> free_gpus;
    std::vector<bool> nvlink;
    /** Per-server generation speed factor (1.0 = Table I). */
    std::vector<double> speed;
    /** servers_with[nvl][g]: NVLink-class-nvl servers with g free. */
    std::array<std::vector<int>, 2> servers_with;
    int64_t total_free = 0;

    /** Build the histogram and total from free_gpus and nvlink. */
    void
    countFree(int gpus_per_server)
    {
        for (auto &h : servers_with)
            h.assign(static_cast<size_t>(gpus_per_server) + 1, 0);
        total_free = 0;
        for (size_t s = 0; s < free_gpus.size(); ++s) {
            ++servers_with[nvlink[s]][static_cast<size_t>(free_gpus[s])];
            total_free += free_gpus[s];
        }
    }

    /** Servers of NVLink class @p nvl with at least @p gpus free. */
    int
    serversWithAtLeast(bool nvl, int gpus) const
    {
        const std::vector<int> &h = servers_with[nvl];
        int n = 0;
        for (size_t g = static_cast<size_t>(std::max(gpus, 0));
             g < h.size(); ++g)
            n += h[g];
        return n;
    }

    void
    take(const Allocation &alloc)
    {
        for (auto [s, g] : alloc)
            adjust(static_cast<size_t>(s), -g);
    }

    void
    release(const Allocation &alloc)
    {
        for (auto [s, g] : alloc)
            adjust(static_cast<size_t>(s), g);
    }

    /** Slowest generation among @p alloc's servers. */
    double
    slowestSpeed(const Allocation &alloc) const
    {
        double v = 1.0;
        for (auto [s, g] : alloc) {
            (void)g;
            v = std::min(v, speed[static_cast<size_t>(s)]);
        }
        return v;
    }

  private:
    void
    adjust(size_t s, int delta)
    {
        std::vector<int> &h = servers_with[nvlink[s]];
        --h[static_cast<size_t>(free_gpus[s])];
        free_gpus[s] += delta;
        assert(free_gpus[s] >= 0 &&
               static_cast<size_t>(free_gpus[s]) < h.size());
        ++h[static_cast<size_t>(free_gpus[s])];
        total_free += delta;
    }
};

/**
 * Find a single server with @p gpus free. Non-NVLink servers are
 * preferred unless NVLink is required, preserving scarce NVLink
 * capacity for the jobs that need it. Best-fit additionally prefers
 * the fitting server leaving the fewest GPUs free (then the fastest
 * generation, then scan order) instead of the first hit.
 */
bool
findOneServer(const Capacity &cap, int gpus, bool need_nvlink,
              PlacementStrategy strategy, Allocation *alloc)
{
    if (cap.serversWithAtLeast(true, gpus) == 0 &&
        (need_nvlink || cap.serversWithAtLeast(false, gpus) == 0))
        return false;
    if (strategy == PlacementStrategy::BestFit) {
        // (prefer non-NVLink when allowed, leftover, -speed, index)
        int best = -1;
        auto better = [&](size_t s, int against) {
            if (against < 0)
                return true;
            auto a = static_cast<size_t>(against);
            bool s_nvl = cap.nvlink[s], a_nvl = cap.nvlink[a];
            if (!need_nvlink && s_nvl != a_nvl)
                return a_nvl; // the non-NVLink server wins
            int s_left = cap.free_gpus[s] - gpus;
            int a_left = cap.free_gpus[a] - gpus;
            if (s_left != a_left)
                return s_left < a_left;
            if (cap.speed[s] != cap.speed[a])
                return cap.speed[s] > cap.speed[a];
            return false; // scan order: earlier index already held
        };
        for (size_t s = 0; s < cap.free_gpus.size(); ++s) {
            if (cap.free_gpus[s] < gpus)
                continue;
            if (need_nvlink && !cap.nvlink[s])
                continue;
            if (better(s, best))
                best = static_cast<int>(s);
        }
        if (best < 0)
            return false;
        alloc->assign(1, {best, gpus});
        return true;
    }

    int fallback = -1;
    for (size_t s = 0; s < cap.free_gpus.size(); ++s) {
        if (cap.free_gpus[s] < gpus)
            continue;
        if (need_nvlink && !cap.nvlink[s])
            continue;
        if (!need_nvlink && cap.nvlink[s]) {
            if (fallback < 0)
                fallback = static_cast<int>(s);
            continue;
        }
        alloc->assign(1, {static_cast<int>(s), gpus});
        return true;
    }
    if (!need_nvlink && fallback >= 0) {
        alloc->assign(1, {fallback, gpus});
        return true;
    }
    return false;
}

/**
 * Find @p count distinct servers with one free GPU each. Best-fit
 * fills the most-fragmented (fewest free GPUs) servers first so the
 * large contiguous blocks stay whole.
 */
bool
findSpreadServers(const Capacity &cap, int count,
                  PlacementStrategy strategy, Allocation *alloc)
{
    alloc->clear();
    if (cap.serversWithAtLeast(false, 1) +
            cap.serversWithAtLeast(true, 1) <
        count)
        return false;
    if (strategy == PlacementStrategy::BestFit) {
        std::vector<int> candidates;
        for (size_t s = 0; s < cap.free_gpus.size(); ++s) {
            if (cap.free_gpus[s] >= 1)
                candidates.push_back(static_cast<int>(s));
        }
        std::stable_sort(
            candidates.begin(), candidates.end(), [&](int a, int b) {
                auto sa = static_cast<size_t>(a);
                auto sb = static_cast<size_t>(b);
                if (cap.nvlink[sa] != cap.nvlink[sb])
                    return !cap.nvlink[sa]; // non-NVLink first
                if (cap.free_gpus[sa] != cap.free_gpus[sb])
                    return cap.free_gpus[sa] < cap.free_gpus[sb];
                return a < b;
            });
        for (int s : candidates) {
            if (static_cast<int>(alloc->size()) == count)
                break;
            alloc->push_back({s, 1});
        }
        return static_cast<int>(alloc->size()) == count;
    }
    // Non-NVLink servers first, then NVLink as overflow.
    for (int pass = 0; pass < 2; ++pass) {
        for (size_t s = 0; s < cap.free_gpus.size(); ++s) {
            if (static_cast<int>(alloc->size()) == count)
                return true;
            bool is_nvl = cap.nvlink[s];
            if ((pass == 0 && is_nvl) || (pass == 1 && !is_nvl))
                continue;
            if (cap.free_gpus[s] >= 1)
                alloc->push_back({static_cast<int>(s), 1});
        }
    }
    return static_cast<int>(alloc->size()) == count;
}

/** Placement for @p job as-is (no porting decision). */
bool
findFor(const Capacity &cap, const TrainingJob &job,
        const SchedulerConfig &cfg, Allocation *alloc)
{
    switch (job.arch) {
      case ArchType::OneWorkerOneGpu:
        return findOneServer(cap, 1, false, cfg.placement, alloc);
      case ArchType::OneWorkerMultiGpu:
        return findOneServer(cap, job.num_cnodes, false,
                             cfg.placement, alloc);
      case ArchType::PsWorker:
        return findSpreadServers(cap, job.num_cnodes, cfg.placement,
                                 alloc);
      case ArchType::AllReduceLocal:
      case ArchType::Pearl:
        return findOneServer(cap, job.num_cnodes, true,
                             cfg.placement, alloc);
      case ArchType::AllReduceCluster: {
        // Whole NVLink servers, packed.
        int need = job.num_cnodes;
        alloc->clear();
        if (static_cast<int64_t>(cap.serversWithAtLeast(
                true, cfg.gpus_per_server)) *
                cfg.gpus_per_server <
            need)
            return false;
        for (size_t s = 0; s < cap.free_gpus.size() && need > 0;
             ++s) {
            if (!cap.nvlink[s] ||
                cap.free_gpus[s] < cfg.gpus_per_server) {
                continue;
            }
            int take = std::min(need, cfg.gpus_per_server);
            alloc->push_back({static_cast<int>(s), take});
            need -= take;
        }
        return need == 0;
      }
    }
    return false;
}

/**
 * The spf/spf-preempt pending queue: one min-heap of request indices
 * per placement shape, ordered by (predicted remaining seconds,
 * request index). A job's shape -- (executed arch, cNodes,
 * port-eligible) -- is all that decides whether it fits, and capacity
 * only shrinks while a pass places jobs. So one scan merges the shape
 * heads in key order, and the first failed search retires the whole
 * shape for the rest of the scan: every job behind it would fail the
 * same search.
 */
class ShapeQueues
{
  public:
    using Shape = std::tuple<ArchType, int, bool>;

    /**
     * @param keys Predicted remaining seconds per request; a queued
     *             request's key must not change.
     */
    explicit ShapeQueues(const std::vector<double> &keys)
        : after_{&keys}
    {}

    /** Queue request @p req of shape @p shape. */
    void
    push(const Shape &shape, size_t req)
    {
        auto [it, added] = shape_ids_.try_emplace(shape, heaps_.size());
        if (added)
            heaps_.emplace_back();
        std::vector<size_t> &h = heaps_[it->second];
        h.push_back(req);
        std::push_heap(h.begin(), h.end(), after_);
        ++size_;
    }

    size_t size() const { return size_; }

    /** Start a scan with every non-empty shape live. */
    void
    beginScan()
    {
        heads_.clear();
        for (size_t s = 0; s < heaps_.size(); ++s) {
            if (!heaps_[s].empty())
                heads_.push_back({heaps_[s].front(), s});
        }
        std::make_heap(heads_.begin(), heads_.end(), after_);
    }

    /** The scan's next request in key order; nullopt when done. */
    std::optional<size_t>
    next() const
    {
        if (heads_.empty())
            return std::nullopt;
        return heads_.front().first;
    }

    /** The request next() named was placed: dequeue it. */
    void
    placed()
    {
        size_t s = heads_.front().second;
        retire(); // the shape stays live with its next request
        popFront(s);
        if (!heaps_[s].empty()) {
            heads_.push_back({heaps_[s].front(), s});
            std::push_heap(heads_.begin(), heads_.end(), after_);
        }
    }

    /** The request next() named did not fit: retire its shape. */
    void
    retire()
    {
        std::pop_heap(heads_.begin(), heads_.end(), after_);
        heads_.pop_back();
    }

    /** The shape holding the queue's smallest key (size() > 0). */
    size_t
    minShape() const
    {
        size_t best = heaps_.size();
        for (size_t s = 0; s < heaps_.size(); ++s) {
            if (!heaps_[s].empty() &&
                (best == heaps_.size() ||
                 after_(heaps_[best].front(), heaps_[s].front())))
                best = s;
        }
        return best;
    }

    /** Smallest-key request of shape @p s. */
    size_t front(size_t s) const { return heaps_[s].front(); }

    /** Dequeue the smallest-key request of shape @p s. */
    void
    popFront(size_t s)
    {
        std::vector<size_t> &h = heaps_[s];
        std::pop_heap(h.begin(), h.end(), after_);
        h.pop_back();
        --size_;
    }

  private:
    /** (head request, shape) of a live shape. */
    using Head = std::pair<size_t, size_t>;

    /**
     * Heap order: true when request @p a sorts after @p b (by key,
     * then by request index), so every heap is a min-heap.
     */
    struct After
    {
        const std::vector<double> *keys;

        bool
        operator()(size_t a, size_t b) const
        {
            if ((*keys)[a] != (*keys)[b])
                return (*keys)[b] < (*keys)[a];
            return b < a;
        }

        bool
        operator()(const Head &a, const Head &b) const
        {
            return (*this)(a.first, b.first);
        }
    };

    After after_;
    std::map<Shape, size_t> shape_ids_;
    std::vector<std::vector<size_t>> heaps_;
    /** Live shapes of the current scan. */
    std::vector<Head> heads_;
    size_t size_ = 0;
};

/** True when the policy orders or gates the queue by predictions. */
bool
predictionDriven(Policy p)
{
    return p == Policy::Spf || p == Policy::SpfPreempt ||
           p == Policy::Gang;
}

} // namespace

ClusterScheduler::ClusterScheduler(const SchedulerConfig &cfg,
                                   const core::AnalyticalModel &model)
    : cfg_(cfg), model_(model)
{
    auto bad = [](const std::string &what, double got) {
        throw std::invalid_argument("ClusterScheduler: " + what +
                                    ", got " + std::to_string(got));
    };
    if (cfg_.num_servers < 1)
        bad("num_servers must be >= 1", cfg_.num_servers);
    if (cfg_.gpus_per_server < 1)
        bad("gpus_per_server must be >= 1", cfg_.gpus_per_server);
    if (!(cfg_.nvlink_fraction >= 0.0 && cfg_.nvlink_fraction <= 1.0))
        bad("nvlink_fraction must be in [0, 1]", cfg_.nvlink_fraction);
    if (!(cfg_.old_gen_fraction >= 0.0 &&
          cfg_.old_gen_fraction <= 1.0))
        bad("old_gen_fraction must be in [0, 1]",
            cfg_.old_gen_fraction);
    if (!(cfg_.preempt_ratio > 1.0))
        bad("preempt_ratio must be > 1 (<= 1 does not terminate)",
            cfg_.preempt_ratio);
}

bool
ClusterScheduler::placeable(const TrainingJob &job) const
{
    int nvl_servers = static_cast<int>(cfg_.num_servers *
                                       cfg_.nvlink_fraction);
    switch (job.arch) {
      case ArchType::OneWorkerOneGpu:
        return true;
      case ArchType::OneWorkerMultiGpu:
      case ArchType::Pearl:
        return job.num_cnodes <= cfg_.gpus_per_server &&
               (job.arch != ArchType::Pearl || nvl_servers >= 1);
      case ArchType::PsWorker:
        return job.num_cnodes <= cfg_.num_servers;
      case ArchType::AllReduceLocal:
        return job.num_cnodes <= cfg_.gpus_per_server &&
               nvl_servers >= 1;
      case ArchType::AllReduceCluster:
        return nvl_servers * cfg_.gpus_per_server >= job.num_cnodes;
    }
    return false;
}

ClusterOutcome
ClusterScheduler::run(std::vector<JobRequest> requests) const
{
    obs::Span run_span("clustersim.run",
                       static_cast<int64_t>(requests.size()));
    static obs::Counter &placement_attempts =
        obs::counter("clustersim.placement_attempts");
    static obs::Counter &placement_failures =
        obs::counter("clustersim.placement_failures");

    std::stable_sort(requests.begin(), requests.end(),
                     [](const JobRequest &a, const JobRequest &b) {
                         return a.submit_time < b.submit_time;
                     });

    Capacity cap;
    cap.free_gpus.assign(static_cast<size_t>(cfg_.num_servers),
                         cfg_.gpus_per_server);
    cap.nvlink.assign(static_cast<size_t>(cfg_.num_servers), false);
    cap.speed.assign(static_cast<size_t>(cfg_.num_servers), 1.0);
    int nvl_servers = static_cast<int>(cfg_.num_servers *
                                       cfg_.nvlink_fraction);
    for (int s = 0; s < nvl_servers; ++s)
        cap.nvlink[static_cast<size_t>(s)] = true;
    // Heterogeneous generations occupy the tail of the server range,
    // clamped so they never eat into the NVLink head: placeable()
    // promises nvl_servers NVLink servers and admission relies on it.
    int old_servers =
        std::min(static_cast<int>(cfg_.num_servers *
                                  cfg_.old_gen_fraction),
                 cfg_.num_servers - nvl_servers);
    const auto generations = hw::paiGenerations();
    int old_gens = static_cast<int>(generations.size()) - 1;
    for (int k = 0; k < old_servers && old_gens > 0; ++k) {
        const hw::GpuGeneration &g =
            generations[static_cast<size_t>(1 + k % old_gens)];
        auto s = static_cast<size_t>(cfg_.num_servers - 1 - k);
        cap.speed[s] = g.speed;
        cap.nvlink[s] = cap.nvlink[s] && g.has_nvlink;
    }
    cap.countFree(cfg_.gpus_per_server);

    sim::EventQueue eq; // job completions

    // Timeline probes: scheduler-loop observations sampled at the
    // simulated-time cadence (levels are "as seen by the control
    // loop" at each pass; rates count admissions/preemptions/drops).
    // A record_timeline=false run (the FIFO comparison) suspends the
    // process-wide timeline so the event queue's probes stay quiet too.
    std::optional<obs::TimelineSuspend> tl_suspend;
    if (!cfg_.record_timeline)
        tl_suspend.emplace();
    obs::Timeline *tl =
        obs::timelineActive() ? obs::timeline() : nullptr;
    obs::Timeline::Level *tl_pending =
        tl ? &tl->level("clustersim.pending_jobs") : nullptr;
    obs::Timeline::Level *tl_running =
        tl ? &tl->level("clustersim.running_jobs") : nullptr;
    obs::Timeline::Level *tl_free_gpus =
        tl ? &tl->level("clustersim.free_gpus") : nullptr;
    obs::Timeline::Rate *tl_arrivals =
        tl ? &tl->rate("clustersim.arrivals") : nullptr;
    obs::Timeline::Rate *tl_preemptions =
        tl ? &tl->rate("clustersim.preemptions") : nullptr;
    obs::Timeline::Rate *tl_unplaceable =
        tl ? &tl->rate("clustersim.unplaceable") : nullptr;

    // In-flight jobs, indexed by slot; finished slots are recycled
    // through a free list so long traces do not grow the table past
    // the peak concurrency. The generation counter invalidates the
    // completion event of a preempted job: the stale event still
    // fires but its (slot, gen) pair no longer matches.
    struct Slot
    {
        Allocation alloc;
        TrainingJob executed;
        size_t req = 0;
        size_t out = 0;
        double seg_start = 0.0;
        double step_s = 0.0;
        double pred_finish = kInf;
        int64_t steps_left = 0;
        uint64_t gen = 0;
        int gpus = 0;
        bool active = false;
    };
    std::vector<Slot> slots;
    std::vector<size_t> free_slots;
    // (slot, gen) pairs whose completion fired in the last drain.
    std::vector<std::pair<size_t, uint64_t>> finished;

    // As-submitted step times are pure per-job model evaluations:
    // price them up front in parallel. Ported placements execute a
    // different architecture and are priced on demand.
    std::vector<double> submitted_step = runtime::parallelMap<double>(
        runtime::globalPool(), requests.size(), [&](size_t i) {
            return model_.stepTime(requests[i].job);
        });

    // Predicted run seconds per request (policy ordering input): the
    // configured predictor, else the analytical prediction itself.
    const bool wants_predictions =
        predictionDriven(cfg_.policy) ||
        (cfg_.policy == Policy::Backfill && cfg_.predictor);
    std::vector<double> pred_run;
    std::vector<double> pred_per_step;
    if (wants_predictions) {
        pred_run = runtime::parallelMap<double>(
            runtime::globalPool(), requests.size(), [&](size_t i) {
                double model_run =
                    submitted_step[i] *
                    static_cast<double>(requests[i].num_steps);
                if (!cfg_.predictor)
                    return model_run;
                double p = cfg_.predictor(requests[i].job,
                                          requests[i].num_steps,
                                          model_run);
                return std::isfinite(p) && p >= 0.0 ? p : model_run;
            });
        pred_per_step.resize(requests.size());
        for (size_t i = 0; i < requests.size(); ++i) {
            pred_per_step[i] =
                pred_run[i] /
                static_cast<double>(requests[i].num_steps);
        }
    }
    // Predicted *remaining* run seconds; shrinks when a preempted
    // job is re-queued with only its unfinished steps.
    std::vector<double> pred_remaining = pred_run;

    ClusterOutcome out;
    out.jobs.reserve(requests.size());
    // Pending requests: spf/spf-preempt index them by shape, every
    // other policy keeps arrival order.
    const bool spf = cfg_.policy == Policy::Spf ||
                     cfg_.policy == Policy::SpfPreempt;
    std::deque<size_t> pending; // indices into requests
    ShapeQueues spf_queue(pred_remaining);
    auto queued = [&] { return pending.size() + spf_queue.size(); };
    int64_t running = 0; // active slots
    size_t arrival = 0;
    double now = 0.0;
    double gpu_seconds = 0.0;

    // Refresh the timeline level probes with the control loop's view
    // of the cluster at `now`. Last-set-wins within a window, so the
    // value sampled at each window close is the state just before
    // time crossed the boundary.
    auto sampleLevels = [&] {
        if (!tl)
            return;
        tl_pending->set(static_cast<double>(queued()));
        tl_running->set(static_cast<double>(running));
        tl_free_gpus->set(static_cast<double>(cap.total_free));
    };

    // Per-request mutable state across preemption/restart cycles.
    std::vector<int64_t> steps_remaining(requests.size());
    for (size_t i = 0; i < requests.size(); ++i)
        steps_remaining[i] = requests[i].num_steps;
    std::vector<int64_t> attempts(requests.size(), 0);
    constexpr size_t kNoOutcome = static_cast<size_t>(-1);
    std::vector<size_t> out_index(requests.size(), kNoOutcome);
    // A restarted job resumes its pinned execution plan (same
    // architecture/porting decision), as a checkpoint restore would.
    std::vector<std::optional<TrainingJob>> pinned_exec(
        requests.size());

    // PS/Worker jobs small enough to port try AllReduce-Local first.
    auto portEligible = [&](const TrainingJob &job) {
        return cfg_.port_ps_to_allreduce &&
               job.arch == ArchType::PsWorker &&
               job.features.weightBytes() <= cfg_.gpu_memory_bytes;
    };
    auto enqueue = [&](size_t req) {
        if (!spf) {
            pending.push_back(req);
            return;
        }
        // The placement shape: the pinned plan of a restarted job,
        // else the job as submitted.
        const std::optional<TrainingJob> &pinned = pinned_exec[req];
        const TrainingJob &job = requests[req].job;
        spf_queue.push(pinned ? ShapeQueues::Shape{pinned->arch,
                                                   pinned->num_cnodes,
                                                   false}
                              : ShapeQueues::Shape{job.arch,
                                                   job.num_cnodes,
                                                   portEligible(job)},
                       req);
    };

    auto emitJobRecord = [&](size_t req_index, const JobOutcome &jo,
                             const TrainingJob &executed,
                             int server) {
        if (!cfg_.record_job_log || !obs::jobLogActive())
            return;
        const JobRequest &req = requests[req_index];
        obs::JobRecord rec;
        rec.job_id = jo.job_id;
        rec.source = "clustersim";
        rec.arch = workload::toString(req.job.arch);
        rec.executed_arch = workload::toString(executed.arch);
        rec.ported = jo.ported;
        rec.num_cnodes = executed.num_cnodes;
        rec.gpus = jo.gpus;
        rec.server = server;
        rec.num_steps = req.num_steps;
        rec.placement_attempts = attempts[req_index];
        rec.submit_s = jo.submit_time;
        rec.start_s = jo.start_time;
        rec.finish_s = jo.finish_time;
        // Predicted = the job as submitted; simulated = the job as
        // executed under its actual placement, so porting, generation
        // slowdown and preemption effects become the recorded skew.
        core::TimeBreakdown pred = model_.breakdown(req.job);
        rec.pred_td_s = pred.t_data;
        rec.pred_tc_flops_s = pred.t_comp_flops;
        rec.pred_tc_mem_s = pred.t_comp_mem;
        rec.pred_tw_s = pred.t_weight;
        rec.pred_step_s = pred.total();
        core::TimeBreakdown sim = model_.breakdown(executed);
        rec.sim_td_s = sim.t_data;
        rec.sim_tc_s = sim.compute();
        rec.sim_tw_s = sim.t_weight;
        rec.sim_step_s = jo.step_s;
        obs::recordJob(std::move(rec));
    };

    // Attempt to place one request; on success records/updates the
    // outcome and consumes capacity.
    auto tryPlace = [&](size_t req_index) -> bool {
        const JobRequest &req = requests[req_index];
        placement_attempts.add();
        ++attempts[req_index];
        const TrainingJob &job = req.job;
        Allocation alloc;
        TrainingJob executed = job;
        bool ported = false;

        if (pinned_exec[req_index]) {
            // Restart after preemption: resume the recorded plan.
            executed = *pinned_exec[req_index];
            ported = executed.arch != job.arch;
            if (!findFor(cap, executed, cfg_, &alloc)) {
                placement_failures.add();
                return false;
            }
        } else {
            if (portEligible(job)) {
                int n = std::min(job.num_cnodes, cfg_.gpus_per_server);
                if (findOneServer(cap, n, /*need_nvlink=*/true,
                                  cfg_.placement, &alloc)) {
                    executed.arch = ArchType::AllReduceLocal;
                    executed.num_cnodes = n;
                    executed.num_ps = 0;
                    ported = true;
                }
            }
            if (!ported && !findFor(cap, job, cfg_, &alloc)) {
                placement_failures.add();
                return false;
            }
        }

        cap.take(alloc);
        double base_step = ported ? model_.stepTime(executed)
                                  : submitted_step[req_index];
        // Older generations stretch every step by 1/speed.
        double step = base_step / cap.slowestSpeed(alloc);
        int64_t steps_left = steps_remaining[req_index];
        double runtime = step * static_cast<double>(steps_left);
        int gpus = 0;
        for (auto [s, g] : alloc) {
            (void)s;
            gpus += g;
        }

        size_t oi = out_index[req_index];
        if (oi == kNoOutcome) {
            JobOutcome jo;
            jo.job_id = job.id;
            jo.submit_time = req.submit_time;
            jo.start_time = now;
            jo.finish_time = now + runtime;
            jo.executed_arch = executed.arch;
            jo.ported = ported;
            jo.gpus = gpus;
            jo.step_s = step;
            jo.num_steps = req.num_steps;
            jo.predicted_run_s = wants_predictions
                                     ? pred_run[req_index]
                                     : submitted_step[req_index] *
                                           static_cast<double>(
                                               req.num_steps);
            oi = out.jobs.size();
            out_index[req_index] = oi;
            out.jobs.push_back(std::move(jo));
            out.ported_jobs += ported;
        } else {
            // Restart: keep first-start fields, refresh execution.
            JobOutcome &jo = out.jobs[oi];
            jo.finish_time = now + runtime;
            jo.step_s = step;
            jo.gpus = gpus;
        }
        gpu_seconds += gpus * runtime;

        if (std::isfinite(runtime)) {
            size_t slot;
            if (!free_slots.empty()) {
                slot = free_slots.back();
                free_slots.pop_back();
            } else {
                slot = slots.size();
                slots.push_back(Slot{});
            }
            Slot &sl = slots[slot];
            sl.alloc = std::move(alloc);
            sl.executed = executed;
            sl.req = req_index;
            sl.out = oi;
            sl.seg_start = now;
            sl.step_s = step;
            sl.steps_left = steps_left;
            sl.pred_finish =
                wants_predictions
                    ? now + pred_per_step[req_index] *
                                static_cast<double>(steps_left)
                    : now + runtime;
            sl.gpus = gpus;
            sl.active = true;
            ++running;
            uint64_t gen = ++sl.gen;
            eq.schedule(now + runtime, [&finished, slot, gen] {
                finished.push_back({slot, gen});
            });
        } else {
            // A non-finite finish never fires: the job holds its
            // GPUs forever, exactly as the old priority-queue loop
            // (which broke out before ever popping it) behaved. The
            // outcome is final, so the record is emitted here.
            emitJobRecord(req_index, out.jobs[oi], executed,
                          alloc.empty() ? -1 : alloc.front().first);
        }
        return true;
    };

    // Earliest predicted time the queue head could start, assuming
    // running jobs release at their *predicted* finishes (EASY
    // backfill's reservation). +inf when some blocking job never
    // finishes.
    auto reservationTime = [&](size_t head_req) -> double {
        Capacity sim_cap = cap;
        Allocation scratch;
        std::vector<std::pair<double, size_t>> releases;
        for (size_t s = 0; s < slots.size(); ++s) {
            if (slots[s].active)
                releases.push_back({slots[s].pred_finish, s});
        }
        std::sort(releases.begin(), releases.end(),
                  [&](const auto &a, const auto &b) {
                      if (a.first != b.first)
                          return a.first < b.first;
                      return slots[a.second].out < slots[b.second].out;
                  });
        const TrainingJob &job = requests[head_req].job;
        for (auto [t, s] : releases) {
            if (!std::isfinite(t))
                break;
            sim_cap.release(slots[s].alloc);
            if (findFor(sim_cap, job, cfg_, &scratch))
                return std::max(now, t);
        }
        return kInf;
    };

    // Preempt the running job in @p slot at `now`, re-queueing its
    // remaining steps. Work conservation: completed steps stay
    // completed; only the partial step in flight is redone.
    auto preempt = [&](size_t slot) {
        Slot &sl = slots[slot];
        assert(sl.active);
        auto done = static_cast<int64_t>(
            std::floor((now - sl.seg_start) / sl.step_s + 1e-9));
        done = std::clamp<int64_t>(done, 0, sl.steps_left - 1);
        int64_t left = sl.steps_left - done;

        // Return the unexecuted share of the GPU-seconds charged at
        // placement.
        gpu_seconds -=
            sl.gpus * (sl.step_s * static_cast<double>(sl.steps_left) -
                       (now - sl.seg_start));
        cap.release(sl.alloc);

        JobOutcome &jo = out.jobs[sl.out];
        if (jo.segments.empty())
            jo.segments.push_back({jo.start_time, now});
        else
            jo.segments.push_back({sl.seg_start, now});
        ++jo.preemptions;
        ++out.preemptions;
        if (tl_preemptions)
            tl_preemptions->add();

        steps_remaining[sl.req] = left;
        if (wants_predictions) {
            pred_remaining[sl.req] =
                pred_per_step[sl.req] * static_cast<double>(left);
        }
        pinned_exec[sl.req] = sl.executed;
        enqueue(sl.req);

        ++sl.gen; // invalidate the in-flight completion event
        sl.active = false;
        --running;
        sl.alloc.clear();
        free_slots.push_back(slot);
    };

    // One scheduling pass over the queue at time `now`, under the
    // configured policy. Returns when no further job can start.
    auto schedulePass = [&] {
        switch (cfg_.policy) {
          case Policy::Fifo: {
            while (!pending.empty() && tryPlace(pending.front()))
                pending.pop_front();
            break;
          }
          case Policy::Backfill: {
            if (!cfg_.predictor) {
                // Greedy skip-ahead (the original behavior): any
                // fitting job starts, in queue order.
                bool progress = true;
                while (progress && !pending.empty()) {
                    progress = false;
                    for (auto it = pending.begin();
                         it != pending.end(); ++it) {
                        if (tryPlace(*it)) {
                            pending.erase(it);
                            progress = true;
                            break;
                        }
                    }
                }
                break;
            }
            [[fallthrough]];
          }
          case Policy::Gang: {
            // EASY: drain the head chain, then let later jobs start
            // only when their predicted completion respects the
            // head's reservation. Gang additionally restricts
            // backfill to single-GPU jobs.
            bool gang = cfg_.policy == Policy::Gang;
            bool progress = true;
            while (progress) {
                progress = false;
                while (!pending.empty() &&
                       tryPlace(pending.front())) {
                    pending.pop_front();
                    progress = true;
                }
                if (pending.empty())
                    break;
                double t_res = reservationTime(pending.front());
                for (auto it = std::next(pending.begin());
                     it != pending.end(); ++it) {
                    if (gang && requests[*it].job.num_cnodes > 1)
                        continue;
                    if (std::isfinite(t_res) &&
                        now + pred_remaining[*it] > t_res) {
                        continue;
                    }
                    if (tryPlace(*it)) {
                        pending.erase(it);
                        progress = true;
                        break;
                    }
                }
            }
            break;
          }
          case Policy::Spf:
          case Policy::SpfPreempt: {
            // Capacity only shrinks within a scan, so a job that
            // failed would fail again, and so would every later job
            // of its shape: one forward scan in key order starts
            // every job that can start, in the order a rescan after
            // each placement would.
            while (true) {
                spf_queue.beginScan();
                while (std::optional<size_t> req = spf_queue.next()) {
                    if (tryPlace(*req))
                        spf_queue.placed();
                    else
                        spf_queue.retire();
                }
                if (cfg_.policy != Policy::SpfPreempt ||
                    spf_queue.size() == 0) {
                    break;
                }
                // Nothing fits. Let the shortest queued job preempt
                // the running job with the longest predicted
                // remaining time, when the imbalance is worth a
                // restart. A placement after a preemption restarts
                // the scan: released GPUs revive every shape.
                size_t head_shape = spf_queue.minShape();
                size_t head = spf_queue.front(head_shape);
                bool progress = false;
                while (true) {
                    size_t victim = static_cast<size_t>(-1);
                    double victim_rem = -1.0;
                    for (size_t s = 0; s < slots.size(); ++s) {
                        const Slot &sl = slots[s];
                        if (!sl.active)
                            continue;
                        if (out.jobs[sl.out].preemptions >=
                            cfg_.max_preemptions) {
                            continue;
                        }
                        auto done = static_cast<int64_t>(std::floor(
                            (now - sl.seg_start) / sl.step_s + 1e-9));
                        done = std::clamp<int64_t>(
                            done, 0, sl.steps_left - 1);
                        double rem =
                            pred_per_step[sl.req] *
                            static_cast<double>(sl.steps_left - done);
                        if (rem > victim_rem ||
                            (rem == victim_rem &&
                             victim != static_cast<size_t>(-1) &&
                             sl.out < slots[victim].out)) {
                            victim = s;
                            victim_rem = rem;
                        }
                    }
                    if (victim == static_cast<size_t>(-1) ||
                        victim_rem <= cfg_.preempt_ratio *
                                          pred_remaining[head]) {
                        break;
                    }
                    // The victim re-queues with a key above the
                    // head's (victim_rem > preempt_ratio x head's),
                    // so the head stays its shape's front.
                    preempt(victim);
                    if (tryPlace(head)) {
                        spf_queue.popFront(head_shape);
                        progress = true;
                        break;
                    }
                }
                if (!progress)
                    break;
            }
            break;
          }
        }
    };

    while (arrival < requests.size() || queued() > 0 ||
           eq.pending() > 0) {
        // Admit all submissions up to `now`, dropping jobs the
        // cluster can never host (e.g. more cNodes than NVLink
        // capacity). Admitting them would starve the queue forever
        // under FIFO -- this must hold in release builds too, so it
        // is a counted drop rather than an assert.
        while (arrival < requests.size() &&
               requests[arrival].submit_time <= now) {
            if (placeable(requests[arrival].job)) {
                enqueue(arrival);
                if (tl_arrivals)
                    tl_arrivals->add();
            } else {
                ++out.unplaceable_jobs;
                if (tl_unplaceable)
                    tl_unplaceable->add();
                obs::counter("clustersim.unplaceable_jobs").add();
                if (cfg_.record_job_log && obs::jobLogActive()) {
                    const JobRequest &req = requests[arrival];
                    obs::JobRecord rec;
                    rec.job_id = req.job.id;
                    rec.source = "clustersim";
                    rec.status = "dropped";
                    rec.arch = workload::toString(req.job.arch);
                    rec.executed_arch = rec.arch;
                    rec.num_cnodes = req.job.num_cnodes;
                    rec.num_steps = req.num_steps;
                    rec.submit_s = req.submit_time;
                    rec.start_s = req.submit_time;
                    rec.finish_s = req.submit_time;
                    core::TimeBreakdown pred =
                        model_.breakdown(req.job);
                    rec.pred_td_s = pred.t_data;
                    rec.pred_tc_flops_s = pred.t_comp_flops;
                    rec.pred_tc_mem_s = pred.t_comp_mem;
                    rec.pred_tw_s = pred.t_weight;
                    rec.pred_step_s = pred.total();
                    obs::recordJob(std::move(rec));
                }
            }
            ++arrival;
        }

        // Schedule from the queue under the policy.
        schedulePass();
        sampleLevels();

        // Advance time to the next event.
        double next = std::numeric_limits<double>::infinity();
        if (arrival < requests.size())
            next = requests[arrival].submit_time;
        next = std::min(next, eq.nextEventTime());
        if (!std::isfinite(next))
            break; // queue non-empty but nothing can ever finish
        now = std::max(now, next);

        // Fire every completion up to `now` and release its GPUs. A
        // (slot, gen) pair that no longer matches belongs to a
        // preempted-and-restarted job: its stale event is a no-op.
        eq.runUntil(now);
        for (auto [slot, gen] : finished) {
            Slot &sl = slots[slot];
            if (!sl.active || sl.gen != gen)
                continue;
            cap.release(sl.alloc);
            JobOutcome &jo = out.jobs[sl.out];
            if (!jo.segments.empty())
                jo.segments.push_back({sl.seg_start, jo.finish_time});
            emitJobRecord(sl.req, jo, sl.executed,
                          sl.alloc.empty() ? -1
                                           : sl.alloc.front().first);
            sl.active = false;
            --running;
            sl.alloc.clear();
            free_slots.push_back(slot);
        }
        finished.clear();
        sampleLevels();
    }
    // Every admitted job is placeable on an empty cluster, so the
    // queue always drains once the running set does.
    assert(queued() == 0 && "placeable job starved the queue");

    // Aggregate metrics.
    obs::counter("clustersim.jobs_scheduled").add(out.jobs.size());
    obs::counter("clustersim.jobs_ported")
        .add(static_cast<uint64_t>(out.ported_jobs));
    obs::counter("clustersim.preemptions")
        .add(static_cast<uint64_t>(out.preemptions));
    static obs::Histogram &wait_hist =
        obs::histogram("clustersim.wait_s");
    stats::WeightedCdf waits;
    for (const JobOutcome &jo : out.jobs) {
        out.makespan = std::max(out.makespan, jo.finish_time);
        waits.add(jo.wait());
        wait_hist.observe(jo.wait());
    }
    if (!out.jobs.empty()) {
        out.mean_wait = waits.mean();
        out.p95_wait = waits.quantile(0.95);
        double total =
            static_cast<double>(cfg_.num_servers) *
            cfg_.gpus_per_server * out.makespan;
        out.gpu_utilization = total > 0.0 ? gpu_seconds / total : 0.0;
    }
    return out;
}

std::vector<JobRequest>
poissonRequests(const std::vector<TrainingJob> &jobs,
                double jobs_per_hour, double steps_median,
                double steps_sigma, uint64_t seed)
{
    if (!(jobs_per_hour > 0.0 && std::isfinite(jobs_per_hour)))
        throw std::invalid_argument(
            "poissonRequests: jobs_per_hour must be positive and "
            "finite, got " +
            std::to_string(jobs_per_hour));
    if (!(steps_median >= 1.0 && std::isfinite(steps_median)) ||
        !(steps_sigma >= 0.0 && std::isfinite(steps_sigma)))
        throw std::invalid_argument(
            "poissonRequests: steps_median must be finite and >= 1 "
            "and steps_sigma finite and >= 0, got " +
            std::to_string(steps_median) + " and " +
            std::to_string(steps_sigma));
    stats::Rng rng(seed);
    std::vector<JobRequest> requests;
    requests.reserve(jobs.size());
    double rate_per_sec = jobs_per_hour / 3600.0;
    double t = 0.0;
    for (const TrainingJob &job : jobs) {
        t += -std::log(1.0 - rng.uniform()) / rate_per_sec;
        JobRequest req;
        req.job = job;
        req.submit_time = t;
        req.num_steps = std::max<int64_t>(
            1, static_cast<int64_t>(std::llround(rng.logNormal(
                   std::log(steps_median), steps_sigma))));
        requests.push_back(std::move(req));
    }
    return requests;
}

} // namespace paichar::clustersim
