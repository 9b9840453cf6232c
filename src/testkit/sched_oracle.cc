#include "sched_oracle.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <set>
#include <sstream>

#include "core/analytical_model.h"
#include "hw/hardware_config.h"
#include "stats/rng.h"
#include "testkit/digest.h"

namespace paichar::testkit {

using clustersim::ClusterOutcome;
using clustersim::ClusterScheduler;
using clustersim::JobOutcome;
using clustersim::JobRequest;
using clustersim::SchedulerConfig;

std::vector<JobRequest>
genRequests(const JobGenerator &gen, uint64_t seed,
            const SchedStreamOptions &opt, int num_servers)
{
    stats::Rng rng(seed);
    double rate_per_sec = opt.jobs_per_hour / 3600.0;
    double t = 0.0;
    std::vector<JobRequest> requests;
    requests.reserve(static_cast<size_t>(opt.num_jobs));
    for (int i = 0; i < opt.num_jobs; ++i) {
        JobRequest req;
        req.job = gen.job(rng.nextU64());
        // Stream-local ids: generator ids are seed-derived and could
        // collide across draws, which would break conservation
        // checks keyed by id.
        req.job.id = i;
        req.job.num_cnodes = std::min(req.job.num_cnodes, num_servers);
        t += -std::log(1.0 - rng.uniform()) / rate_per_sec;
        req.submit_time = t;
        req.num_steps = std::max<int64_t>(
            1, static_cast<int64_t>(std::llround(rng.logNormal(
                   std::log(opt.steps_median), opt.steps_sigma))));
        requests.push_back(std::move(req));
    }
    return requests;
}

std::optional<std::string>
checkSchedInvariants(const std::vector<JobRequest> &requests,
                     const SchedulerConfig &cfg,
                     const ClusterOutcome &out)
{
    std::ostringstream msg;

    // --- job conservation ------------------------------------------
    if (out.jobs.size() +
            static_cast<size_t>(out.unplaceable_jobs) !=
        requests.size()) {
        msg << "job conservation: " << requests.size()
            << " submitted but " << out.jobs.size()
            << " scheduled + " << out.unplaceable_jobs << " dropped";
        return msg.str();
    }
    std::map<int64_t, const JobRequest *> by_id;
    for (const JobRequest &req : requests)
        by_id[req.job.id] = &req;
    if (by_id.size() != requests.size())
        return std::string("generated stream has duplicate job ids");

    std::set<int64_t> seen;
    for (const JobOutcome &jo : out.jobs) {
        auto it = by_id.find(jo.job_id);
        if (it == by_id.end()) {
            msg << "job " << jo.job_id
                << " completed but was never submitted";
            return msg.str();
        }
        if (!seen.insert(jo.job_id).second) {
            msg << "job " << jo.job_id << " completed twice";
            return msg.str();
        }
        const JobRequest &req = *it->second;

        // --- causality ---------------------------------------------
        if (jo.start_time < jo.submit_time) {
            msg << "job " << jo.job_id
                << ": negative queueing delay (start "
                << jo.start_time << " < submit " << jo.submit_time
                << ")";
            return msg.str();
        }
        if (jo.submit_time != req.submit_time) {
            msg << "job " << jo.job_id << ": submit time rewritten ("
                << jo.submit_time << " != " << req.submit_time << ")";
            return msg.str();
        }
        if (!std::isfinite(jo.finish_time))
            continue; // never-finishing job: holds GPUs forever
        if (jo.finish_time < jo.start_time) {
            msg << "job " << jo.job_id << ": negative runtime";
            return msg.str();
        }
        if (jo.preemptions > cfg.max_preemptions) {
            msg << "job " << jo.job_id << ": " << jo.preemptions
                << " preemptions exceed the cap "
                << cfg.max_preemptions;
            return msg.str();
        }

        // --- preemption segment structure --------------------------
        if (jo.segments.empty()) {
            if (jo.preemptions != 0) {
                msg << "job " << jo.job_id << ": " << jo.preemptions
                    << " preemptions but no recorded segments";
                return msg.str();
            }
        } else {
            if (jo.segments.size() !=
                static_cast<size_t>(jo.preemptions) + 1) {
                msg << "job " << jo.job_id << ": "
                    << jo.segments.size() << " segments for "
                    << jo.preemptions << " preemptions";
                return msg.str();
            }
            if (jo.segments.front().first != jo.start_time ||
                jo.segments.back().second != jo.finish_time) {
                msg << "job " << jo.job_id
                    << ": segments do not span [start, finish]";
                return msg.str();
            }
            for (size_t k = 0; k < jo.segments.size(); ++k) {
                auto [s, e] = jo.segments[k];
                if (e < s || (k > 0 && s < jo.segments[k - 1].second)) {
                    msg << "job " << jo.job_id
                        << ": segments unordered or overlapping";
                    return msg.str();
                }
            }
        }

        // --- work conservation -------------------------------------
        // With one hardware generation, every segment runs at the
        // same per-step time, so occupied seconds must cover every
        // training step and restarts may only redo the partial step
        // in flight at each preemption (< 1 step each).
        if (cfg.old_gen_fraction == 0.0 && jo.step_s > 0.0) {
            double run = jo.runSeconds();
            double need =
                jo.step_s * static_cast<double>(jo.num_steps);
            double cap =
                jo.step_s * static_cast<double>(jo.num_steps +
                                                jo.preemptions);
            double eps = 1e-6 * std::max(1.0, cap);
            if (run < need - eps) {
                msg << "job " << jo.job_id
                    << ": work lost (ran " << run << " s < "
                    << need << " s for " << jo.num_steps
                    << " steps)";
                return msg.str();
            }
            if (run > cap + eps) {
                msg << "job " << jo.job_id
                    << ": work duplicated (ran " << run << " s > "
                    << cap << " s for " << jo.num_steps
                    << " steps, " << jo.preemptions
                    << " preemptions)";
                return msg.str();
            }
        }
    }

    // --- capacity --------------------------------------------------
    // Sweep GPU occupancy over the union of all running segments.
    // Releases sort before acquisitions at the same instant: the
    // scheduler drains completions before placing, so GPUs freed at
    // time t are legitimately reusable at t.
    struct Ev
    {
        double t;
        int delta;
    };
    std::vector<Ev> events;
    for (const JobOutcome &jo : out.jobs) {
        auto add = [&](double s, double e) {
            events.push_back({s, jo.gpus});
            if (std::isfinite(e))
                events.push_back({e, -jo.gpus});
        };
        if (jo.segments.empty())
            add(jo.start_time, jo.finish_time);
        else
            for (auto [s, e] : jo.segments)
                add(s, e);
    }
    std::sort(events.begin(), events.end(),
              [](const Ev &a, const Ev &b) {
                  if (a.t != b.t)
                      return a.t < b.t;
                  return a.delta < b.delta;
              });
    int total = cfg.num_servers * cfg.gpus_per_server;
    int held = 0;
    for (const Ev &ev : events) {
        held += ev.delta;
        if (held > total) {
            msg << "capacity exceeded: " << held << " GPUs held > "
                << total << " at t=" << ev.t;
            return msg.str();
        }
    }
    return std::nullopt;
}

uint64_t
schedOutcomeDigest(const ClusterOutcome &out)
{
    Fnv1a h;
    h.mixi(static_cast<int64_t>(out.jobs.size()));
    for (const JobOutcome &jo : out.jobs) {
        h.mixi(jo.job_id);
        h.mixd(jo.submit_time);
        h.mixd(jo.start_time);
        h.mixd(jo.finish_time);
        h.mixi(jo.gpus);
        h.mixi(static_cast<int64_t>(jo.executed_arch));
        h.mixi(jo.ported);
        h.mixd(jo.step_s);
        h.mixi(jo.num_steps);
        h.mixd(jo.predicted_run_s);
        h.mixi(jo.preemptions);
        h.mixi(static_cast<int64_t>(jo.segments.size()));
        for (auto [start, end] : jo.segments) {
            h.mixd(start);
            h.mixd(end);
        }
    }
    for (double v :
         {out.makespan, out.mean_wait, out.p95_wait, out.gpu_utilization})
        h.mixd(v);
    for (int64_t v :
         {out.ported_jobs, out.preemptions, out.unplaceable_jobs})
        h.mixi(v);
    return h.value();
}

std::optional<std::string>
checkAgainstFifo(const ClusterOutcome &policy_out,
                 const ClusterOutcome &fifo_out)
{
    auto signature = [](const ClusterOutcome &o) {
        std::vector<std::pair<int64_t, int64_t>> sig;
        sig.reserve(o.jobs.size());
        for (const JobOutcome &jo : o.jobs)
            sig.push_back({jo.job_id, jo.num_steps});
        std::sort(sig.begin(), sig.end());
        return sig;
    };
    auto pol = signature(policy_out);
    auto fifo = signature(fifo_out);
    if (pol == fifo)
        return std::nullopt;
    std::ostringstream msg;
    if (pol.size() != fifo.size()) {
        msg << "policy completed " << pol.size()
            << " jobs, fifo completed " << fifo.size();
        return msg.str();
    }
    for (size_t i = 0; i < pol.size(); ++i) {
        if (pol[i] != fifo[i]) {
            msg << "job " << pol[i].first << " diverges from fifo: "
                << pol[i].second << " steps vs job "
                << fifo[i].first << " with " << fifo[i].second;
            return msg.str();
        }
    }
    return std::string("policy and fifo outcomes diverge");
}

std::string
describe(const SchedFuzzFailure &f)
{
    std::ostringstream os;
    os << "scheduler invariant violated\n"
       << "  seed:    " << f.seed << "\n"
       << "  policy:  " << clustersim::toString(f.policy) << "\n"
       << "  message: " << f.message << "\n"
       << "  stream:  " << f.stream_jobs << " jobs, shrunk to "
       << f.shrunk.size() << "\n";
    for (const JobRequest &req : f.shrunk) {
        os << "    job " << req.job.id << " arch="
           << workload::toString(req.job.arch)
           << " cnodes=" << req.job.num_cnodes << " submit="
           << req.submit_time << " steps=" << req.num_steps << "\n";
    }
    os << "  repro:   " << f.repro << "\n";
    return os.str();
}

std::optional<SchedFuzzFailure>
fuzzPolicies(const JobGenerator &gen, uint64_t base_seed, int count,
             const std::vector<clustersim::Policy> &policies,
             const SchedulerConfig &cfg, const SchedStreamOptions &opt,
             const std::string &repro_template)
{
    core::AnalyticalModel model(hw::paiCluster());
    SchedulerConfig fifo_cfg = cfg;
    fifo_cfg.policy = clustersim::Policy::Fifo;
    fifo_cfg.record_job_log = false;

    for (int i = 0; i < count; ++i) {
        uint64_t seed = base_seed + static_cast<uint64_t>(i);
        auto requests =
            genRequests(gen, seed, opt, cfg.num_servers);

        for (clustersim::Policy policy : policies) {
            SchedulerConfig run_cfg = cfg;
            run_cfg.policy = policy;
            run_cfg.record_job_log = false;

            auto failsWith = [&](const std::vector<JobRequest> &rs)
                -> std::optional<std::string> {
                ClusterOutcome po =
                    ClusterScheduler(run_cfg, model).run(rs);
                if (auto m = checkSchedInvariants(rs, run_cfg, po))
                    return m;
                ClusterOutcome fo =
                    ClusterScheduler(fifo_cfg, model).run(rs);
                return checkAgainstFifo(po, fo);
            };

            auto message = failsWith(requests);
            if (!message)
                continue;

            // Shrink: greedily remove chunks (halving the chunk size
            // down to single requests) while the violation persists.
            std::vector<JobRequest> cur = requests;
            for (size_t chunk = std::max<size_t>(1, cur.size() / 2);
                 ;) {
                for (size_t pos = 0; pos + chunk <= cur.size();) {
                    std::vector<JobRequest> cand;
                    cand.reserve(cur.size() - chunk);
                    cand.insert(cand.end(), cur.begin(),
                                cur.begin() +
                                    static_cast<ptrdiff_t>(pos));
                    cand.insert(cand.end(),
                                cur.begin() + static_cast<ptrdiff_t>(
                                                  pos + chunk),
                                cur.end());
                    if (auto m = failsWith(cand)) {
                        cur = std::move(cand);
                        message = m;
                    } else {
                        pos += chunk;
                    }
                }
                if (chunk == 1)
                    break;
                chunk = std::max<size_t>(1, chunk / 2);
            }

            SchedFuzzFailure f;
            f.seed = seed;
            f.policy = policy;
            f.message = *message;
            f.stream_jobs = requests.size();
            f.shrunk = std::move(cur);
            f.repro = repro_template;
            auto mark = f.repro.find("{seed}");
            if (mark != std::string::npos)
                f.repro.replace(mark, 6, std::to_string(seed));
            return f;
        }
    }
    return std::nullopt;
}

} // namespace paichar::testkit
