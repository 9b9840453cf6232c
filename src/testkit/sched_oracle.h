/**
 * @file
 * Scheduler differential oracle: policy-independent invariants every
 * clustersim policy must uphold, checked against generated submission
 * streams, plus a differential comparison against the FIFO baseline.
 *
 * The invariants (DESIGN.md Sec 13):
 *  - job conservation: every admitted request completes exactly once,
 *    no job is lost or duplicated, drops are only the counted
 *    unplaceable ones;
 *  - causality: no negative queueing delay (start >= submit), no
 *    negative runtime, preemption segments ordered and gap-free
 *    against the recorded start/finish;
 *  - work conservation: a job's occupied seconds cover all of its
 *    training steps, and preemption/restart loses at most one step
 *    per preemption;
 *  - capacity: the sum of allocated GPUs never exceeds the cluster,
 *    at any point of the simulated timeline;
 *  - differential: every policy completes the same job population as
 *    FIFO with the same per-job step counts -- policies reorder work,
 *    they must never change it.
 *
 * fuzzPolicies() sweeps seed-pure generated streams through every
 * policy and, on a violation, shrinks the stream (greedy chunk
 * removal, ddmin-style) to a minimal failing submission set, then
 * renders a one-seed reproducer.
 */

#ifndef PAICHAR_TESTKIT_SCHED_ORACLE_H
#define PAICHAR_TESTKIT_SCHED_ORACLE_H

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "clustersim/scheduler.h"
#include "testkit/gen.h"

namespace paichar::testkit {

/** Shape of a generated submission stream. */
struct SchedStreamOptions
{
    int num_jobs = 60;
    /** Mean Poisson submission rate. */
    double jobs_per_hour = 400.0;
    /** Median/sigma of the lognormal training length, in steps. */
    double steps_median = 200.0;
    double steps_sigma = 1.2;
};

/**
 * A seed-pure submission stream: jobs from @p gen, Poisson arrivals
 * and lognormal lengths from a private stream of @p seed. cNode
 * counts are clamped to @p num_servers (mirroring the CLI).
 */
std::vector<clustersim::JobRequest>
genRequests(const JobGenerator &gen, uint64_t seed,
            const SchedStreamOptions &opt, int num_servers);

/**
 * Check every policy-independent invariant of @p out, which must be
 * the outcome of running @p requests under @p cfg.
 * @return nullopt when all hold, else a violation description.
 */
std::optional<std::string>
checkSchedInvariants(const std::vector<clustersim::JobRequest> &requests,
                     const clustersim::SchedulerConfig &cfg,
                     const clustersim::ClusterOutcome &out);

/**
 * Differential check: @p policy_out must complete exactly the FIFO
 * baseline's job population (same ids, same per-job training steps).
 * @return nullopt when equivalent, else the first divergence.
 */
std::optional<std::string>
checkAgainstFifo(const clustersim::ClusterOutcome &policy_out,
                 const clustersim::ClusterOutcome &fifo_out);

/**
 * 64-bit FNV-1a digest of everything a run reports: every JobOutcome
 * field of @p out (preemption segments included), in outcome order,
 * and every aggregate, doubles by bit pattern. Two runs digest equal
 * only when their outcomes are ==-identical.
 */
uint64_t schedOutcomeDigest(const clustersim::ClusterOutcome &out);

/** A shrunk scheduler-fuzz counterexample. */
struct SchedFuzzFailure
{
    /** Seed whose generated stream violated an invariant. */
    uint64_t seed = 0;
    /** Policy under which the violation occurred. */
    clustersim::Policy policy = clustersim::Policy::Fifo;
    /** The oracle's message for the shrunk stream. */
    std::string message;
    /** Size of the original failing stream. */
    size_t stream_jobs = 0;
    /** The minimized failing stream. */
    std::vector<clustersim::JobRequest> shrunk;
    /** One-seed reproducer command ("{seed}" substituted). */
    std::string repro;
};

/** Render a failure (seed, policy, message, shrunk stream, repro). */
std::string describe(const SchedFuzzFailure &f);

/**
 * Fuzz @p policies over @p count streams generated from consecutive
 * seeds (base_seed + i), checking invariants and the FIFO
 * differential for each. The first violation is shrunk to a minimal
 * stream before being returned.
 *
 * @param cfg   Cluster shape; the policy field is overridden per run.
 * @param repro_template Command template; the first "{seed}" is
 *        replaced with the failing seed.
 */
std::optional<SchedFuzzFailure>
fuzzPolicies(const JobGenerator &gen, uint64_t base_seed, int count,
             const std::vector<clustersim::Policy> &policies,
             const clustersim::SchedulerConfig &cfg,
             const SchedStreamOptions &opt = {},
             const std::string &repro_template =
                 "PAICHAR_SCHED_SEED={seed} <test binary>");

} // namespace paichar::testkit

#endif // PAICHAR_TESTKIT_SCHED_ORACLE_H
