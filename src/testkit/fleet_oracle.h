/**
 * @file
 * Fleet differential oracle: policy-independent invariants every
 * serving-fleet configuration must uphold, checked against fuzzed
 * arrival streams, plus the byte-exact differential against the seed
 * single-server simulator, which lives here as the reference
 * (referenceSingleServerRun) and nowhere in production code.
 *
 * The invariants (DESIGN.md Sec 14):
 *  - request conservation: offered = admitted + rejected, every
 *    admitted request completes exactly once, rejected requests never
 *    complete, and the per-server item counts sum to the completions;
 *  - causality: arrival <= launch start <= completion for every
 *    served request, and every launch respects max_batch;
 *  - per-server capacity: one GPU serves one launch at a time — the
 *    launches recorded on a server, ordered by start, never overlap —
 *    and a server's busy seconds never exceed its uptime;
 *  - quantile coherence: p50 <= p95 <= p99 <= p999 <= max;
 *  - differential: a one-server greedy fleet with a constant stream
 *    must reproduce the seed single-server loop byte-for-byte (same
 *    RNG orbit, same arithmetic, same verdict).
 *
 * fuzzFleet() sweeps seed-derived fleet shapes (servers, routing,
 * batching, admission, arrival kinds) and returns the first violation
 * with a one-seed reproducer.
 */

#ifndef PAICHAR_TESTKIT_FLEET_ORACLE_H
#define PAICHAR_TESTKIT_FLEET_ORACLE_H

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "inference/fleet_sim.h"

namespace paichar::testkit {

/**
 * Check every policy-independent invariant of @p result, which must
 * come from running @p models under @p cfg with record_requests on.
 * @return nullopt when all hold, else a violation description.
 */
std::optional<std::string>
checkFleetInvariants(const inference::FleetConfig &cfg,
                     const std::vector<inference::ModelLoad> &models,
                     const inference::FleetResult &result);

/**
 * The seed single-server simulator, kept as the reference the fleet
 * is checked against: Poisson arrivals at @p qps drawn from
 * Rng(@p seed), one FIFO queue, and greedy batching (whenever the GPU
 * goes idle, everything queued, up to cfg.max_batch, leaves as one
 * launch). Reads only cfg.server, cfg.max_batch and
 * cfg.launch_overhead. Fills the aggregate fields of a FleetResult
 * (counts, duration, throughput, latency quantiles, utilization,
 * batches, verdict) with its own loop and its own copy of the
 * saturation detector, so a fleet regression cannot hide in shared
 * code. No input validation: callers pass qps > 0 and
 * num_requests >= 1.
 */
inference::FleetResult
referenceSingleServerRun(const inference::FleetConfig &cfg,
                         const inference::InferenceWorkload &w,
                         double qps, int64_t num_requests,
                         uint64_t seed);

/**
 * Differential check: a one-server greedy fleet over a constant
 * @p qps stream must reproduce referenceSingleServerRun exactly
 * (bitwise-equal doubles, equal counts, equal verdict).
 * @return nullopt when identical, else the first divergence.
 */
std::optional<std::string>
checkSingleServerEquivalence(const inference::InferenceWorkload &w,
                             double qps, int64_t num_requests,
                             uint64_t seed, int max_batch = 8);

/** One fuzzed fleet: its config, its model loads and its shape. */
struct FleetShape
{
    inference::FleetConfig cfg;
    std::vector<inference::ModelLoad> models;
    /** Human-readable shape (servers, routing, batching, ...). */
    std::string description;
};

/**
 * The fleet shape fuzz seed @p seed derives: servers, max batch,
 * routing, batching, admission bound, autoscaler (off, queue-depth
 * or SLO) and one or two model streams of any arrival kind, with
 * record_requests on. fuzzFleet runs exactly these shapes.
 */
FleetShape fuzzedFleetShape(uint64_t seed);

/**
 * 64-bit FNV-1a digest of everything a run reports: every
 * RequestRecord field, every ServerStats entry and every aggregate
 * of @p r, doubles by bit pattern. Two runs digest equal only when
 * their results are ==-identical.
 */
uint64_t fleetResultDigest(const inference::FleetResult &r);

/** A fleet-fuzz counterexample. */
struct FleetFuzzFailure
{
    /** Seed whose derived fleet violated an invariant. */
    uint64_t seed = 0;
    /** The oracle's message. */
    std::string message;
    /** Human-readable shape of the failing fleet. */
    std::string shape;
};

/** Render a failure (seed, shape, message). */
std::string describe(const FleetFuzzFailure &f);

/**
 * Fuzz @p count fleet shapes derived from consecutive seeds
 * (base_seed + i): each seed picks servers, routing, batching,
 * admission bound, autoscaler on/off and per-model arrival kinds,
 * runs @p num_requests arrivals and checks every invariant. Every
 * seed also replays the single-server differential.
 */
std::optional<FleetFuzzFailure>
fuzzFleet(uint64_t base_seed, int count, int64_t num_requests = 2000);

} // namespace paichar::testkit

#endif // PAICHAR_TESTKIT_FLEET_ORACLE_H
