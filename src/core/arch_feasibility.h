/**
 * @file
 * Shared architecture-placement and feasibility rules (Sec III-A,
 * IV-C, VI-A1). This is the single source of truth consumed by both
 * ArchitectureAdvisor (core) and the optimization planner's cost
 * models (opt); the two layers previously duplicated these rules.
 *
 * Feasibility encodes the paper's constraints:
 *  - replicated AllReduce requires the full parameter set (dense +
 *    embedding + optimizer state) to fit in one GPU's memory
 *    ("only weight-replica mode is supported", Sec III-A);
 *  - PEARL requires NVLink and only needs the dense weights plus an
 *    embedding shard per GPU (Sec IV-C);
 *  - AllReduce-Local additionally caps the job at one server's GPUs;
 *  - PS/Worker and 1wng park parameters in host memory and are always
 *    feasible (the paper's fallback for 100-300 GB models).
 *
 * Beyond the paper, resolvePlacement() also models hybrid
 * data+model parallelism: a partition degree `ways` > 1 splits the
 * model (sub-graph or channel/filter parallelism) across `ways`
 * GPUs that must share a server's NVLink mesh, dividing the per-GPU
 * resident weights by `ways`. This is what makes the AllReduce
 * family reachable for models whose full replica exceeds GPU memory
 * (the planner's hybrid-parallelism search).
 */

#ifndef PAICHAR_CORE_ARCH_FEASIBILITY_H
#define PAICHAR_CORE_ARCH_FEASIBILITY_H

#include <string>

#include "hw/hardware_config.h"
#include "workload/arch_type.h"
#include "workload/workload_features.h"

namespace paichar::core {

/** Resolved placement of one job under one architecture. */
struct Placement
{
    workload::ArchType arch = workload::ArchType::OneWorkerOneGpu;
    /** cNodes after the architecture's placement rules. */
    int num_cnodes = 1;
    /** Per-GPU resident parameter bytes this choice requires. */
    double per_gpu_weight_bytes = 0.0;
    /** Whether the placement satisfies every constraint. */
    bool feasible = false;
    /** Why not, when infeasible. */
    std::string reason;
};

/**
 * Apply one architecture's placement rules to a workload.
 *
 * @param f                Per-step, per-cNode workload demands.
 * @param arch             Candidate architecture.
 * @param requested_cnodes Desired replica count before clamping.
 * @param server           Server hardware (GPU count, NVLink).
 * @param gpu_memory_bytes Per-GPU parameter-memory budget.
 * @param partition_ways   Model-partition degree (1 = pure data
 *                         parallel). Shard groups live inside one
 *                         server and exchange activations over
 *                         NVLink, so ways > 1 requires NVLink and
 *                         ways <= gpus_per_server; the resolved
 *                         cNode count is a multiple of ways.
 * @throws std::invalid_argument when requested_cnodes < 1,
 *         partition_ways < 1 or gpu_memory_bytes is not positive.
 */
Placement resolvePlacement(const workload::WorkloadFeatures &f,
                           workload::ArchType arch,
                           int requested_cnodes,
                           const hw::ServerSpec &server,
                           double gpu_memory_bytes,
                           int partition_ways = 1);

} // namespace paichar::core

#endif // PAICHAR_CORE_ARCH_FEASIBILITY_H
