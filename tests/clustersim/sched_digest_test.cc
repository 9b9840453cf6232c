/**
 * @file
 * Exact differential of the scheduler's queue pass (`ctest -L sched`):
 * every run below must reproduce, ==-exactly, the outcome digest
 * (testkit::schedOutcomeDigest: every JobOutcome field with its
 * preemption segments, and every aggregate, doubles by bit pattern)
 * that the scheduler produced when its spf pass re-sorted the queue
 * and restarted the scan after every placement, and every failed fit
 * scanned all servers. The table was recorded from that loop, which
 * is kept nowhere else; a digest mismatch means some placement, its
 * order or its arithmetic changed.
 *
 * On a mismatch the test prints the digest it got, in table syntax.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <string>

#include "core/analytical_model.h"
#include "hw/hardware_config.h"
#include "testkit/sched_oracle.h"
#include "trace/synthetic_cluster.h"

namespace paichar::testkit {
namespace {

using clustersim::ClusterOutcome;
using clustersim::ClusterScheduler;
using clustersim::JobRequest;
using clustersim::PlacementStrategy;
using clustersim::Policy;
using clustersim::SchedulerConfig;

constexpr uint64_t kBaseSeed = 20181201;

constexpr Policy kPolicies[] = {Policy::Fifo, Policy::Backfill,
                                Policy::Spf, Policy::SpfPreempt,
                                Policy::Gang};

/**
 * Stream @p i's cluster: i cycles through every policy x placement x
 * porting x heterogeneity combination (40 of them); the second lap
 * (i >= 40) adds a deliberately skewed duration predictor, which
 * also turns Backfill from greedy into EASY.
 */
SchedulerConfig
streamCluster(int i)
{
    SchedulerConfig cfg;
    cfg.num_servers = 16;
    cfg.nvlink_fraction = 0.5;
    cfg.policy = kPolicies[i % 5];
    cfg.placement = (i / 5) % 2 ? PlacementStrategy::BestFit
                                : PlacementStrategy::FirstFit;
    cfg.port_ps_to_allreduce = (i / 10) % 2 != 0;
    cfg.old_gen_fraction = (i / 20) % 2 ? 0.25 : 0.0;
    cfg.record_job_log = false;
    cfg.record_timeline = false;
    if (i >= 40) {
        cfg.predictor = [](const workload::TrainingJob &job, int64_t,
                           double model_run_s) {
            return model_run_s * (0.5 + 0.5 * (job.id % 4));
        };
    }
    return cfg;
}

/** Stream @p i: an overloaded genRequests stream at seed base + i. */
std::vector<JobRequest>
stream(int i)
{
    SchedStreamOptions opt;
    opt.num_jobs = 120;
    opt.jobs_per_hour = 900.0;
    return genRequests(JobGenerator{}, kBaseSeed + static_cast<uint64_t>(i),
                       opt, 16);
}

ClusterOutcome
runStream(int i)
{
    core::AnalyticalModel model(hw::paiCluster());
    return ClusterScheduler(streamCluster(i), model).run(stream(i));
}

/**
 * The schedule_spf scenario at 4k jobs: a synthetic PAI trace at
 * 1000 jobs/h on 64 servers, half NVLink, first-fit.
 */
ClusterOutcome
runOverloaded(Policy policy)
{
    auto jobs = trace::SyntheticClusterGenerator(kBaseSeed).generate(4000);
    SchedulerConfig cfg;
    cfg.num_servers = 64;
    cfg.nvlink_fraction = 0.5;
    cfg.policy = policy;
    cfg.record_job_log = false;
    cfg.record_timeline = false;
    for (auto &j : jobs)
        j.num_cnodes = std::min(j.num_cnodes, cfg.num_servers);
    auto requests =
        clustersim::poissonRequests(jobs, 1000.0, 2000.0, 1.2, kBaseSeed);
    core::AnalyticalModel model(hw::paiCluster());
    return ClusterScheduler(cfg, model).run(std::move(requests));
}

struct Pinned
{
    int stream;
    uint64_t digest;
};

// runStream(i) for i = 0..79.
constexpr Pinned kStreams[] = {
    {0, 0x9590a83f7097dcb8u},
    {1, 0xeee29d0ee97c83f5u},
    {2, 0x456e920abb73b281u},
    {3, 0x485d1dc10932a798u},
    {4, 0x14e5a2f1737cea5au},
    {5, 0x0a4e889377d10f37u},
    {6, 0x0bf149008c356a3cu},
    {7, 0x76fb75aac2967f95u},
    {8, 0x02703504d4f87004u},
    {9, 0x90a445fd9435f370u},
    {10, 0x3e47f22841afd1bau},
    {11, 0x748dcea5ee174f5du},
    {12, 0x7d3cb90674cc9268u},
    {13, 0x4ebb01f6fb2eada7u},
    {14, 0x03c5960af5727a72u},
    {15, 0xa943ee654c377e8au},
    {16, 0xc4f82d5ecab6b442u},
    {17, 0x048e28e3d9f28e9au},
    {18, 0x98f589c1c1d15f16u},
    {19, 0x662a47fb860bc480u},
    {20, 0xfec423a2c096453bu},
    {21, 0xbaa5ac3f13d091d7u},
    {22, 0xe9f37f515e64de54u},
    {23, 0xb82edce658229c7bu},
    {24, 0x74be822547a655d1u},
    {25, 0xa167b9cd8845c3afu},
    {26, 0xc786ae1a8374ad15u},
    {27, 0xbc9f751cc6d7f108u},
    {28, 0xcca62b8b6e8c7d9cu},
    {29, 0x3887b4a1baec4139u},
    {30, 0x32ca61f7c7dce61au},
    {31, 0x358e9544026480f5u},
    {32, 0x92044802f4ec4e0fu},
    {33, 0x2ec5adc311b2bca7u},
    {34, 0x4a651f626b7e4dadu},
    {35, 0xf1439cb8f5c25531u},
    {36, 0xdef4ce3582d9605eu},
    {37, 0x4bcae51baa6aae3eu},
    {38, 0x6ee54ab06f039afau},
    {39, 0x8443c913d0ff5a90u},
    {40, 0x6d993170e276ea11u},
    {41, 0x7bcb62ccfad45614u},
    {42, 0x77a0e917d9d367f0u},
    {43, 0xa9b9ac9ba775be53u},
    {44, 0x4786ab52cff39c29u},
    {45, 0xede2e15152004b0du},
    {46, 0x976242c0d2eba767u},
    {47, 0x699341f5c5d55938u},
    {48, 0x482eee6c54bbba68u},
    {49, 0xd2ae714dc0f7a5a1u},
    {50, 0x9262b65f7f10bdcau},
    {51, 0xf747cc107403e6fau},
    {52, 0xc448456768da6693u},
    {53, 0xd12a6393c49fe869u},
    {54, 0x47a4a96b6f509d4du},
    {55, 0xefaeedc5a0376eb6u},
    {56, 0x86abb78541a0170fu},
    {57, 0xdd067b74ce6e5710u},
    {58, 0x08c52f4a9edfa993u},
    {59, 0x39681af4add0c70cu},
    {60, 0xb9e7b5a17414b535u},
    {61, 0xa51f9608b0e2e5e5u},
    {62, 0x577da3bde93464f5u},
    {63, 0x354c78882981aa89u},
    {64, 0x9b3df35669652ac1u},
    {65, 0x6d00c85f85d22551u},
    {66, 0xfe6e1bb9470ec0eeu},
    {67, 0x78e58aea1522c0aau},
    {68, 0x6a9ae361c09febb6u},
    {69, 0x958e28782c8d282au},
    {70, 0x1a24a3d878977055u},
    {71, 0xed152b921779461fu},
    {72, 0x1b760f74cc9fd16du},
    {73, 0x825b93b1f2e5588fu},
    {74, 0x842b8206824c0002u},
    {75, 0x8a1efc14be87c5bcu},
    {76, 0x6ddf51d072f7a629u},
    {77, 0xfb1987d39ba926edu},
    {78, 0x8bec81b18187b083u},
    {79, 0x7f1dcf24bfc5d79eu},
};

constexpr uint64_t kOverloadedSpf = 0xd6f1211f7cce22a5u;
constexpr uint64_t kOverloadedSpfPreempt = 0xdc3ebf5ecf5d31fcu;

std::string
row(int i, uint64_t digest)
{
    char buf[64];
    std::snprintf(buf, sizeof buf, "{%d, 0x%016" PRIx64 "u},", i, digest);
    return buf;
}

TEST(SchedDigestTest, FuzzedStreamsReproduceTheRescanLoopDigests)
{
    ASSERT_EQ(std::size(kStreams), 80u);
    for (size_t i = 0; i < std::size(kStreams); ++i) {
        int s = static_cast<int>(i);
        ASSERT_EQ(kStreams[i].stream, s);
        uint64_t got = schedOutcomeDigest(runStream(s));
        EXPECT_EQ(got, kStreams[i].digest) << "got " << row(s, got);
    }
}

// The table is only as strong as the runs it pins: preemptions,
// ported jobs and restarts that resume a ported (pinned) plan must
// all occur in it.
TEST(SchedDigestTest, FuzzedTableCoversPreemptionPortingAndPinnedRestarts)
{
    int64_t preemptions = 0, ported = 0, pinned_restarts = 0;
    for (const Pinned &p : kStreams) {
        ClusterOutcome out = runStream(p.stream);
        preemptions += out.preemptions;
        ported += out.ported_jobs;
        for (const clustersim::JobOutcome &jo : out.jobs)
            pinned_restarts += jo.ported && jo.preemptions > 0;
    }
    EXPECT_GT(preemptions, 0);
    EXPECT_GT(ported, 0);
    EXPECT_GT(pinned_restarts, 0);
}

TEST(SchedDigestTest, OverloadedSpfReproducesItsDigest)
{
    uint64_t got = schedOutcomeDigest(runOverloaded(Policy::Spf));
    EXPECT_EQ(got, kOverloadedSpf) << "got " << row(0, got);
}

TEST(SchedDigestTest, OverloadedSpfPreemptReproducesItsDigest)
{
    ClusterOutcome out = runOverloaded(Policy::SpfPreempt);
    EXPECT_GT(out.preemptions, 0);
    uint64_t got = schedOutcomeDigest(out);
    EXPECT_EQ(got, kOverloadedSpfPreempt) << "got " << row(0, got);
}

} // namespace
} // namespace paichar::testkit
