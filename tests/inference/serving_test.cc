/**
 * @file
 * Tests for the inference-serving subsystem (the paper's Sec VIII
 * future work) at its single-server operating point: workload
 * derivation, queueing behavior, batching economics and the SLO
 * search, all on a one-server FleetSimulator and maxQpsUnderSlo.
 * Multi-server behavior lives in fleet_sim_test.cc.
 */

#include <gtest/gtest.h>

#include <limits>
#include <stdexcept>

#include "inference/fleet_sim.h"
#include "workload/model_zoo.h"

namespace paichar::inference {
namespace {

InferenceWorkload
resnetServing()
{
    return InferenceWorkload::fromTraining(
        workload::ModelZoo::resnet50());
}

/** Batch-1 cost of one request on the default server. */
double
soloTime(const InferenceWorkload &w)
{
    FleetConfig cfg;
    return w.inputTime(1, cfg.server.pcie_bandwidth) +
           w.serviceTime(1, cfg.server.gpu, cfg.launch_overhead);
}

/** @p n constant-stream arrivals at @p qps on one greedy server. */
FleetResult
serveOne(const InferenceWorkload &w, double qps, int64_t n,
         uint64_t seed, int max_batch = 8)
{
    FleetConfig cfg;
    cfg.max_batch = max_batch;
    stats::ArrivalConfig arrival;
    arrival.qps = qps;
    return FleetSimulator(cfg).run({{w, arrival}}, n, seed);
}

TEST(InferenceWorkloadTest, DerivationFromTraining)
{
    auto m = workload::ModelZoo::resnet50();
    auto w = resnetServing();
    EXPECT_EQ(w.name, "ResNet50");
    // Forward-only: a third of the step, per item.
    EXPECT_NEAR(w.flops_per_item,
                m.features.flop_count / 3.0 / 64.0,
                1e-6 * w.flops_per_item);
    EXPECT_NEAR(w.weight_bytes, 0.5 * m.features.dense_weight_bytes,
                1.0);
    EXPECT_GT(w.input_bytes_per_item, 0.0);
}

TEST(InferenceWorkloadTest, ServiceTimeShape)
{
    auto w = resnetServing();
    auto gpu = hw::v100Testbed().server.gpu;
    double s1 = w.serviceTime(1, gpu, 30e-6);
    double s8 = w.serviceTime(8, gpu, 30e-6);
    // Batching amortizes the weight stream + launch: 8 items cost
    // much less than 8 separate launches but more than one.
    EXPECT_GT(s8, s1);
    EXPECT_LT(s8, 8.0 * s1);
    // The batch-independent component equals launch + weight stream.
    double fixed = 30e-6 + w.weight_bytes /
                               (gpu.mem_bandwidth *
                                w.efficiency.gpu_memory);
    EXPECT_NEAR(s8 - s1, 7.0 * (s1 - fixed), 1e-12);
}

TEST(ServingSimTest, IdleLoadLatencyIsServiceTime)
{
    // At negligible load every request is served alone, immediately.
    auto w = resnetServing();
    auto r = serveOne(w, 1.0, 500, 11);
    double solo = soloTime(w);
    EXPECT_NEAR(r.p50_latency, solo, 1e-9);
    EXPECT_NEAR(r.mean_latency, solo, 0.01 * solo);
    EXPECT_NEAR(r.avg_batch, 1.0, 0.01);
    EXPECT_EQ(r.verdict, OverloadVerdict::Stable);
}

TEST(ServingSimTest, UtilizationTracksOfferedLoad)
{
    auto w = resnetServing();
    double qps = 0.3 / soloTime(w); // ~30% utilization unbatched
    auto r = serveOne(w, qps, 20000, 13);
    EXPECT_NEAR(r.gpu_utilization, 0.3, 0.05);
    EXPECT_EQ(r.verdict, OverloadVerdict::Stable);
}

TEST(ServingSimTest, OverloadIsDetectedAndBatchingRaisesCapacity)
{
    // A weight-heavy model: the per-launch weight stream dominates,
    // so batching multiplies capacity (the canonical batching win).
    InferenceWorkload w;
    w.name = "weight-heavy";
    w.weight_bytes = 2e9;
    w.flops_per_item = 1e9;
    w.act_bytes_per_item = 1e6;
    w.input_bytes_per_item = 1e4;

    // A load past the unbatched capacity but well within the batched
    // one (per-launch cost ~fixed, so batch-8 capacity is ~7x).
    double qps = 2.0 / soloTime(w);
    auto r1 = serveOne(w, qps, 20000, 19, 1);
    auto r8 = serveOne(w, qps, 20000, 19, 8);
    EXPECT_EQ(r1.verdict, OverloadVerdict::Saturated);
    EXPECT_EQ(r8.verdict, OverloadVerdict::Stable);
    EXPECT_GT(r8.avg_batch, 1.2);
    EXPECT_LT(r8.p99_latency, r1.p99_latency);
}

TEST(ServingSimTest, BatchingBuysLittleForPerItemBoundModels)
{
    // ResNet50 inference is per-item bound at batch 64-equivalent
    // demands: batch-8 capacity exceeds unbatched by <25%.
    auto w = resnetServing();
    auto gpu = hw::v100Testbed().server.gpu;
    double cap1 = 1.0 / (w.serviceTime(1, gpu, 30e-6) +
                         w.inputTime(1, 10e9));
    double cap8 = 8.0 / (w.serviceTime(8, gpu, 30e-6) +
                         w.inputTime(8, 10e9));
    EXPECT_GT(cap8, cap1);
    EXPECT_LT(cap8, 1.25 * cap1);
}

TEST(ServingSimTest, ThroughputCapsAtServiceCapacity)
{
    auto w = resnetServing();
    double solo = soloTime(w);
    auto r = serveOne(w, 10.0 / solo, 20000, 23, 1);
    EXPECT_EQ(r.verdict, OverloadVerdict::Saturated);
    EXPECT_NEAR(r.throughput, 1.0 / solo, 0.02 / solo);
    EXPECT_NEAR(r.gpu_utilization, 1.0, 0.02);
}

TEST(ServingSimTest, MaxQpsUnderSloIsConsistent)
{
    auto w = resnetServing();
    double solo = soloTime(w);
    double slo = 5.0 * solo;
    double qps =
        maxQpsUnderSlo(FleetConfig{}, w, slo, 20.0 / solo, 20000, 29);
    ASSERT_GT(qps, 0.0);
    auto at = serveOne(w, qps, 20000, 29);
    EXPECT_LE(at.p99_latency, slo * 1.001);
    // 15% more load breaks the SLO (or saturates).
    auto over = serveOne(w, 1.15 * qps, 20000, 29);
    EXPECT_TRUE(over.p99_latency > slo ||
                over.verdict == OverloadVerdict::Saturated);
}

TEST(ServingSimTest, ImpossibleSloReturnsZero)
{
    EXPECT_DOUBLE_EQ(maxQpsUnderSlo(FleetConfig{}, resnetServing(),
                                    1e-9, 1000.0, 20000, 31),
                     0.0);
}

// --- Release-mode bugfix regressions -------------------------------

TEST(ServingSimTest, InvalidArgumentsThrowNotAssert)
{
    // Regression: these were assert()s, compiled away under NDEBUG
    // (a qps of 0 then divided by zero into NaN latencies). The
    // NDEBUG-forced twin of this test lives in tests/ndebug.
    auto w = resnetServing();
    FleetConfig bad;
    bad.max_batch = 0;
    EXPECT_THROW(FleetSimulator{bad}, std::invalid_argument);
    bad.max_batch = -3;
    EXPECT_THROW(FleetSimulator{bad}, std::invalid_argument);
    FleetConfig bad_overhead;
    bad_overhead.launch_overhead = -1e-6;
    EXPECT_THROW(FleetSimulator{bad_overhead},
                 std::invalid_argument);

    EXPECT_THROW(serveOne(w, 0.0, 100, 1), std::invalid_argument);
    EXPECT_THROW(serveOne(w, -5.0, 100, 1), std::invalid_argument);
    EXPECT_THROW(
        serveOne(w, std::numeric_limits<double>::infinity(), 100, 1),
        std::invalid_argument);
    EXPECT_THROW(serveOne(w, 100.0, 0, 1), std::invalid_argument);
    EXPECT_THROW(maxQpsUnderSlo(FleetConfig{}, w, 0.0, 100.0, 20000, 1),
                 std::invalid_argument);
    EXPECT_THROW(maxQpsUnderSlo(FleetConfig{}, w, 0.01, 1.0, 20000, 1),
                 std::invalid_argument);
}

TEST(ServingSimTest, ShortRunsReportUndersampledNeverStable)
{
    // Regression: the pre-fix detector silently returned "not
    // saturated" below 100 samples, so a 50-request probe at a
    // hopelessly overloaded operating point looked healthy.
    auto w = resnetServing();
    double overload_qps = 50.0 / soloTime(w); // 50x capacity
    auto r = serveOne(w, overload_qps, kMinSaturationSamples - 1, 37);
    EXPECT_EQ(r.verdict, OverloadVerdict::Undersampled);
    // The same load with enough samples is judged saturated.
    auto full = serveOne(w, overload_qps, 20000, 37);
    EXPECT_EQ(full.verdict, OverloadVerdict::Saturated);
    // At the floor itself the detector judges (no Undersampled).
    auto at_floor =
        serveOne(w, overload_qps, kMinSaturationSamples, 37);
    EXPECT_NE(at_floor.verdict, OverloadVerdict::Undersampled);
}

TEST(ServingSimTest, SloSearchRefusesUndersampledProbes)
{
    // The sample floor is enforced where it matters: a short probe
    // could otherwise certify a saturated operating point as "fits
    // the SLO".
    auto w = resnetServing();
    EXPECT_THROW(maxQpsUnderSlo(FleetConfig{}, w, 0.01, 1000.0,
                                kMinSaturationSamples - 1, 41),
                 std::invalid_argument);
    // And an Undersampled verdict never passes a probe: a tiny legal
    // probe count still yields a usable (conservative) search.
    double qps = maxQpsUnderSlo(FleetConfig{}, w, 0.02, 2000.0,
                                kMinSaturationSamples, 41);
    EXPECT_GE(qps, 0.0);
}

} // namespace
} // namespace paichar::inference
