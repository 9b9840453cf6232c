/**
 * @file
 * Exact differential of the fleet event loop (`ctest -L serve`):
 * every run below must reproduce, ==-exactly, the result digest
 * (testkit::fleetResultDigest: the full per-request log, per-server
 * stats and aggregates, doubles by bit pattern) that the fleet
 * produced when it still picked each event by scanning every server.
 * The table was recorded from that scan loop, which is kept nowhere
 * else; a digest mismatch means the event order or the arithmetic
 * of some run changed.
 *
 * On a mismatch the test prints the digest it got, in table syntax.
 */

#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <set>

#include "testkit/fleet_oracle.h"
#include "workload/model_zoo.h"

namespace paichar::testkit {
namespace {

using inference::AutoscalerConfig;
using inference::Batching;
using inference::FleetConfig;
using inference::FleetSimulator;
using inference::InferenceWorkload;
using inference::Routing;

constexpr uint64_t kBaseSeed = 20181201;
constexpr int64_t kRequests = 2000;

struct Pinned
{
    uint64_t seed;
    uint64_t digest;
};

// fuzzedFleetShape(seed) run for kRequests arrivals at seed `seed`.
constexpr Pinned kFuzzed[] = {
    {20181201u, 0x1b29cf68ba5a6ac4u},
    {20181202u, 0xcd5b4bd154c07821u},
    {20181203u, 0x094859cd4f4a99eeu},
    {20181204u, 0x32639c02e502d812u},
    {20181205u, 0x9a138cbdf745f81cu},
    {20181206u, 0x21d6b7b9db1bb1c4u},
    {20181207u, 0x4657bd85335828b2u},
    {20181208u, 0xafb9e20c85276d6fu},
    {20181209u, 0xc2f85dce069d2198u},
    {20181210u, 0x772aedc9f0ac55dfu},
    {20181211u, 0x9433365bca2556f6u},
    {20181212u, 0x2c4894255d5b1bdcu},
    {20181213u, 0x9297669d794c1b21u},
    {20181214u, 0x2f74d6c6eaabd874u},
    {20181215u, 0xe26da8845e96c21cu},
    {20181216u, 0x16419a642174368eu},
    {20181217u, 0x90f7ffd79cb0348bu},
    {20181218u, 0x1890684bba414093u},
    {20181219u, 0xbccd454839fddd2bu},
    {20181220u, 0x75b571caea610a9cu},
    {20181221u, 0xb2aebbf568c024feu},
    {20181222u, 0x42adfe6b4d79225au},
    {20181223u, 0x976850ee0414ca04u},
    {20181224u, 0x9492d4bf078bf0a6u},
    {20181225u, 0x30f169291a32ffaau},
    {20181226u, 0x14e09a6dafc21dc9u},
    {20181227u, 0x80e97a7071dd8343u},
    {20181228u, 0xcb567e8b9ae5836du},
    {20181229u, 0x82b8156d85a5938du},
    {20181230u, 0x5229abed0f3ca919u},
    {20181231u, 0x3b82fe0531fcb2f6u},
    {20181232u, 0xdc552598d17d4f10u},
    {20181233u, 0x4aca747174a65edeu},
    {20181234u, 0x2853d49582a7b35au},
    {20181235u, 0xa9c263e9859838d3u},
    {20181236u, 0x2bb05a389e3bbf99u},
    {20181237u, 0xd56bb0b6ccc9f29du},
    {20181238u, 0x31ec352fe825d5e1u},
    {20181239u, 0x444d88c01771a01bu},
    {20181240u, 0x2ee810b6f1ad8a49u},
    {20181241u, 0xe539dd3e1c2ce8f2u},
    {20181242u, 0x4676b3948851bb8cu},
    {20181243u, 0x7940cc4d57a9a1ebu},
    {20181244u, 0x4e2d4c57e6c2c992u},
    {20181245u, 0x9a33020ee1e1ce1au},
    {20181246u, 0x521f9e604a37a1ccu},
    {20181247u, 0x4396374dce2383acu},
    {20181248u, 0x7a0b718bec1ee4eau},
    {20181249u, 0x6f6d8df2cf910adfu},
    {20181250u, 0x43854be012f56dbau},
    {20181251u, 0x2d34fed445ac14e6u},
    {20181252u, 0xb0ad4a2a7dc1d367u},
    {20181253u, 0xaa2d010bfa3573efu},
    {20181254u, 0xd6c5703de93fccaau},
    {20181255u, 0xfd51f894a079ff88u},
    {20181256u, 0x7c4eaf5c34f28ad7u},
    {20181257u, 0x1300f288edfc3908u},
    {20181258u, 0xbfd87a2ea57171a2u},
    {20181259u, 0xcb07dffc028643b3u},
    {20181260u, 0x4813a7097c8aa402u},
    {20181261u, 0x32e40e3486990dc9u},
    {20181262u, 0x4eb9223922c9a7deu},
    {20181263u, 0x5aa467f3bbea4b1du},
    {20181264u, 0x002eb75e9eeca9ecu},
};

// 512 servers, p2c, greedy, one constant-rate ResNet50 stream.
constexpr uint64_t k512P2cDigest = 0x0f82412614b81b2bu;

std::string
row(uint64_t seed, uint64_t digest)
{
    char buf[64];
    std::snprintf(buf, sizeof buf, "{%" PRIu64 "u, 0x%016" PRIx64 "u},",
                  seed, digest);
    return buf;
}

TEST(FleetDigestTest, FuzzedShapesReproduceTheScanLoopDigests)
{
    ASSERT_EQ(std::size(kFuzzed), 64u);
    for (size_t i = 0; i < std::size(kFuzzed); ++i) {
        uint64_t seed = kBaseSeed + i;
        ASSERT_EQ(kFuzzed[i].seed, seed);
        FleetShape shape = fuzzedFleetShape(seed);
        auto r = FleetSimulator(shape.cfg).run(shape.models, kRequests,
                                               seed);
        uint64_t got = fleetResultDigest(r);
        EXPECT_EQ(got, kFuzzed[i].digest)
            << shape.description << "\n  got " << row(seed, got);
    }
}

// The table is only as strong as the shapes it pins: every routing,
// both batchings, admission, both autoscaler modes and multi-model
// runs must appear in it.
TEST(FleetDigestTest, FuzzedTableCoversEveryFleetFeature)
{
    std::set<Routing> routings;
    std::set<Batching> batchings;
    bool admission = false, queue_scaler = false, slo_scaler = false,
         multi_model = false;
    for (const Pinned &p : kFuzzed) {
        FleetShape shape = fuzzedFleetShape(p.seed);
        const FleetConfig &cfg = shape.cfg;
        routings.insert(cfg.routing);
        batchings.insert(cfg.batching);
        admission |= cfg.admit_queue > 0;
        if (cfg.autoscaler.enabled) {
            bool slo = cfg.autoscaler.mode ==
                       AutoscalerConfig::Mode::SloLatency;
            slo_scaler |= slo;
            queue_scaler |= !slo;
        }
        multi_model |= shape.models.size() > 1;
    }
    EXPECT_EQ(routings.size(), 3u);
    EXPECT_EQ(batchings.size(), 2u);
    EXPECT_TRUE(admission);
    EXPECT_TRUE(queue_scaler);
    EXPECT_TRUE(slo_scaler);
    EXPECT_TRUE(multi_model);
}

TEST(FleetDigestTest, FiveHundredTwelveServerP2cReproducesItsDigest)
{
    InferenceWorkload w = InferenceWorkload::fromTraining(
        workload::ModelZoo::resnet50());
    FleetConfig cfg;
    cfg.num_servers = 512;
    cfg.routing = Routing::PowerOfTwo;
    cfg.record_requests = true;
    stats::ArrivalConfig arrival;
    arrival.qps = 350000.0;
    auto r = FleetSimulator(cfg).run({{w, arrival}}, 30000, kBaseSeed);
    uint64_t got = fleetResultDigest(r);
    EXPECT_EQ(got, k512P2cDigest) << "got " << row(kBaseSeed, got);
}

} // namespace
} // namespace paichar::testkit
