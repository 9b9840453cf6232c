/**
 * @file
 * Exact differential of the timeline's row storage and exporters.
 *
 * `RefTimeline` below re-implements the timeline as it was before
 * rows viewed probe-owned names: every row owns a `std::string`
 * copy of its series name (quantile names built per row), and the
 * CSV exporter formats `end_s` for every row. Fuzzed probe streams
 * drive it and `obs::Timeline` side by side; rows, CSV and JSON must
 * agree ==-exactly (doubles by bit pattern, text byte for byte).
 *
 * A 4k-job scheduler run's CSV and JSON are also pinned to digests
 * recorded from the per-row-string implementation. On a mismatch the
 * test prints the digest it got.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cinttypes>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <map>
#include <memory>
#include <random>
#include <string>
#include <string_view>
#include <vector>

#include "clustersim/scheduler.h"
#include "core/analytical_model.h"
#include "hw/hardware_config.h"
#include "obs/json_util.h"
#include "obs/timeline.h"
#include "testkit/digest.h"
#include "trace/synthetic_cluster.h"

namespace paichar::obs {
namespace {

/** The per-row-string timeline, kept here as the oracle. */
class RefTimeline
{
  public:
    enum Kind
    {
        kLevel,
        kRate,
        kQuantile,
    };

    struct Row
    {
        double end_s;
        std::string series;
        double value;
    };

    struct Slot
    {
        Kind kind = kLevel;
        int64_t start_window = 0;
        bool level_emitted = false;
        bool seen = false;
        double level = 0.0;
        double rate = 0.0;
        std::vector<double> samples;
    };

    explicit RefTimeline(double interval) : interval_(interval) {}

    Slot &
    slot(const std::string &name, Kind kind)
    {
        auto it = slots_.find(name);
        if (it == slots_.end()) {
            it = slots_.emplace(name, std::make_unique<Slot>()).first;
            it->second->kind = kind;
            it->second->start_window = next_window_;
        }
        return *it->second;
    }

    void
    advanceTo(double t)
    {
        if (finalized_)
            return;
        while (windowEnd() <= t)
            closeWindow();
        if (t > windowStart())
            touched_ = true;
    }

    void
    finalize()
    {
        if (finalized_)
            return;
        bool pending = touched_;
        for (const auto &[name, s] : slots_) {
            (void)name;
            if (pending)
                break;
            switch (s->kind) {
            case kLevel:
                pending = s->seen && !s->level_emitted;
                break;
            case kRate:
                pending = s->rate != 0.0;
                break;
            default:
                pending = !s->samples.empty();
                break;
            }
        }
        if (pending)
            closeWindow();
        finalized_ = true;
    }

    const std::vector<Row> &rows() const { return rows_; }

    std::string
    renderCsv() const
    {
        std::string out = "# paichar timeline v1 interval_s ";
        appendJsonNumber(out, interval_);
        out += "\nend_s,series,value\n";
        for (const auto &row : rows_) {
            appendJsonNumber(out, row.end_s);
            out += ',';
            out += row.series;
            out += ',';
            appendJsonNumber(out, row.value);
            out += '\n';
        }
        return out;
    }

    std::string
    renderJson() const
    {
        std::map<std::string, std::vector<const Row *>> by_series;
        for (const auto &row : rows_)
            by_series[row.series].push_back(&row);
        std::string out = "{\"schema\":\"";
        out += kTimelineSchema;
        out += "\",\"interval_s\":";
        appendJsonNumber(out, interval_);
        out += ",\"series\":[";
        bool first_series = true;
        for (const auto &[name, points] : by_series) {
            if (!first_series)
                out += ',';
            first_series = false;
            out += "{\"name\":\"";
            appendJsonEscaped(out, name);
            out += "\",\"points\":[";
            for (size_t i = 0; i < points.size(); ++i) {
                if (i)
                    out += ',';
                out += '[';
                appendJsonNumber(out, points[i]->end_s);
                out += ',';
                appendJsonNumber(out, points[i]->value);
                out += ']';
            }
            out += "]}";
        }
        out += "]}\n";
        return out;
    }

  private:
    static double
    nearestRank(std::vector<double> samples, double q)
    {
        std::sort(samples.begin(), samples.end());
        size_t n = samples.size();
        auto rank = static_cast<size_t>(
            std::ceil(q * static_cast<double>(n)));
        rank = std::clamp<size_t>(rank, 1, n);
        return samples[rank - 1];
    }

    double
    windowStart() const
    {
        return interval_ * static_cast<double>(next_window_);
    }

    double
    windowEnd() const
    {
        return interval_ * static_cast<double>(next_window_ + 1);
    }

    void
    closeWindow()
    {
        double end = windowEnd();
        for (auto &[name, s] : slots_) {
            switch (s->kind) {
            case kLevel:
                if (!s->seen)
                    break;
                rows_.push_back({end, name, s->level});
                s->level_emitted = true;
                break;
            case kRate:
                if (next_window_ < s->start_window)
                    break;
                rows_.push_back({end, name, s->rate});
                s->rate = 0.0;
                break;
            default:
                if (next_window_ < s->start_window)
                    break;
                rows_.push_back({end, name + ".count",
                                 static_cast<double>(s->samples.size())});
                if (!s->samples.empty()) {
                    rows_.push_back(
                        {end, name + ".p50", nearestRank(s->samples, 0.50)});
                    rows_.push_back(
                        {end, name + ".p99", nearestRank(s->samples, 0.99)});
                }
                s->samples.clear();
                break;
            }
        }
        ++next_window_;
        touched_ = false;
    }

    double interval_;
    int64_t next_window_ = 0;
    bool touched_ = false;
    bool finalized_ = false;
    std::map<std::string, std::unique_ptr<Slot>> slots_;
    std::vector<Row> rows_;
};

/**
 * Probe names: short ones inside the small-string buffer, long ones
 * outside it, and "lat.count", which collides with the rows of the
 * quantile "lat" when the stream makes "lat" a quantile.
 */
const char *const kNames[] = {
    "a",
    "lat",
    "lat.count",
    "clustersim.pending_jobs",
    "inference.fleet.latency_us",
    "sim.events",
    "zz.very.long.series.name.beyond.sso",
    "q",
};

const double kIntervals[] = {0.1, 0.25, 1.0, 2.5, 10.0};

/** One fuzzed stream applied to both implementations in lockstep. */
struct Pair
{
    explicit Pair(double interval) : tl(interval), ref(interval) {}

    Timeline tl;
    RefTimeline ref;
    /** Kind each name was registered as (-1 = not yet). */
    int kind[std::size(kNames)] = {-1, -1, -1, -1, -1, -1, -1, -1};
};

/** Values that stress number spelling: signed zeros, tiny, huge. */
double
drawValue(std::mt19937_64 &rng, bool finite_only)
{
    switch (rng() % 10) {
    case 0:
        return 0.0;
    case 1:
        return -0.0;
    case 2:
        return 1e-9 * static_cast<double>(rng() % 1000);
    case 3:
        return 1e300;
    case 4:
        return -static_cast<double>(rng() % 100) - 0.5;
    case 5:
        return finite_only ? 7.0
                           : std::numeric_limits<double>::infinity();
    default:
        return static_cast<double>(rng() % 100000) / 8.0;
    }
}

void
runStream(uint64_t seed, Pair &p, std::mt19937_64 &rng)
{
    const double interval =
        kIntervals[seed % std::size(kIntervals)];
    double now = 0.0;
    int ops = 20 + static_cast<int>(rng() % 400);
    for (int op = 0; op < ops; ++op) {
        size_t n = rng() % std::size(kNames);
        const std::string name = kNames[n];
        uint64_t pick = rng() % 100;
        if (pick < 45) {
            // Record into a probe, registering it first if needed:
            // probes appear at any point of the run.
            if (p.kind[n] < 0)
                p.kind[n] = static_cast<int>(rng() % 3);
            switch (p.kind[n]) {
            case RefTimeline::kLevel: {
                double v = drawValue(rng, false);
                p.tl.level(name).set(v);
                auto &s = p.ref.slot(name, RefTimeline::kLevel);
                s.level = v;
                s.seen = true;
                break;
            }
            case RefTimeline::kRate: {
                double v = drawValue(rng, true);
                p.tl.rate(name).add(v);
                p.ref.slot(name, RefTimeline::kRate).rate += v;
                break;
            }
            default: {
                int k = 1 + static_cast<int>(rng() % 5);
                for (int i = 0; i < k; ++i) {
                    double v = drawValue(rng, true);
                    p.tl.quantile(name).observe(v);
                    p.ref.slot(name, RefTimeline::kQuantile)
                        .samples.push_back(v);
                }
                break;
            }
            }
        } else if (pick < 55) {
            // Register without recording.
            if (p.kind[n] < 0) {
                p.kind[n] = static_cast<int>(rng() % 3);
                auto kind = static_cast<RefTimeline::Kind>(p.kind[n]);
                if (kind == RefTimeline::kLevel)
                    p.tl.level(name);
                else if (kind == RefTimeline::kRate)
                    p.tl.rate(name);
                else
                    p.tl.quantile(name);
                p.ref.slot(name, kind);
            }
        } else {
            // Advance: exactly onto a window boundary, inside a
            // window, several windows ahead, or backwards (ignored).
            double t = now;
            switch (rng() % 5) {
            case 0:
                t = interval * std::floor(now / interval + 1.0);
                break;
            case 1:
                t = interval *
                    static_cast<double>(
                        static_cast<int64_t>(now / interval) +
                        static_cast<int64_t>(rng() % 6));
                break;
            case 2:
                t = now + interval * static_cast<double>(rng() % 997) /
                              331.0;
                break;
            case 3:
                t = now - interval * 2.5;
                break;
            default:
                break;
            }
            now = std::max(now, t);
            p.tl.advanceTo(t);
            p.ref.advanceTo(t);
        }
    }
    switch (rng() % 4) {
    case 0:
        // Never finalized: the rows stop at the last closed window.
        break;
    case 1:
        // Finalize twice, then record and advance: all ignored.
        p.tl.finalize();
        p.ref.finalize();
        p.tl.finalize();
        p.ref.finalize();
        p.tl.advanceTo(now + 10.0 * interval);
        p.ref.advanceTo(now + 10.0 * interval);
        break;
    default:
        p.tl.finalize();
        p.ref.finalize();
        break;
    }
}

TEST(TimelineDiffTest, FuzzedStreamsMatchThePerRowStringTimeline)
{
    constexpr uint64_t kBaseSeed = 20181201;
    size_t total_rows = 0;
    for (uint64_t i = 0; i < 400; ++i) {
        uint64_t seed = kBaseSeed + i;
        std::mt19937_64 rng(seed);
        Pair p(kIntervals[seed % std::size(kIntervals)]);
        runStream(seed, p, rng);

        const auto &got = p.tl.rows();
        const auto &want = p.ref.rows();
        ASSERT_EQ(got.size(), want.size()) << "seed " << seed;
        for (size_t r = 0; r < got.size(); ++r) {
            ASSERT_EQ(std::bit_cast<uint64_t>(got[r].end_s),
                      std::bit_cast<uint64_t>(want[r].end_s))
                << "seed " << seed << " row " << r;
            ASSERT_EQ(got[r].series, want[r].series)
                << "seed " << seed << " row " << r;
            ASSERT_EQ(std::bit_cast<uint64_t>(got[r].value),
                      std::bit_cast<uint64_t>(want[r].value))
                << "seed " << seed << " row " << r;
        }
        ASSERT_EQ(p.tl.renderCsv(), p.ref.renderCsv()) << "seed " << seed;
        ASSERT_EQ(p.tl.renderJson(), p.ref.renderJson())
            << "seed " << seed;
        total_rows += got.size();
    }
    // The streams must actually exercise the exporters.
    EXPECT_GT(total_rows, 10000u);
}

uint64_t
textDigest(std::string_view text)
{
    testkit::Fnv1a h;
    for (unsigned char c : text)
        h.mix(c);
    h.mixi(static_cast<int64_t>(text.size()));
    return h.value();
}

/**
 * The schedule_spf shape at 4k jobs with the timeline on: a
 * synthetic PAI trace at 1000 jobs/h on 64 servers, half NVLink,
 * first-fit, 10 s windows.
 */
void
recordSchedulerTimeline(clustersim::Policy policy, std::string &csv,
                        std::string &json)
{
    constexpr uint64_t kSeed = 20181201;
    auto jobs = trace::SyntheticClusterGenerator(kSeed).generate(4000);
    clustersim::SchedulerConfig cfg;
    cfg.num_servers = 64;
    cfg.nvlink_fraction = 0.5;
    cfg.policy = policy;
    cfg.record_job_log = false;
    for (auto &j : jobs)
        j.num_cnodes = std::min(j.num_cnodes, cfg.num_servers);
    auto requests =
        clustersim::poissonRequests(jobs, 1000.0, 2000.0, 1.2, kSeed);
    core::AnalyticalModel model(hw::paiCluster());
    startTimeline(10.0);
    clustersim::ClusterScheduler(cfg, model).run(std::move(requests));
    stopTimeline();
    csv = renderTimelineCsv();
    json = renderTimelineJson();
    // Leave no recorded rows behind for later tests.
    startTimeline(10.0);
    stopTimeline();
}

std::string
hex(uint64_t v)
{
    char buf[32];
    std::snprintf(buf, sizeof buf, "0x%016" PRIx64 "u", v);
    return buf;
}

TEST(TimelineDiffTest, SchedulerRunMatchesPinnedDigests)
{
    struct Pinned
    {
        clustersim::Policy policy;
        uint64_t csv;
        uint64_t json;
    };
    // Recorded from the per-row-string timeline.
    constexpr Pinned kPinned[] = {
        {clustersim::Policy::Fifo, 0x76fe9785999d7bb9u,
         0x41eca76058ada2c4u},
        {clustersim::Policy::SpfPreempt, 0x6275276ddbbfdb8fu,
         0xd3f4a7122bca634du},
    };
    for (const Pinned &p : kPinned) {
        std::string csv, json;
        recordSchedulerTimeline(p.policy, csv, json);
        EXPECT_GT(csv.size(), 100000u);
        EXPECT_EQ(hex(textDigest(csv)), hex(p.csv))
            << clustersim::toString(p.policy) << " csv";
        EXPECT_EQ(hex(textDigest(json)), hex(p.json))
            << clustersim::toString(p.policy) << " json";
    }
}

} // namespace
} // namespace paichar::obs
