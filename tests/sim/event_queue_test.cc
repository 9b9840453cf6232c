/**
 * @file
 * Tests for the discrete-event queue.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <random>
#include <stdexcept>
#include <vector>

#include "obs/obs.h"
#include "obs/timeline.h"
#include "sim/event_queue.h"

namespace paichar::sim {
namespace {

TEST(EventQueueTest, RunsInTimeOrder)
{
    EventQueue eq;
    std::vector<int> order;
    eq.schedule(2.0, [&] { order.push_back(2); });
    eq.schedule(1.0, [&] { order.push_back(1); });
    eq.schedule(3.0, [&] { order.push_back(3); });
    EXPECT_EQ(eq.pending(), 3u);
    EXPECT_DOUBLE_EQ(eq.run(), 3.0);
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(eq.executed(), 3u);
}

TEST(EventQueueTest, TiesBreakInSchedulingOrder)
{
    EventQueue eq;
    std::vector<int> order;
    for (int i = 0; i < 5; ++i)
        eq.schedule(1.0, [&, i] { order.push_back(i); });
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EventQueueTest, NowAdvancesDuringRun)
{
    EventQueue eq;
    double seen = -1.0;
    eq.schedule(5.0, [&] { seen = eq.now(); });
    eq.run();
    EXPECT_DOUBLE_EQ(seen, 5.0);
    EXPECT_DOUBLE_EQ(eq.now(), 5.0);
}

TEST(EventQueueTest, EventsMayScheduleMoreEvents)
{
    EventQueue eq;
    int fired = 0;
    eq.schedule(1.0, [&] {
        ++fired;
        eq.scheduleAfter(1.0, [&] { ++fired; });
    });
    EXPECT_DOUBLE_EQ(eq.run(), 2.0);
    EXPECT_EQ(fired, 2);
}

TEST(EventQueueTest, RunUntilLeavesLaterEvents)
{
    EventQueue eq;
    int fired = 0;
    eq.schedule(1.0, [&] { ++fired; });
    eq.schedule(10.0, [&] { ++fired; });
    EXPECT_DOUBLE_EQ(eq.runUntil(5.0), 5.0);
    EXPECT_EQ(fired, 1);
    EXPECT_EQ(eq.pending(), 1u);
    // Nothing due: only the clock moves.
    EXPECT_DOUBLE_EQ(eq.runUntil(7.0), 7.0);
    EXPECT_EQ(eq.pending(), 1u);
    eq.run();
    EXPECT_EQ(fired, 2);
}

// While a timeline records, the drain attributes the events run at
// each timestamp to that timestamp's window, and still stops when
// the queue empties.
TEST(EventQueueTest, TimelineCountsEventsPerWindow)
{
    obs::resetMetrics();
    obs::startTimeline(1.0);
    EventQueue eq;
    eq.schedule(0.5, [] {});
    eq.schedule(0.5, [&] { eq.schedule(2.5, [] {}); });
    eq.runUntil(1.5);
    eq.run();
    obs::stopTimeline();

    std::vector<std::pair<double, double>> got;
    for (const obs::TimelineRow &row : obs::timeline()->rows()) {
        if (row.series == "sim.events")
            got.emplace_back(row.end_s, row.value);
    }
    std::vector<std::pair<double, double>> want = {
        {1.0, 2.0}, {2.0, 0.0}, {3.0, 1.0}};
    EXPECT_EQ(got, want);
    EXPECT_EQ(obs::counter("sim.events_executed").value(), 3);
}

TEST(EventQueueTest, EmptyRunReturnsNow)
{
    EventQueue eq;
    EXPECT_DOUBLE_EQ(eq.run(), 0.0);
}

TEST(EventQueueTest, NextEventTimeAndAdvanceTo)
{
    EventQueue eq;
    EXPECT_EQ(eq.nextEventTime(),
              std::numeric_limits<double>::infinity());
    eq.schedule(3.0, [] {});
    EXPECT_DOUBLE_EQ(eq.nextEventTime(), 3.0);
    eq.advanceTo(1.5);
    EXPECT_DOUBLE_EQ(eq.now(), 1.5);
    eq.advanceTo(0.5); // never moves time backwards
    EXPECT_DOUBLE_EQ(eq.now(), 1.5);
    eq.run();
    EXPECT_DOUBLE_EQ(eq.now(), 3.0);
}

TEST(EventQueueTest, NonFiniteTimesThrow)
{
    EventQueue eq;
    double nan = std::numeric_limits<double>::quiet_NaN();
    double inf = std::numeric_limits<double>::infinity();
    EXPECT_THROW(eq.schedule(nan, [] {}), std::invalid_argument);
    EXPECT_THROW(eq.schedule(inf, [] {}), std::invalid_argument);
    EXPECT_THROW(eq.scheduleAfter(nan, [] {}),
                 std::invalid_argument);
    EXPECT_EQ(eq.pending(), 0u);
}

// Past-time schedules must clamp to now() and be counted — not
// rewrite history for already-ordered events (the seed engine's
// const_cast/pop hack made this path easy to get wrong).
TEST(EventQueueTest, PastEventsClampToNowAndAreCounted)
{
    obs::resetMetrics();
    EventQueue eq;
    std::vector<double> fired_at;
    eq.schedule(5.0, [&] {
        eq.schedule(1.0, [&] { fired_at.push_back(eq.now()); });
        eq.scheduleAfter(-2.0,
                         [&] { fired_at.push_back(eq.now()); });
    });
    eq.schedule(6.0, [&] { fired_at.push_back(eq.now()); });
    eq.run();
    ASSERT_EQ(fired_at.size(), 3u);
    EXPECT_DOUBLE_EQ(fired_at[0], 5.0); // clamped, fires "now"
    EXPECT_DOUBLE_EQ(fired_at[1], 5.0);
    EXPECT_DOUBLE_EQ(fired_at[2], 6.0);
    EXPECT_EQ(obs::counter("sim.past_events_clamped").value(), 2);
}

// The sim.time_us gauge: exact in range, saturating (not UB) when
// the simulated time in microseconds exceeds int64.
TEST(EventQueueTest, SimTimeGaugeIsExactAndSaturates)
{
    obs::resetMetrics();
    {
        EventQueue eq;
        eq.schedule(2.5, [] {});
        eq.run();
        EXPECT_EQ(obs::gauge("sim.time_us").value(), 2500000);
    }
    {
        EventQueue eq;
        eq.schedule(1e300, [] {});
        eq.run();
        EXPECT_EQ(obs::gauge("sim.time_us").value(),
                  std::numeric_limits<int64_t>::max());
    }
}

// Randomized battering ram: the arena + calendar-queue engine must
// agree event-for-event with a trivially correct reference (stable
// sort by time = (when, insertion order)), including under
// interleaved partial drains and re-scheduling from callbacks.
TEST(EventQueueTest, RandomizedOrderMatchesReferenceSort)
{
    for (uint64_t seed : {1u, 7u, 1234u}) {
        SCOPED_TRACE("seed " + std::to_string(seed));
        std::mt19937_64 rng(seed);
        std::uniform_real_distribution<double> dist(0.0, 1000.0);

        EventQueue eq;
        std::vector<std::pair<double, int>> expected;
        std::vector<int> got;
        int next_id = 0;
        for (int i = 0; i < 5000; ++i) {
            double when = dist(rng);
            int id = next_id++;
            expected.emplace_back(when, id);
            eq.schedule(when, [&, id] { got.push_back(id); });
        }
        // Partial drains at a few cut points, then events that
        // schedule follow-ups past the current time.
        eq.runUntil(250.0);
        eq.runUntil(500.0);
        for (int i = 0; i < 500; ++i) {
            double when = 500.0 + dist(rng) / 2.0;
            int id = next_id++;
            expected.emplace_back(when, id);
            eq.schedule(when, [&, id] {
                got.push_back(id);
                double child = eq.now() + 1.0;
                int cid = next_id++;
                expected.emplace_back(child, cid);
                eq.schedule(child,
                            [&, cid] { got.push_back(cid); });
            });
        }
        eq.run();

        std::stable_sort(expected.begin(), expected.end(),
                         [](const auto &a, const auto &b) {
                             return a.first < b.first;
                         });
        std::vector<int> want;
        want.reserve(expected.size());
        for (const auto &[when, id] : expected)
            want.push_back(id);
        ASSERT_EQ(got.size(), want.size());
        EXPECT_EQ(got, want);
        EXPECT_EQ(eq.executed(), want.size());
        EXPECT_EQ(eq.pending(), 0u);
    }
}

} // namespace
} // namespace paichar::sim
