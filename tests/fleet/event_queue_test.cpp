#include "fleet/event_queue.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <optional>
#include <vector>

namespace bofl::fleet {
namespace {

using Event = CompletionEvent<std::uint64_t>;

// The ids close_round reports as timed out when the cutoff lies below every
// arrival, i.e. the whole event set in the close's (time, client) order.
std::vector<std::uint64_t> timed_out_order(
    const std::vector<Event>& pushes) {
  CompletionQueue<std::uint64_t> queue;
  for (const Event& event : pushes) {
    queue.push(event);
  }
  std::vector<std::uint64_t> ids;
  const RoundClose<std::uint64_t> close =
      close_round(queue, std::optional<std::uint64_t>{0}, &ids);
  EXPECT_EQ(close.timed_out, pushes.size());
  EXPECT_TRUE(queue.empty());
  return ids;
}

// The oracle: the client ids of std::sort over the event set.
std::vector<std::uint64_t> sorted_ids(std::vector<Event> events) {
  std::sort(events.begin(), events.end());
  std::vector<std::uint64_t> ids;
  for (const Event& event : events) {
    ids.push_back(event.client);
  }
  return ids;
}

TEST(CompletionQueue, DrainsInTimestampOrder) {
  const std::vector<Event> events{{30, 1}, {10, 2}, {20, 3}};
  EXPECT_EQ(timed_out_order(events), sorted_ids(events));
  EXPECT_EQ(timed_out_order(events), (std::vector<std::uint64_t>{2, 3, 1}));
}

TEST(CompletionQueue, BreaksTimestampTiesByClientId) {
  const std::vector<Event> events{{5, 42}, {5, 7}, {5, 19}};
  EXPECT_EQ(timed_out_order(events), sorted_ids(events));
  EXPECT_EQ(timed_out_order(events),
            (std::vector<std::uint64_t>{7, 19, 42}));
}

TEST(CompletionQueue, DrainOrderIndependentOfPushOrder) {
  const std::vector<Event> events{{7, 3}, {1, 9}, {7, 1}, {4, 4}, {1, 2}};
  const std::vector<Event> backward(events.rbegin(), events.rend());
  EXPECT_EQ(timed_out_order(events), timed_out_order(backward));
  EXPECT_EQ(timed_out_order(events), sorted_ids(events));
}

TEST(CompletionQueue, TracksPeakDepthAcrossRounds) {
  // A round's depth is the queue's size before the close; the close empties
  // the queue, so the next round's depth starts from zero again and the
  // high-water mark is the max over the rounds' depths.
  CompletionQueue<std::uint64_t> queue;
  std::uint64_t peak = 0;
  const std::vector<std::uint64_t> pushes_per_round{3, 1, 5, 0, 2};
  for (const std::uint64_t pushes : pushes_per_round) {
    for (std::uint64_t i = 0; i < pushes; ++i) {
      queue.push({i + 1, i});
    }
    EXPECT_EQ(queue.size(), pushes);  // no carry-over from the last round
    peak = std::max<std::uint64_t>(peak, queue.size());
    const RoundClose<std::uint64_t> close =
        close_round(queue, std::optional<std::uint64_t>{});
    EXPECT_EQ(close.arrived, pushes);
    EXPECT_EQ(queue.size(), 0u);
    EXPECT_TRUE(queue.empty());
  }
  EXPECT_EQ(peak, 5u);
  queue.push({1, 1});
  queue.clear();
  EXPECT_TRUE(queue.empty());
}

TEST(CloseRound, NoCutoffWaitsForLastArrival) {
  CompletionQueue<std::uint64_t> queue;
  queue.push({100, 1});
  queue.push({250, 2});
  queue.push({50, 3});
  const RoundClose<std::uint64_t> close =
      close_round(queue, std::optional<std::uint64_t>{});
  EXPECT_EQ(close.wall, 250u);
  EXPECT_EQ(close.arrived, 3u);
  EXPECT_EQ(close.timed_out, 0u);
  EXPECT_TRUE(queue.empty());
}

TEST(CloseRound, ArrivalPastCutoffTimesOutAndBoundsWall) {
  CompletionQueue<std::uint64_t> queue;
  queue.push({100, 1});
  queue.push({900, 2});  // straggler: past the cutoff
  queue.push({150, 3});
  const RoundClose<std::uint64_t> close =
      close_round(queue, std::optional<std::uint64_t>{200});
  EXPECT_EQ(close.arrived, 2u);
  EXPECT_EQ(close.timed_out, 1u);
  EXPECT_EQ(close.wall, 200u);  // the server stopped waiting at the cutoff
}

TEST(CloseRound, ArrivalExactlyAtCutoffStillCounts) {
  // The cutoff is inclusive: only strictly-later arrivals time out (same
  // comparison as the fl::Simulation accounting this replaced).
  CompletionQueue<std::uint64_t> queue;
  queue.push({200, 1});
  const RoundClose<std::uint64_t> close =
      close_round(queue, std::optional<std::uint64_t>{200});
  EXPECT_EQ(close.arrived, 1u);
  EXPECT_EQ(close.timed_out, 0u);
  EXPECT_EQ(close.wall, 200u);
}

TEST(CloseRound, EmptyQueueClosesAtZero) {
  CompletionQueue<double> queue;
  const RoundClose<double> close =
      close_round(queue, std::optional<double>{1.5});
  EXPECT_EQ(close.wall, 0.0);
  EXPECT_EQ(close.arrived, 0u);
  EXPECT_EQ(close.timed_out, 0u);
}

TEST(CloseRound, DoubleTimeMatchesPollingSemantics) {
  // fl::Simulation's arrival loop, re-expressed: max over counted arrivals,
  // strictly-late reports clamp the wall to the cutoff.
  CompletionQueue<double> queue;
  queue.push({1.25, 0});
  queue.push({3.5, 1});
  queue.push({2.0, 2});
  const RoundClose<double> close =
      close_round(queue, std::optional<double>{2.5});
  EXPECT_DOUBLE_EQ(close.wall, 2.5);
  EXPECT_EQ(close.arrived, 2u);
  EXPECT_EQ(close.timed_out, 1u);
}

}  // namespace
}  // namespace bofl::fleet
