// Property tests for fleet::CompletionQueue and close_round (the close is
// the engine's event-driven round close, so the ordering rule and the
// cutoff arithmetic carry the determinism contract).  Three properties:
//   1. The timed-out list is a TOTAL order over the late events — for any
//      push permutation, it equals the sorted event set, with timestamp
//      ties broken by client id (never by arrival order).
//   2. Straggler-cutoff edges clamp exactly: an arrival AT the cutoff
//      counts, one tick past it times out and bounds the wall at the
//      cutoff; the close accounting is a pure function of the event set.
//   3. Queue depth is observability, NOT trace: two fleet runs whose shard
//      layouts produce different queue depths fold to the same trace
//      hash (depth tracks per-shard cohort size, so hashing it would break
//      the layout-invariance contract).
#include <algorithm>
#include <cstdint>
#include <optional>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "device/device_model.hpp"
#include "device/workload.hpp"
#include "fleet/client_shard.hpp"
#include "fleet/event_queue.hpp"
#include "fleet/fleet_engine.hpp"

namespace bofl::fleet {
namespace {

using Event = CompletionEvent<std::uint64_t>;

// Every event's client id, in the order close_round reports them with a
// cutoff below every arrival (all timestamps are >= 1).
std::vector<std::uint64_t> drain(CompletionQueue<std::uint64_t>& queue) {
  std::vector<std::uint64_t> ids;
  (void)close_round(queue, std::optional<std::uint64_t>{0}, &ids);
  return ids;
}

// Property 1: for any of 50 pseudo-random event sets (with deliberate
// timestamp collisions) and any of 20 push permutations each, the
// timed-out list equals std::sort of the set.
TEST(CompletionQueueProperty, DrainIsTotalOrderForAnyPushPermutation) {
  Rng rng(0xC0FFEE);
  for (int set = 0; set < 50; ++set) {
    std::vector<Event> events;
    const std::size_t n = 2 + static_cast<std::size_t>(rng.uniform_index(40));
    for (std::size_t i = 0; i < n; ++i) {
      // Timestamps from a tiny range so ties are common; unique client ids
      // so the expected order is unambiguous.
      events.push_back(Event{1 + rng.uniform_index(8), i});
    }
    std::vector<Event> sorted = events;
    std::sort(sorted.begin(), sorted.end());
    std::vector<std::uint64_t> expected;
    for (const Event& event : sorted) {
      expected.push_back(event.client);
    }

    std::vector<Event> permuted = events;
    for (int perm = 0; perm < 20; ++perm) {
      // Deterministic Fisher–Yates.
      for (std::size_t i = permuted.size(); i > 1; --i) {
        std::swap(permuted[i - 1], permuted[rng.uniform_index(i)]);
      }
      CompletionQueue<std::uint64_t> queue;
      for (const Event& event : permuted) {
        queue.push(event);
      }
      EXPECT_EQ(drain(queue), expected)
          << "set " << set << " permutation " << perm;
    }
  }
}

// Property 2a: the cutoff boundary is inclusive — an arrival exactly AT
// the cutoff is counted, one microsecond later is timed out.
TEST(CompletionQueueProperty, CutoffEdgeIsInclusive) {
  CompletionQueue<std::uint64_t> queue;
  queue.push({100, 1});  // exactly at the cutoff
  queue.push({101, 2});  // one tick past
  queue.push({40, 3});
  std::vector<std::uint64_t> timed_out;
  const RoundClose<std::uint64_t> close =
      close_round(queue, std::optional<std::uint64_t>{100}, &timed_out);
  EXPECT_EQ(close.arrived, 2U);
  EXPECT_EQ(close.timed_out, 1U);
  EXPECT_EQ(close.wall, 100U);  // clamped at the cutoff, not 101
  EXPECT_EQ(timed_out, (std::vector<std::uint64_t>{2}));
}

// Property 2b: when every report beats the cutoff the wall is the last
// arrival (the server never waited out the full cutoff), and with no
// cutoff at all the wall is simply the maximum.
TEST(CompletionQueueProperty, WallIsLastArrivalWithinCutoff) {
  CompletionQueue<std::uint64_t> queue;
  queue.push({7, 1});
  queue.push({3, 2});
  const RoundClose<std::uint64_t> bounded =
      close_round(queue, std::optional<std::uint64_t>{100});
  EXPECT_EQ(bounded.wall, 7U);
  EXPECT_EQ(bounded.timed_out, 0U);

  queue.push({9, 1});
  queue.push({2, 2});
  const RoundClose<std::uint64_t> unbounded =
      close_round(queue, std::optional<std::uint64_t>{});
  EXPECT_EQ(unbounded.wall, 9U);
  EXPECT_EQ(unbounded.arrived, 2U);
}

// Property 2c: the close accounting and the timed-out id list are pure
// functions of the event set — any push permutation, same result.
TEST(CompletionQueueProperty, CloseIsPureFunctionOfEventSet) {
  Rng rng(0xBEEF);
  std::vector<Event> events;
  for (std::size_t i = 0; i < 32; ++i) {
    events.push_back(Event{rng.uniform_index(200), i});
  }
  const std::optional<std::uint64_t> cutoff{120};

  std::optional<RoundClose<std::uint64_t>> reference_close;
  std::vector<std::uint64_t> reference_ids;
  for (int perm = 0; perm < 10; ++perm) {
    for (std::size_t i = events.size(); i > 1; --i) {
      std::swap(events[i - 1], events[rng.uniform_index(i)]);
    }
    CompletionQueue<std::uint64_t> queue;
    for (const Event& event : events) {
      queue.push(event);
    }
    std::vector<std::uint64_t> ids;
    const RoundClose<std::uint64_t> close = close_round(queue, cutoff, &ids);
    if (!reference_close.has_value()) {
      reference_close = close;
      reference_ids = ids;
      continue;
    }
    EXPECT_EQ(close.wall, reference_close->wall) << "permutation " << perm;
    EXPECT_EQ(close.arrived, reference_close->arrived);
    EXPECT_EQ(close.timed_out, reference_close->timed_out);
    EXPECT_EQ(ids, reference_ids) << "timed-out list depends on push order";
  }
}

// Peak-depth bookkeeping: each shard records its queue's size before the
// close as its round's queue_peak, and merging the shards' stats in any
// order keeps the largest — the round's high-water mark.  Fifty rounds of
// random per-shard depths, each merged forwards and backwards.
TEST(CompletionQueueProperty, PeakDepthTracksHighWaterMark) {
  Rng rng(0xDE97);
  std::vector<CompletionQueue<std::uint64_t>> queues(5);
  for (int round = 0; round < 50; ++round) {
    std::vector<ShardRoundStats> shards(queues.size());
    std::uint64_t expected = 0;
    for (std::size_t s = 0; s < queues.size(); ++s) {
      const std::uint64_t pushes = rng.uniform_index(40);
      for (std::uint64_t i = 0; i < pushes; ++i) {
        queues[s].push({1 + rng.uniform_index(8), i});
      }
      shards[s].queue_peak = queues[s].size();
      EXPECT_EQ(shards[s].queue_peak, pushes);
      (void)close_round(queues[s], std::optional<std::uint64_t>{});
      EXPECT_TRUE(queues[s].empty());
      expected = std::max(expected, pushes);
    }
    ShardRoundStats forward;
    for (const ShardRoundStats& shard : shards) {
      forward.merge(shard);
    }
    ShardRoundStats backward;
    for (auto it = shards.rbegin(); it != shards.rend(); ++it) {
      backward.merge(*it);
    }
    EXPECT_EQ(forward.queue_peak, expected) << "round " << round;
    EXPECT_EQ(backward.queue_peak, expected) << "round " << round;
  }
}

// Property 3: shard layout changes the per-shard queue depths (one shard
// holds the whole cohort vs a sliver of it) but NOT the trace hash —
// depth is deliberately excluded from the folded fields.
TEST(CompletionQueueProperty, QueueDepthIsExcludedFromTraceHash) {
  const device::DeviceModel agx = device::jetson_agx();
  FleetConfig base;
  base.num_clients = 4'000;
  base.rounds = 6;
  base.cohort_fraction = 0.05;
  base.seed = 21;
  base.threads = 1;
  base.clusters.push_back({&agx, device::vit_profile(), 1.0});

  FleetConfig one_shard = base;
  one_shard.shards = 1;
  FleetConfig many_shards = base;
  many_shards.shards = 16;
  FleetEngine engine_a(std::move(one_shard));
  FleetEngine engine_b(std::move(many_shards));
  const FleetResult a = engine_a.run();
  const FleetResult b = engine_b.run();

  // One shard sees the whole cohort's events; sixteen see ~1/16 each.
  EXPECT_GT(a.max_queue_depth, b.max_queue_depth);
  EXPECT_EQ(a.trace_hash, b.trace_hash);
  ASSERT_EQ(a.rounds.size(), b.rounds.size());
  for (std::size_t i = 0; i < a.rounds.size(); ++i) {
    EXPECT_EQ(a.rounds[i], b.rounds[i]) << "round " << i;
  }
  // And the free-function fold reproduces the engine's hash from the
  // round list alone — no depth input anywhere in the signature.
  EXPECT_EQ(fold_trace_hash(a.rounds, false), a.trace_hash);
}

}  // namespace
}  // namespace bofl::fleet
