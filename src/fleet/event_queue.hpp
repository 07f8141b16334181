// Event-driven round close: a per-round buffer of client-completion events
// folded into the round's accounting in one linear pass.
//
// A round pushes one completion event per participating client (training
// elapsed + any straggler delay); closing the round is what the server
// experiences — reports trickling in until either everyone reported or the
// straggler cutoff fires.  The accounting (the last counted arrival and the
// two counts) is a max and two sums, so it needs no ordering at all.  The
// one ordered output, the ids of the timed-out clients, follows the rule
// "ascending timestamp, ties broken by ascending client id": only the
// timed-out events are sorted, so the list is a pure function of the event
// set and any producer order (any worker count, any shard layout) yields
// the same list.
//
// The queue is single-owner by design: one shard (or one fl::Simulation
// round loop) owns one queue and touches it from one task at a time, so no
// synchronization is needed — the same ownership discipline as
// faults::DeviceFaultChannel.
//
// Time is a template parameter: fl::Simulation schedules in double seconds;
// the fleet engine schedules in integer microseconds so cross-shard
// reductions stay associative (see fleet_engine.hpp).
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

namespace bofl::fleet {

/// One "client finished (and its report arrived)" event.
template <typename Time>
struct CompletionEvent {
  Time time{};
  std::uint64_t client = 0;

  /// Arrival order: earliest first, client id breaking ties.
  friend bool operator<(const CompletionEvent& a, const CompletionEvent& b) {
    if (a.time != b.time) {
      return a.time < b.time;
    }
    return a.client < b.client;
  }
  friend bool operator==(const CompletionEvent&,
                         const CompletionEvent&) = default;
};

/// Append-only buffer of one round's completion events.  Its size() before
/// the close is the round's queue depth (the `fleet.event_queue_depth`
/// telemetry histogram samples it once per shard per round).
template <typename Time>
class CompletionQueue {
 public:
  void push(CompletionEvent<Time> event) { events_.push_back(event); }

  [[nodiscard]] bool empty() const { return events_.empty(); }
  [[nodiscard]] std::size_t size() const { return events_.size(); }
  [[nodiscard]] std::span<const CompletionEvent<Time>> events() const {
    return events_;
  }

  /// Drop all events; keeps the buffer's capacity for the next round.
  void clear() { events_.clear(); }

 private:
  std::vector<CompletionEvent<Time>> events_;
};

/// Round-close accounting: the server waits for reports and stops at
/// `cutoff` when one is set.
template <typename Time>
struct RoundClose {
  Time wall{};                ///< last counted arrival (bounded by cutoff)
  std::size_t arrived = 0;    ///< reports within the cutoff
  std::size_t timed_out = 0;  ///< reports past the cutoff
};

/// Fold every event of `queue` into the round-close accounting, then empty
/// the queue: an arrival strictly past `cutoff` counts as timed out and
/// bounds the wall at the cutoff (the server stopped waiting); otherwise the
/// wall advances to the arrival.  With no cutoff the wall is simply the last
/// arrival.  Max + counts are order-independent, so one pass in push order
/// equals the per-client polling loop it replaced, bit for bit.
///
/// When `timed_out_clients` is non-null, the ids of the timed-out clients
/// are appended in (time, client) order (a pure function of the event set,
/// so the list is shard/thread-layout invariant).  The fleet engine uses it
/// to resync those clients' replay cursors: a timed-out report was
/// discarded by the server, so the client retries the SAME trajectory entry
/// at its next selection instead of advancing past work that never counted.
template <typename Time>
[[nodiscard]] RoundClose<Time> close_round(
    CompletionQueue<Time>& queue, std::optional<Time> cutoff,
    std::vector<std::uint64_t>* timed_out_clients = nullptr) {
  RoundClose<Time> close;
  std::vector<CompletionEvent<Time>> late;
  for (const CompletionEvent<Time>& event : queue.events()) {
    if (cutoff.has_value() && event.time > *cutoff) {
      ++close.timed_out;
      close.wall = std::max(close.wall, *cutoff);
      if (timed_out_clients != nullptr) {
        late.push_back(event);
      }
    } else {
      ++close.arrived;
      close.wall = std::max(close.wall, event.time);
    }
  }
  if (timed_out_clients != nullptr) {
    std::sort(late.begin(), late.end());
    for (const CompletionEvent<Time>& event : late) {
      timed_out_clients->push_back(event.client);
    }
  }
  queue.clear();
  return close;
}

}  // namespace bofl::fleet
