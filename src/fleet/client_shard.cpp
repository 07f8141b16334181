#include "fleet/client_shard.hpp"

#include <algorithm>

namespace bofl::fleet {

void FleetRoundStats::merge(const FleetRoundStats& other) {
  energy_uj += other.energy_uj;
  mbo_energy_uj += other.mbo_energy_uj;
  busy_us += other.busy_us;
  wall_us = std::max(wall_us, other.wall_us);
  deadline_ref_us = std::max(deadline_ref_us, other.deadline_ref_us);
  participants += other.participants;
  dropped += other.dropped;
  missed += other.missed;
  stragglers += other.stragglers;
  timed_out += other.timed_out;
  phase1 += other.phase1;
  phase2 += other.phase2;
  phase3 += other.phase3;
  active_clients += other.active_clients;
  departed += other.departed;
  rejoined += other.rejoined;
  resets += other.resets;
  battery_blocked += other.battery_blocked;
}

void ShardRoundStats::merge(const ShardRoundStats& other) {
  FleetRoundStats::merge(other);
  queue_peak = std::max(queue_peak, other.queue_peak);
}

ClientShard::ClientShard(runtime::ShardRange range) : range_(range) {
  const std::size_t n = range_.size();
  cluster.resize(n, 0);
  participations.resize(n, 0);
  rng_cursor.resize(n, 0);
}

std::uint64_t ClientShard::soa_bytes() const {
  return static_cast<std::uint64_t>(
      cluster.capacity() * sizeof(std::uint16_t) +
      participations.capacity() * sizeof(std::uint32_t) +
      rng_cursor.capacity() * sizeof(std::uint32_t) +
      speed.capacity() * sizeof(double) +
      active.capacity() * sizeof(std::uint8_t) +
      battery_uj.capacity() * sizeof(std::uint64_t));
}

}  // namespace bofl::fleet
