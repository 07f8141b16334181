// Process-level resource probes for telemetry gauges.
//
// The fleet engine's flat-memory claim ("O(1) bytes per client beyond the
// SoA shards") is machine-checked by sampling the process's peak resident
// set into the `fleet.peak_rss_bytes` gauge and into the fleet bench JSON.
// Reading /proc (or rusage) is observation only: it consumes no RNG draws
// and no simulated time, so sampling it never perturbs a simulation.
#pragma once

#include <cstdint>

namespace bofl::telemetry {

/// Peak resident set size of this process in bytes (VmHWM from
/// /proc/self/status; falls back to getrusage's ru_maxrss).  Returns 0 when
/// neither source is available.
[[nodiscard]] std::uint64_t peak_rss_bytes();

}  // namespace bofl::telemetry
