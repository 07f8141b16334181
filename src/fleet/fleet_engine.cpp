#include "fleet/fleet_engine.hpp"

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <functional>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "priors/handshake.hpp"
#include "telemetry/process.hpp"

namespace bofl::fleet {

namespace {

// RNG domain tags (DESIGN.md §6f).  Every stochastic fleet decision hashes
// (seed ^ domain, ids) through stream_seed, so the domains are mutually
// independent substreams of one fleet seed and none of them depends on the
// shard layout or worker count.
constexpr std::uint64_t kClusterDomain = 0xF1EE7'05A1'7ED5ULL;  // client→cluster
constexpr std::uint64_t kSelectDomain = 0xF1EE7'5E1E'C7EDULL;   // cohort draw
constexpr std::uint64_t kSpeedDomain = 0xF1EE7'5B33'D000ULL;    // heterogeneity
constexpr std::uint64_t kJitterDomain = 0xF1EE7'01'77E2ULL;     // round noise
// Fleet-scenario churn domains.  Bases mix the fleet seed with the
// scenario's own seed (stream_seed, like FaultInjector) so the same spec
// replays under any fleet seed and two specs never share draws.
constexpr std::uint64_t kLeaveDomain = 0xF1EE7'1EAF'E000ULL;   // churn: leave
constexpr std::uint64_t kRejoinDomain = 0xF1EE7'4E01'0123ULL;  // churn: re-join
constexpr std::uint64_t kResetDomain = 0xF1EE7'4E5E'7777ULL;   // churn: reset

/// Uniform double in [0, 1) from a pure hash — no generator state.
[[nodiscard]] double hash_unit(const StreamHash& base, std::uint64_t stream) {
  return static_cast<double>(base(stream) >> 11) * 0x1.0p-53;
}

[[nodiscard]] std::uint64_t scale_us(std::uint64_t quantized, double factor) {
  return factor == 1.0 ? quantized
                       : static_cast<std::uint64_t>(std::llround(
                             static_cast<double>(quantized) * factor));
}

constexpr std::uint64_t kFnvOffset = 1469598103934665603ULL;
constexpr std::uint64_t kFnvPrime = 1099511628211ULL;

void fnv_fold(std::uint64_t& hash, std::uint64_t value) {
  for (int byte = 0; byte < 8; ++byte) {
    hash ^= (value >> (8 * byte)) & 0xFFU;
    hash *= kFnvPrime;
  }
}

void fold_round(std::uint64_t& hash, const FleetRoundStats& stats,
                bool scenario_fields) {
  fnv_fold(hash, static_cast<std::uint64_t>(stats.round));
  fnv_fold(hash, stats.energy_uj);
  fnv_fold(hash, stats.mbo_energy_uj);
  fnv_fold(hash, stats.busy_us);
  fnv_fold(hash, stats.wall_us);
  fnv_fold(hash, stats.deadline_ref_us);
  fnv_fold(hash, stats.participants);
  fnv_fold(hash, stats.dropped);
  fnv_fold(hash, stats.missed);
  fnv_fold(hash, stats.stragglers);
  fnv_fold(hash, stats.timed_out);
  fnv_fold(hash, stats.phase1);
  fnv_fold(hash, stats.phase2);
  fnv_fold(hash, stats.phase3);
  if (scenario_fields) {
    // Scenario-free traces keep the historical field set, so the golden
    // hash pinned before scenarios existed stays valid.
    fnv_fold(hash, stats.active_clients);
    fnv_fold(hash, stats.departed);
    fnv_fold(hash, stats.rejoined);
    fnv_fold(hash, stats.resets);
    fnv_fold(hash, stats.battery_blocked);
  }
}

/// Sums one per-round quantity over `rounds`, in round order.
template <typename Sum, typename Field>
[[nodiscard]] Sum sum_rounds(const std::vector<FleetRoundStats>& rounds,
                             Field field) {
  Sum sum{};
  for (const FleetRoundStats& stats : rounds) {
    sum += std::invoke(field, stats);
  }
  return sum;
}

/// The share of `result`'s participations that `field` counts.
template <typename Field>
[[nodiscard]] double participation_share(const FleetResult& result,
                                         Field field) {
  const std::uint64_t total = result.total_participants();
  return total == 0 ? 0.0
                    : static_cast<double>(sum_rounds<std::uint64_t>(
                          result.rounds, field)) /
                          static_cast<double>(total);
}

}  // namespace

std::uint64_t fold_trace_hash(const std::vector<FleetRoundStats>& rounds,
                              bool scenario_fields) {
  std::uint64_t hash = kFnvOffset;
  for (const FleetRoundStats& stats : rounds) {
    fold_round(hash, stats, scenario_fields);
  }
  return hash;
}

double FleetResult::total_energy_j() const {
  return sum_rounds<double>(rounds, &FleetRoundStats::energy_j);
}

double FleetResult::total_mbo_energy_j() const {
  return sum_rounds<double>(rounds, &FleetRoundStats::mbo_energy_j);
}

std::uint64_t FleetResult::total_participants() const {
  return sum_rounds<std::uint64_t>(rounds, &FleetRoundStats::participants);
}

double FleetResult::miss_rate() const {
  return participation_share(*this, &FleetRoundStats::missed);
}

double FleetResult::timeout_rate() const {
  return participation_share(*this, &FleetRoundStats::timed_out);
}

std::uint64_t FleetResult::total_departed() const {
  return sum_rounds<std::uint64_t>(rounds, &FleetRoundStats::departed);
}

std::uint64_t FleetResult::total_rejoined() const {
  return sum_rounds<std::uint64_t>(rounds, &FleetRoundStats::rejoined);
}

std::uint64_t FleetResult::total_resets() const {
  return sum_rounds<std::uint64_t>(rounds, &FleetRoundStats::resets);
}

std::uint64_t FleetResult::total_battery_blocked() const {
  return sum_rounds<std::uint64_t>(rounds, &FleetRoundStats::battery_blocked);
}

double FleetResult::bytes_per_client() const {
  return num_clients == 0 ? 0.0
                          : static_cast<double>(soa_bytes) /
                                static_cast<double>(num_clients);
}

double FleetResult::phase3_fraction() const {
  return participation_share(*this, &FleetRoundStats::phase3);
}

FleetEngine::FleetEngine(FleetConfig config) : config_(std::move(config)) {
  BOFL_REQUIRE(config_.num_clients > 0, "fleet needs at least one client");
  BOFL_REQUIRE(config_.rounds >= 0, "fleet round count must be >= 0");
  BOFL_REQUIRE(
      config_.cohort_fraction > 0.0 && config_.cohort_fraction <= 1.0,
      "cohort fraction must be in (0, 1]");
  BOFL_REQUIRE(
      std::isfinite(config_.straggler_timeout) &&
          config_.straggler_timeout >= 0.0,
      "straggler timeout must be finite and >= 0");
  BOFL_REQUIRE(config_.heterogeneity_cv >= 0.0 && config_.round_noise_cv >= 0.0,
               "noise CVs must be >= 0");

  specs_ = config_.clusters;
  if (specs_.empty()) {
    owned_models_.push_back(device::jetson_agx());
    specs_.push_back(
        ClusterSpec{&owned_models_.front(), device::vit_profile(), 1.0});
  }
  BOFL_REQUIRE(specs_.size() <= 0xFFFF,
               "cluster index must fit the SoA u16 column");
  double total_weight = 0.0;
  for (const ClusterSpec& spec : specs_) {
    BOFL_REQUIRE(spec.weight > 0.0, "cluster weights must be positive");
    total_weight += spec.weight;
  }
  double cumulative = 0.0;
  cluster_cdf_.reserve(specs_.size());
  for (const ClusterSpec& spec : specs_) {
    cumulative += spec.weight / total_weight;
    cluster_cdf_.push_back(cumulative);
  }
  cluster_cdf_.back() = 1.0;  // absorb rounding; hash_unit() is always < 1

  const faults::FleetScenario* scenario =
      config_.scenario.has_value() ? &*config_.scenario : nullptr;
  if (scenario != nullptr) {
    scenario->validate();
    for (const faults::TaskSwitchSpec& ts : scenario->task_switches) {
      BOFL_REQUIRE(ts.cluster < static_cast<std::int64_t>(specs_.size()),
                   "task switch targets a cluster the mix does not have");
    }
    BOFL_REQUIRE(
        scenario->fault_plan.empty() || !config_.fault_plan.has_value(),
        "pass faults either inside the scenario or via fault_plan, not both");
    if (!scenario->fault_plan.empty()) {
      config_.fault_plan = scenario->fault_plan;
    }
    if (scenario->battery.enabled()) {
      battery_capacity_uj_ = static_cast<std::uint64_t>(
          std::llround(scenario->battery.capacity_j * 1e6));
      battery_recharge_uj_ = static_cast<std::uint64_t>(
          std::llround(scenario->battery.recharge_j_per_round * 1e6));
      battery_watermark_uj_ = static_cast<std::uint64_t>(std::llround(
          scenario->battery.resume_fraction * scenario->battery.capacity_j *
          1e6));
    }
  }
  if (config_.fault_plan.has_value()) {
    injector_.emplace(*config_.fault_plan, config_.seed);
  }
  cache_ = std::make_unique<ilp::ScheduleCache>();
  const faults::FaultInjector* injector =
      injector_.has_value() ? &*injector_ : nullptr;
  clusters_.reserve(specs_.size());
  for (std::size_t c = 0; c < specs_.size(); ++c) {
    clusters_.push_back(std::make_unique<ClusterEngine>(
        c, specs_[c], config_, cache_.get(), injector));
  }

  const std::size_t num_shards =
      runtime::resolve_shard_count(config_.num_clients, config_.shards);
  shards_.reserve(num_shards);
  for (std::size_t s = 0; s < num_shards; ++s) {
    shards_.emplace_back(
        runtime::shard_range(config_.num_clients, num_shards, s));
    // Optional columns exist only when their process is enabled; speeds
    // are drawn lazily in pass 2, never serially here.
    ClientShard& shard = shards_.back();
    if (config_.heterogeneity_cv > 0.0) {
      shard.speed.assign(shard.size(), 0.0);
    }
    if (scenario != nullptr && scenario->churn.enabled()) {
      shard.active.assign(shard.size(), 1);
    }
    if (scenario != nullptr && scenario->battery.enabled()) {
      shard.battery_uj.assign(shard.size(), battery_capacity_uj_);
    }
  }
  // Cluster assignment is a weighted pure-hash draw on the client id, so it
  // is the same function of the id under every shard layout.
  const StreamHash cluster_base(config_.seed ^ kClusterDomain);
  for (ClientShard& shard : shards_) {
    shard.needed_entries.assign(clusters_.size(), 0);
    const std::size_t begin = shard.range().begin;
    for (std::size_t i = 0; i < shard.size(); ++i) {
      std::size_t c = 0;
      if (cluster_cdf_.size() > 1) {
        const double u = hash_unit(cluster_base, begin + i);
        c = static_cast<std::size_t>(
            std::upper_bound(cluster_cdf_.begin(), cluster_cdf_.end(), u) -
            cluster_cdf_.begin());
        c = std::min(c, cluster_cdf_.size() - 1);
      }
      shard.cluster[i] = static_cast<std::uint16_t>(c);
    }
  }

  if (telemetry::Registry* reg = telemetry::global_registry()) {
    tel_.rounds = &reg->counter("fleet.rounds");
    tel_.participants = &reg->counter("fleet.participants");
    tel_.dropouts = &reg->counter("fleet.dropouts");
    tel_.misses = &reg->counter("fleet.deadline_misses");
    tel_.stragglers = &reg->counter("fleet.stragglers");
    tel_.timed_out = &reg->counter("fleet.timed_out");
    tel_.clients = &reg->gauge("fleet.clients");
    tel_.shards = &reg->gauge("fleet.shards");
    tel_.soa_bytes = &reg->gauge("fleet.soa_bytes");
    tel_.peak_rss = &reg->gauge("fleet.peak_rss_bytes");
    tel_.queue_depth = &reg->histogram(
        "fleet.event_queue_depth", telemetry::exponential_buckets(1.0, 2.0, 24));
    tel_.round_energy = &reg->histogram("fleet.round_energy_j");
    tel_.control_plane_ms = &reg->histogram("fleet.control_plane_ms");
    if (scenario != nullptr) {
      tel_.departed = &reg->counter("fleet.departed");
      tel_.rejoined = &reg->counter("fleet.rejoined");
      tel_.state_resets = &reg->counter("fleet.state_resets");
      tel_.battery_blocked = &reg->counter("fleet.battery_blocked");
      tel_.task_switches = &reg->counter("fleet.task_switches");
      tel_.active_clients = &reg->gauge("fleet.active_clients");
    }
    tel_.clients->set(static_cast<double>(config_.num_clients));
    tel_.shards->set(static_cast<double>(shards_.size()));
    tel_.soa_bytes->set(static_cast<double>(soa_bytes()));
  }
}

FleetEngine::~FleetEngine() = default;

std::uint64_t FleetEngine::soa_bytes() const {
  std::uint64_t total = 0;
  for (const ClientShard& shard : shards_) {
    total += shard.soa_bytes();
  }
  return total;
}

FleetResult FleetEngine::run() {
  runtime::ThreadPool pool(config_.threads);
  // Hand the pool to every canonical controller for the duration of this
  // call (it is stack-local): hyperopt/GP/EHVI inner loops fan out wherever
  // extension runs — on the round-loop thread or on a worker — and their
  // queued helpers go to whichever workers are idle.
  for (const std::unique_ptr<ClusterEngine>& cluster : clusters_) {
    cluster->set_parallel_pool(&pool);
  }
  FleetResult result;
  result.num_clients = config_.num_clients;
  result.num_shards = shards_.size();
  result.num_clusters = clusters_.size();
  result.rounds.reserve(static_cast<std::size_t>(config_.rounds));
  for (std::int64_t step = 0; step < config_.rounds; ++step) {
    const ShardRoundStats stats = run_round(next_round_++, &pool, result);
    publish_round(stats);
    result.rounds.push_back(stats);  // the fleet record, without queue_peak
    result.max_queue_depth = std::max(result.max_queue_depth, stats.queue_peak);
  }
  result.trace_hash =
      fold_trace_hash(result.rounds, config_.scenario.has_value());
  // Knowledge-plane bookkeeping and publish-back.  Distilling a snapshot
  // walks the canonical controller's GP posterior — expensive — so batches
  // are PREPARED in parallel across clusters; the store itself only sees
  // the serial apply loop below, in cluster-index order, so its merged
  // content (and saved bytes) stays shard/thread-layout invariant.  Derived
  // from the canonical trajectories, so (like max_queue_depth) these fields
  // are observability — deliberately NOT folded into trace_hash.
  const auto publish_start = std::chrono::steady_clock::now();
  const bool publishing = config_.knowledge != nullptr &&
                          config_.prior_policy != priors::PriorPolicy::kCold;
  std::vector<priors::PublishBatch> batches;
  if (publishing) {
    batches.resize(clusters_.size());
    runtime::parallel_for_each(&pool, clusters_.size(), [&](std::size_t c) {
      batches[c] = clusters_[c]->prepare_publish();
    });
  }
  for (std::size_t c = 0; c < clusters_.size(); ++c) {
    const ClusterEngine& cluster = *clusters_[c];
    result.exploration_rounds +=
        static_cast<std::uint64_t>(cluster.exploration_entries());
    if (cluster.applied_policy() != priors::PriorPolicy::kCold) {
      ++result.warm_clusters;
    }
    if (publishing) {
      priors::apply_publish(*config_.knowledge, batches[c]);
    }
  }
  result.control_plane_ms +=
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - publish_start)
          .count();
  for (const std::unique_ptr<ClusterEngine>& cluster : clusters_) {
    cluster->set_parallel_pool(nullptr);
  }
  result.data_plane_ms =
      result.select_ms + result.cost_ms + result.close_ms + result.merge_ms;
  result.soa_bytes = soa_bytes();
  result.peak_rss_bytes = telemetry::peak_rss_bytes();
  if (tel_.peak_rss != nullptr) {
    tel_.soa_bytes->set(static_cast<double>(result.soa_bytes));
    tel_.peak_rss->set(static_cast<double>(result.peak_rss_bytes));
  }
  return result;
}

ShardRoundStats FleetEngine::run_round(std::int64_t round,
                                       runtime::ThreadPool* pool,
                                       FleetResult& timing) {
  // Wall-time ledger: each lap_ms() call returns the milliseconds since the
  // previous one (or since round start).
  auto lap_start = std::chrono::steady_clock::now();
  const auto lap_ms = [&lap_start] {
    const auto now = std::chrono::steady_clock::now();
    const double ms =
        std::chrono::duration<double, std::milli>(now - lap_start).count();
    lap_start = now;
    return ms;
  };
  const faults::FaultInjector* injector =
      injector_.has_value() ? &*injector_ : nullptr;
  const bool fl_faults =
      injector != nullptr && injector->plan().has_fl_faults();
  // Fleet-scenario round state: the diurnal factors are exact functions of
  // the round index; churn draw bases mix fleet seed, scenario seed,
  // domain and round — all layout-independent.
  const faults::FleetScenario* scenario =
      config_.scenario.has_value() ? &*config_.scenario : nullptr;
  double cohort_fraction = config_.cohort_fraction;
  double deadline_factor = 1.0;
  if (scenario != nullptr && scenario->diurnal.enabled()) {
    cohort_fraction = std::clamp(
        cohort_fraction * scenario->diurnal.cohort_factor(round), 0.0, 1.0);
    deadline_factor = scenario->diurnal.deadline_factor(round);
  }
  const bool has_churn = scenario != nullptr && scenario->churn.enabled();
  const bool churn_live = has_churn && round >= scenario->churn.start_round;
  const bool has_battery = scenario != nullptr && scenario->battery.enabled();
  const std::uint64_t churn_seed =
      has_churn ? stream_seed(config_.seed, scenario->seed) : 0;
  const auto churn_base = [&](std::uint64_t domain) {
    return StreamHash(
        stream_seed(churn_seed ^ domain, static_cast<std::uint64_t>(round)));
  };
  // Before the churn start round nobody flips: every churn probability is 0.
  const faults::ChurnSpec round_churn =
      churn_live ? scenario->churn : faults::ChurnSpec{};

  // Pass 1 (parallel): battery recharge, churn transitions, selection,
  // dropout, battery gate, needed trajectory depth.  Each shard is swept in
  // blocks of 64 clients: branch-free loops update the block's battery and
  // churn state and build its selection mask, then only the selected
  // clients, walked in ascending order by their set bits, reach the dropout
  // and battery gates and the cohort.
  runtime::parallel_for_each(pool, shards_.size(), [&](std::size_t s) {
    // The round's invariants and the shard's columns as task locals: a
    // store to a column (the u8 `active` aliases anything) would otherwise
    // force a reload of every by-reference capture per client.
    const bool battery = has_battery;
    const bool churn = has_churn;
    const bool drops = fl_faults;
    const std::uint64_t capacity_uj = battery_capacity_uj_;
    const std::uint64_t recharge_uj = battery_recharge_uj_;
    const std::uint64_t watermark_uj = battery_watermark_uj_;
    // Every Bernoulli draw is `(hash >> 11) < threshold`, the exact integer
    // form of `hash_unit(base, client) < p` (common/rng.hpp).
    const std::uint64_t select = unit_threshold(cohort_fraction);
    const std::uint64_t leave = unit_threshold(round_churn.leave_prob);
    const std::uint64_t rejoin = unit_threshold(round_churn.rejoin_prob);
    const std::uint64_t reset = unit_threshold(round_churn.reset_prob);
    const StreamHash select_hash(stream_seed(
        config_.seed ^ kSelectDomain, static_cast<std::uint64_t>(round)));
    const StreamHash leave_hash = churn_base(kLeaveDomain);
    const StreamHash rejoin_hash = churn_base(kRejoinDomain);
    const StreamHash reset_hash = churn_base(kResetDomain);

    ClientShard& shard = shards_[s];
    shard.cohort.clear();
    std::fill(shard.needed_entries.begin(), shard.needed_entries.end(), 0U);
    const std::uint16_t* const cluster = shard.cluster.data();
    std::uint32_t* const participations = shard.participations.data();
    std::uint8_t* const active = shard.active.data();
    std::uint64_t* const battery_uj = shard.battery_uj.data();
    std::uint32_t* const needed = shard.needed_entries.data();
    ShardRoundStats stats;
    const std::size_t begin = shard.range().begin;
    const std::size_t count = shard.size();
    for (std::size_t block = 0; block < count; block += 64) {
      const std::size_t width = std::min<std::size_t>(64, count - block);
      const std::uint64_t first = begin + block;  // client id of bit 0
      if (battery) {
        // Every round recharges every client, participant or not.
        for (std::size_t i = block; i < block + width; ++i) {
          battery_uj[i] = std::min(capacity_uj, battery_uj[i] + recharge_uj);
        }
      }
      // Bit j: client first + j is in the fleet after this round's churn.
      std::uint64_t present = ~std::uint64_t{0} >> (64 - width);
      if (churn) {
        // A member draws on the leave stream, an absent client on the
        // re-join stream; either draw flips its membership.
        std::uint64_t member = 0;
        std::uint64_t flips = 0;
        for (std::size_t j = 0; j < width; ++j) {
          const std::uint64_t in = active[block + j];
          const StreamHash& flip_hash = in != 0 ? leave_hash : rejoin_hash;
          const std::uint64_t flip_thr = in != 0 ? leave : rejoin;
          member |= in << j;
          flips |= static_cast<std::uint64_t>(
                       (flip_hash(first + j) >> 11) < flip_thr)
                   << j;
        }
        present = member ^ flips;
        stats.departed +=
            static_cast<std::uint32_t>(std::popcount(member & flips));
        stats.rejoined +=
            static_cast<std::uint32_t>(std::popcount(flips & ~member));
        for (; flips != 0; flips &= flips - 1) {
          const int j = std::countr_zero(flips);
          const std::size_t i = block + static_cast<std::size_t>(j);
          active[i] ^= 1U;
          if ((member >> j & 1U) == 0 &&
              (reset_hash(first + j) >> 11) < reset) {
            // State lost: the trajectory cursor restarts at entry 0 (the
            // cluster's verification-through-prior entries); the jitter
            // cursor keeps advancing — a re-join is a fresh execution
            // history, not a replay.
            participations[i] = 0;
            ++stats.resets;
          }
        }
      }
      stats.active_clients +=
          static_cast<std::uint32_t>(std::popcount(present));
      std::uint64_t selected = 0;
      for (std::size_t j = 0; j < width; ++j) {
        selected |= static_cast<std::uint64_t>(
                        (select_hash(first + j) >> 11) < select)
                    << j;
      }
      selected &= present;
      for (; selected != 0; selected &= selected - 1) {
        const int j = std::countr_zero(selected);
        const std::size_t i = block + static_cast<std::size_t>(j);
        if (drops && injector->client_drops(
                         round, static_cast<std::int64_t>(first + j))) {
          ++stats.dropped;
          continue;
        }
        if (battery && battery_uj[i] < watermark_uj) {
          ++stats.battery_blocked;
          continue;
        }
        shard.cohort.push_back(static_cast<std::uint32_t>(i));
        needed[cluster[i]] =
            std::max(needed[cluster[i]], participations[i] + 1);
      }
    }
    shard.round_stats = stats;
  });
  timing.select_ms += lap_ms();

  // Control plane: apply this round's workload switches BEFORE extension (a
  // switch at round r changes every entry generated from round r on), then
  // extend canonical trajectories under the diurnal deadline factor, then
  // draw the round's deadline jitter (one fleet-wide factor, as in
  // fl::Simulation).  Extension fans out over the pool — clusters are
  // independent (own controller, RNG streams, fault channel; the shared
  // ScheduleCache is striped and bit-stable under races).  The fault events
  // buffered during extension flush serially in cluster-index order, so the
  // telemetry stream is identical for every thread count.
  if (scenario != nullptr) {
    for (const faults::TaskSwitchSpec& ts : scenario->task_switches) {
      if (ts.round != round) {
        continue;
      }
      for (std::size_t c = 0; c < clusters_.size(); ++c) {
        if (ts.cluster >= 0 && ts.cluster != static_cast<std::int64_t>(c)) {
          continue;
        }
        clusters_[c]->switch_workload(
            *device::profile_from_string(ts.profile));
        if (tel_.task_switches != nullptr) {
          tel_.task_switches->add(1);
        }
      }
    }
  }
  // One task per cluster: fold the shards' maxima for that cluster (reads
  // every shard, writes nothing shared), then extend its trajectory.
  runtime::parallel_for_each(pool, clusters_.size(), [&](std::size_t c) {
    std::uint32_t needed = 0;
    for (const ClientShard& shard : shards_) {
      needed = std::max(needed, shard.needed_entries[c]);
    }
    clusters_[c]->extend_to(needed, deadline_factor);
  });
  for (const std::unique_ptr<ClusterEngine>& cluster : clusters_) {
    cluster->flush_fault_events();
  }
  const double control_ms = lap_ms();
  timing.control_plane_ms += control_ms;
  if (tel_.control_plane_ms != nullptr) {
    tel_.control_plane_ms->observe(control_ms);
  }
  double deadline_jitter = 1.0;
  if (fl_faults) {
    deadline_jitter = injector->deadline_jitter(round);
    if (deadline_jitter != 1.0) {
      faults::emit_fault_event(
          faults::FaultEvent{faults::FaultKind::kDeadlineJitter, round, -1,
                             0.0, deadline_jitter});
    }
  }

  // Pass 2 (parallel): per-client costs, event pushes, cursor advances.
  const double het_cv = config_.heterogeneity_cv;
  const double noise_cv = config_.round_noise_cv;
  const LognormalMean1 speed_dist(het_cv);
  const LognormalMean1 jitter_dist(noise_cv);
  const StreamHash speed_base(config_.seed ^ kSpeedDomain);
  const StreamHash jitter_base(config_.seed ^ kJitterDomain);
  runtime::parallel_for_each(pool, shards_.size(), [&](std::size_t s) {
    ClientShard& shard = shards_[s];
    ShardRoundStats& stats = shard.round_stats;
    const std::size_t begin = shard.range().begin;
    for (const std::uint32_t i : shard.cohort) {
      const std::uint64_t client = begin + i;
      const ClusterEngine& cluster = *clusters_[shard.cluster[i]];
      const ClusterEngine::RoundEntry& entry =
          cluster.entry(shard.participations[i]);
      // The client's silicon/binning factor (lifetime constant, drawn on its
      // first participation and cached; a lognormal draw is > 0) and this
      // participation's execution jitter — both pure functions of ids.
      if (het_cv > 0.0 && shard.speed[i] == 0.0) {
        Rng rng(speed_base(client));
        shard.speed[i] = speed_dist(rng);
      }
      const double speed = het_cv > 0.0 ? shard.speed[i] : 1.0;
      double lat_jitter = 1.0;
      double energy_jitter = 1.0;
      if (noise_cv > 0.0) {
        Rng rng(stream_seed(jitter_base(client), shard.rng_cursor[i]));
        lat_jitter = jitter_dist(rng);
        energy_jitter = jitter_dist(rng);
      }
      const std::uint64_t elapsed_us =
          scale_us(entry.elapsed_us, speed * lat_jitter);
      const std::uint64_t energy_uj =
          scale_us(entry.energy_uj, speed * energy_jitter);
      const std::uint64_t mbo_uj = scale_us(entry.mbo_energy_uj, speed);
      const std::uint64_t deadline_us =
          scale_us(entry.deadline_us, deadline_jitter);

      std::uint64_t arrival_us = elapsed_us;
      if (fl_faults) {
        const double factor = injector->straggler_factor(
            round, static_cast<std::int64_t>(client));
        if (factor > 1.0) {
          arrival_us += static_cast<std::uint64_t>(std::llround(
              (factor - 1.0) * static_cast<double>(deadline_us)));
          ++stats.stragglers;
        }
      }
      shard.queue.push({arrival_us, client});

      stats.energy_uj += energy_uj;
      stats.mbo_energy_uj += mbo_uj;
      stats.busy_us += elapsed_us;
      stats.deadline_ref_us = std::max(stats.deadline_ref_us, deadline_us);
      ++stats.participants;
      stats.missed += elapsed_us > deadline_us ? 1U : 0U;
      switch (entry.phase) {
        case core::Phase::kSafeRandomExploration:
          ++stats.phase1;
          break;
        case core::Phase::kParetoConstruction:
          ++stats.phase2;
          break;
        case core::Phase::kExploitation:
          ++stats.phase3;
          break;
      }

      shard.participations[i] += 1;
      shard.rng_cursor[i] += 1;
      if (has_battery) {
        // Training and MBO updates both come out of the client's budget.
        const std::uint64_t drain = energy_uj + mbo_uj;
        shard.battery_uj[i] -= std::min(shard.battery_uj[i], drain);
      }
    }
  });
  timing.cost_ms += lap_ms();

  // Serial: the straggler cutoff needs the fleet-wide reference deadline.
  std::uint64_t deadline_ref_us = 0;
  for (const ClientShard& shard : shards_) {
    deadline_ref_us =
        std::max(deadline_ref_us, shard.round_stats.deadline_ref_us);
  }
  std::optional<std::uint64_t> cutoff_us;
  if (config_.straggler_timeout > 0.0 && deadline_ref_us > 0) {
    cutoff_us = static_cast<std::uint64_t>(
        std::llround(config_.straggler_timeout *
                     static_cast<double>(deadline_ref_us)));
  }
  timing.merge_ms += lap_ms();

  // Pass 3 (parallel): close each shard's round in one linear pass over its
  // events; the round wall and timeout counts come out of the fold.  A
  // timed-out report was discarded by the server, so the client's replay
  // cursor rolls back to retry the SAME trajectory entry next time it is
  // selected — without the resync it would re-enter the next round pointing
  // one entry past work that never counted.  (rng_cursor stays advanced: the
  // retry is a fresh execution with fresh jitter.)
  runtime::parallel_for_each(pool, shards_.size(), [&](std::size_t s) {
    ClientShard& shard = shards_[s];
    shard.timed_out_clients.clear();
    shard.round_stats.queue_peak = shard.queue.size();
    const RoundClose<std::uint64_t> close =
        close_round(shard.queue, cutoff_us, &shard.timed_out_clients);
    const std::size_t begin = shard.range().begin;
    for (const std::uint64_t client : shard.timed_out_clients) {
      shard.participations[client - begin] -= 1;
    }
    shard.round_stats.wall_us = close.wall;
    shard.round_stats.timed_out = static_cast<std::uint32_t>(close.timed_out);
  });
  timing.close_ms += lap_ms();

  // Serial: merge in shard order (integer adds + maxes — layout-invariant).
  ShardRoundStats out;
  for (const ClientShard& shard : shards_) {
    out.merge(shard.round_stats);
  }
  out.round = round;
  timing.merge_ms += lap_ms();
  return out;
}

void FleetEngine::publish_round(const FleetRoundStats& stats) {
  if (tel_.rounds == nullptr) {
    return;
  }
  tel_.rounds->add(1);
  tel_.participants->add(stats.participants);
  tel_.dropouts->add(stats.dropped);
  tel_.misses->add(stats.missed);
  tel_.stragglers->add(stats.stragglers);
  tel_.timed_out->add(stats.timed_out);
  for (const ClientShard& shard : shards_) {
    tel_.queue_depth->observe(
        static_cast<double>(shard.round_stats.queue_peak));
  }
  tel_.round_energy->observe(stats.energy_j());
  if (tel_.departed != nullptr) {
    tel_.departed->add(stats.departed);
    tel_.rejoined->add(stats.rejoined);
    tel_.state_resets->add(stats.resets);
    tel_.battery_blocked->add(stats.battery_blocked);
    tel_.active_clients->set(static_cast<double>(stats.active_clients));
  }
  tel_.peak_rss->set(static_cast<double>(telemetry::peak_rss_bytes()));
}

}  // namespace bofl::fleet
