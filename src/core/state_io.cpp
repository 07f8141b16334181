#include "core/state_io.hpp"

#include <cmath>
#include <cstdlib>
#include <limits>

#include "common/csv.hpp"
#include "common/error.hpp"

namespace bofl::core {

double quotient_exact_weighted(double mean, double jobs) {
  double w = mean * jobs;
  for (int step = 0; step < 4 && w / jobs != mean; ++step) {
    w = std::nextafter(w, w / jobs < mean
                              ? std::numeric_limits<double>::infinity()
                              : -std::numeric_limits<double>::infinity());
  }
  return w;
}

void save_state(const BoflController& controller, const std::string& path) {
  CsvWriter writer(path,
                   {"config_flat", "jobs", "mean_energy_J", "mean_latency_s"});
  for (const BoflController::SavedObservation& obs :
       controller.export_state()) {
    writer.write_row(std::vector<double>{
        static_cast<double>(obs.config_flat), obs.jobs, obs.mean_energy,
        obs.mean_latency});
  }
}

std::vector<BoflController::SavedObservation> load_state(
    const std::string& path) {
  const CsvReader reader(path);
  const std::size_t flat_col = reader.column("config_flat");
  const std::size_t jobs_col = reader.column("jobs");
  const std::size_t energy_col = reader.column("mean_energy_J");
  const std::size_t latency_col = reader.column("mean_latency_s");

  const auto parse = [&](const std::string& text) {
    char* end = nullptr;
    const double value = std::strtod(text.c_str(), &end);
    BOFL_REQUIRE(end != text.c_str() && *end == '\0',
                 "malformed number in saved state: " + text);
    return value;
  };

  std::vector<BoflController::SavedObservation> saved;
  saved.reserve(reader.rows().size());
  for (const auto& row : reader.rows()) {
    BoflController::SavedObservation obs;
    // The id must be an exact integer below 2^53 before the cast: a
    // fraction would be truncated, and casting a value past size_t (or a
    // non-finite one) is undefined.
    const double flat = parse(row[flat_col]);
    BOFL_REQUIRE(flat >= 0.0 && flat < 0x1.0p53 && flat == std::floor(flat),
                 "config id in saved state is not an integer in [0, 2^53): " +
                     row[flat_col]);
    obs.config_flat = static_cast<std::size_t>(flat);
    obs.jobs = parse(row[jobs_col]);
    obs.mean_energy = parse(row[energy_col]);
    obs.mean_latency = parse(row[latency_col]);
    BOFL_REQUIRE(std::isfinite(obs.jobs) && std::isfinite(obs.mean_energy) &&
                     std::isfinite(obs.mean_latency),
                 "non-finite jobs or mean in saved state");
    saved.push_back(obs);
  }
  return saved;
}

}  // namespace bofl::core
