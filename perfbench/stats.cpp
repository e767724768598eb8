#include "stats.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <numeric>

namespace perfbench {

double median(std::vector<double> samples) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  return n % 2 == 1 ? samples[n / 2] : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

double mean(const std::vector<double>& samples) {
  if (samples.empty()) return 0.0;
  return std::accumulate(samples.begin(), samples.end(), 0.0) /
         static_cast<double>(samples.size());
}

double quantile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double clamped = std::clamp(q, 0.0, 1.0);
  const auto rank = static_cast<std::size_t>(
      std::ceil(clamped * static_cast<double>(samples.size())));
  return samples[rank == 0 ? 0 : rank - 1];
}

Tail tail_ten_beyond(std::vector<double> samples) {
  Tail tail;
  tail.samples = samples.size();
  if (samples.empty()) return tail;
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  if (n <= 10) {
    tail.value = samples.back();
    tail.percentile = 100.0;
    tail.beyond = 0;
    return tail;
  }
  tail.value = samples[n - 11];
  tail.beyond = 10;
  tail.percentile = 100.0 * static_cast<double>(n - 10) / static_cast<double>(n);
  return tail;
}

Tail blocked_tail(const std::vector<double>& samples, std::size_t block) {
  const std::size_t blocks = block == 0 ? 0 : samples.size() / block;
  if (blocks == 0) return tail_ten_beyond(samples);
  std::vector<double> block_tails;
  Tail tail;
  for (std::size_t b = 0; b < blocks; ++b) {
    const auto first = samples.begin() + static_cast<long>(b * block);
    tail = tail_ten_beyond(std::vector<double>(first, first + static_cast<long>(block)));
    block_tails.push_back(tail.value);
  }
  tail.value = median(block_tails);
  tail.samples = samples.size();
  tail.blocks = blocks;
  return tail;
}

std::vector<double> latencies_counting_failures(const std::vector<RequestOutcome>& outcomes) {
  std::vector<double> latencies;
  latencies.reserve(outcomes.size());
  for (const RequestOutcome& outcome : outcomes) {
    latencies.push_back(outcome.ok ? outcome.latency_s : kMissedLimit);
  }
  return latencies;
}

void keep_fastest_windows(std::vector<HostWindow>& windows, std::size_t at_least,
                          std::size_t keep, double tolerance) {
  if (windows.empty()) return;
  std::vector<std::pair<double, std::size_t>> ranked;  // (calibration median, window)
  for (std::size_t w = 0; w < windows.size(); ++w) {
    ranked.emplace_back(median(windows[w].host_s), w);
  }
  std::sort(ranked.begin(), ranked.end());
  const double limit = ranked.front().first * (1.0 + tolerance);
  std::vector<bool> kept(windows.size(), false);
  for (std::size_t r = 0; r < std::min(keep, ranked.size()); ++r) {
    if (r >= at_least && ranked[r].first > limit) break;
    kept[ranked[r].second] = true;
  }
  std::size_t next = 0;
  for (std::size_t w = 0; w < windows.size(); ++w) {
    if (!kept[w]) continue;
    if (next != w) windows[next] = std::move(windows[w]);
    ++next;
  }
  windows.resize(next);
}

PooledWindows pool_windows(const std::vector<HostWindow>& windows, double reference_s) {
  PooledWindows pooled;
  for (const HostWindow& window : windows) {
    const double host_s = median(window.host_s);
    pooled.fastest_host_s =
        &window == &windows.front() ? host_s : std::min(pooled.fastest_host_s, host_s);
    pooled.slowest_host_s = std::max(pooled.slowest_host_s, host_s);
    const double scale = reference_s > 0.0 ? reference_s / host_s : 1.0;
    for (const TimedSample& sample : window.sessions) {
      pooled.outcomes.push_back(
          RequestOutcome{(sample.end_s - sample.start_s) * scale, sample.ok});
    }
    for (const double setup_s : window.setup_s) pooled.setup_s.push_back(setup_s * scale);
    pooled.wall_s += window.wall_s * scale;
  }
  return pooled;
}

double fail_share(const std::vector<RequestOutcome>& outcomes) {
  if (outcomes.empty()) return 0.0;
  const auto failed = std::count_if(outcomes.begin(), outcomes.end(),
                                    [](const RequestOutcome& o) { return !o.ok; });
  return static_cast<double>(failed) / static_cast<double>(outcomes.size());
}

bool rung_meets_limit(const RungVerdict& rung, double limit_s) {
  return rung.failures == 0 && !rung.backlog_growing && rung.tail.samples > 0 &&
         rung.tail.value <= limit_s;
}

bool backlog_grows(const std::vector<double>& outstanding_samples, double slack) {
  const std::size_t quarter = outstanding_samples.size() / 4;
  if (quarter == 0) return false;
  const std::vector<double> first(outstanding_samples.begin(),
                                  outstanding_samples.begin() + static_cast<long>(quarter));
  const std::vector<double> last(outstanding_samples.end() - static_cast<long>(quarter),
                                 outstanding_samples.end());
  return mean(last) - mean(first) > slack;
}

double goodput(const std::vector<RungVerdict>& rungs) {
  double best_offered = -1.0;
  double best = 0.0;
  for (const RungVerdict& rung : rungs) {
    if (rung.meets_limit && rung.offered_per_s > best_offered) {
      best_offered = rung.offered_per_s;
      best = rung.achieved_per_s;
    }
  }
  return best;
}

std::string full_digits(double value) {
  if (!std::isfinite(value)) return "null";
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

}  // namespace perfbench
