// Arithmetic the benchmark reports with: medians, the tail percentile rule,
// failure accounting and the per-rung verdicts of the open-loop ladder. Kept
// free of timing and I/O so tflbench_selftest can check it on fixed inputs.
#pragma once

#include <cstddef>
#include <limits>
#include <string>
#include <vector>

namespace perfbench {

/// Median of the samples (mean of the two middle ones for an even count);
/// 0 for an empty set.
double median(std::vector<double> samples);

/// Arithmetic mean; 0 for an empty set.
double mean(const std::vector<double>& samples);

/// Nearest-rank quantile, q in [0, 1]; 0 for an empty set.
double quantile(std::vector<double> samples, double q);

/// The highest percentile that still has at least ten samples beyond it,
/// taken from the raw samples: with n > 10 samples sorted ascending it is the
/// sample at 1-based rank n - 10, the (n - 10) / n quantile. With ten or fewer
/// samples no percentile qualifies, and the maximum is reported with `beyond`
/// set to 0.
struct Tail {
  double value = 0.0;
  double percentile = 0.0;  // in percent, e.g. 99.9
  std::size_t beyond = 0;   // samples strictly above the reported rank
  std::size_t samples = 0;
  std::size_t blocks = 1;   // see blocked_tail
};
Tail tail_ten_beyond(std::vector<double> samples);

/// The same rule applied to each run of `block` consecutive samples, with
/// the median of the block tails reported: the block-size percentile (p99.5
/// for blocks of 2000) whatever the sample count, and steadier than the
/// single most extreme rank of a long run. Samples past the last full block
/// are left out; with no full block it is tail_ten_beyond over all samples.
Tail blocked_tail(const std::vector<double>& samples, std::size_t block);

/// One request as the load generator saw it. A request that failed or was
/// refused has no usable latency: it counts as missing any latency limit.
struct RequestOutcome {
  double latency_s = 0.0;
  bool ok = false;
};

inline constexpr double kMissedLimit = std::numeric_limits<double>::infinity();

/// Latencies with every failed or refused request mapped to +inf, so a tail
/// taken over them can never meet a limit the failures would have missed.
std::vector<double> latencies_counting_failures(const std::vector<RequestOutcome>& outcomes);

/// One timed request: when it started (its due time, for open-loop
/// requests) and ended, on one clock, and whether it succeeded.
struct TimedSample {
  double start_s = 0.0;
  double end_s = 0.0;
  bool ok = false;
};

/// One window of a closed-loop pass: its sessions or set-up repetitions,
/// and the timings of a fixed calibration loop run between them (the
/// host's speed while the window ran).
struct HostWindow {
  std::vector<TimedSample> sessions;
  std::vector<double> host_s;   // calibration loop timings
  std::vector<double> setup_s;  // set-up repetitions
  double wall_s = 0.0;          // first session start to last end, minus bench work
};

/// Keeps the windows a shared host ran at its fastest. A vCPU of a shared
/// host can run 1.3-1.6x slower for seconds at a time; the calibration loop
/// is the benchmark's own code, so its timing measures the host and not the
/// program, and a change to the program moves every window alike. Ranks the
/// windows by calibration median and keeps at most `keep` of the fastest:
/// the first `at_least` of them, and past those only windows within
/// `tolerance` of the fastest one (so one lucky window cannot leave too few
/// samples). A window dropped once would be dropped at the end too, so a
/// pass can call this after every window and hold only the candidates.
/// Sessions are never ranked by their own latency.
void keep_fastest_windows(std::vector<HostWindow>& windows, std::size_t at_least,
                          std::size_t keep, double tolerance);

/// The sessions, set-up repetitions and wall time of `windows`, pooled.
/// With `reference_s` > 0 each window's latencies, set-ups and wall time
/// are scaled by reference_s / its calibration median: figures at a host
/// speed at which the calibration takes `reference_s`.
struct PooledWindows {
  std::vector<RequestOutcome> outcomes;
  std::vector<double> setup_s;
  double wall_s = 0.0;
  double fastest_host_s = 0.0;  // lowest and highest calibration medians
  double slowest_host_s = 0.0;
};
PooledWindows pool_windows(const std::vector<HostWindow>& windows, double reference_s);

/// failed / attempted, where "failed" covers failed, refused and incorrect
/// requests alike; 0 when nothing was attempted.
double fail_share(const std::vector<RequestOutcome>& outcomes);

/// One rung of the open-loop ladder after the run.
struct RungVerdict {
  double offered_per_s = 0.0;
  double achieved_per_s = 0.0;
  Tail tail;  // seconds, failures counted as +inf
  std::size_t failures = 0;
  bool backlog_growing = false;
  bool meets_limit = false;
};

/// A rung meets the limit when its tail is within `limit_s`, nothing failed
/// and the backlog did not grow.
bool rung_meets_limit(const RungVerdict& rung, double limit_s);

/// Backlog growth test on outstanding-request counts sampled evenly over a
/// rung: the mean of the last quarter exceeds the mean of the first quarter
/// by more than `slack` requests.
bool backlog_grows(const std::vector<double>& outstanding_samples, double slack);

/// Achieved rate of the highest rung that meets the limit, scanning rungs in
/// ascending offered rate; 0 when none does.
double goodput(const std::vector<RungVerdict>& rungs);

/// Formats a double with all significant digits (round-trippable).
std::string full_digits(double value);

}  // namespace perfbench
