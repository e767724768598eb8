// tflbench — the TradeFL benchmark driver. One process runs one workload:
//
//   settle  closed loop, one client, in-process TradingSession::run on
//           Table-II games (orgs=6, DBR, no training, threads=1)
//   cgbd    the same loop with the CGBD scheme (barrier solver + Benders
//           master on the session path)
//
// usage: tflbench --workload settle|cgbd --seed N --seconds S --trace 0|1
//
// --trace 0 prints the end-to-end metrics measured with observability off.
// The pass runs in windows of sessions with a fixed calibration loop timed
// between them; timings come from the windows in which the host ran at its
// fastest (see keep_fastest_windows), set-up is repeated inside the pass.
// --trace 1 runs the same timed pass, then a second pass with obs on and
// with timed calls into each module's public functions made from here, and
// prints the per-layer metrics. Two probes cover the paths no gated workload
// takes: the traced run of settle also drives the serve daemon (open loop
// into an in-process server::Server over the JSON-lines wire, a seeded
// schedule at a ladder of offered rates, 3 DBR : 1 CGBD sessions plus ~1
// status op in 10, workers=2, threads=2), and the traced run of cgbd runs
// training sessions (MLP, FMNIST-like, 10 rounds, sample_scale=1) with the
// fl probes. The last stdout line is the result object; the two before it
// are the host block and a detail line. Exit code 1 when any output check
// fails, 2 on bad usage.
#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstddef>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <memory_resource>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <unistd.h>
#include <vector>

#include "chain/blockchain.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "core/gbd.h"
#include "core/mechanism.h"
#include "fl/fedavg.h"
#include "fl/gemm.h"
#include "fl/model_zoo.h"
#include "game/game_factory.h"
#include "obs/metrics.h"
#include "serve_load.h"
#include "stats.h"
#include "tradefl/cli.h"
#include "tradefl/report.h"
#include "tradefl/server.h"
#include "tradefl/session.h"
#include "tradefl/wire.h"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
using tradefl::SessionOptions;
using tradefl::SessionResult;
using tradefl::TradingSession;

constexpr std::size_t kOrgs = 6;
// Every kSetupEvery-th window of the untraced pass opens with a timed set-up
// repetition, so set-up is sampled across the pass like the sessions are;
// those kept are chosen by their window's calibration like the windows.
constexpr std::size_t kSetupEvery = 2;
constexpr std::size_t kSetupsMin = 8;
constexpr std::size_t kSetupsKept = 16;
// Timings come from the windows of the untraced pass whose host calibration
// is within kHostTolerance of the fastest window's, holding at least
// kHostSessionsMin and at most kHostSessionsKept sessions (see
// keep_fastest_windows): out of about 120 windows in a 45 s pass, 12-48
// settle windows and 48 to every cgbd window within the tolerance. The
// floor leaves at least three tail blocks, so one block that met a burst
// of host pauses cannot set the tail.
constexpr double kHostTolerance = 0.1;
constexpr std::size_t kHostSessionsMin = 6000;
constexpr std::size_t kHostSessionsKept = 24000;
// Kept windows are scaled to the host speed at which the calibration takes
// this long (about its time on the reference host at its fastest), since
// the fastest state a shared host reaches moves between runs.
constexpr double kReferenceCalibrationS = 0.4e-3;
// Closed-loop tails are taken per block of this many kept sessions (p99.5,
// ten samples beyond it) and the median block tail is reported.
constexpr std::size_t kTailBlock = 2000;
// CGBD solves to an epsilon and misses verify_properties' NE tolerance on
// about one game in 55 000 (a program defect, see README.md). Each miss is
// booked in ne_share and the detail line; a run fails when more than this
// share of its CGBD sessions miss.
constexpr double kMaxNeMissShare = 1e-3;
constexpr std::size_t kServeWorkers = 2;
constexpr std::size_t kServeThreads = 2;
// One training thread: a pool of two needs two vCPUs in their fast state
// at once, which on a shared 4-vCPU VM made whole runs 20-30% slower at
// random, for little gain (see README.md). kCheckThreads is the pool the
// bit-identity re-run uses.
constexpr std::size_t kTrainThreads = 1;
constexpr std::size_t kCheckThreads = 2;
constexpr std::size_t kReportSampleEvery = 10;
// Latency limit of the serve ladder's rungs, about 10x a served session.
constexpr double kServeLimitS = 0.1;
// Offered rates of the serve ladder, request lines (sessions plus status
// ops) per second. The top rung stays clear of the rate at which today's
// registry rewrites fill the default 8-slot queue late in a run.
const std::vector<double> kServeRates{50.0, 100.0, 150.0};
// Length of the ladder (at most --seconds): ~2700 admitted sessions, enough
// for the admission cost's growth with the registry to show.
constexpr double kServeSeconds = 30.0;
// Length of the train probe's traced pass (at most --seconds).
constexpr double kTrainProbeSeconds = 20.0;
// Final accuracy a trained session must clear: twice 10-class chance.
constexpr double kMinTrainAccuracy = 0.2;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Everything one invocation reports.
struct Outcome {
  bool correct = true;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> problems;
  std::vector<std::pair<std::string, std::string>> detail;  // key -> JSON value
  // NE checks of CGBD sessions, and the largest unilateral gain by game seed
  // of each game that missed.
  std::size_t ne_checked = 0;
  std::size_t ne_missed = 0;
  std::map<std::uint64_t, double> ne_miss_games;

  void check(bool ok, const std::string& what) {
    if (!ok) {
      correct = false;
      if (problems.size() < 20) problems.push_back(what);
    }
  }
  void add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back(Metric{name, value, unit});
  }
};

std::string json_string(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buffer[8];
      std::snprintf(buffer, sizeof(buffer), "\\u%04x", c);
      out += buffer;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB -> MiB
    }
  }
  throw std::runtime_error("no VmHWM in /proc/self/status");
}

std::string host_block() {
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  std::string model = "unknown";
  std::string flags;
  while (std::getline(cpuinfo, line)) {
    const auto colon = line.find(':');
    if (colon == std::string::npos) continue;
    std::string key = line.substr(0, colon);
    key.erase(key.find_last_not_of(" \t") + 1);
    const std::string value = colon + 2 <= line.size() ? line.substr(colon + 2) : "";
    if (key == "model name" && model == "unknown") model = value;
    if (key == "flags" && flags.empty()) flags = " " + value + " ";
  }
  std::string isa = "{";
  bool first = true;
  for (const char* flag : {"sha_ni", "avx2", "avx512f", "fma"}) {
    isa += std::string(first ? "" : ", ") + "\"" + flag + "\": " +
           (flags.find(std::string(" ") + flag + " ") != std::string::npos ? "true" : "false");
    first = false;
  }
  isa += "}";
  std::ostringstream out;
  out << "{\"host\": {\"cpu\": " << json_string(model) << ", \"isa\": " << isa
      << ", \"nproc\": " << std::thread::hardware_concurrency()
      << ", \"compiler\": " << json_string(std::string("g++ ") + __VERSION__)
      << ", \"build_type\": " << json_string(PERFBENCH_BUILD_TYPE)
      << ", \"flags\": " << json_string(PERFBENCH_CXX_FLAGS) << "}}";
  return out.str();
}

tradefl::game::CoopetitionGame make_game(std::uint64_t seed) {
  tradefl::game::ExperimentSpec spec;
  spec.org_count = kOrgs;
  return tradefl::game::make_experiment_game(spec, seed);
}

/// Output checks every session must pass: settled on a valid chain, budget
/// balanced in integer wei, IR and BB verified, and for DBR, whose best
/// responses end at an exact equilibrium, NE. A CGBD session's NE check is
/// booked by note_equilibrium and gated by share.
bool session_is_correct(const SessionResult& result) {
  return result.settled && result.chain_valid && result.settlement_sum == 0 &&
         result.properties.individual_rationality && result.properties.budget_balance &&
         (result.properties.nash_equilibrium ||
          result.mechanism.scheme == tradefl::core::Scheme::kCgbd);
}

/// Books a CGBD session's NE check: the count checked, the misses, and the
/// largest unilateral gain of each game that missed.
void note_equilibrium(const SessionResult& result, std::uint64_t game_seed, Outcome& outcome) {
  if (result.mechanism.scheme != tradefl::core::Scheme::kCgbd) return;
  ++outcome.ne_checked;
  if (!result.properties.nash_equilibrium) {
    ++outcome.ne_missed;
    outcome.ne_miss_games[game_seed] = result.properties.max_unilateral_gain;
  }
}

/// Share of the CGBD sessions booked so far whose NE check held (1 when
/// there were none).
double ne_share(const Outcome& outcome) {
  return outcome.ne_checked == 0 ? 1.0
                                 : 1.0 - static_cast<double>(outcome.ne_missed) /
                                             static_cast<double>(outcome.ne_checked);
}

/// A fixed loop of the benchmark's own code: 2000 inserts into and 2000
/// lookups in an ordered map, from a fixed arena so the program's heap does
/// not touch it (~0.4 ms on the reference host at its fastest). Its timing measures the host's speed for the
/// node-based, branchy code sessions are made of, independent of the
/// program under test.
double host_calibration_s() {
  alignas(64) static std::array<std::byte, std::size_t{1} << 18> arena;
  const Clock::time_point begin = Clock::now();
  std::pmr::monotonic_buffer_resource pool(arena.data(), arena.size(),
                                           std::pmr::null_memory_resource());
  std::pmr::map<std::uint64_t, std::uint64_t> tree(&pool);
  std::uint64_t x = 88172645463325252ULL;
  const auto next = [&x] {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
  };
  for (int i = 0; i < 2000; ++i) {
    const std::uint64_t key = next();
    tree[key % 100000] = key;
  }
  std::uint64_t hits = 0;
  for (int i = 0; i < 2000; ++i) {
    const auto found = tree.find(next() % 100000);
    if (found != tree.end()) hits += found->second;
  }
  const double elapsed = seconds_between(begin, Clock::now());
  volatile std::uint64_t sink = hits;
  (void)sink;
  return elapsed;
}

/// Wall time of `fn` in seconds.
template <class Fn>
double time_s(Fn&& fn) {
  const Clock::time_point begin = Clock::now();
  fn();
  return seconds_between(begin, Clock::now());
}

/// Raw per-call probe samples, by metric name, in seconds.
using Probes = std::map<std::string, std::vector<double>>;

double probe_mean(const Probes& probes, const std::string& name) {
  const auto found = probes.find(name);
  return found == probes.end() ? 0.0 : mean(found->second);
}
double probe_p50(const Probes& probes, const std::string& name) {
  const auto found = probes.find(name);
  return found == probes.end() ? 0.0 : median(found->second);
}

/// True for `name` itself and for its `session=<id>/name` twins.
bool names_metric(const std::string& full, const std::string& name) {
  return full == name || (full.size() > name.size() + 1 &&
                          full.compare(full.size() - name.size(), name.size(), name) == 0 &&
                          full[full.size() - name.size() - 1] == '/');
}

/// Count and sum of an obs histogram over its unscoped name and every twin;
/// p50 of the unscoped one.
struct ObsHistogram {
  std::uint64_t count = 0;
  double sum = 0.0;
  double p50 = 0.0;
};
ObsHistogram obs_histogram(const tradefl::obs::MetricsSnapshot& snapshot,
                           const std::string& name) {
  ObsHistogram out;
  for (const auto& histogram : snapshot.histograms) {
    if (!names_metric(histogram.name, name)) continue;
    out.count += histogram.data.count;
    out.sum += histogram.data.sum;
    if (histogram.name == name) out.p50 = histogram.data.p50();
  }
  return out;
}
std::uint64_t obs_counter(const tradefl::obs::MetricsSnapshot& snapshot, const std::string& name) {
  std::uint64_t total = 0;
  for (const auto& counter : snapshot.counters) {
    if (names_metric(counter.name, name)) total += counter.value;
  }
  return total;
}

// ---------------------------------------------------------------------------
// Closed loops: the gated workloads (settle, cgbd) and the train probe.

struct ClosedLoop {
  std::vector<tradefl::game::CoopetitionGame> games;
  std::uint64_t first_game_seed = 0;  // games[i] is generated from first_game_seed + i
  SessionOptions options;
  std::size_t threads = 1;
  // The untraced pass runs in windows of `window` sessions with the host
  // calibration timed every `calibrate_every` sessions.
  std::size_t window = 1;
  std::size_t calibrate_every = 1;
  // Distinct games generated from the seed (cycled if a pass outruns
  // them) and untimed sessions run at the end of each set-up.
  std::size_t pool = 1;
  std::size_t warmup = 0;
};

SessionOptions settle_options() {
  SessionOptions options;
  options.scheme = tradefl::core::Scheme::kDbr;
  options.seal_every = 1;
  return options;
}

SessionOptions train_options() {
  SessionOptions options = settle_options();
  options.run_training = true;
  options.model = tradefl::fl::ModelKind::kMlp;
  options.dataset = tradefl::fl::DatasetKind::kFmnistLike;
  options.fedavg.rounds = 10;
  options.sample_scale = 1.0;
  return options;
}

/// Datasets and clients exactly as TradingSession::run builds them for its
/// training phase.
struct TrainingInputs {
  std::vector<tradefl::fl::Dataset> locals;
  std::vector<tradefl::fl::FedClient> clients;
  std::unique_ptr<tradefl::fl::Dataset> test_set;
  tradefl::fl::ModelSpec model;
};
TrainingInputs training_inputs(const tradefl::game::CoopetitionGame& game,
                               const tradefl::game::StrategyProfile& profile,
                               const SessionOptions& options) {
  namespace fl = tradefl::fl;
  TrainingInputs inputs;
  const fl::DatasetSpec concept_spec = fl::DatasetSpec::builtin(options.dataset, options.seed);
  const std::size_t n = game.size();
  inputs.locals.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t samples = std::max<std::size_t>(
        8, static_cast<std::size_t>(std::lround(
               options.sample_scale * static_cast<double>(game.org(i).sample_count))));
    inputs.locals.emplace_back(concept_spec.with_sample_seed(options.seed + i + 1), samples);
  }
  for (std::size_t i = 0; i < n; ++i) {
    inputs.clients.push_back(
        fl::FedClient{&inputs.locals[i], profile[i].data_fraction, options.seed * 131 + i});
  }
  inputs.test_set = std::make_unique<fl::Dataset>(
      concept_spec.with_sample_seed(options.seed + 7777), options.test_samples);
  inputs.model.kind = options.model;
  inputs.model.channels = concept_spec.channels;
  inputs.model.height = concept_spec.height;
  inputs.model.width = concept_spec.width;
  inputs.model.classes = concept_spec.classes;
  inputs.model.seed = options.seed;
  return inputs;
}

enum class Gemm { kNN, kNT, kTN };

/// GFLOP/s of one sgemm variant at shape (m, n, k), timed over ~30 ms.
double sgemm_gflops(Gemm variant, std::size_t m, std::size_t n, std::size_t k) {
  namespace gemm = tradefl::fl::gemm;
  tradefl::Rng rng(7);
  std::vector<float> a(m * k);
  std::vector<float> b(k * n);
  std::vector<float> c(m * n, 0.0f);
  for (float& x : a) x = static_cast<float>(rng.uniform(-1.0, 1.0));
  for (float& x : b) x = static_cast<float>(rng.uniform(-1.0, 1.0));
  const auto once = [&] {
    switch (variant) {
      case Gemm::kNN: gemm::sgemm_nn(m, n, k, a.data(), k, b.data(), n, false, c.data(), n); break;
      case Gemm::kNT: gemm::sgemm_nt(m, n, k, a.data(), k, b.data(), k, false, c.data(), n); break;
      case Gemm::kTN: gemm::sgemm_tn(m, n, k, a.data(), m, b.data(), n, false, c.data(), n); break;
    }
  };
  for (int i = 0; i < 50; ++i) once();
  std::size_t calls = 0;
  const Clock::time_point begin = Clock::now();
  double elapsed = 0.0;
  while (elapsed < 0.03) {
    for (int i = 0; i < 50; ++i) once();
    calls += 50;
    elapsed = seconds_between(begin, Clock::now());
  }
  volatile float sink = c[0];
  (void)sink;
  return 2.0 * static_cast<double>(m * n * k) * static_cast<double>(calls) / elapsed / 1e9;
}

/// Layer widths of the one-hidden-layer MLP, recovered from its parameter
/// count P = F*H + H + H*C + C for F input features and C classes.
struct MlpShape {
  std::size_t features = 0;
  std::size_t hidden = 0;
  std::size_t classes = 0;
  std::size_t weights = 0;  // multiply-adds of one forward pass
};
MlpShape mlp_shape(const SessionOptions& options) {
  const tradefl::fl::DatasetSpec data = tradefl::fl::DatasetSpec::builtin(options.dataset, 1);
  tradefl::fl::ModelSpec model;
  model.kind = options.model;
  model.channels = data.channels;
  model.height = data.height;
  model.width = data.width;
  model.classes = data.classes;
  tradefl::fl::Net net = tradefl::fl::build_model(model);
  MlpShape shape;
  shape.features = data.channels * data.height * data.width;
  shape.classes = data.classes;
  shape.hidden = (net.parameter_count() - shape.classes) / (shape.features + 1 + shape.classes);
  shape.weights = shape.features * shape.hidden + shape.hidden * shape.classes;
  return shape;
}

struct LoopStats {
  std::vector<TimedSample> samples;  // traced pass: every session
  // Untraced pass: the windows with the fastest host calibration so far,
  // the same for the set-ups, every window's session median, and the count.
  std::vector<HostWindow> windows;
  std::vector<HostWindow> setups;  // set-up repetitions only, no sessions
  std::vector<double> window_p50_s;
  std::size_t window_count = 0;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  double accuracy_sum = 0.0;  // measured when trained, P(omega) otherwise
};

/// Runs game `index` (cycled) of the loop into `result`, checks its outputs,
/// books them in `stats` and returns the session's timing. With `traced`,
/// observability is on during the run.
TimedSample run_session(const ClosedLoop& loop, std::size_t index, Clock::time_point begin,
                        bool traced, TradingSession& session, SessionResult& result,
                        Outcome& outcome, LoopStats& stats) {
  if (traced) tradefl::obs::set_enabled(true);
  const double start_s = seconds_between(begin, Clock::now());
  result = session.run(loop.options);
  const double end_s = seconds_between(begin, Clock::now());
  if (traced) tradefl::obs::set_enabled(false);

  const std::uint64_t game_seed = loop.first_game_seed + index % loop.games.size();
  bool ok = session_is_correct(result);
  note_equilibrium(result, game_seed, outcome);
  if (loop.options.run_training) {
    ok = ok && result.training.has_value() &&
         result.training->final_accuracy >= kMinTrainAccuracy;
    stats.accuracy_sum += result.training ? result.training->final_accuracy : 0.0;
  } else {
    stats.accuracy_sum += result.mechanism.performance;
  }
  outcome.check(ok, "session on game seed " + std::to_string(game_seed) +
                        " failed its output checks");
  ++stats.attempted;
  if (!ok) ++stats.failed;
  return TimedSample{start_s, end_s, ok};
}

/// The set-up: generates the loop's games from the seed and runs its
/// warmup sessions.
void prepare(ClosedLoop& loop, std::uint64_t seed) {
  loop.first_game_seed = seed * 100003ULL;
  loop.games.clear();
  loop.games.reserve(loop.pool);
  for (std::size_t i = 0; i < loop.pool; ++i) {
    loop.games.push_back(make_game(loop.first_game_seed + i));
  }
  for (std::size_t i = 0; i < loop.warmup; ++i) {
    TradingSession session(loop.games[i]);
    (void)session.run(loop.options);
  }
}

/// The untraced pass: sessions back to back for `seconds`, in windows of
/// `loop.window` sessions. The host calibration runs before every
/// `loop.calibrate_every`-th session of a window, and every kSetupEvery-th
/// window opens with a timed set-up (the first builds the games). Only the
/// candidate windows are held, so the benchmark's own memory does not grow
/// with the number of sessions (nor its share of peak_rss_mb).
LoopStats timed_pass(ClosedLoop& loop, std::uint64_t seed, double seconds, Outcome& outcome) {
  LoopStats stats;
  const Clock::time_point begin = Clock::now();
  const Clock::time_point deadline =
      begin + std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(seconds));
  std::size_t index = 0;
  SessionResult result;
  while (Clock::now() < deadline) {
    HostWindow window;
    HostWindow setup;
    if (stats.window_count++ % kSetupEvery == 0) {
      window.host_s.push_back(host_calibration_s());
      setup.setup_s.push_back(time_s([&] { prepare(loop, seed); }));
    }
    double calibration_inside_s = 0.0;  // calibration between this window's sessions
    for (std::size_t k = 0; k < loop.window; ++k) {
      if (k % loop.calibrate_every == 0) {
        window.host_s.push_back(host_calibration_s());
        if (k > 0) calibration_inside_s += window.host_s.back();
      }
      TradingSession session(loop.games[index % loop.games.size()]);
      window.sessions.push_back(
          run_session(loop, index, begin, false, session, result, outcome, stats));
      ++index;
    }
    window.wall_s = window.sessions.back().end_s - window.sessions.front().start_s -
                    calibration_inside_s;
    std::vector<double> latencies;
    for (const TimedSample& sample : window.sessions) {
      latencies.push_back(sample.end_s - sample.start_s);
    }
    stats.window_p50_s.push_back(median(latencies));
    if (!setup.setup_s.empty()) {
      setup.host_s = window.host_s;
      stats.setups.push_back(std::move(setup));
      keep_fastest_windows(stats.setups, kSetupsMin, kSetupsKept, kHostTolerance);
    }
    stats.windows.push_back(std::move(window));
    keep_fastest_windows(stats.windows, kHostSessionsMin / loop.window,
                         kHostSessionsKept / loop.window, kHostTolerance);
  }
  return stats;
}

/// The traced pass: sessions back to back for `seconds` with observability
/// on during each, and every module probe run after it with observability
/// off, so the probes never land in the obs histograms.
LoopStats traced_pass(const ClosedLoop& loop, double seconds, Outcome& outcome, Probes& p,
                      std::vector<SessionResult>* first_results) {
  LoopStats stats;
  const Clock::time_point begin = Clock::now();
  const Clock::time_point deadline =
      begin + std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(seconds));
  std::size_t index = 0;
  while (Clock::now() < deadline) {
    const tradefl::game::CoopetitionGame& game = loop.games[index % loop.games.size()];
    TradingSession session(game);
    SessionResult result;
    const TimedSample sample =
        run_session(loop, index, begin, true, session, result, outcome, stats);
    stats.samples.push_back(sample);
    p["session.run"].push_back(sample.end_s - sample.start_s);
    tradefl::core::MechanismResult mechanism;
    p["core.run_scheme"].push_back(time_s([&] {
      mechanism =
          tradefl::core::run_scheme(game, loop.options.scheme, loop.options.scheme_options);
    }));
    p["core.verify_properties"].push_back(
        time_s([&] { (void)tradefl::core::verify_properties(game, mechanism, true); }));
    p["chain.validate"].push_back(time_s([&] { (void)session.blockchain().validate(); }));
    p["chain.save_state"].push_back(
        time_s([&] { (void)session.blockchain().save_chain_state(); }));
    p["chain.gas"].push_back(static_cast<double>(result.total_gas));
    p["chain.blocks"].push_back(static_cast<double>(result.blocks));
    if (loop.options.scheme == tradefl::core::Scheme::kCgbd) {
      p["core.cgbd.iterations"].push_back(
          static_cast<double>(result.mechanism.solution.iterations));
      std::vector<std::size_t> freq;
      for (const auto& strategy : result.mechanism.solution.profile) {
        freq.push_back(strategy.freq_index);
      }
      const tradefl::core::GbdSolver solver(game);
      p["math.primal_solve"].push_back(time_s([&] { (void)solver.solve_primal(freq); }));
    } else {
      p["core.dbr.rounds"].push_back(static_cast<double>(result.mechanism.solution.iterations));
    }
    if (loop.options.run_training && result.training) {
      std::unique_ptr<TrainingInputs> inputs;
      p["fl.dataset"].push_back(time_s([&] {
        inputs = std::make_unique<TrainingInputs>(
            training_inputs(game, result.mechanism.solution.profile, loop.options));
      }));
      tradefl::fl::FedAvgResult replay;
      p["fl.train_fedavg"].push_back(time_s([&] {
        replay = tradefl::fl::train_fedavg(inputs->model, inputs->clients, *inputs->test_set,
                                           loop.options.fedavg);
      }));
      outcome.check(replay.final_weights == result.training->final_weights,
                    "fl::train_fedavg replay diverged from the session's model");
      tradefl::fl::Net net = tradefl::fl::build_model(inputs->model);
      net.set_weights(result.training->final_weights);
      p["fl.evaluate"].push_back(
          time_s([&] { (void)tradefl::fl::evaluate(net, *inputs->test_set); }));
      // A training sample costs a forward pass plus the two backward GEMMs
      // (dX and dW) of the same size; each test sample costs a forward.
      const double forward = 2.0 * static_cast<double>(mlp_shape(loop.options).weights);
      const double per_round =
          3.0 * forward * static_cast<double>(result.training->total_contributed_samples) +
          forward * static_cast<double>(loop.options.test_samples);
      p["fl.gemm.flops"].push_back(per_round *
                                   static_cast<double>(result.training->history.size()));
    }
    if (first_results != nullptr && first_results->empty()) first_results->push_back(result);
    ++index;
  }
  return stats;
}

std::vector<double> ok_latencies(const std::vector<RequestOutcome>& outcomes) {
  std::vector<double> latencies;
  for (const RequestOutcome& o : outcomes) {
    if (o.ok) latencies.push_back(o.latency_s);
  }
  return latencies;
}

/// The timing figures of the kept windows of a pass.
struct PassTimings {
  PooledWindows pooled;
  double setup_s = 0.0;
  double sessions_per_s = 0.0;
  double p50_s = 0.0;
  Tail tail;
};
PassTimings pass_timings(const LoopStats& stats, double reference_s) {
  PassTimings timings;
  timings.pooled = pool_windows(stats.windows, reference_s);
  const PooledWindows& kept = timings.pooled;
  const std::vector<double> ok = ok_latencies(kept.outcomes);
  timings.setup_s = median(pool_windows(stats.setups, reference_s).setup_s);
  timings.sessions_per_s = static_cast<double>(ok.size()) / kept.wall_s;
  timings.p50_s = median(ok);
  timings.tail = blocked_tail(latencies_counting_failures(kept.outcomes), kTailBlock);
  return timings;
}

/// The end-to-end metrics of the untraced pass. Correctness counts every
/// session; timings come from the windows the host ran at its fastest,
/// scaled to the reference host speed.
void report_timed_pass(const LoopStats& stats, Outcome& outcome) {
  const PassTimings scaled = pass_timings(stats, kReferenceCalibrationS);
  outcome.attempted = stats.attempted;
  outcome.failed = stats.failed;
  const double attempted = static_cast<double>(stats.attempted);
  outcome.add("setup_s", scaled.setup_s, "s");
  outcome.add("sessions_per_s", scaled.sessions_per_s, "1/s");
  outcome.add("session_p50_ms", scaled.p50_s * 1e3, "ms");
  outcome.add("session_tail_ms", scaled.tail.value * 1e3, "ms");
  outcome.add("ok_share", 1.0 - static_cast<double>(stats.failed) / attempted, "share");
  outcome.add("ne_share", ne_share(outcome), "share");
  outcome.add("model_accuracy", stats.accuracy_sum / attempted, "share");
  outcome.add("peak_rss_mb", peak_rss_mb(), "MB");

  const PassTimings measured = pass_timings(stats, 0.0);
  outcome.detail.emplace_back(
      "measured", "{\"setup_s\": " + full_digits(measured.setup_s) +
                      ", \"sessions_per_s\": " + full_digits(measured.sessions_per_s) +
                      ", \"session_p50_ms\": " + full_digits(measured.p50_s * 1e3) +
                      ", \"session_tail_ms\": " + full_digits(measured.tail.value * 1e3) + "}");
  outcome.detail.emplace_back("tail_percentile", full_digits(scaled.tail.percentile));
  outcome.detail.emplace_back("tail_samples", std::to_string(scaled.tail.samples));
  outcome.detail.emplace_back("tail_blocks", std::to_string(scaled.tail.blocks));
  outcome.detail.emplace_back("host_windows_kept", std::to_string(stats.windows.size()) +
                                                       ", \"windows\": " +
                                                       std::to_string(stats.window_count));
  outcome.detail.emplace_back("kept_calibration_us",
                              "[" + full_digits(measured.pooled.fastest_host_s * 1e6) + ", " +
                                  full_digits(measured.pooled.slowest_host_s * 1e6) + "]");
  outcome.detail.emplace_back("setups_kept", std::to_string(stats.setups.size()));
  outcome.detail.emplace_back("window_p50_median_ms",
                              full_digits(median(stats.window_p50_s) * 1e3));
}

/// Layer metrics every workload prints; each starts at 0 ("not on this
/// workload's path") and is overwritten where measured.
const std::vector<std::pair<std::string, std::string>>& layer_metric_units() {
  static const std::vector<std::pair<std::string, std::string>> units{
      {"core.run_scheme.p50_us", "us"},      {"core.verify_properties.p50_us", "us"},
      {"core.dbr.rounds", "count"},          {"core.cgbd.iterations", "count"},
      {"math.primal_solve.p50_us", "us"},    {"game.build.p50_us", "us"},
      {"fl.train_fedavg.p50_ms", "ms"},      {"fl.local_train.p50_ms", "ms"},
      {"fl.aggregate.p50_us", "us"},         {"fl.evaluate.p50_us", "us"},
      {"fl.dataset.p50_ms", "ms"},           {"fl.sgemm_nn.gflops", "GFLOP/s"},
      {"fl.sgemm_nt.gflops", "GFLOP/s"},     {"fl.sgemm_tn.gflops", "GFLOP/s"},
      {"fl.gemm.flops_per_session", "count"}, {"chain.call.p50_us", "us"},
      {"chain.calls_per_session", "count"},  {"chain.validate.p50_us", "us"},
      {"chain.gas_per_session", "count"},    {"chain.blocks_per_session", "count"},
      {"chain.save_state.p50_us", "us"},     {"state.bytes_per_session", "B"},
      {"state.files_per_session", "count"},  {"snapshot.writes_per_session", "count"},
      {"session.run.p50_ms", "ms"},          {"session.covered_share", "share"},
      {"report.write.p50_us", "us"},         {"wire.parse.p50_us", "us"},
      {"server.admit.p50_ms", "ms"},         {"server.admit.tail_ms", "ms"},
      {"server.admit.growth", "ratio"},      {"server.queue_wait.p50_ms", "ms"},
      {"server.backlog.max", "count"},       {"server.status.p50_ms", "ms"},
      {"server.registry.bytes", "B"},        {"obs.metrics.count", "count"},
      {"serve.gen_lag.p99_ms", "ms"},        {"serve.session_p50_ms", "ms"},
      {"serve.session_tail_ms", "ms"},       {"serve.goodput_per_s", "1/s"},
      {"serve.session_run_p50_ms", "ms"},    {"serve.covered_share", "share"},
      {"train.session_run_p50_ms", "ms"},    {"train.covered_share", "share"},
      {"train.model_accuracy", "share"},     {"trace.overhead_share", "share"},
  };
  return units;
}

std::size_t metrics_registered(const tradefl::obs::MetricsSnapshot& snapshot) {
  return snapshot.counters.size() + snapshot.gauges.size() + snapshot.histograms.size() +
         snapshot.series.size();
}

// ---------------------------------------------------------------------------
// The serve daemon, driven open loop (measured in the traced run of settle).

tradefl::server::ServeOptions serve_options(const std::string& root) {
  tradefl::server::ServeOptions options;
  options.root = root;
  options.workers = kServeWorkers;
  options.threads = kServeThreads;
  options.watchdog_seconds = 0.0;
  options.resume = false;
  return options;
}

/// Re-runs a sample of the served configs in-process: the report the server
/// wrote must be byte-equal to the in-process canonical report. Also times
/// the module calls the served session made into `p`.
std::vector<bool> check_served_reports(const LadderRun& run,
                                       const std::vector<ScheduledLine>& lines,
                                       const std::string& scratch, Outcome& outcome, Probes& p) {
  std::vector<bool> report_ok(run.requests.size(), true);
  std::size_t admitted = 0;
  for (std::size_t k = 0; k < run.requests.size(); ++k) {
    const RequestRecord& record = run.requests[k];
    if (record.is_status || record.first_op != "accepted") continue;
    if (admitted++ % kReportSampleEvery != 0) continue;
    auto request = tradefl::wire::Message::parse(lines[k].line);
    const tradefl::Config config = tradefl::wire::to_config(request.value());
    const tradefl::game::CoopetitionGame game = tradefl::cli::game_from_options(config);
    auto built = tradefl::cli::session_options_from_config(config);
    if (!built.ok()) {
      report_ok[k] = false;
      outcome.check(false, "serve: bad generated config");
      continue;
    }
    const SessionOptions options = built.value();
    TradingSession session(game);
    const SessionResult result = session.run(options);
    note_equilibrium(
        result, static_cast<std::uint64_t>(request.value().get_number("seed").value_or(0.0)),
        outcome);
    const std::string expected = tradefl::canonical_session_report(game, result);
    std::ifstream file(record.report_path, std::ios::binary);
    std::stringstream actual;
    actual << file.rdbuf();
    report_ok[k] = file.good() && actual.str() == expected && session_is_correct(result);
    outcome.check(report_ok[k], "serve: report of session " + std::to_string(record.id) +
                                    " differs from the in-process run");
    p["game.build"].push_back(time_s([&] { (void)tradefl::cli::game_from_options(config); }));
    tradefl::core::MechanismResult mechanism;
    p["core.run_scheme"].push_back(time_s([&] {
      mechanism = tradefl::core::run_scheme(game, options.scheme, options.scheme_options);
    }));
    p["core.verify_properties"].push_back(
        time_s([&] { (void)tradefl::core::verify_properties(game, mechanism, true); }));
    p["chain.save_state"].push_back(time_s([&] { (void)session.blockchain().save_chain_state(); }));
    const std::string report_path = scratch + "/report.txt";
    p["report.write"].push_back(time_s([&] {
      outcome.check(tradefl::write_session_report(report_path, game, result).ok(),
                    "serve: write_session_report failed");
    }));
    if (options.scheme == tradefl::core::Scheme::kCgbd) {
      p["core.cgbd.iterations"].push_back(static_cast<double>(result.mechanism.solution.iterations));
      std::vector<std::size_t> freq;
      for (const auto& strategy : result.mechanism.solution.profile) {
        freq.push_back(strategy.freq_index);
      }
      const tradefl::core::GbdSolver solver(game);
      p["math.primal_solve"].push_back(time_s([&] { (void)solver.solve_primal(freq); }));
    }
  }
  return report_ok;
}

struct StateWalk {
  std::uintmax_t bytes = 0;
  std::size_t files = 0;
};
StateWalk walk_state(const std::string& root) {
  StateWalk walk;
  std::error_code ec;
  for (auto it = fs::recursive_directory_iterator(root, ec);
       !ec && it != fs::recursive_directory_iterator(); it.increment(ec)) {
    if (it->is_regular_file(ec)) {
      walk.bytes += it->file_size(ec);
      ++walk.files;
    }
  }
  return walk;
}

/// One ladder pass: fresh root, run, checks, verdicts per rung, probes.
struct ServePass {
  LadderRun run;
  std::vector<RungVerdict> rungs;
  std::vector<bool> report_ok;
  Probes probes;
  StateWalk state;
  std::uintmax_t registry_bytes = 0;
  std::size_t admitted = 0;
};

/// Observability is on while the server runs and its metrics land in
/// `snapshot`; the module probes run on the sampled configs once the server
/// is gone.
ServePass serve_pass(const LadderSpec& spec, const std::vector<ScheduledLine>& lines,
                     const std::string& root, const std::string& scratch, Outcome& outcome,
                     tradefl::obs::MetricsSnapshot& snapshot) {
  ServePass pass;
  std::error_code ec;
  fs::remove_all(root, ec);
  // Let the file system finish writing back (and discarding) what earlier
  // passes left behind, so it does not land inside this pass's timings.
  ::sync();
  PacedLineSource source(lines);
  tradefl::obs::metrics().reset();
  tradefl::obs::set_enabled(true);
  pass.run = run_ladder(serve_options(root), lines, source);
  tradefl::obs::set_enabled(false);
  snapshot = tradefl::obs::metrics().snapshot();
  outcome.check(pass.run.summary.exit_code == 0, "serve: server exited non-zero");
  outcome.check(pass.run.unmatched_replies == 0, "serve: replies without a request");
  for (const RequestRecord& record : pass.run.requests) {
    if (record.is_status) {
      outcome.check(record.first_op == "status", "serve: status op not answered");
      continue;
    }
    if (record.first_op == "accepted") {
      ++pass.admitted;
      outcome.check(record.terminal_replies == 1,
                    "serve: session " + std::to_string(record.id) + " got " +
                        std::to_string(record.terminal_replies) + " terminal replies");
    }
  }
  pass.report_ok = check_served_reports(pass.run, lines, scratch, outcome, pass.probes);
  for (std::size_t rung = 0; rung < spec.rates_per_s.size(); ++rung) {
    pass.rungs.push_back(
        judge_rung(pass.run, spec, rung, pass.report_ok, kServeLimitS, kServeWorkers));
  }
  pass.state = walk_state(root);
  pass.registry_bytes = fs::file_size(root + "/registry.snap", ec);
  if (ec) pass.registry_bytes = 0;
  return pass;
}

/// The daemon's layers: one pass of the serve ladder with observability on,
/// then module probes on the sampled configs once the server is gone. Fills
/// the serve-only entries of `values`.
void serve_probe(const Args& args, const std::string& work_dir, Outcome& outcome,
                 std::map<std::string, double>& values) {
  const std::string root = work_dir + "/serve-root";
  const std::string scratch = work_dir + "/scratch";
  fs::create_directories(scratch);
  LadderSpec spec;
  spec.rates_per_s = kServeRates;
  spec.rung_seconds = std::min(args.seconds, kServeSeconds) /
                      static_cast<double>(spec.rates_per_s.size());
  spec.seed = args.seed;
  const std::vector<ScheduledLine> lines = make_schedule(spec);
  tradefl::obs::MetricsSnapshot snapshot;
  const ServePass pass = serve_pass(spec, lines, root, scratch, outcome, snapshot);
  const Probes& p = pass.probes;

  std::vector<double> parse_s;
  for (const ScheduledLine& line : lines) {
    parse_s.push_back(time_s([&] { (void)tradefl::wire::Message::parse(line.line); }));
  }
  // Per-session run time from each session's own latency twin.
  std::map<std::uint64_t, double> run_s;
  const std::string twin_suffix = "/session.latency.seconds";
  for (const auto& histogram : snapshot.histograms) {
    const std::string& name = histogram.name;
    if (name.rfind("session=", 0) != 0 || name.size() <= twin_suffix.size() ||
        name.compare(name.size() - twin_suffix.size(), twin_suffix.size(), twin_suffix) != 0 ||
        histogram.data.count == 0) {
      continue;
    }
    const std::uint64_t id = std::stoull(name.substr(8, name.size() - 8 - twin_suffix.size()));
    run_s[id] = histogram.data.sum / static_cast<double>(histogram.data.count);
  }
  std::vector<double> admit_s;
  std::vector<double> queue_wait_s;
  std::vector<double> status_s;
  std::vector<double> session_run_s;
  for (const RequestRecord& record : pass.run.requests) {
    if (record.is_status) {
      if (record.first_reply_s >= 0.0) status_s.push_back(record.first_reply_s - record.release_s);
      continue;
    }
    if (record.first_op != "accepted") continue;
    admit_s.push_back(record.first_reply_s - record.release_s);
    const auto found = run_s.find(record.id);
    if (found != run_s.end() && record.terminal_s >= 0.0) {
      session_run_s.push_back(found->second);
      queue_wait_s.push_back(record.terminal_s - record.first_reply_s - found->second);
    }
  }
  // Admission cost growth: the 10th percentile of the last decile of
  // admissions over that of the first. The low percentile is the cost an
  // admission pays on its own, without waiting for a worker's registry
  // rewrite, so it tracks the registry size rather than the offered rate.
  const std::size_t decile = std::max<std::size_t>(1, admit_s.size() / 10);
  const double first_decile = quantile(
      std::vector<double>(admit_s.begin(), admit_s.begin() + static_cast<long>(decile)), 0.1);
  const double last_decile = quantile(
      std::vector<double>(admit_s.end() - static_cast<long>(decile), admit_s.end()), 0.1);
  const double admitted = static_cast<double>(std::max<std::size_t>(1, pass.admitted));
  const ObsHistogram call = obs_histogram(snapshot, "chain.call.seconds");
  const ObsHistogram validate = obs_histogram(snapshot, "chain.validate.seconds");
  const std::vector<double> backlog = outstanding_samples(
      pass.run, 0.0, spec.rung_seconds * static_cast<double>(spec.rates_per_s.size()), 0.01);
  const std::size_t middle = spec.rates_per_s.size() / 2;
  const std::vector<RequestOutcome> mid = session_outcomes(pass.run, middle, pass.report_ok);

  values["core.cgbd.iterations"] = probe_mean(p, "core.cgbd.iterations");
  values["math.primal_solve.p50_us"] = probe_p50(p, "math.primal_solve") * 1e6;
  values["game.build.p50_us"] = probe_p50(p, "game.build") * 1e6;
  values["state.bytes_per_session"] = static_cast<double>(pass.state.bytes) / admitted;
  values["state.files_per_session"] = static_cast<double>(pass.state.files) / admitted;
  values["snapshot.writes_per_session"] =
      static_cast<double>(obs_counter(snapshot, "snapshot.writes")) / admitted;
  values["report.write.p50_us"] = probe_p50(p, "report.write") * 1e6;
  values["wire.parse.p50_us"] = median(parse_s) * 1e6;
  values["server.admit.p50_ms"] = median(admit_s) * 1e3;
  values["server.admit.tail_ms"] = tail_ten_beyond(admit_s).value * 1e3;
  values["server.admit.growth"] = first_decile > 0.0 ? last_decile / first_decile : 0.0;
  values["server.queue_wait.p50_ms"] = median(queue_wait_s) * 1e3;
  values["server.backlog.max"] =
      backlog.empty() ? 0.0 : *std::max_element(backlog.begin(), backlog.end());
  values["server.status.p50_ms"] = median(status_s) * 1e3;
  values["server.registry.bytes"] = static_cast<double>(pass.registry_bytes);
  values["obs.metrics.count"] = static_cast<double>(metrics_registered(snapshot));
  values["serve.gen_lag.p99_ms"] = quantile(generator_lag(pass.run), 0.99) * 1e3;
  values["serve.session_p50_ms"] = median(ok_latencies(mid)) * 1e3;
  values["serve.session_tail_ms"] = tail_ten_beyond(latencies_counting_failures(mid)).value * 1e3;
  values["serve.goodput_per_s"] = goodput(pass.rungs);
  values["serve.session_run_p50_ms"] = median(session_run_s) * 1e3;
  // Phases 3-5 each serialize the chain state into their checkpoint.
  const double covered = probe_mean(p, "core.run_scheme") +
                         probe_mean(p, "core.verify_properties") +
                         (call.sum + validate.sum) / admitted +
                         3.0 * probe_mean(p, "chain.save_state");
  values["serve.covered_share"] = covered / mean(session_run_s);
  std::error_code ec;
  fs::remove_all(root, ec);
}

/// The closed loop of a gated workload ("settle", "cgbd") or of the train
/// probe ("train").
ClosedLoop make_loop(const std::string& kind) {
  ClosedLoop loop;
  if (kind == "train") {
    loop.options = train_options();
    loop.threads = kTrainThreads;
    loop.pool = 256;
    loop.warmup = 1;
    return loop;
  }
  loop.options = settle_options();
  if (kind == "cgbd") loop.options.scheme = tradefl::core::Scheme::kCgbd;
  // Windows of about a fifth of a second, with the ~0.5 ms calibration
  // every ~10 ms of sessions.
  loop.window = kind == "cgbd" ? 125 : 500;
  loop.calibrate_every = kind == "cgbd" ? 5 : 20;
  loop.pool = 4096;
  loop.warmup = kind == "cgbd" ? 16 : 64;
  return loop;
}

/// Mean time inside a session that the core and chain probes account for.
double covered_s(const Probes& probes, const tradefl::obs::MetricsSnapshot& snapshot,
                 double sessions) {
  return probe_mean(probes, "core.run_scheme") + probe_mean(probes, "core.verify_properties") +
         (obs_histogram(snapshot, "chain.call.seconds").sum +
          obs_histogram(snapshot, "chain.validate.seconds").sum) /
             sessions;
}

/// The fl layer: a traced pass of training sessions (MLP, FMNIST-like, 10
/// rounds, sample_scale=1, one thread) with the fl probes, plus the output
/// checks that only trained sessions have. Fills the fl.* and train.*
/// entries of `values`.
void train_probe(const Args& args, Outcome& outcome, std::map<std::string, double>& values) {
  ClosedLoop loop = make_loop("train");
  tradefl::set_global_threads(loop.threads);
  prepare(loop, args.seed);
  Probes probes;
  std::vector<SessionResult> first;
  tradefl::obs::metrics().reset();
  const LoopStats stats =
      traced_pass(loop, std::min(args.seconds, kTrainProbeSeconds), outcome, probes, &first);
  const tradefl::obs::MetricsSnapshot snapshot = tradefl::obs::metrics().snapshot();
  if (!first.empty()) {
    // Bit-identity across thread counts: the first session re-run on a pool
    // of kCheckThreads renders the same canonical report, final-weight
    // fingerprint included.
    tradefl::set_global_threads(kCheckThreads);
    TradingSession again(loop.games[0]);
    const SessionResult rerun = again.run(loop.options);
    outcome.check(tradefl::canonical_session_report(loop.games[0], rerun) ==
                      tradefl::canonical_session_report(loop.games[0], first[0]),
                  "train: session report differs between thread counts");
  }
  tradefl::set_global_threads(1);
  values["fl.train_fedavg.p50_ms"] = probe_p50(probes, "fl.train_fedavg") * 1e3;
  values["fl.local_train.p50_ms"] = obs_histogram(snapshot, "fl.local_train.seconds").p50 * 1e3;
  values["fl.aggregate.p50_us"] = obs_histogram(snapshot, "fl.aggregate.seconds").p50 * 1e6;
  values["fl.evaluate.p50_us"] = probe_p50(probes, "fl.evaluate") * 1e6;
  values["fl.dataset.p50_ms"] = probe_p50(probes, "fl.dataset") * 1e3;
  values["fl.gemm.flops_per_session"] = probe_mean(probes, "fl.gemm.flops");
  // First-layer shapes of the MLP at the training batch size: forward (nt),
  // input gradient (nn) and weight gradient (tn), as fl::Dense runs them.
  const MlpShape shape = mlp_shape(loop.options);
  const std::size_t batch = loop.options.fedavg.batch_size;
  values["fl.sgemm_nt.gflops"] = sgemm_gflops(Gemm::kNT, batch, shape.hidden, shape.features);
  values["fl.sgemm_nn.gflops"] = sgemm_gflops(Gemm::kNN, batch, shape.features, shape.hidden);
  values["fl.sgemm_tn.gflops"] = sgemm_gflops(Gemm::kTN, shape.hidden, shape.features, batch);
  const double sessions = static_cast<double>(stats.samples.size());
  values["train.session_run_p50_ms"] = probe_p50(probes, "session.run") * 1e3;
  values["train.covered_share"] =
      (covered_s(probes, snapshot, sessions) + probe_mean(probes, "fl.dataset") +
       probe_mean(probes, "fl.train_fedavg")) /
      probe_mean(probes, "session.run");
  values["train.model_accuracy"] = stats.accuracy_sum / sessions;
}

void run_closed_workload(const Args& args, const std::string& work_dir, Outcome& outcome) {
  ClosedLoop loop = make_loop(args.workload);
  tradefl::set_global_threads(loop.threads);
  const LoopStats stats = timed_pass(loop, args.seed, args.seconds, outcome);
  report_timed_pass(stats, outcome);
  if (!args.trace) return;

  // ---- Traced pass. ----
  Probes probes;
  tradefl::obs::metrics().reset();
  const LoopStats traced_stats = traced_pass(loop, args.seconds, outcome, probes, nullptr);
  const tradefl::obs::MetricsSnapshot snapshot = tradefl::obs::metrics().snapshot();
  const double sessions = static_cast<double>(traced_stats.samples.size());
  outcome.metrics.clear();
  std::map<std::string, double> values;
  values["core.run_scheme.p50_us"] = probe_p50(probes, "core.run_scheme") * 1e6;
  values["core.verify_properties.p50_us"] = probe_p50(probes, "core.verify_properties") * 1e6;
  values["core.dbr.rounds"] = probe_mean(probes, "core.dbr.rounds");
  values["core.cgbd.iterations"] = probe_mean(probes, "core.cgbd.iterations");
  values["math.primal_solve.p50_us"] = probe_p50(probes, "math.primal_solve") * 1e6;
  const ObsHistogram call = obs_histogram(snapshot, "chain.call.seconds");
  values["chain.call.p50_us"] = call.p50 * 1e6;
  values["chain.calls_per_session"] = static_cast<double>(call.count) / sessions;
  values["chain.validate.p50_us"] = probe_p50(probes, "chain.validate") * 1e6;
  values["chain.gas_per_session"] = probe_mean(probes, "chain.gas");
  values["chain.blocks_per_session"] = probe_mean(probes, "chain.blocks");
  values["chain.save_state.p50_us"] = probe_p50(probes, "chain.save_state") * 1e6;
  values["session.run.p50_ms"] = probe_p50(probes, "session.run") * 1e3;
  values["session.covered_share"] =
      covered_s(probes, snapshot, sessions) / probe_mean(probes, "session.run");
  values["obs.metrics.count"] = static_cast<double>(metrics_registered(snapshot));
  // Traced session median over the untraced pass's median window median.
  values["trace.overhead_share"] =
      probe_p50(probes, "session.run") / median(stats.window_p50_s) - 1.0;
  // The probes of the ungated paths: the daemon after settle, training
  // after cgbd, so each traced run stays well inside its time limit.
  if (args.workload == "settle") {
    serve_probe(args, work_dir, outcome, values);
  } else {
    train_probe(args, outcome, values);
  }
  for (const auto& [name, unit] : layer_metric_units()) {
    const auto found = values.find(name);
    outcome.add(name, found == values.end() ? 0.0 : found->second, unit);
  }
}

/// Fails the run when more than kMaxNeMissShare of its CGBD sessions missed
/// NE, and lists the games that missed in the detail line.
void gate_equilibria(Outcome& outcome) {
  outcome.check(static_cast<double>(outcome.ne_missed) <=
                    kMaxNeMissShare * static_cast<double>(outcome.ne_checked),
                "CGBD missed NE on " + std::to_string(outcome.ne_missed) + " of " +
                    std::to_string(outcome.ne_checked) + " sessions");
  std::string games = "{";
  for (const auto& [seed, gain] : outcome.ne_miss_games) {
    games += (games.size() > 1 ? ", \"" : "\"") + std::to_string(seed) + "\": " +
             full_digits(gain);
  }
  outcome.detail.emplace_back("ne_misses", std::to_string(outcome.ne_missed));
  outcome.detail.emplace_back("ne_miss_gain_by_game_seed", games + "}");
}

// ---------------------------------------------------------------------------

bool parse_args(int argc, char** argv, Args& args) {
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    try {
      if (key == "--workload") {
        args.workload = value;
        have_workload = true;
      } else if (key == "--seed") {
        args.seed = std::stoull(value);
      } else if (key == "--seconds") {
        args.seconds = std::stod(value);
      } else if (key == "--trace") {
        if (value != "0" && value != "1") return false;
        args.trace = value == "1";
      } else {
        return false;
      }
    } catch (const std::exception&) {
      return false;
    }
  }
  return argc % 2 == 1 && have_workload && args.seconds > 0.0 &&
         (args.workload == "settle" || args.workload == "cgbd");
}

void print_result(const Args& args, const Outcome& outcome) {
  std::cout << host_block() << "\n";
  std::string detail = "{\"workload\": " + json_string(args.workload) +
                       ", \"seed\": " + std::to_string(args.seed);
  for (const auto& [key, value] : outcome.detail) detail += ", \"" + key + "\": " + value;
  std::cout << "{\"detail\": " << detail << "}}\n";
  std::cout << "{\"correct\": " << (outcome.correct ? "true" : "false")
            << ", \"attempted\": " << outcome.attempted << ", \"failed\": " << outcome.failed
            << ", \"metrics\": {";
  for (std::size_t i = 0; i < outcome.metrics.size(); ++i) {
    const Metric& metric = outcome.metrics[i];
    std::cout << (i ? ", " : "") << json_string(metric.name)
              << ": {\"value\": " << full_digits(metric.value)
              << ", \"unit\": " << json_string(metric.unit) << "}";
  }
  std::cout << "}}" << std::endl;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args;
  if (!parse_args(argc, argv, args)) {
    std::cerr << "usage: tflbench --workload settle|cgbd --seed N --seconds S "
                 "--trace 0|1\n";
    return 2;
  }
  const std::string work_dir =
      (std::filesystem::current_path() / ".bench_build" /
       ("run-" + std::to_string(static_cast<long long>(::getpid()))))
          .string();
  Outcome outcome;
  try {
    std::filesystem::create_directories(work_dir);
    run_closed_workload(args, work_dir, outcome);
    gate_equilibria(outcome);
  } catch (const std::exception& failure) {
    std::cerr << "tflbench: " << failure.what() << "\n";
    std::error_code ec;
    std::filesystem::remove_all(work_dir, ec);
    return 1;
  }
  std::error_code ec;
  std::filesystem::remove_all(work_dir, ec);
  for (const std::string& problem : outcome.problems) std::cerr << "check failed: " << problem << "\n";
  print_result(args, outcome);
  return outcome.correct ? 0 : 1;
}
