// Self-tests of the benchmark's own arithmetic: the tail percentile rule,
// failure accounting, and due-time latency accounting against a deliberately
// stalled line source feeding a real in-process server. Exit code 0 when
// every check holds.
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "serve_load.h"
#include "stats.h"
#include "tradefl/wire.h"

namespace {

using namespace perfbench;

int g_failures = 0;

void expect(bool ok, const std::string& what) {
  if (!ok) {
    ++g_failures;
    std::fprintf(stderr, "FAIL: %s\n", what.c_str());
  }
}

void test_tail_rule() {
  std::vector<double> hundred(100);
  std::iota(hundred.begin(), hundred.end(), 1.0);
  tradefl::Rng rng(3);
  std::vector<std::size_t> order = rng.permutation(hundred.size());
  std::vector<double> shuffled;
  for (std::size_t i : order) shuffled.push_back(hundred[i]);
  const Tail tail = tail_ten_beyond(shuffled);
  expect(tail.value == 90.0, "tail of 1..100 is 90 (ten samples beyond it)");
  expect(tail.percentile == 90.0, "tail of 100 samples is the 90th percentile");
  expect(tail.beyond == 10 && tail.samples == 100, "tail states its sample counts");

  std::vector<double> thousand(1000);
  std::iota(thousand.begin(), thousand.end(), 1.0);
  const Tail big = tail_ten_beyond(thousand);
  expect(big.value == 990.0 && big.percentile == 99.0, "tail of 1..1000 is p99 = 990");

  const Tail small = tail_ten_beyond({3.0, 1.0, 2.0});
  expect(small.value == 3.0 && small.beyond == 0, "ten or fewer samples report the maximum");

  const Tail eleven = tail_ten_beyond({5, 1, 9, 2, 8, 3, 7, 4, 6, 10, 11});
  expect(eleven.value == 1.0, "with 11 samples only the minimum has ten beyond it");

  // Three blocks of 1..100 with one block shifted by +1000: the median of
  // the block tails ignores the one slow block.
  std::vector<double> three;
  for (int b = 0; b < 3; ++b) {
    for (double x : hundred) three.push_back(b == 1 ? x + 1000.0 : x);
  }
  const Tail blocked = blocked_tail(three, 100);
  expect(blocked.value == 90.0 && blocked.blocks == 3 && blocked.samples == 300,
         "blocked tail is the median of the per-block tails");
  expect(blocked_tail(hundred, 100).value == 90.0 && blocked_tail(hundred, 100).blocks == 1,
         "one full block is its own tail");
  std::vector<double> partial = hundred;
  partial.resize(150, 5000.0);
  expect(blocked_tail(partial, 100).value == 90.0,
         "samples past the last full block are left out");
  expect(blocked_tail(hundred, 200).value == 90.0 && blocked_tail(hundred, 200).blocks == 1,
         "no full block falls back to the plain rule");

  // Eight windows of ten sessions. The host calibration of every other
  // window reads 28% slow, as on a contended host; those windows are dropped
  // whatever their sessions took, and the kept ones bring their own samples,
  // set-up repetitions and wall time.
  std::vector<HostWindow> windows;
  double clock = 0.0;
  for (int w = 0; w < 8; ++w) {
    HostWindow window;
    window.host_s = {w % 2 == 0 ? 0.0005 : 0.00065, w % 2 == 0 ? 0.00052 : 0.00064, 0.0005};
    if (w % 4 == 0) window.setup_s.push_back(0.04 + 0.01 * w);
    for (int i = 0; i < 10; ++i) {
      // The fast-host windows hold the slower sessions: the selection must
      // not look at session latency.
      const double latency = w % 2 == 0 ? 0.002 : 0.001;
      window.sessions.push_back(TimedSample{clock, clock + latency, true});
      clock += latency;
    }
    window.wall_s = window.sessions.back().end_s - window.sessions.front().start_s;
    windows.push_back(window);
  }
  std::vector<HostWindow> kept = windows;
  keep_fastest_windows(kept, 0, 4, 1.0);
  const PooledWindows host = pool_windows(kept, 0.0);
  expect(kept.size() == 4 && host.outcomes.size() == 40,
         "the windows with the fastest calibration are kept");
  expect(host.fastest_host_s == 0.0005 && host.slowest_host_s == 0.0005,
         "calibration speeds are window medians");
  expect(std::abs(host.wall_s - 0.08) < 1e-12 &&
             std::all_of(host.outcomes.begin(), host.outcomes.end(),
                         [](const RequestOutcome& o) { return std::abs(o.latency_s - 0.002) < 1e-12; }),
         "kept windows bring their own sessions and wall time");
  expect(host.setup_s.size() == 2 && host.setup_s[0] == 0.04 && host.setup_s[1] == 0.08,
         "kept windows bring their set-up repetitions");
  // Scaled to a reference calibration of 0.25 ms, the kept windows read
  // half their measured times, and their rate twice the measured one.
  const PooledWindows scaled = pool_windows(kept, 0.00025);
  expect(std::abs(scaled.outcomes[0].latency_s - 0.001) < 1e-12 &&
             std::abs(scaled.wall_s - 0.04) < 1e-12 && std::abs(scaled.setup_s[1] - 0.04) < 1e-12,
         "scaling to a reference calibration scales latencies, wall time and set-up");
  // Kept one window at a time, as the pass does, the result is the same.
  std::vector<HostWindow> streamed;
  for (const HostWindow& window : windows) {
    streamed.push_back(window);
    keep_fastest_windows(streamed, 0, 4, 1.0);
  }
  expect(pool_windows(streamed, 0.0).outcomes.size() == 40 &&
             pool_windows(streamed, 0.0).slowest_host_s == 0.0005,
         "keeping windows as they arrive keeps the same ones");
  // Without a cap, the tolerance alone drops the windows 28% slower.
  std::vector<HostWindow> within = windows;
  keep_fastest_windows(within, 0, 20, 0.1);
  std::vector<HostWindow> streamed_within;
  for (const HostWindow& window : windows) {
    streamed_within.push_back(window);
    keep_fastest_windows(streamed_within, 0, 20, 0.1);
  }
  expect(within.size() == 4 && streamed_within.size() == 4,
         "windows beyond the tolerance are dropped, also as they arrive");
  // One window far faster than the rest: the floor still keeps six.
  std::vector<HostWindow> lucky = windows;
  lucky[3].host_s = {0.0001, 0.0001, 0.0001};
  std::vector<HostWindow> streamed_lucky;
  for (const HostWindow& window : lucky) {
    streamed_lucky.push_back(window);
    keep_fastest_windows(streamed_lucky, 6, 20, 0.1);
  }
  keep_fastest_windows(lucky, 6, 20, 0.1);
  expect(lucky.size() == 6 && streamed_lucky.size() == 6 &&
             pool_windows(lucky, 0.0).fastest_host_s == 0.0001,
         "the floor keeps the fastest windows past one lucky window, also as they arrive");
  std::vector<HostWindow> all = windows;
  keep_fastest_windows(all, 0, 20, 0.5);
  expect(all.size() == 8 && pool_windows({}, 0.0).outcomes.empty(),
         "a wide tolerance and a high cap keep every window; no windows pool nothing");

  expect(median({4.0, 1.0, 3.0, 2.0}) == 2.5, "median of an even count");
  expect(quantile({1.0, 2.0, 3.0, 4.0}, 0.5) == 2.0, "nearest-rank quantile");
}

void test_refused_counts_as_miss() {
  std::vector<RequestOutcome> outcomes(19, RequestOutcome{0.001, true});
  outcomes.push_back(RequestOutcome{0.0, false});  // refused: "overloaded"
  expect(std::abs(fail_share(outcomes) - 0.05) < 1e-15, "one refusal in 20 is a 5% fail share");
  const std::vector<double> latencies = latencies_counting_failures(outcomes);
  expect(std::isinf(*std::max_element(latencies.begin(), latencies.end())),
         "a refused request counts as an infinite latency");

  // A refusal inside a rung fails the rung even when its tail is fast, so
  // goodput falls back to the highest clean rung.
  RungVerdict clean;
  clean.offered_per_s = 100.0;
  clean.achieved_per_s = 99.5;
  clean.tail = tail_ten_beyond(std::vector<double>(50, 0.002));
  clean.meets_limit = rung_meets_limit(clean, 0.1);
  RungVerdict refused = clean;
  refused.offered_per_s = 200.0;
  refused.achieved_per_s = 190.0;
  refused.failures = 1;
  refused.meets_limit = rung_meets_limit(refused, 0.1);
  expect(clean.meets_limit && !refused.meets_limit, "a refused request fails its rung");
  expect(goodput({clean, refused}) == 99.5, "goodput skips a rung with a refusal");

  // The same through the reply matching: a "rejected" reply is a miss.
  LadderRun run;
  RequestRecord accepted;
  accepted.due_s = 0.0;
  accepted.first_op = "accepted";
  accepted.terminal_op = "done";
  accepted.terminal_replies = 1;
  accepted.terminal_s = 0.004;
  RequestRecord rejected;
  rejected.due_s = 0.001;
  rejected.first_op = "rejected";
  rejected.first_reply_s = 0.0011;
  run.requests = {accepted, rejected};
  const std::vector<RequestOutcome> matched = session_outcomes(run, 0, {});
  expect(matched.size() == 2 && matched[0].ok && !matched[1].ok,
         "a rejected reply counts as a failed request");
  expect(fail_share(matched) == 0.5, "fail share over matched replies");

  expect(backlog_grows({0, 1, 0, 1, 2, 3, 5, 8}, 2.0), "a rising outstanding count is growth");
  expect(!backlog_grows({2, 1, 2, 1, 2, 1, 2, 1}, 2.0), "a flat outstanding count is not");
}

void test_reply_order() {
  // A worker can finish a session before the reader thread sends its
  // "accepted" reply; the terminal reply must still match by id.
  std::vector<ScheduledLine> lines(3);
  lines[0].due_s = 0.0;
  lines[1].due_s = 0.001;
  lines[1].is_status = true;
  lines[2].due_s = 0.002;
  const Clock::time_point start = Clock::now();
  const auto reply = [&](double at_s, const std::string& op, double id) {
    tradefl::wire::Message message;
    message.set_string("op", op);
    if (id >= 0.0) message.set_number("id", id);
    return ReplyLine{start + std::chrono::duration_cast<Clock::duration>(
                                 std::chrono::duration<double>(at_s)),
                     message.serialize()};
  };
  const std::vector<ReplyLine> replies{
      reply(0.0, "hello", -1.0),    reply(0.003, "done", 7.0),     reply(0.0031, "accepted", 7.0),
      reply(0.0032, "status", -1.0), reply(0.0033, "accepted", 8.0), reply(0.006, "done", 8.0),
      reply(0.007, "done", 8.0),    reply(0.008, "done", 9.0)};
  const LadderRun run = match_replies(lines, {0.0, 0.001, 0.002}, replies, start);
  const RequestRecord& early = run.requests[0];
  expect(early.first_op == "accepted" && early.id == 7 && early.terminal_op == "done" &&
             early.terminal_replies == 1 && std::abs(early.terminal_s - 0.003) < 1e-9,
         "a done reply ahead of its accepted reply matches its session");
  expect(run.requests[1].first_op == "status", "first replies map FIFO onto the lines");
  expect(run.requests[2].terminal_replies == 2, "a duplicate terminal reply is counted");
  expect(run.unmatched_replies == 1, "a terminal reply for an unknown id is unmatched");
}

/// Holds back the first line for `stall_s`, as a generator descheduled by
/// the host would.
class StalledSource : public PacedLineSource {
 public:
  StalledSource(const std::vector<ScheduledLine>& lines, double stall_s)
      : PacedLineSource(lines), stall_s_(stall_s) {}

 protected:
  void before_release(std::size_t index) override {
    if (index == 0) std::this_thread::sleep_for(std::chrono::duration<double>(stall_s_));
  }

 private:
  double stall_s_;
};

void test_stalled_source(const std::string& work_dir) {
  LadderSpec spec;
  spec.rates_per_s = {200.0};
  spec.rung_seconds = 0.12;
  spec.seed = 11;
  const std::vector<ScheduledLine> lines = make_schedule(spec);
  tradefl::server::ServeOptions options;
  options.workers = 2;
  // The stall releases every line at once; room for all of them keeps the
  // check about timing, not load shedding.
  options.queue_limit = 64;
  options.resume = false;

  const auto run_with = [&](PacedLineSource& source, const std::string& root) {
    options.root = root;
    std::error_code ec;
    std::filesystem::remove_all(root, ec);
    return run_ladder(options, lines, source);
  };
  PacedLineSource steady(lines);
  const LadderRun control = run_with(steady, work_dir + "/control");
  constexpr double kStall = 0.15;
  StalledSource stalled_source(lines, kStall);
  const LadderRun stalled = run_with(stalled_source, work_dir + "/stalled");

  const auto tail_of = [](const LadderRun& run) {
    return tail_ten_beyond(latencies_counting_failures(session_outcomes(run, 0, {}))).value;
  };
  const double lag_p99 = quantile(generator_lag(stalled), 0.99);
  const double control_lag_p99 = quantile(generator_lag(control), 0.99);
  expect(lines.size() > 10, "stall test has more than ten requests");
  expect(fail_share(session_outcomes(stalled, 0, {})) == 0.0, "stalled run completes every session");
  // Every line is due before the stall ends, so the first one is released
  // almost the full stall late.
  expect(lag_p99 > kStall * 0.8, "generator lag shows the stall (p99 " +
                                      std::to_string(lag_p99) + " s)");
  expect(control_lag_p99 < kStall * 0.5, "generator lag of the unstalled run stays small");
  // Latency runs from the due time, so the stall lands in the session tail.
  expect(tail_of(stalled) > tail_of(control) + kStall * 0.3,
         "session tail shows the stall (" + std::to_string(tail_of(stalled)) + " s vs " +
             std::to_string(tail_of(control)) + " s)");
}

}  // namespace

int main() {
  const std::string work_dir =
      (std::filesystem::current_path() / ".bench_build" /
       ("selftest-" + std::to_string(static_cast<long long>(::getpid()))))
          .string();
  std::filesystem::create_directories(work_dir);
  test_tail_rule();
  test_refused_counts_as_miss();
  test_reply_order();
  try {
    test_stalled_source(work_dir);
  } catch (const std::exception& failure) {
    expect(false, std::string("stalled-source test threw: ") + failure.what());
  }
  std::error_code ec;
  std::filesystem::remove_all(work_dir, ec);
  std::fprintf(stderr, "tflbench self-test: %s\n", g_failures == 0 ? "ok" : "FAILED");
  return g_failures == 0 ? 0 : 1;
}
