// Open-loop load against an in-process tradefl::server::Server over its
// JSON-lines wire. A paced LineSource releases each request at its due time
// on a seeded schedule; a timestamping sink records every reply line; the
// analysis then matches replies to requests and times each request from its
// DUE time, so a late generator or a stalled reader shows in the latencies.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "stats.h"
#include "tradefl/server.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

/// One request of the schedule. `due_s` is relative to the instant the server
/// first asks for input.
struct ScheduledLine {
  double due_s = 0.0;
  std::string line;
  bool is_status = false;
  std::size_t rung = 0;
};

/// The offered-rate ladder: rung k lasts `rung_seconds` at `rates_per_s[k]`,
/// with gaps jittered uniformly by +/-50% around 1/rate. About one line in
/// ten is a "status" op; the sessions are 3 DBR : 1 CGBD at orgs=6.
struct LadderSpec {
  std::vector<double> rates_per_s;
  double rung_seconds = 1.0;
  std::uint64_t seed = 1;
};

std::vector<ScheduledLine> make_schedule(const LadderSpec& spec);

/// Releases each scheduled line no earlier than its due time. The clock
/// starts at the first next() call, i.e. once the server has booted and
/// replied "hello"; after the last line the source reports EOF.
class PacedLineSource : public tradefl::server::LineSource {
 public:
  explicit PacedLineSource(const std::vector<ScheduledLine>& lines);
  tradefl::server::ReadStatus next(std::string& line) override;

  [[nodiscard]] Clock::time_point start() const { return start_; }
  [[nodiscard]] bool started() const { return started_; }
  /// Release instant of line k, seconds after start().
  [[nodiscard]] const std::vector<double>& released_s() const { return released_s_; }

 protected:
  /// Called before line `index` is released; tests override it to stall.
  virtual void before_release(std::size_t index) { (void)index; }

 private:
  const std::vector<ScheduledLine>* lines_;
  std::size_t cursor_ = 0;
  bool started_ = false;
  Clock::time_point start_{};
  std::vector<double> released_s_;
};

/// One reply line with the instant its newline reached the sink.
struct ReplyLine {
  Clock::time_point at;
  std::string line;
};

/// What happened to one scheduled request.
struct RequestRecord {
  double due_s = 0.0;
  double release_s = 0.0;
  double first_reply_s = -1.0;  // accepted / rejected / status / error reply
  double terminal_s = -1.0;     // done / failed reply (sessions only)
  std::string first_op;         // "accepted", "rejected", "status", "error"
  std::string terminal_op;      // "done", "failed", ... ("" if none arrived)
  std::uint64_t id = 0;         // server-assigned session id
  std::string report_path;
  std::size_t terminal_replies = 0;  // must be exactly 1 for an admitted session
  bool is_status = false;
  std::size_t rung = 0;
};

struct LadderRun {
  std::vector<RequestRecord> requests;
  tradefl::server::ServeSummary summary;
  std::size_t unmatched_replies = 0;  // replies no request accounts for
};

/// Matches the reply lines to the scheduled requests. The reader thread
/// answers requests strictly in input order (accepted, rejected, status or
/// a typed error), so those first replies map FIFO onto the lines; terminal
/// replies carry the session id and are matched to it whatever their order
/// relative to the "accepted" reply (a worker can finish a session before
/// the reader has sent it). `released_s` and reply instants are seconds
/// after `start`.
LadderRun match_replies(const std::vector<ScheduledLine>& lines,
                        const std::vector<double>& released_s,
                        const std::vector<ReplyLine>& replies, Clock::time_point start);

/// Boots a server with `options`, feeds it `source` from a server thread,
/// waits for it to finish and matches replies to the scheduled lines.
LadderRun run_ladder(const tradefl::server::ServeOptions& options,
                     const std::vector<ScheduledLine>& lines, PacedLineSource& source);

/// Per-session samples of one rung (status lines excluded), each running
/// from its due time to its terminal reply. `report_ok` vetoes individual
/// sessions whose report failed a check (indexed like `run.requests`;
/// empty = none).
std::vector<TimedSample> session_samples(const LadderRun& run, std::size_t rung,
                                         const std::vector<bool>& report_ok);

/// session_samples as latency outcomes.
std::vector<RequestOutcome> session_outcomes(const LadderRun& run, std::size_t rung,
                                             const std::vector<bool>& report_ok);

/// Outstanding sessions (due, no terminal reply yet) sampled every
/// `step_s` over [from_s, to_s).
std::vector<double> outstanding_samples(const LadderRun& run, double from_s, double to_s,
                                        double step_s);

/// Verdict for one rung: achieved rate is the rung's correctly completed
/// sessions over the time from its first due instant to its last terminal
/// reply.
RungVerdict judge_rung(const LadderRun& run, const LadderSpec& spec, std::size_t rung,
                       const std::vector<bool>& report_ok, double limit_s,
                       std::size_t workers);

/// How late the source released each line relative to its due time, seconds.
std::vector<double> generator_lag(const LadderRun& run);

}  // namespace perfbench
