#include "serve_load.h"

#include <algorithm>
#include <exception>
#include <map>
#include <optional>
#include <ostream>
#include <stdexcept>
#include <streambuf>
#include <thread>

#include "common/rng.h"
#include "tradefl/wire.h"

namespace perfbench {

namespace server = tradefl::server;
namespace wire = tradefl::wire;

namespace {

constexpr std::size_t kOrgs = 6;
constexpr double kStatusShare = 0.1;  // share of lines that are "status" ops
constexpr double kCgbdShare = 0.25;   // share of sessions solved by CGBD (rest DBR)

}  // namespace

std::vector<ScheduledLine> make_schedule(const LadderSpec& spec) {
  tradefl::Rng rng(spec.seed);
  std::vector<ScheduledLine> lines;
  std::uint64_t session_seed = spec.seed * 1000003ULL;
  for (std::size_t rung = 0; rung < spec.rates_per_s.size(); ++rung) {
    const double gap = 1.0 / spec.rates_per_s[rung];
    const double rung_start = static_cast<double>(rung) * spec.rung_seconds;
    const double rung_end = rung_start + spec.rung_seconds;
    double due = rung_start + gap * rng.uniform(0.0, 1.0);
    while (due < rung_end) {
      ScheduledLine scheduled;
      scheduled.due_s = due;
      scheduled.rung = rung;
      wire::Message request;
      if (rng.bernoulli(kStatusShare)) {
        scheduled.is_status = true;
        request.set_string("op", "status");
      } else {
        const bool cgbd = rng.bernoulli(kCgbdShare);
        request.set_string("op", "session");
        request.set_string("scheme", cgbd ? "cgbd" : "dbr");
        request.set_number("orgs", static_cast<double>(kOrgs));
        request.set_number("seed", static_cast<double>(session_seed++));
      }
      scheduled.line = request.serialize();
      lines.push_back(std::move(scheduled));
      due += gap * rng.uniform(0.5, 1.5);
    }
  }
  return lines;
}

PacedLineSource::PacedLineSource(const std::vector<ScheduledLine>& lines) : lines_(&lines) {
  released_s_.reserve(lines.size());
}

server::ReadStatus PacedLineSource::next(std::string& line) {
  if (!started_) {
    started_ = true;
    start_ = Clock::now();
  }
  if (cursor_ >= lines_->size()) return server::ReadStatus::kEof;
  const ScheduledLine& scheduled = (*lines_)[cursor_];
  before_release(cursor_);
  std::this_thread::sleep_until(
      start_ + std::chrono::duration_cast<Clock::duration>(
                   std::chrono::duration<double>(scheduled.due_s)));
  released_s_.push_back(seconds_between(start_, Clock::now()));
  line = scheduled.line;
  ++cursor_;
  return server::ReadStatus::kLine;
}

namespace {

/// Stream buffer that timestamps every completed line. The server writes
/// replies under its own output mutex, so no locking is needed here.
class TimestampingSink : public std::streambuf {
 public:
  [[nodiscard]] std::vector<ReplyLine>& lines() { return lines_; }

 protected:
  int_type overflow(int_type ch) override {
    if (traits_type::eq_int_type(ch, traits_type::eof())) return traits_type::not_eof(ch);
    put(traits_type::to_char_type(ch));
    return ch;
  }
  std::streamsize xsputn(const char* data, std::streamsize count) override {
    for (std::streamsize i = 0; i < count; ++i) put(data[i]);
    return count;
  }

 private:
  void put(char c) {
    if (c == '\n') {
      lines_.push_back(ReplyLine{Clock::now(), std::move(pending_)});
      pending_.clear();
    } else {
      pending_.push_back(c);
    }
  }

  std::string pending_;
  std::vector<ReplyLine> lines_;
};

/// Runs the server to completion on its own thread, rethrowing anything it
/// threw on the caller's thread.
server::ServeSummary serve_on_thread(const server::ServeOptions& options,
                                     server::LineSource& source, std::ostream& out) {
  server::ServeSummary summary;
  std::exception_ptr failure;
  std::thread thread([&] {
    try {
      server::Server daemon(options);
      summary = daemon.run(source, out);
    } catch (...) {
      failure = std::current_exception();
    }
  });
  thread.join();
  if (failure) std::rethrow_exception(failure);
  return summary;
}

}  // namespace

LadderRun match_replies(const std::vector<ScheduledLine>& lines,
                        const std::vector<double>& released_s,
                        const std::vector<ReplyLine>& replies, Clock::time_point start) {
  LadderRun run;
  run.requests.resize(lines.size());
  for (std::size_t k = 0; k < lines.size(); ++k) {
    RequestRecord& record = run.requests[k];
    record.due_s = lines[k].due_s;
    record.is_status = lines[k].is_status;
    record.rung = lines[k].rung;
    record.release_s = k < released_s.size() ? released_s[k] : -1.0;
  }

  // First pass: FIFO first replies, and the ids they admit.
  struct Terminal {
    double at_s;
    std::string op;
    std::optional<double> id;
    std::string report;
  };
  std::vector<Terminal> terminals;
  std::size_t next_request = 0;
  std::map<std::uint64_t, std::size_t> by_id;
  for (const ReplyLine& reply : replies) {
    const double at_s = seconds_between(start, reply.at);
    auto parsed = wire::Message::parse(reply.line);
    if (!parsed.ok()) {
      ++run.unmatched_replies;
      continue;
    }
    const wire::Message& message = parsed.value();
    const std::string op = message.get_string("op").value_or("error");
    if (op == "hello" || op == "bye") continue;
    const auto id = message.get_number("id");
    if (op == "done" || op == "failed" || op == "evicted" || op == "parked" ||
        op == "crashed") {
      terminals.push_back(Terminal{at_s, op, id, message.get_string("report").value_or("")});
      continue;
    }
    if (next_request >= run.requests.size()) {
      ++run.unmatched_replies;
      continue;
    }
    RequestRecord& record = run.requests[next_request];
    record.first_reply_s = at_s;
    record.first_op = op;
    if (op == "accepted" && id) {
      record.id = static_cast<std::uint64_t>(*id);
      by_id[record.id] = next_request;
    }
    ++next_request;
  }

  // Second pass: terminal replies by session id.
  for (const Terminal& terminal : terminals) {
    const auto found =
        terminal.id ? by_id.find(static_cast<std::uint64_t>(*terminal.id)) : by_id.end();
    if (found == by_id.end()) {
      ++run.unmatched_replies;
      continue;
    }
    RequestRecord& record = run.requests[found->second];
    ++record.terminal_replies;
    if (record.terminal_replies == 1) {
      record.terminal_s = terminal.at_s;
      record.terminal_op = terminal.op;
      record.report_path = terminal.report;
    }
  }
  return run;
}

LadderRun run_ladder(const server::ServeOptions& options,
                     const std::vector<ScheduledLine>& lines, PacedLineSource& source) {
  TimestampingSink sink;
  std::ostream out(&sink);
  const server::ServeSummary summary = serve_on_thread(options, source, out);
  if (!source.started()) throw std::runtime_error("serve: server never asked for input");
  LadderRun run = match_replies(lines, source.released_s(), sink.lines(), source.start());
  run.summary = summary;
  return run;
}

std::vector<TimedSample> session_samples(const LadderRun& run, std::size_t rung,
                                         const std::vector<bool>& report_ok) {
  std::vector<TimedSample> samples;
  for (std::size_t k = 0; k < run.requests.size(); ++k) {
    const RequestRecord& record = run.requests[k];
    if (record.is_status || record.rung != rung) continue;
    TimedSample sample;
    sample.ok = record.first_op == "accepted" && record.terminal_op == "done" &&
                record.terminal_replies == 1 && (report_ok.empty() || report_ok[k]);
    // Timed from the DUE time: a late release is part of the latency.
    sample.start_s = record.due_s;
    sample.end_s = sample.ok ? record.terminal_s : record.due_s;
    samples.push_back(sample);
  }
  return samples;
}

std::vector<RequestOutcome> session_outcomes(const LadderRun& run, std::size_t rung,
                                             const std::vector<bool>& report_ok) {
  std::vector<RequestOutcome> outcomes;
  for (const TimedSample& sample : session_samples(run, rung, report_ok)) {
    outcomes.push_back(RequestOutcome{sample.end_s - sample.start_s, sample.ok});
  }
  return outcomes;
}

std::vector<double> outstanding_samples(const LadderRun& run, double from_s, double to_s,
                                        double step_s) {
  std::vector<double> due;
  std::vector<double> finished;
  for (const RequestRecord& record : run.requests) {
    if (record.is_status) continue;
    due.push_back(record.due_s);
    // A refused request leaves the system at its refusal; one that never got
    // a terminal reply stays outstanding to the end.
    const double left = record.first_op == "accepted" ? record.terminal_s : record.first_reply_s;
    finished.push_back(left < 0.0 ? kMissedLimit : left);
  }
  std::sort(due.begin(), due.end());
  std::sort(finished.begin(), finished.end());
  std::vector<double> samples;
  for (double t = from_s; t < to_s; t += step_s) {
    const auto arrived = std::upper_bound(due.begin(), due.end(), t) - due.begin();
    const auto left = std::upper_bound(finished.begin(), finished.end(), t) - finished.begin();
    samples.push_back(static_cast<double>(arrived - left));
  }
  return samples;
}

RungVerdict judge_rung(const LadderRun& run, const LadderSpec& spec, std::size_t rung,
                       const std::vector<bool>& report_ok, double limit_s,
                       std::size_t workers) {
  RungVerdict verdict;
  verdict.offered_per_s = spec.rates_per_s[rung];
  const std::vector<RequestOutcome> outcomes = session_outcomes(run, rung, report_ok);
  verdict.tail = tail_ten_beyond(latencies_counting_failures(outcomes));
  double first_due = kMissedLimit;
  double last_done = 0.0;
  std::size_t completed = 0;
  for (std::size_t k = 0; k < run.requests.size(); ++k) {
    const RequestRecord& record = run.requests[k];
    if (record.is_status || record.rung != rung) continue;
    first_due = std::min(first_due, record.due_s);
    if (record.terminal_s >= 0.0) last_done = std::max(last_done, record.terminal_s);
  }
  for (const RequestOutcome& outcome : outcomes) {
    if (outcome.ok) {
      ++completed;
    } else {
      ++verdict.failures;
    }
  }
  if (completed > 0 && last_done > first_due) {
    verdict.achieved_per_s = static_cast<double>(completed) / (last_done - first_due);
  }
  const double rung_start = static_cast<double>(rung) * spec.rung_seconds;
  verdict.backlog_growing =
      backlog_grows(outstanding_samples(run, rung_start, rung_start + spec.rung_seconds, 0.01),
                    static_cast<double>(workers));
  verdict.meets_limit = rung_meets_limit(verdict, limit_s);
  return verdict;
}

std::vector<double> generator_lag(const LadderRun& run) {
  std::vector<double> lag;
  lag.reserve(run.requests.size());
  for (const RequestRecord& record : run.requests) {
    if (record.release_s >= 0.0) lag.push_back(record.release_s - record.due_s);
  }
  return lag;
}

}  // namespace perfbench
