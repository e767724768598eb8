// `tradefl serve` — a long-lived daemon hosting many concurrent
// TradingSessions behind the framed JSON-lines protocol in wire.h (one
// request/reply per stdin/stdout line). Robustness surface:
//
//   * admission control — a bounded pending queue; when it is full the
//     request is load-shed with a typed {"error": "overloaded"} reply instead
//     of queueing unboundedly;
//   * per-session watchdog — sessions running past `watchdog_seconds` get
//     their cooperative cancel token fired and are evicted; the token is
//     checked at every phase boundary (and inside CGBD iterations / FedAvg
//     rounds), so eviction lands after the last completed phase's checkpoint
//     is durable and the session stays resumable;
//   * containment — each session runs inside a CrashContainmentScope, so
//     `crash:N` fault plans take down the session (reported as a resumable
//     "crashed" reply), never the daemon;
//   * graceful drain — SIGTERM (through the async-signal-safe shim below) or
//     the "drain" op stops admissions, cancels in-flight sessions after their
//     current phase checkpoint, parks the rest, flushes the registry, and
//     exits 0;
//   * restart survivability — a CRC-framed registry snapshot
//     (kind "tradefl.server.registry") records every admitted session's
//     config and state; a restarted server re-attaches to the per-session
//     checkpoint directories and finishes pending sessions bit-identically
//     to an uninterrupted run (hang/crash fault events are stripped on
//     re-attach: the crash already happened, and a hang would re-fire
//     forever).
//
// Thread budgets: the server carves `threads=` across its session workers
// (PoolBudgetScope), so a session sees the same deterministic results it
// would solo — PR 3's thread-count invariance makes the carve safe.
//
// Introspection: server.* metrics (sessions.active, admissions, rejections,
// evictions, crashes.contained, reattached, parked, drain.seconds,
// admission.seconds) plus per-session scoped metrics via obs::MetricScope
// ("session=<id>/..."). See docs/OBSERVABILITY.md.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "common/config.h"
#include "common/result.h"

namespace tradefl::server {

// ---------------------------------------------------------------------------
// Registry: the CRC-framed record of every admitted session ("tradefl.server.
// registry" snapshot). Saved on every state change so a SIGKILL at any
// instant leaves a consistent picture of which sessions still owe work.

enum class SessionState : std::uint8_t {
  kPending = 0,  // admitted, not finished — resumable from its checkpoints
  kDone = 1,     // report written, invariants held
  kFailed = 2,   // errored; not resumable
};

struct RegistryEntry {
  std::uint64_t id = 0;
  SessionState state = SessionState::kPending;
  std::string config_text;  // Config entries as k=v lines (Config::from_text)
  std::uint64_t attempts = 0;
};

struct Registry {
  std::uint64_t next_session_id = 1;
  std::vector<RegistryEntry> entries;
};

Status save_registry(const std::string& path, const Registry& registry);
[[nodiscard]] Result<Registry> load_registry(const std::string& path);

struct ServeOptions {
  /// State root. Holds registry.snap plus sessions/<id>/ checkpoint dirs.
  std::string root = "serve-state";
  /// Concurrent session workers.
  std::size_t workers = 2;
  /// Bounded pending queue; a "session" request arriving with this many
  /// undispatched jobs is load-shed ({"error": "overloaded"}).
  std::size_t queue_limit = 8;
  /// Per-session wall-clock deadline in seconds; 0 disables the watchdog.
  double watchdog_seconds = 0.0;
  /// Total worker-thread budget carved evenly across session workers
  /// (each gets max(1, threads/workers)); 0 leaves the global pool alone.
  std::size_t threads = 0;
  /// Re-attach to an existing registry under root (pending sessions resume
  /// from their checkpoints before new requests are read).
  bool resume = true;
};

/// Builds ServeOptions from the CLI vocabulary: root= workers= queue_limit=
/// watchdog_seconds= threads= resume=. Bounds-checks counts (>= 1 workers,
/// >= 1 queue slots).
Result<ServeOptions> serve_options_from_config(const Config& options);

/// What one Server::run observed, for tests and the final "bye" reply.
struct ServeSummary {
  std::uint64_t admitted = 0;     // accepted "session" requests
  std::uint64_t reattached = 0;   // pending registry entries resumed at boot
  std::uint64_t completed = 0;    // sessions that finished with a valid report
  std::uint64_t failed = 0;       // sessions that errored (non-resumable)
  std::uint64_t rejected = 0;     // load-shed or post-drain "session" requests
  std::uint64_t evicted = 0;      // watchdog deadline cancellations
  std::uint64_t crashed = 0;      // contained injected crashes (resumable)
  std::uint64_t parked = 0;       // drain-time cancellations / unstarted jobs
  bool drained = false;           // SIGTERM or "drain" ended the run
  int exit_code = 0;              // 0 on clean EOF-completion or clean drain
};

/// How one read attempt against a line source ended. kInterrupted surfaces
/// EINTR from a signal (the drain path) without losing buffered bytes.
enum class ReadStatus : std::uint8_t { kLine, kEof, kInterrupted };

/// Blocking source of protocol lines. The server owns the loop; sources own
/// buffering and interruption semantics.
class LineSource {
 public:
  virtual ~LineSource() = default;
  virtual ReadStatus next(std::string& line) = 0;
};

/// istream-backed source for tests and in-process benches. std::getline
/// cannot be interrupted by signals, so callers use the "drain" op instead.
class StreamLineSource : public LineSource {
 public:
  explicit StreamLineSource(std::istream& in) : in_(&in) {}
  ReadStatus next(std::string& line) override;

 private:
  std::istream* in_;
};

/// Raw-fd source for the real daemon's stdin. Reads are EINTR-aware: a
/// SIGTERM delivered through install_signal_handler (no SA_RESTART) makes the
/// blocked read return, next() reports kInterrupted, and the server checks
/// the drain flag. Partial lines survive interruptions.
class FdLineSource : public LineSource {
 public:
  explicit FdLineSource(int fd) : fd_(fd) {}
  ReadStatus next(std::string& line) override;

 private:
  int fd_;
  std::string buffer_;
  bool eof_ = false;
};

/// Signal handler type for the shim below.
using SignalHandler = void (*)(int);

/// The server's only sanctioned way to register a signal handler: sigaction
/// WITHOUT SA_RESTART so blocked reads return EINTR and the drain flag gets
/// noticed promptly. tfl-lint's signal-handler-safety rule audits every
/// handler passed here: the body may only touch volatile std::sig_atomic_t
/// flags (no allocation, no iostreams, no locks, no throw — the
/// async-signal-safe subset).
void install_signal_handler(int signum, SignalHandler handler);

/// Async-signal-safe drain handler (writes one sig_atomic_t flag). Register
/// via install_signal_handler(SIGTERM, request_drain).
void request_drain(int signum);

/// True once request_drain ran (or a "drain" op arrived — the server routes
/// both through the same flag).
bool drain_requested();

/// Clears the drain flag. Tests (and each Server::run) start from a clean
/// flag so one drained run cannot bleed into the next.
void clear_drain_request();

class Server {
 public:
  explicit Server(ServeOptions options);
  ~Server();
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Serves until EOF (complete all admitted work, exit 0) or drain (stop
  /// admitting, cancel+park in-flight work after its current checkpoint,
  /// exit 0). Replies — one JSON line each — go to `out`.
  ServeSummary run(LineSource& input, std::ostream& out);

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace tradefl::server
