// Instrumentation macros: the one header pipelines include to emit metrics
// and trace spans. Mirrors the contracts pattern in common/check.h:
//
//   compile-time gate  TRADEFL_ENABLE_TRACING (CMake option, default ON).
//                      When 0 every macro folds to a no-op with operands
//                      parsed but unevaluated, so a disabled build carries no
//                      obs symbols on the hot path and produces byte-identical
//                      solver results.
//   runtime gate       obs::enabled() (off by default). An enabled build pays
//                      one relaxed atomic load per site until the CLI/bench
//                      surfaces flip it on.
//
// Every metric macro, the two timers included, caches the registry reference
// in a function-local static, so the name->metric map lookup happens once per
// call site, not once per call. Each update resolves through obs::scoped(): with no
// active MetricScope that is the cached reference itself (one string empty()
// check); under a scope (the serve daemon's per-session workers) it fetches
// the `<scope>/<name>` twin so concurrent sessions never share a metric.
//
//   TFL_COUNTER_INC(name)                +1 on a counter
//   TFL_COUNTER_ADD(name, delta)         +delta (cast to uint64)
//   TFL_GAUGE_SET(name, value)           last-write-wins gauge
//   TFL_OBSERVE(name, value)             histogram, default latency buckets
//   TFL_OBSERVE_BUCKETS(name, value, b...) histogram with explicit bounds
//                                        (comma list, first call wins)
//   TFL_SERIES_APPEND(name, value)       bounded trajectory append
//   TFL_SPAN(name)                       RAII trace span for this scope
//   TFL_SCOPED_TIMER(name)               RAII seconds-histogram timer
//   TFL_LATENCY_TIMER(name)              RAII timer on a fine-grained
//                                        latency_histogram (SLO percentiles)
//   TFL_LEDGER_PHASE(name)               RAII run-ledger phase scope
//   TFL_LEDGER_EVENT(name, fields...)    run-ledger event line; fields are
//                                        {"key", value} pairs
//   TFL_OBS_ONLY(...)                    statement compiled only when tracing
//
// The TFL_LEDGER_* macros are additionally gated on obs::event_log().active():
// they stay no-ops until a CLI/bench surface opens a ledger file.
#pragma once

#include <cstdint>

#include "obs/event_log.h"
#include "obs/metrics.h"
#include "obs/trace.h"

#if !defined(TRADEFL_ENABLE_TRACING)
#define TRADEFL_ENABLE_TRACING 1
#endif

#define TFL_OBS_CONCAT_INNER(a, b) a##b
#define TFL_OBS_CONCAT(a, b) TFL_OBS_CONCAT_INNER(a, b)

#if TRADEFL_ENABLE_TRACING

#define TFL_COUNTER_ADD(name, delta)                                            \
  do {                                                                          \
    if (::tradefl::obs::enabled()) {                                            \
      static ::tradefl::obs::Counter& tfl_counter_ref_ =                        \
          ::tradefl::obs::metrics().counter(name);                              \
      ::tradefl::obs::scoped(tfl_counter_ref_)                                  \
          .add(static_cast<std::uint64_t>(delta));                              \
    }                                                                           \
  } while (false)

#define TFL_COUNTER_INC(name) TFL_COUNTER_ADD(name, 1)

#define TFL_GAUGE_SET(name, value)                                              \
  do {                                                                          \
    if (::tradefl::obs::enabled()) {                                            \
      static ::tradefl::obs::Gauge& tfl_gauge_ref_ =                            \
          ::tradefl::obs::metrics().gauge(name);                                \
      ::tradefl::obs::scoped(tfl_gauge_ref_).set(static_cast<double>(value));   \
    }                                                                           \
  } while (false)

#define TFL_OBSERVE(name, value)                                                \
  do {                                                                          \
    if (::tradefl::obs::enabled()) {                                            \
      static ::tradefl::obs::Histogram& tfl_histogram_ref_ =                    \
          ::tradefl::obs::metrics().histogram(name);                            \
      ::tradefl::obs::scoped(tfl_histogram_ref_)                                \
          .observe(static_cast<double>(value));                                 \
    }                                                                           \
  } while (false)

#define TFL_OBSERVE_BUCKETS(name, value, ...)                                   \
  do {                                                                          \
    if (::tradefl::obs::enabled()) {                                            \
      static ::tradefl::obs::Histogram& tfl_histogram_ref_ =                    \
          ::tradefl::obs::metrics().histogram(name, {__VA_ARGS__});             \
      ::tradefl::obs::scoped(tfl_histogram_ref_)                                \
          .observe(static_cast<double>(value));                                 \
    }                                                                           \
  } while (false)

#define TFL_SERIES_APPEND(name, value)                                          \
  do {                                                                          \
    if (::tradefl::obs::enabled()) {                                            \
      static ::tradefl::obs::Series& tfl_series_ref_ =                          \
          ::tradefl::obs::metrics().series(name);                               \
      ::tradefl::obs::scoped(tfl_series_ref_).append(static_cast<double>(value)); \
    }                                                                           \
  } while (false)

#define TFL_SPAN(name) ::tradefl::obs::Span TFL_OBS_CONCAT(tfl_span_, __LINE__)(name)

// Shared body of the two timers: `lookup` runs once per call site (the
// function-local static of a capture-free lambda) and each timing resolves
// the cached histogram through obs::scoped() like every other macro.
#define TFL_OBS_TIMER(var, lookup)                                              \
  ::tradefl::obs::ScopedTimer var(                                              \
      ::tradefl::obs::enabled()                                                 \
          ? &::tradefl::obs::scoped([]() -> ::tradefl::obs::Histogram& {        \
              static ::tradefl::obs::Histogram& tfl_timer_ref_ = lookup;        \
              return tfl_timer_ref_;                                            \
            }())                                                                \
          : nullptr)

#define TFL_SCOPED_TIMER(name)                                                  \
  TFL_OBS_TIMER(TFL_OBS_CONCAT(tfl_timer_, __LINE__),                           \
                ::tradefl::obs::metrics().histogram(name))

#define TFL_LATENCY_TIMER(name)                                                 \
  TFL_OBS_TIMER(TFL_OBS_CONCAT(tfl_latency_, __LINE__),                         \
                ::tradefl::obs::latency_histogram(name))

#define TFL_LEDGER_PHASE(name) \
  ::tradefl::obs::LedgerPhase TFL_OBS_CONCAT(tfl_ledger_phase_, __LINE__)(name)

#define TFL_LEDGER_EVENT(name, ...)                                             \
  do {                                                                          \
    if (::tradefl::obs::event_log().active()) {                                 \
      ::tradefl::obs::event_log().event(name, {__VA_ARGS__});                   \
    }                                                                           \
  } while (false)

#define TFL_OBS_ONLY(...) __VA_ARGS__

#else  // TRADEFL_ENABLE_TRACING

// Disabled tier: operands parsed (kept well-formed) but never evaluated; the
// whole statement folds away and no obs object is ever constructed.
#define TFL_COUNTER_ADD(name, delta) \
  do {                               \
    (void)sizeof(name);              \
    (void)sizeof(delta);             \
  } while (false)

#define TFL_COUNTER_INC(name) \
  do {                        \
    (void)sizeof(name);       \
  } while (false)

#define TFL_GAUGE_SET(name, value) \
  do {                             \
    (void)sizeof(name);            \
    (void)sizeof(value);           \
  } while (false)

#define TFL_OBSERVE(name, value) \
  do {                           \
    (void)sizeof(name);          \
    (void)sizeof(value);         \
  } while (false)

#define TFL_OBSERVE_BUCKETS(name, value, ...) \
  do {                                        \
    (void)sizeof(name);                       \
    (void)sizeof(value);                      \
  } while (false)

#define TFL_SERIES_APPEND(name, value) \
  do {                                 \
    (void)sizeof(name);                \
    (void)sizeof(value);               \
  } while (false)

#define TFL_SPAN(name)  \
  do {                  \
    (void)sizeof(name); \
  } while (false)

#define TFL_SCOPED_TIMER(name) \
  do {                         \
    (void)sizeof(name);        \
  } while (false)

#define TFL_LATENCY_TIMER(name) \
  do {                          \
    (void)sizeof(name);         \
  } while (false)

#define TFL_LEDGER_PHASE(name) \
  do {                         \
    (void)sizeof(name);        \
  } while (false)

#define TFL_LEDGER_EVENT(name, ...) \
  do {                              \
    (void)sizeof(name);             \
  } while (false)

#define TFL_OBS_ONLY(...)

#endif  // TRADEFL_ENABLE_TRACING
