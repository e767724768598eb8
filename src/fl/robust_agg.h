// Byzantine-resilient aggregation (the server-side defense layer of the
// robustness story). FedAvg's Eq. (3) weighted mean is optimal when every
// silo is truthful, but a single adversarial update can steer it arbitrarily.
// This module turns the aggregation step into a pluggable Aggregator with the
// classic robust rules alongside the paper's weighted mean:
//
//   mean          Eq. (3): contribution-weighted mean (extracted verbatim
//                 from fedavg.cpp — bit-identical to the historical fold)
//   median        coordinate-wise median over survivor updates (unweighted)
//   trimmed:<f>   coordinate-wise trimmed mean: drop the f lowest and f
//                 highest values per coordinate, average the rest
//   krum:<f>      Krum: select the single update whose n-f-2 nearest
//                 neighbours are closest in L2 (Blanchard et al., NeurIPS'17)
//   multikrum:<f> Multi-Krum: Eq. (3) weighted mean over the n-f-2
//                 lowest-scoring updates
//   normclip:<c>  clip each update's delta from the previous global model to
//                 L2 norm <= c, then Eq. (3) weighted mean of the clipped set
//
// Determinism contract: every rule folds floating point in a fixed order —
// client order for the weighted sums, sorted-value order for median/trim,
// chunk-index order (ordered_reduce) for the parallel distance/credit
// accumulations — so threads=1 and threads=N are bit-identical, matching the
// repo-wide contract in common/parallel.h.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/faults.h"
#include "common/parallel.h"
#include "common/result.h"
#include "common/snapshot.h"

namespace tradefl::fl {

enum class AggregatorKind : std::uint32_t {
  kWeightedMean = 0,
  kCoordinateMedian = 1,
  kTrimmedMean = 2,
  kKrum = 3,
  kMultiKrum = 4,
  kNormClip = 5,
};

/// Short stable name ("mean", "median", "trimmed", ...) for reports/metrics.
const char* aggregator_kind_name(AggregatorKind kind);

struct AggregatorSpec {
  AggregatorKind kind = AggregatorKind::kWeightedMean;
  /// f — updates trimmed per side (trimmed) / tolerated adversaries (krum,
  /// multikrum). Ignored by mean/median/normclip.
  std::size_t trim = 1;
  /// L2 threshold on an update's delta from the previous global (normclip).
  double clip_norm = 1.0;

  /// Round-trippable `parse_aggregator` spec ("trimmed:2", "normclip:0.5").
  [[nodiscard]] std::string spec_string() const;

  friend bool operator==(const AggregatorSpec& a, const AggregatorSpec& b) {
    return a.kind == b.kind && a.trim == b.trim && a.clip_norm == b.clip_norm;
  }
  friend bool operator!=(const AggregatorSpec& a, const AggregatorSpec& b) { return !(a == b); }
};

/// Parses the CLI/wire `agg=` spec: mean | median | trimmed[:f] | krum[:f] |
/// multikrum[:f] | normclip[:c]. Errors echo the offending token and the
/// accepted grammar.
Result<AggregatorSpec> parse_aggregator(const std::string& text);

/// Serialized into the FedAvg and session checkpoints so a resume under a
/// different aggregator fails closed.
template <class Io, FieldsOf<AggregatorSpec> Self>
void fields(Io& io, Self& spec) {
  io.u32(spec.kind, AggregatorKind::kNormClip);
  io.u64(spec.trim);
  io.f64(spec.clip_norm);
}

/// One survivor update entering aggregation. `weight` is the Eq. (3)
/// aggregation mass d_i |S_i|; `client` is the original client index (kept so
/// influence can be attributed back to silos).
struct ClientUpdate {
  const std::vector<float>* weights = nullptr;
  double weight = 1.0;
  std::size_t client = 0;
};

struct AggregateOutcome {
  std::vector<float> weights;  // the new global model
  /// Updates with zero influence on the aggregate (trimmed at every
  /// coordinate, or not selected by krum/multikrum).
  std::size_t rejected = 0;
  /// Updates whose delta was norm-clipped (normclip only).
  std::size_t clipped = 0;
  /// The survivor set was too small for the robust rule (trimmed needs
  /// n > 2f, krum needs n >= f+3); the coordinate median was used instead.
  bool fallback = false;
  /// Per-update share of the aggregate in [0, 1] (index-aligned with the
  /// input updates; sums to ~1). mean/normclip: w_i / sum w; median/trimmed:
  /// fraction of coordinate mass the update supplied; krum: selected or not.
  std::vector<double> influence;
};

/// Runs the aggregation rule over the survivor updates. `previous_global` is
/// the pre-round model (normclip's clipping reference). Requires at least one
/// update with positive total weight; throws std::invalid_argument otherwise.
AggregateOutcome aggregate_updates(const AggregatorSpec& spec,
                                   const std::vector<ClientUpdate>& updates,
                                   const std::vector<float>& previous_global, ThreadPool* pool);

/// Applies the adversarial transformation `spec` (decided by
/// FaultInjector::attack_update) to a freshly-trained local update, in place:
/// signflip negates the delta, scale amplifies it, freeride resubmits the
/// global, collude replaces it with the round's shared crafted vector (every
/// colluder calls faults.collusion_rng(round) and therefore submits the same
/// bytes). Pure per client — safe inside the parallel training loop.
void apply_update_attack(std::vector<float>& local, const std::vector<float>& global,
                         const AttackSpec& spec, const FaultInjector& faults,
                         std::uint64_t round);

}  // namespace tradefl::fl
