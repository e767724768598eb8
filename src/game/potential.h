// The weighted potential function of Theorem 1 and a numerical verifier of
// the weighted-potential identity (Eq. 14). CGBD maximizes the potential;
// its maximizer is a pure-strategy NE of the coopetition game ([33, Thm 2.4]).
//
// Two variants are provided:
//  * `paper_potential` — Eq. (15) literally:
//      U = P(Ω) - Σ_i [ϖ_e κ f_i² η_i d_i s_i / z_i - Σ_j r_{i,j} / z_i].
//    The paper's proof treats the reverse transfers r_{j,i} as constants when
//    π_i moves, so this form satisfies Eq. (14) only approximately (and for
//    symmetric ρ with uniform z its redistribution part vanishes entirely).
//  * `potential` — the exact weighted potential. Writing
//    χ_i = d_i s_i + λ f_i, the redistribution term of C_i contributes
//    ∂C_i/∂χ_i = γ Σ_j ρ_{i,j} (the -χ_j parts are pure externalities), so
//      U = P(Ω) - Σ_i ϖ_e κ f_i² η_i d_i s_i / z_i
//            + γ Σ_i (Σ_j ρ_{i,j}) χ_i / z_i
//    satisfies z_i ΔU = ΔC_i *exactly* for any unilateral deviation. This is
//    the function CGBD maximizes. See DESIGN.md §7.
//
// FixedFrequencyPotential is the one implementation of the exact potential:
// `potential`, its derivatives and the energy term of `paper_potential` are
// thin calls into it.
#pragma once

#include <vector>

#include "game/game.h"
#include "math/matrix.h"
#include "math/vec.h"

namespace tradefl::game {

/// The exact potential U(d, f) with every frequency level fixed, as a
/// function of the data fractions d alone — the objective of the GBD primal
/// (19). Construction hoists each organization's frequency-only factors
/// (w_i, κ f_i² η_i, γ Σ_j ρ_{i,j}, λ f_i and the two constant terms of
/// ∂U/∂d_i), each computed in the same left-to-right order as the direct
/// expression, so every result is bit-identical to summing the formula over
/// a full profile. Then value() and gradient() cost one Ω pass and one
/// accuracy evaluation each: O(N), no allocation. Borrows the game, which
/// must outlive the evaluator.
class FixedFrequencyPotential {
 public:
  /// Frequencies from one level per organization; throws
  /// std::invalid_argument on a size mismatch and std::out_of_range on a
  /// level outside an organization's grid.
  FixedFrequencyPotential(const CoopetitionGame& game,
                          const std::vector<std::size_t>& freq_indices);
  /// Frequencies from the profile's levels (its data fractions are ignored).
  FixedFrequencyPotential(const CoopetitionGame& game, const StrategyProfile& profile);

  /// Ω(d) = Σ_i d_i w_i, summed in index order as CoopetitionGame::omega.
  [[nodiscard]] double omega(const math::Vec& d) const;

  /// Σ_i ϖ_e κ f_i² η_i d_i s_i / z_i — the weighted energy term.
  [[nodiscard]] double energy(const math::Vec& d) const;

  /// U(d, f).
  [[nodiscard]] double value(const math::Vec& d) const;

  /// out_i = ∂U/∂d_i = P'(Ω) w_i - ϖ_e κ f_i² η_i s_i / z_i
  ///                   + γ s_i Σ_j ρ_{i,j} / z_i;
  /// `out` must already hold one entry per organization.
  void gradient(const math::Vec& d, math::Vec& out) const;

  /// out = P''(Ω) w w^T, the (rank-one) Hessian in d; `out` must already be
  /// N x N.
  void hessian(const math::Vec& d, math::Matrix& out) const;

  /// The exact maximizer of U over the box lower <= d_i <= upper[i] (each
  /// upper[i] >= lower), written into `d`. U is P(Ω) plus a term linear in
  /// d, so ∂U/∂d_i = w_i (P'(Ω) - θ_i) with a constant threshold θ_i, and by
  /// KKT every d_i sits at the bound the sign of P'(Ω*) - θ_i picks, except
  /// at most one marginal organization, whose d_i solves P'(Ω*) = θ_i through
  /// AccuracyModel::inverse_performance_derivative. Walking the thresholds
  /// upwards costs one sort, at most N + 1 evaluations of P' and one of its
  /// inverse: no iteration and no tolerance.
  void maximize(double lower, const math::Vec& upper, math::Vec& d) const;

 private:
  /// Frequency-only factors of one organization.
  struct OrgTerms {
    double weight = 0.0;               // w_i = s_i / data_scale
    double data_size = 0.0;            // s_i
    double weight_z = 0.0;             // z_i
    double energy_factor = 0.0;        // κ f_i² η_i
    double gamma_rho = 0.0;            // γ Σ_j ρ_{i,j}
    double lambda_f = 0.0;             // λ f_i
    double energy_slope = 0.0;         // ϖ_e κ f_i² η_i s_i / z_i
    double redistribution_slope = 0.0; // γ s_i Σ_j ρ_{i,j} / z_i
  };

  FixedFrequencyPotential(const CoopetitionGame& game, std::size_t size);
  void set_level(OrgId i, std::size_t level);

  const CoopetitionGame* game_;
  std::vector<OrgTerms> terms_;
};

/// Exact weighted potential (satisfies Eq. 14 identically).
double potential(const CoopetitionGame& game, const StrategyProfile& profile);

/// Eq. (15) exactly as printed in the paper (for Fig. 4 comparisons).
double paper_potential(const CoopetitionGame& game, const StrategyProfile& profile);

/// Analytic ∂U/∂d_i of the exact potential at fixed frequencies (used by the
/// GBD primal solver):
///   ∂U/∂d_i = P'(Ω) w_i - ϖ_e κ f_i² η_i s_i / z_i + γ s_i Σ_j ρ_{i,j} / z_i.
double potential_gradient_d(const CoopetitionGame& game, const StrategyProfile& profile,
                            OrgId i);

/// ∂²U/∂d_i∂d_j = P''(Ω) w_i w_j (rank-one Hessian; energy/redistribution
/// parts are linear in d at fixed f).
double potential_hessian_dd(const CoopetitionGame& game, const StrategyProfile& profile,
                            OrgId i, OrgId j);

/// Result of numerically probing the weighted-potential identity (Eq. 14):
/// z_i [U(π_i', π_-i) - U(π)] vs C_i(π_i', π_-i) - C_i(π).
struct PotentialIdentityCheck {
  double max_abs_error = 0.0;
  double max_rel_error = 0.0;
  std::size_t deviations_tested = 0;
};

/// Probes Eq. (14) at `samples` random unilateral deviations from `profile`
/// using the exact potential. Errors should be at floating-point level.
PotentialIdentityCheck check_weighted_potential_identity(const CoopetitionGame& game,
                                                         const StrategyProfile& profile,
                                                         std::size_t samples,
                                                         std::uint64_t seed);

/// Same probe against the paper-literal Eq. (15) potential; quantifies how
/// far the printed form is from an exact weighted potential (nonzero when
/// γ > 0 and ρ has any nonzero entries).
PotentialIdentityCheck check_paper_potential_identity(const CoopetitionGame& game,
                                                      const StrategyProfile& profile,
                                                      std::size_t samples,
                                                      std::uint64_t seed);

}  // namespace tradefl::game
