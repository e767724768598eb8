// CoopetitionGame — the non-cooperative game G of Sec. IV-A. Bundles the
// organizations, the competition matrix ρ, the data-accuracy model P, and
// the mechanism parameters, and exposes every economic quantity of
// Sec. III-C–E: revenue, coopetition damage (Eqs. 6-7), training overhead
// (Eq. 8), payoff redistribution (Eqs. 9-10), payoff C_i (Eq. 11), and
// social welfare.
#pragma once

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "game/accuracy_model.h"
#include "game/competition.h"
#include "game/org.h"
#include "game/params.h"
#include "game/strategy.h"

namespace tradefl::game {

/// Per-organization payoff decomposition (the four terms of Eq. 11).
struct PayoffBreakdown {
  double revenue = 0.0;         // p_i P(d_i, d_-i)
  double energy_cost = 0.0;     // ϖ_e E_i
  double damage = 0.0;          // D_i(d_i, d_-i)
  double redistribution = 0.0;  // R_i
  [[nodiscard]] double total() const {
    return revenue - energy_cost - damage + redistribution;
  }
};

class CoopetitionGame;

/// Org i's payoff (Eq. 11) as a function of its own strategy (d_i, f_i) with
/// the opponents' strategies held fixed — the object a unilateral deviation
/// (Definition 6) or a best response (Definition 9) varies. Built once per
/// (org, profile) in O(N) by CoopetitionGame::deviation; every breakdown()
/// then costs one Ω pass, two accuracy evaluations, the energy term and N-1
/// redistribution terms. The opponents' Ω terms are kept in index order and
/// re-summed around d_i w_i exactly as omega() sums them, so every value is
/// bit-identical to evaluating the full profile. Borrows the game, which
/// must outlive the view.
class UnilateralDeviation {
 public:
  /// Ω with org i contributing d_i = d.
  [[nodiscard]] double omega(double d) const;

  /// The four terms of Eq. (11) for org i playing (d, freq level `level`).
  [[nodiscard]] PayoffBreakdown breakdown(double d, std::size_t level) const;

 private:
  friend class CoopetitionGame;
  UnilateralDeviation(const CoopetitionGame& game, OrgId i, const StrategyProfile& profile);

  /// γ ρ_{i,j} and j's resource contribution d_j s_j + λ f_j (Eq. 9).
  struct Opponent {
    double gamma_rho = 0.0;
    double contribution = 0.0;
  };

  const CoopetitionGame* game_;
  OrgId i_;
  double weight_ = 0.0;                 // w_i
  double omega_prefix_ = 0.0;           // Σ_{j<i} d_j w_j, summed in index order
  std::vector<double> omega_suffix_;    // d_j w_j for j > i, in index order
  double weighted_profitability_ = 0.0; // Σ_j ρ_{i,j} p_j (Eq. 7)
  std::vector<Opponent> opponents_;     // every j != i, in index order
};

class CoopetitionGame {
 public:
  CoopetitionGame(std::vector<Organization> orgs, CompetitionMatrix rho,
                  AccuracyModelPtr accuracy, GameParams params);

  [[nodiscard]] std::size_t size() const { return orgs_.size(); }
  [[nodiscard]] const Organization& org(OrgId i) const { return orgs_.at(i); }
  [[nodiscard]] const std::vector<Organization>& orgs() const { return orgs_; }
  [[nodiscard]] const CompetitionMatrix& rho() const { return rho_; }
  [[nodiscard]] const AccuracyModel& accuracy() const { return *accuracy_; }
  [[nodiscard]] const AccuracyModelPtr& accuracy_ptr() const { return accuracy_; }
  [[nodiscard]] const GameParams& params() const { return params_; }

  /// f_i value selected by a strategy.
  [[nodiscard]] Hertz frequency(OrgId i, const Strategy& strategy) const;

  /// Contribution weight w_i = s_i / data_scale: Ω = Σ w_i d_i.
  [[nodiscard]] double contribution_weight(OrgId i) const;

  /// Ω(π) = Σ_i d_i s_i / data_scale — total effective contributed data.
  [[nodiscard]] double omega(const StrategyProfile& profile) const;

  /// Ω with organization `excluded` contributing zero (for P(0, d_-i)).
  [[nodiscard]] double omega_excluding(const StrategyProfile& profile, OrgId excluded) const;

  /// P(d_i, d_-i) — global-model performance at this profile (Eq. 4).
  [[nodiscard]] double performance(const StrategyProfile& profile) const;

  /// p_i P — revenue organization i derives from the global model.
  [[nodiscard]] double revenue(OrgId i, const StrategyProfile& profile) const;

  /// D_i — coopetition damage as the ρ-weighted sum of competitor profits (Eq. 7).
  [[nodiscard]] double damage(OrgId i, const StrategyProfile& profile) const;

  /// E_i — total energy (Eq. 8): κ f² η d s + E_DL T¹ + E_UL T³.
  [[nodiscard]] Joules energy(OrgId i, const StrategyProfile& profile) const;

  /// r_{i,j} — pairwise payoff redistribution (Eq. 9).
  [[nodiscard]] double redistribution_pair(OrgId i, OrgId j, const StrategyProfile& profile) const;

  /// R_i = Σ_j r_{i,j} (Eq. 10).
  [[nodiscard]] double redistribution(OrgId i, const StrategyProfile& profile) const;

  /// Org i's payoff against the fixed opponents of `profile`, for pricing
  /// many of i's own strategies. Throws std::invalid_argument on a profile
  /// of the wrong size.
  [[nodiscard]] UnilateralDeviation deviation(OrgId i, const StrategyProfile& profile) const;

  /// Full payoff decomposition of Eq. (11).
  [[nodiscard]] PayoffBreakdown payoff_breakdown(OrgId i, const StrategyProfile& profile) const;

  /// C_i(π_i, π_-i) (Eq. 11).
  [[nodiscard]] double payoff(OrgId i, const StrategyProfile& profile) const;

  /// Σ_i C_i — social welfare.
  [[nodiscard]] double social_welfare(const StrategyProfile& profile) const;

  /// Σ_i D_i — total coopetition damage (Fig. 9's metric).
  [[nodiscard]] double total_damage(const StrategyProfile& profile) const;

  /// Σ_i d_i — total data contribution (Fig. 12's metric).
  [[nodiscard]] double total_data_fraction(const StrategyProfile& profile) const;

  /// Upper bound on d_i at frequency level `freq_index`:
  /// min(1, deadline bound of C^(3)). May be below d_min (infeasible level).
  [[nodiscard]] double data_upper_bound(OrgId i, std::size_t freq_index) const;

  /// Frequency levels of org i that admit some feasible d (bound >= d_min),
  /// ascending; computed once at construction.
  [[nodiscard]] std::span<const std::size_t> feasible_freq_levels(OrgId i) const;

  /// Checks C^(1)-C^(3) for every organization.
  [[nodiscard]] bool is_feasible(const StrategyProfile& profile) const;

  /// Per-org reason string for infeasibility (empty when feasible).
  [[nodiscard]] std::string feasibility_report(const StrategyProfile& profile) const;

  /// z_i = p_i - Σ_j ρ_{i,j} p_j (Theorem 1). Guaranteed positive: the
  /// constructor applies enforce_positive_weights.
  [[nodiscard]] double weight_z(OrgId i) const { return z_.at(i); }
  [[nodiscard]] const std::vector<double>& weights_z() const { return z_; }

  /// Scale that was applied to ρ by the z_i > 0 guard (1.0 if none).
  [[nodiscard]] double rho_guard_scale() const { return rho_guard_scale_; }

  /// Minimal feasible profile: d_i = D_min with the fastest feasible
  /// frequency level. Throws std::runtime_error when some organization has
  /// no feasible level at all.
  [[nodiscard]] StrategyProfile minimal_profile() const;

  /// Verifies the NE condition (Definition 6) by searching unilateral
  /// deviations: for each org and each feasible freq level, a golden-section
  /// search of the full payoff over [D_min, upper bound] plus `grid` + 1
  /// evenly spaced data fractions. Returns the largest payoff gain any single
  /// deviation achieves (<= tol means π is a NE up to tol).
  [[nodiscard]] double max_unilateral_gain(const StrategyProfile& profile,
                                           std::size_t grid = 64) const;

 private:
  std::vector<Organization> orgs_;
  CompetitionMatrix rho_;
  AccuracyModelPtr accuracy_;
  GameParams params_;
  std::vector<double> z_;
  double rho_guard_scale_ = 1.0;
  // Every org's feasible levels, concatenated: org i's run is
  // [feasible_begin_[i], feasible_begin_[i + 1]). One flat array keeps the
  // cache at two allocations per game.
  std::vector<std::size_t> feasible_levels_;
  std::vector<std::size_t> feasible_begin_;
};

}  // namespace tradefl::game
