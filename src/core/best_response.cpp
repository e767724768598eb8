#include "core/best_response.h"

#include <algorithm>
#include <cmath>
#include <span>
#include <stdexcept>

#include "math/scalar_opt.h"

namespace tradefl::core {

using game::CoopetitionGame;
using game::OrgId;
using game::Strategy;
using game::StrategyProfile;

namespace {

/// C_i from its Eq. (11) terms, optionally without R_i.
double objective_value(const game::PayoffBreakdown& breakdown,
                       const BestResponseOptions& options) {
  double value = breakdown.revenue - breakdown.energy_cost - breakdown.damage;
  if (options.include_redistribution) value += breakdown.redistribution;
  return value;
}

/// d/dd_i of the objective at frequency level `level`. Derived from Eq. (11):
///   z_i P'(Ω) w_i - ϖ_e κ f² η_i s_i + [γ s_i Σ_j ρ_{i,j} if R included].
double objective_derivative(const CoopetitionGame& game, OrgId i,
                            const game::UnilateralDeviation& view, double d,
                            std::size_t level, const BestResponseOptions& options) {
  const auto& params = game.params();
  const auto& org = game.org(i);
  const double w_i = game.contribution_weight(i);
  const double f = org.freq_levels.at(level);

  double derivative =
      game.weight_z(i) * game.accuracy().performance_derivative(view.omega(d)) * w_i;
  derivative -= params.omega_e * params.kappa * f * f * org.cycles_per_bit * org.data_size_bits;
  if (options.include_redistribution) {
    derivative += params.gamma * org.data_size_bits * game.rho().row_sum(i);
  }
  return derivative;
}

/// Best d for a fixed frequency level; assumes the level is feasible.
std::pair<double, double> best_data_fraction(const CoopetitionGame& game, OrgId i,
                                             const game::UnilateralDeviation& view,
                                             std::size_t level,
                                             const BestResponseOptions& options) {
  const double d_min = game.params().d_min;
  const double upper = game.data_upper_bound(i, level);
  auto value_at = [&](double d) { return objective_value(view.breakdown(d, level), options); };

  if (options.d_grid_step > 0.0) {
    // FIP-style discrete search over {e, 2e, ...} ∩ [D_min, upper].
    double best_d = d_min;
    double best_value = -1e300;
    bool found_grid_point = false;
    for (double d = options.d_grid_step; d <= 1.0 + 1e-12; d += options.d_grid_step) {
      const double clamped = std::min(d, 1.0);
      if (clamped < d_min || clamped > upper) continue;
      const double value = value_at(clamped);
      if (value > best_value || !found_grid_point) {
        best_value = value;
        best_d = clamped;
      }
      found_grid_point = true;
    }
    if (!found_grid_point) {
      // No grid point inside the feasible interval; fall back to D_min.
      best_value = value_at(d_min);
      best_d = d_min;
    }
    return {best_d, best_value};
  }

  auto derivative_at = [&](double d) {
    return objective_derivative(game, i, view, d, level, options);
  };
  const auto best = tradefl::math::concave_maximize_with_derivative(
      value_at, derivative_at, d_min, upper, options.d_tolerance);
  return {best.x, best.value};
}

}  // namespace

double objective_payoff(const CoopetitionGame& game, OrgId i, const StrategyProfile& profile,
                        const BestResponseOptions& options) {
  return objective_value(game.payoff_breakdown(i, profile), options);
}

BestResponse best_response(const CoopetitionGame& game, OrgId i,
                           const StrategyProfile& profile,
                           const BestResponseOptions& options) {
  const game::UnilateralDeviation view = game.deviation(i, profile);
  BestResponse best;
  best.payoff = -1e300;

  std::span<const std::size_t> levels = game.feasible_freq_levels(i);
  const auto forced = static_cast<std::size_t>(options.forced_freq_level);
  if (options.forced_freq_level >= 0) {
    const bool feasible = game.data_upper_bound(i, forced) >= game.params().d_min;
    levels = std::span<const std::size_t>(&forced, feasible ? 1 : 0);
  }
  if (levels.empty()) {
    throw std::runtime_error("best_response: no feasible frequency level for " +
                             game.org(i).name);
  }
  for (std::size_t level : levels) {
    const auto [d, value] = best_data_fraction(game, i, view, level, options);
    if (value > best.payoff) {
      best.payoff = value;
      best.strategy = Strategy{d, level};
    }
  }
  return best;
}

}  // namespace tradefl::core
