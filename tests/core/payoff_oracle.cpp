#include "payoff_oracle.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "math/scalar_opt.h"

namespace tradefl::oracle {

using game::CoopetitionGame;
using game::OrgId;
using game::Strategy;
using game::StrategyProfile;

namespace {

double reference_damage(const CoopetitionGame& game, OrgId i, const StrategyProfile& profile) {
  const double with_i = game.accuracy().performance(game.omega(profile));
  const double without_i = game.accuracy().performance(game.omega_excluding(profile, i));
  const double marginal = with_i - without_i;
  double weighted_profitability = 0.0;
  for (std::size_t j = 0; j < game.size(); ++j) {
    weighted_profitability += game.rho().at(i, j) * game.org(j).profitability;
  }
  return weighted_profitability * marginal;
}

double reference_redistribution(const CoopetitionGame& game, OrgId i,
                                const StrategyProfile& profile) {
  double total = 0.0;
  for (std::size_t j = 0; j < game.size(); ++j) {
    if (j != i) total += game.redistribution_pair(i, j, profile);
  }
  return total;
}

double reference_payoff(const CoopetitionGame& game, OrgId i, const StrategyProfile& profile) {
  return reference_payoff_breakdown(game, i, profile).total();
}

std::vector<std::size_t> reference_feasible_levels(const CoopetitionGame& game, OrgId i) {
  std::vector<std::size_t> levels;
  for (std::size_t level = 0; level < game.org(i).freq_levels.size(); ++level) {
    if (game.data_upper_bound(i, level) >= game.params().d_min) levels.push_back(level);
  }
  return levels;
}

double reference_objective(const CoopetitionGame& game, OrgId i,
                           const StrategyProfile& profile,
                           const core::BestResponseOptions& options) {
  const game::PayoffBreakdown breakdown = reference_payoff_breakdown(game, i, profile);
  double value = breakdown.revenue - breakdown.energy_cost - breakdown.damage;
  if (options.include_redistribution) value += breakdown.redistribution;
  return value;
}

double reference_derivative(const CoopetitionGame& game, OrgId i,
                            const StrategyProfile& profile,
                            const core::BestResponseOptions& options) {
  const auto& params = game.params();
  const auto& org = game.org(i);
  const double w_i = game.contribution_weight(i);
  const double f = game.frequency(i, profile[i]);
  const double omega = game.omega(profile);

  double derivative = game.weight_z(i) * game.accuracy().performance_derivative(omega) * w_i;
  derivative -= params.omega_e * params.kappa * f * f * org.cycles_per_bit * org.data_size_bits;
  if (options.include_redistribution) {
    derivative += params.gamma * org.data_size_bits * game.rho().row_sum(i);
  }
  return derivative;
}

std::pair<double, double> reference_best_data_fraction(const CoopetitionGame& game, OrgId i,
                                                       StrategyProfile& scratch,
                                                       std::size_t level,
                                                       const core::BestResponseOptions& options) {
  const double d_min = game.params().d_min;
  const double upper = game.data_upper_bound(i, level);
  scratch[i].freq_index = level;

  if (options.d_grid_step > 0.0) {
    double best_d = d_min;
    double best_value = -1e300;
    bool found_grid_point = false;
    for (double d = options.d_grid_step; d <= 1.0 + 1e-12; d += options.d_grid_step) {
      const double clamped = std::min(d, 1.0);
      if (clamped < d_min || clamped > upper) continue;
      scratch[i].data_fraction = clamped;
      const double value = reference_objective(game, i, scratch, options);
      if (value > best_value || !found_grid_point) {
        best_value = value;
        best_d = clamped;
      }
      found_grid_point = true;
    }
    if (!found_grid_point) {
      scratch[i].data_fraction = d_min;
      best_value = reference_objective(game, i, scratch, options);
      best_d = d_min;
    }
    return {best_d, best_value};
  }

  auto value_at = [&](double d) {
    scratch[i].data_fraction = d;
    return reference_objective(game, i, scratch, options);
  };
  auto derivative_at = [&](double d) {
    scratch[i].data_fraction = d;
    return reference_derivative(game, i, scratch, options);
  };
  const auto best = tradefl::math::concave_maximize_with_derivative(
      value_at, derivative_at, d_min, upper, options.d_tolerance);
  return {best.x, best.value};
}

}  // namespace

game::PayoffBreakdown reference_payoff_breakdown(const CoopetitionGame& game, OrgId i,
                                                 const StrategyProfile& profile) {
  game::PayoffBreakdown breakdown;
  breakdown.revenue = game.org(i).profitability * game.performance(profile);
  breakdown.energy_cost = game.params().omega_e * game.energy(i, profile);
  breakdown.damage = reference_damage(game, i, profile);
  breakdown.redistribution = reference_redistribution(game, i, profile);
  return breakdown;
}

double reference_max_unilateral_gain(const CoopetitionGame& game, const StrategyProfile& profile,
                                     std::size_t grid) {
  const double d_min = game.params().d_min;
  double worst_gain = 0.0;
  for (std::size_t i = 0; i < game.size(); ++i) {
    const double current = reference_payoff(game, i, profile);
    StrategyProfile trial = profile;
    for (std::size_t level : reference_feasible_levels(game, i)) {
      const double upper = game.data_upper_bound(i, level);
      trial[i].freq_index = level;
      auto payoff_at = [&](double d) {
        trial[i].data_fraction = d;
        return reference_payoff(game, i, trial);
      };
      const auto best = tradefl::math::golden_section_maximize(payoff_at, d_min, upper, 1e-10);
      worst_gain = std::max(worst_gain, best.value - current);
      for (std::size_t g = 0; g <= grid; ++g) {
        const double d = d_min + (upper - d_min) * static_cast<double>(g) /
                                     static_cast<double>(grid);
        worst_gain = std::max(worst_gain, payoff_at(d) - current);
      }
    }
    trial[i] = profile[i];
  }
  return worst_gain;
}

core::BestResponse reference_best_response(const CoopetitionGame& game, OrgId i,
                                           const StrategyProfile& profile,
                                           const core::BestResponseOptions& options) {
  StrategyProfile scratch = profile;
  core::BestResponse best;
  best.payoff = -1e300;

  std::vector<std::size_t> levels;
  if (options.forced_freq_level >= 0) {
    const auto level = static_cast<std::size_t>(options.forced_freq_level);
    if (game.data_upper_bound(i, level) >= game.params().d_min) levels.push_back(level);
  } else {
    levels = reference_feasible_levels(game, i);
  }
  if (levels.empty()) {
    throw std::runtime_error("reference_best_response: no feasible frequency level");
  }
  for (std::size_t level : levels) {
    const auto [d, value] = reference_best_data_fraction(game, i, scratch, level, options);
    if (value > best.payoff) {
      best.payoff = value;
      best.strategy = Strategy{d, level};
    }
  }
  return best;
}

StrategyProfile reference_dbr_profile(const CoopetitionGame& game,
                                      const core::DbrOptions& options) {
  StrategyProfile profile = game.minimal_profile();
  for (int round = 1; round <= options.max_rounds; ++round) {
    bool any_change = false;
    for (OrgId i = 0; i < game.size(); ++i) {
      const double current = reference_objective(game, i, profile, options.best_response);
      const core::BestResponse response =
          reference_best_response(game, i, profile, options.best_response);
      const bool strategy_moved =
          response.strategy.freq_index != profile[i].freq_index ||
          std::abs(response.strategy.data_fraction - profile[i].data_fraction) >
              options.strategy_tol;
      if (response.payoff > current + options.improvement_tol && strategy_moved) {
        profile[i] = response.strategy;
        any_change = true;
      }
    }
    if (!any_change) break;
  }
  return profile;
}

}  // namespace tradefl::oracle
