#include "game/game.h"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <stdexcept>

#include "common/check.h"
#include "math/scalar_opt.h"

namespace tradefl::game {

CoopetitionGame::CoopetitionGame(std::vector<Organization> orgs, CompetitionMatrix rho,
                                 AccuracyModelPtr accuracy, GameParams params)
    : orgs_(std::move(orgs)),
      rho_(std::move(rho)),
      accuracy_(std::move(accuracy)),
      params_(params) {
  if (orgs_.empty()) throw std::invalid_argument("game: need at least one organization");
  if (rho_.size() != orgs_.size()) throw std::invalid_argument("game: rho size mismatch");
  if (!accuracy_) throw std::invalid_argument("game: accuracy model required");
  if (auto status = params_.validate(); !status.ok()) {
    throw std::invalid_argument("game: " + status.error().to_string());
  }
  for (const auto& org : orgs_) {
    if (!org.is_valid()) throw std::invalid_argument("game: invalid organization " + org.name);
  }
  // Asymmetric rho is a valid game (the exact potential identity does not
  // need symmetry); the budget-balance precondition is asserted where Thm. 2
  // is actually claimed, in core/mechanism.cpp's run_scheme.
  std::vector<double> profitability(orgs_.size());
  for (std::size_t i = 0; i < orgs_.size(); ++i) profitability[i] = orgs_[i].profitability;
  rho_guard_scale_ = enforce_positive_weights(rho_, profitability);
  z_ = potential_weights(rho_, profitability);
  std::size_t level_count = 0;
  for (const auto& org : orgs_) level_count += org.freq_levels.size();
  feasible_levels_.reserve(level_count);
  feasible_begin_.reserve(orgs_.size() + 1);
  for (std::size_t i = 0; i < orgs_.size(); ++i) {
    feasible_begin_.push_back(feasible_levels_.size());
    for (std::size_t level = 0; level < orgs_[i].freq_levels.size(); ++level) {
      if (data_upper_bound(i, level) >= params_.d_min) feasible_levels_.push_back(level);
    }
  }
  feasible_begin_.push_back(feasible_levels_.size());
}

UnilateralDeviation::UnilateralDeviation(const CoopetitionGame& game, OrgId i,
                                         const StrategyProfile& profile)
    : game_(&game), i_(i) {
  if (profile.size() != game.size()) throw std::invalid_argument("game: profile size mismatch");
  weight_ = game.contribution_weight(i);  // also rejects i out of range
  const GameParams& params = game.params();
  opponents_.reserve(game.size() - 1);
  omega_suffix_.reserve(game.size() - 1 - i);
  for (std::size_t j = 0; j < game.size(); ++j) {
    // Σ_j ρ_{i,j} p_j (Eq. 7) runs over every j, i included, in index order.
    weighted_profitability_ += game.rho().at(i, j) * game.org(j).profitability;
    if (j == i) continue;
    const double term = profile[j].data_fraction * game.contribution_weight(j);
    if (j < i) {
      omega_prefix_ += term;
    } else {
      omega_suffix_.push_back(term);
    }
    opponents_.push_back({params.gamma * game.rho().at(i, j),
                          profile[j].data_fraction * game.org(j).data_size_bits +
                              params.lambda * game.frequency(j, profile[j])});
  }
}

double UnilateralDeviation::omega(double d) const {
  // Same additions in the same order as CoopetitionGame::omega(), so the sum
  // rounds identically; pre-summing the suffix would not.
  double total = omega_prefix_;
  total += d * weight_;
  for (double term : omega_suffix_) total += term;
  return total;
}

PayoffBreakdown UnilateralDeviation::breakdown(double d, std::size_t level) const {
  const CoopetitionGame& game = *game_;
  const GameParams& params = game.params();
  const Organization& org = game.org(i_);
  const Hertz f = org.freq_levels.at(level);
  const double omega_all = omega(d);
  // P(d_i, d_-i) and P(0, d_-i); the max guards against cancellation.
  const double with_i = game.accuracy().performance(omega_all);
  const double without_i = game.accuracy().performance(std::max(0.0, omega_all - d * weight_));

  PayoffBreakdown breakdown;
  breakdown.revenue = org.profitability * with_i;
  // ϖ_e E_i with E_i = κ f² η d s + E_DL T¹ + E_UL T³ (Eq. 8).
  breakdown.energy_cost =
      params.omega_e * (org.comp_energy(d, f, params.kappa) + org.comm_energy());
  // D_i = Σ_j ρ_{i,j} ϖ_j with ϖ_j = p_j [P(d_i, d_-i) - P(0, d_-i)] (Eqs. 6-7),
  // hoisting the shared marginal factor.
  breakdown.damage = weighted_profitability_ * (with_i - without_i);
  // R_i = Σ_j γ ρ_{i,j} [(d_i s_i + λ f_i) - (d_j s_j + λ f_j)] (Eqs. 9-10).
  const double contribution = d * org.data_size_bits + params.lambda * f;
  for (const Opponent& opponent : opponents_) {
    breakdown.redistribution += opponent.gamma_rho * (contribution - opponent.contribution);
  }
  // IR/BB/CE reasoning is meaningless on non-finite payoffs; trap NaN/Inf at
  // the source instead of letting it flow into the solvers.
  TFL_FINITE(breakdown.revenue);
  TFL_FINITE(breakdown.energy_cost);
  TFL_FINITE(breakdown.damage);
  TFL_FINITE(breakdown.redistribution);
  return breakdown;
}

Hertz CoopetitionGame::frequency(OrgId i, const Strategy& strategy) const {
  return orgs_.at(i).freq_levels.at(strategy.freq_index);
}

double CoopetitionGame::contribution_weight(OrgId i) const {
  return orgs_.at(i).data_size_bits / params_.data_scale;
}

double CoopetitionGame::omega(const StrategyProfile& profile) const {
  if (profile.size() != orgs_.size()) throw std::invalid_argument("game: profile size mismatch");
  double total = 0.0;
  for (std::size_t i = 0; i < profile.size(); ++i) {
    total += profile[i].data_fraction * contribution_weight(i);
  }
  return total;
}

double CoopetitionGame::omega_excluding(const StrategyProfile& profile, OrgId excluded) const {
  const double rest =
      omega(profile) - profile.at(excluded).data_fraction * contribution_weight(excluded);
  return std::max(0.0, rest);  // guard against floating-point cancellation
}

double CoopetitionGame::performance(const StrategyProfile& profile) const {
  return accuracy_->performance(omega(profile));
}

double CoopetitionGame::revenue(OrgId i, const StrategyProfile& profile) const {
  return payoff_breakdown(i, profile).revenue;
}

double CoopetitionGame::damage(OrgId i, const StrategyProfile& profile) const {
  return payoff_breakdown(i, profile).damage;
}

Joules CoopetitionGame::energy(OrgId i, const StrategyProfile& profile) const {
  const Organization& org = orgs_.at(i);
  const Strategy& strategy = profile.at(i);
  return org.comp_energy(strategy.data_fraction, frequency(i, strategy), params_.kappa) +
         org.comm_energy();
}

double CoopetitionGame::redistribution_pair(OrgId i, OrgId j,
                                            const StrategyProfile& profile) const {
  if (i == j) return 0.0;
  // r_{i,j} = γ ρ_{i,j} [(d_i s_i + λ f_i) - (d_j s_j + λ f_j)] (Eq. 9).
  const double contribution_i = profile.at(i).data_fraction * orgs_.at(i).data_size_bits +
                                params_.lambda * frequency(i, profile.at(i));
  const double contribution_j = profile.at(j).data_fraction * orgs_.at(j).data_size_bits +
                                params_.lambda * frequency(j, profile.at(j));
  return params_.gamma * rho_.at(i, j) * (contribution_i - contribution_j);
}

double CoopetitionGame::redistribution(OrgId i, const StrategyProfile& profile) const {
  return payoff_breakdown(i, profile).redistribution;
}

UnilateralDeviation CoopetitionGame::deviation(OrgId i, const StrategyProfile& profile) const {
  return UnilateralDeviation(*this, i, profile);
}

PayoffBreakdown CoopetitionGame::payoff_breakdown(OrgId i, const StrategyProfile& profile) const {
  return deviation(i, profile).breakdown(profile[i].data_fraction, profile[i].freq_index);
}

double CoopetitionGame::payoff(OrgId i, const StrategyProfile& profile) const {
  return payoff_breakdown(i, profile).total();
}

double CoopetitionGame::social_welfare(const StrategyProfile& profile) const {
  double total = 0.0;
  for (std::size_t i = 0; i < orgs_.size(); ++i) total += payoff(i, profile);
  return total;
}

double CoopetitionGame::total_damage(const StrategyProfile& profile) const {
  double total = 0.0;
  for (std::size_t i = 0; i < orgs_.size(); ++i) total += damage(i, profile);
  return total;
}

double CoopetitionGame::total_data_fraction(const StrategyProfile& profile) const {
  double total = 0.0;
  for (const Strategy& strategy : profile) total += strategy.data_fraction;
  return total;
}

double CoopetitionGame::data_upper_bound(OrgId i, std::size_t freq_index) const {
  const Organization& org = orgs_.at(i);
  const double deadline_bound =
      org.max_data_fraction_for_deadline(org.freq_levels.at(freq_index), params_.tau);
  return std::min(1.0, deadline_bound);
}

std::span<const std::size_t> CoopetitionGame::feasible_freq_levels(OrgId i) const {
  const std::size_t begin = feasible_begin_.at(i);
  return {feasible_levels_.data() + begin, feasible_begin_.at(i + 1) - begin};
}

bool CoopetitionGame::is_feasible(const StrategyProfile& profile) const {
  return feasibility_report(profile).empty();
}

std::string CoopetitionGame::feasibility_report(const StrategyProfile& profile) const {
  std::ostringstream report;
  if (profile.size() != orgs_.size()) {
    report << "profile size " << profile.size() << " != organizations " << orgs_.size();
    return report.str();
  }
  for (std::size_t i = 0; i < profile.size(); ++i) {
    const Strategy& strategy = profile[i];
    const Organization& org = orgs_[i];
    if (strategy.freq_index >= org.freq_levels.size()) {
      report << org.name << ": freq index out of range; ";
      continue;
    }
    if (strategy.data_fraction < params_.d_min - 1e-12 ||
        strategy.data_fraction > 1.0 + 1e-12) {
      report << org.name << ": d=" << strategy.data_fraction << " outside [D_min, 1]; ";
    }
    const Seconds round = org.round_time(strategy.data_fraction, frequency(i, strategy));
    if (round > params_.tau + 1e-9) {
      report << org.name << ": round time " << round << "s exceeds tau=" << params_.tau << "; ";
    }
  }
  return report.str();
}

StrategyProfile CoopetitionGame::minimal_profile() const {
  StrategyProfile profile(orgs_.size());
  for (std::size_t i = 0; i < orgs_.size(); ++i) {
    const std::span<const std::size_t> levels = feasible_freq_levels(i);
    if (levels.empty()) {
      throw std::runtime_error("game: organization " + orgs_[i].name +
                               " cannot meet the deadline even at d = D_min");
    }
    profile[i].data_fraction = params_.d_min;
    profile[i].freq_index = levels.back();  // fastest feasible level
  }
  return profile;
}

double CoopetitionGame::max_unilateral_gain(const StrategyProfile& profile,
                                            std::size_t grid) const {
  double worst_gain = 0.0;
  for (std::size_t i = 0; i < orgs_.size(); ++i) {
    const UnilateralDeviation view = deviation(i, profile);
    const double current =
        view.breakdown(profile[i].data_fraction, profile[i].freq_index).total();
    for (std::size_t level : feasible_freq_levels(i)) {
      const double upper = data_upper_bound(i, level);
      // Continuous 1-D search (payoff is concave in d_i for Eq. 5 models).
      auto payoff_at = [&](double d) { return view.breakdown(d, level).total(); };
      const auto best = tradefl::math::golden_section_maximize(
          payoff_at, params_.d_min, upper, 1e-10);
      worst_gain = std::max(worst_gain, best.value - current);
      // Plus a uniform grid (catches non-concavity in exotic models).
      for (std::size_t g = 0; g <= grid; ++g) {
        const double d = params_.d_min + (upper - params_.d_min) *
                                             static_cast<double>(g) /
                                             static_cast<double>(grid);
        worst_gain = std::max(worst_gain, payoff_at(d) - current);
      }
    }
  }
  return worst_gain;
}

}  // namespace tradefl::game
