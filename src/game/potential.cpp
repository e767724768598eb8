#include "game/potential.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>

#include "common/check.h"
#include "common/rng.h"

namespace tradefl::game {
namespace {

math::Vec data_fractions(const StrategyProfile& profile) {
  math::Vec d(profile.size());
  for (std::size_t i = 0; i < profile.size(); ++i) d[i] = profile[i].data_fraction;
  return d;
}

using Checker = double (*)(const CoopetitionGame&, const StrategyProfile&);

PotentialIdentityCheck run_identity_check(const CoopetitionGame& game,
                                          const StrategyProfile& profile,
                                          std::size_t samples, std::uint64_t seed,
                                          Checker potential_fn) {
  Rng rng(seed);
  PotentialIdentityCheck check;
  const double base_potential = potential_fn(game, profile);

  for (std::size_t sample = 0; sample < samples; ++sample) {
    const OrgId i = static_cast<OrgId>(
        rng.uniform_int(0, static_cast<std::int64_t>(game.size()) - 1));
    const auto levels = game.feasible_freq_levels(i);
    if (levels.empty()) continue;
    const std::size_t level = levels[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(levels.size()) - 1))];
    const double upper = game.data_upper_bound(i, level);
    StrategyProfile deviated = profile;
    deviated[i].freq_index = level;
    deviated[i].data_fraction = rng.uniform(game.params().d_min, upper);

    const double payoff_change = game.payoff(i, deviated) - game.payoff(i, profile);
    const double potential_change =
        game.weight_z(i) * (potential_fn(game, deviated) - base_potential);
    const double abs_error = std::abs(payoff_change - potential_change);
    const double scale = std::max({std::abs(payoff_change), std::abs(potential_change), 1e-12});
    check.max_abs_error = std::max(check.max_abs_error, abs_error);
    check.max_rel_error = std::max(check.max_rel_error, abs_error / scale);
    ++check.deviations_tested;
  }
  return check;
}

}  // namespace

FixedFrequencyPotential::FixedFrequencyPotential(const CoopetitionGame& game,
                                                 std::size_t size)
    : game_(&game), terms_(game.size()) {
  if (size != game.size()) throw std::invalid_argument("game: profile size mismatch");
}

FixedFrequencyPotential::FixedFrequencyPotential(const CoopetitionGame& game,
                                                 const std::vector<std::size_t>& freq_indices)
    : FixedFrequencyPotential(game, freq_indices.size()) {
  for (OrgId i = 0; i < terms_.size(); ++i) set_level(i, freq_indices[i]);
}

FixedFrequencyPotential::FixedFrequencyPotential(const CoopetitionGame& game,
                                                 const StrategyProfile& profile)
    : FixedFrequencyPotential(game, profile.size()) {
  for (OrgId i = 0; i < terms_.size(); ++i) set_level(i, profile[i].freq_index);
}

void FixedFrequencyPotential::set_level(OrgId i, std::size_t level) {
  const CoopetitionGame& game = *game_;
  const GameParams& params = game.params();
  const Organization& org = game.org(i);
  const double f = org.freq_levels.at(level);
  const double z = game.weight_z(i);
  const double row_sum = game.rho().row_sum(i);
  OrgTerms& terms = terms_[i];
  terms.weight = game.contribution_weight(i);
  terms.data_size = org.data_size_bits;
  terms.weight_z = z;
  terms.energy_factor = params.kappa * f * f * org.cycles_per_bit;
  terms.gamma_rho = params.gamma * row_sum;
  terms.lambda_f = params.lambda * f;
  terms.energy_slope =
      params.omega_e * params.kappa * f * f * org.cycles_per_bit * org.data_size_bits / z;
  terms.redistribution_slope = params.gamma * org.data_size_bits * row_sum / z;
}

double FixedFrequencyPotential::omega(const math::Vec& d) const {
  TFL_ASSERT(d.size() == terms_.size(), "potential: ", d.size(), " fractions for ",
             terms_.size(), " organizations");
  double total = 0.0;
  for (std::size_t i = 0; i < terms_.size(); ++i) total += d[i] * terms_[i].weight;
  return total;
}

double FixedFrequencyPotential::energy(const math::Vec& d) const {
  const double omega_e = game_->params().omega_e;
  double total = 0.0;
  for (std::size_t i = 0; i < terms_.size(); ++i) {
    const OrgTerms& terms = terms_[i];
    const double comp_energy = terms.energy_factor * d[i] * terms.data_size;
    total += omega_e * comp_energy / terms.weight_z;
  }
  return total;
}

double FixedFrequencyPotential::value(const math::Vec& d) const {
  double value = game_->accuracy().performance(omega(d));
  value -= energy(d);
  for (std::size_t i = 0; i < terms_.size(); ++i) {
    const OrgTerms& terms = terms_[i];
    // γ Σ_j ρ_{i,j} χ_i / z_i with χ_i = d_i s_i + λ f_i.
    value += terms.gamma_rho * (d[i] * terms.data_size + terms.lambda_f) / terms.weight_z;
  }
  return value;
}

void FixedFrequencyPotential::gradient(const math::Vec& d, math::Vec& out) const {
  TFL_ASSERT(out.size() == terms_.size(), "potential: gradient buffer of ", out.size());
  const double p_slope = game_->accuracy().performance_derivative(omega(d));
  for (std::size_t i = 0; i < terms_.size(); ++i) {
    const OrgTerms& terms = terms_[i];
    out[i] = p_slope * terms.weight - terms.energy_slope + terms.redistribution_slope;
  }
}

void FixedFrequencyPotential::hessian(const math::Vec& d, math::Matrix& out) const {
  TFL_ASSERT(out.rows() == terms_.size() && out.cols() == terms_.size(),
             "potential: Hessian buffer of ", out.rows(), "x", out.cols());
  const double curvature = game_->accuracy().performance_second_derivative(omega(d));
  for (std::size_t i = 0; i < terms_.size(); ++i) {
    for (std::size_t j = 0; j < terms_.size(); ++j) {
      out.at(i, j) = curvature * terms_[i].weight * terms_[j].weight;
    }
  }
}

void FixedFrequencyPotential::maximize(double lower, const math::Vec& upper,
                                       math::Vec& d) const {
  const std::size_t n = terms_.size();
  TFL_ASSERT(upper.size() == n, "potential: ", upper.size(), " bounds for ", n,
             " organizations");
  const AccuracyModel& accuracy = game_->accuracy();
  // θ_i = -c_i / w_i: the marginal accuracy P'(Ω) below which raising d_i
  // costs more energy than it earns.
  const auto threshold = [this](std::size_t i) {
    const OrgTerms& terms = terms_[i];
    return (terms.energy_slope - terms.redistribution_slope) / terms.weight;
  };
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    const double theta_a = threshold(a);
    const double theta_b = threshold(b);
    return theta_a < theta_b || (theta_a == theta_b && a < b);
  });

  // Start with every d_i at `lower` and raise organizations to their upper
  // bound in increasing θ order while P' at the current Ω still exceeds the
  // next threshold. P' falls as Ω grows, so the first organization whose
  // full raise would push P' below its θ is the marginal one.
  d.assign(n, lower);
  double omega_now = omega(d);
  double slope_now = accuracy.performance_derivative(omega_now);
  for (const std::size_t i : order) {
    TFL_ASSERT(upper[i] >= lower, "potential: upper bound ", upper[i], " below ", lower);
    const double theta = threshold(i);
    if (slope_now <= theta) return;
    const double raised_omega = omega_now + terms_[i].weight * (upper[i] - lower);
    const double raised_slope = accuracy.performance_derivative(raised_omega);
    if (raised_slope < theta) {
      const double target = accuracy.inverse_performance_derivative(theta);
      d[i] = std::clamp(lower + (target - omega_now) / terms_[i].weight, lower, upper[i]);
      return;
    }
    d[i] = upper[i];
    omega_now = raised_omega;
    slope_now = raised_slope;
  }
}

double potential(const CoopetitionGame& game, const StrategyProfile& profile) {
  return FixedFrequencyPotential(game, profile).value(data_fractions(profile));
}

double paper_potential(const CoopetitionGame& game, const StrategyProfile& profile) {
  const FixedFrequencyPotential evaluator(game, profile);
  const math::Vec d = data_fractions(profile);
  double value = game.accuracy().performance(evaluator.omega(d));
  value -= evaluator.energy(d);
  for (std::size_t i = 0; i < game.size(); ++i) {
    value += game.redistribution(i, profile) / game.weight_z(i);
  }
  return value;
}

double potential_gradient_d(const CoopetitionGame& game, const StrategyProfile& profile,
                            OrgId i) {
  math::Vec gradient(game.size());
  FixedFrequencyPotential(game, profile).gradient(data_fractions(profile), gradient);
  return gradient.at(i);
}

double potential_hessian_dd(const CoopetitionGame& game, const StrategyProfile& profile,
                            OrgId i, OrgId j) {
  math::Matrix hessian(game.size(), game.size());
  FixedFrequencyPotential(game, profile).hessian(data_fractions(profile), hessian);
  return hessian.at(i, j);
}

PotentialIdentityCheck check_weighted_potential_identity(const CoopetitionGame& game,
                                                         const StrategyProfile& profile,
                                                         std::size_t samples,
                                                         std::uint64_t seed) {
  return run_identity_check(game, profile, samples, seed, &potential);
}

PotentialIdentityCheck check_paper_potential_identity(const CoopetitionGame& game,
                                                      const StrategyProfile& profile,
                                                      std::size_t samples,
                                                      std::uint64_t seed) {
  return run_identity_check(game, profile, samples, seed, &paper_potential);
}

}  // namespace tradefl::game
