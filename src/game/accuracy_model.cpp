#include "game/accuracy_model.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <optional>
#include <stdexcept>

namespace tradefl::game {
namespace {

/// The clipped ends every inverse marginal shares: μ at or above P'(0) maps
/// to Ω = 0 and μ at or below 0 to +∞. Empty for μ strictly between, and for
/// NaN, which each closed form then propagates (std::max(NaN, 0.0) is NaN).
std::optional<double> inverse_end(double mu, double slope_at_zero) {
  if (mu >= slope_at_zero) return 0.0;
  if (mu <= 0.0) return std::numeric_limits<double>::infinity();
  return std::nullopt;
}

/// x^(2/3) without forming x² (which overflows for tiny μ).
double pow_two_thirds(double x) {
  const double root = std::cbrt(x);
  return root * root;
}

}  // namespace

SqrtAccuracyModel::SqrtAccuracyModel(double epochs_g, double a0) : epochs_g_(epochs_g) {
  if (epochs_g <= 1.0) throw std::invalid_argument("SqrtAccuracyModel: G must be > 1");
  const double headroom = a0 - 1.0 / epochs_g;
  if (headroom <= 0.0) {
    throw std::invalid_argument("SqrtAccuracyModel: a0 must exceed 1/G");
  }
  // Choose Ω₀ so A(0) = 1/sqrt(Ω₀ G) + 1/G = a0.
  omega0_ = 1.0 / (epochs_g * headroom * headroom);
}

double SqrtAccuracyModel::loss(double omega) const {
  if (omega < 0.0) throw std::invalid_argument("loss: omega must be >= 0");
  return 1.0 / std::sqrt((omega + omega0_) * epochs_g_) + 1.0 / epochs_g_;
}

double SqrtAccuracyModel::loss_derivative(double omega) const {
  if (omega < 0.0) throw std::invalid_argument("loss_derivative: omega must be >= 0");
  return -0.5 / (std::sqrt(epochs_g_) * std::pow(omega + omega0_, 1.5));
}

double SqrtAccuracyModel::loss_second_derivative(double omega) const {
  if (omega < 0.0) throw std::invalid_argument("loss_second_derivative: omega must be >= 0");
  return 0.75 / (std::sqrt(epochs_g_) * std::pow(omega + omega0_, 2.5));
}

double SqrtAccuracyModel::inverse_performance_derivative(double mu) const {
  if (const auto end = inverse_end(mu, performance_derivative(0.0))) return *end;
  // P'(Ω) = 0.5 / (sqrt(G) (Ω + Ω₀)^1.5)  ⇔  Ω + Ω₀ = (0.5 / (sqrt(G) μ))^(2/3).
  return std::max(pow_two_thirds(0.5 / (std::sqrt(epochs_g_) * mu)) - omega0_, 0.0);
}

PowerLawAccuracyModel::PowerLawAccuracyModel(double a0, double omega_ref, double alpha)
    : a0_(a0), omega_ref_(omega_ref), alpha_(alpha) {
  if (a0 <= 0.0 || omega_ref <= 0.0) {
    throw std::invalid_argument("PowerLawAccuracyModel: a0 and omega_ref must be > 0");
  }
  if (!(alpha > 0.0 && alpha <= 1.0)) {
    throw std::invalid_argument("PowerLawAccuracyModel: alpha must be in (0, 1]");
  }
}

double PowerLawAccuracyModel::loss(double omega) const {
  return a0_ * std::pow(1.0 + omega / omega_ref_, -alpha_);
}

double PowerLawAccuracyModel::loss_derivative(double omega) const {
  return -a0_ * alpha_ / omega_ref_ * std::pow(1.0 + omega / omega_ref_, -alpha_ - 1.0);
}

double PowerLawAccuracyModel::loss_second_derivative(double omega) const {
  return a0_ * alpha_ * (alpha_ + 1.0) / (omega_ref_ * omega_ref_) *
         std::pow(1.0 + omega / omega_ref_, -alpha_ - 2.0);
}

double PowerLawAccuracyModel::inverse_performance_derivative(double mu) const {
  if (const auto end = inverse_end(mu, performance_derivative(0.0))) return *end;
  // P'(Ω) = a0 α / ω_ref (1 + Ω/ω_ref)^(-α-1).
  const double ratio = a0_ * alpha_ / omega_ref_ / mu;
  return std::max(omega_ref_ * (std::pow(ratio, 1.0 / (alpha_ + 1.0)) - 1.0), 0.0);
}

ExponentialAccuracyModel::ExponentialAccuracyModel(double a0, double omega_ref)
    : a0_(a0), omega_ref_(omega_ref) {
  if (a0 <= 0.0 || omega_ref <= 0.0) {
    throw std::invalid_argument("ExponentialAccuracyModel: a0 and omega_ref must be > 0");
  }
}

double ExponentialAccuracyModel::loss(double omega) const {
  return a0_ * std::exp(-omega / omega_ref_);
}

double ExponentialAccuracyModel::loss_derivative(double omega) const {
  return -a0_ / omega_ref_ * std::exp(-omega / omega_ref_);
}

double ExponentialAccuracyModel::loss_second_derivative(double omega) const {
  return a0_ / (omega_ref_ * omega_ref_) * std::exp(-omega / omega_ref_);
}

double ExponentialAccuracyModel::inverse_performance_derivative(double mu) const {
  if (const auto end = inverse_end(mu, performance_derivative(0.0))) return *end;
  // P'(Ω) = a0 / ω_ref exp(-Ω/ω_ref).
  return std::max(omega_ref_ * std::log(a0_ / omega_ref_ / mu), 0.0);
}

EmpiricalAccuracyModel::EmpiricalAccuracyModel(SqrtSaturationFit fit, double a0)
    : fit_(fit), a0_(a0) {
  if (fit_.b < 0.0) throw std::invalid_argument("EmpiricalAccuracyModel: fit.b must be >= 0");
  if (fit_.c <= 0.0) throw std::invalid_argument("EmpiricalAccuracyModel: fit.c must be > 0");
  if (a0 <= 0.0) throw std::invalid_argument("EmpiricalAccuracyModel: a0 must be > 0");
}

double EmpiricalAccuracyModel::loss(double omega) const {
  if (omega < 0.0) throw std::invalid_argument("loss: omega must be >= 0");
  // accuracy(Ω) - accuracy(0) = b/sqrt(c) - b/sqrt(Ω + c); loss falls by it.
  const double accuracy_gain = fit_.b / std::sqrt(fit_.c) - fit_.b / std::sqrt(omega + fit_.c);
  return a0_ - accuracy_gain;
}

double EmpiricalAccuracyModel::loss_derivative(double omega) const {
  return -0.5 * fit_.b * std::pow(omega + fit_.c, -1.5);
}

double EmpiricalAccuracyModel::loss_second_derivative(double omega) const {
  return 0.75 * fit_.b * std::pow(omega + fit_.c, -2.5);
}

double EmpiricalAccuracyModel::inverse_performance_derivative(double mu) const {
  if (const auto end = inverse_end(mu, performance_derivative(0.0))) return *end;
  // P'(Ω) = 0.5 b (Ω + c)^-1.5  ⇔  Ω + c = (0.5 b / μ)^(2/3).
  return std::max(pow_two_thirds(0.5 * fit_.b / mu) - fit_.c, 0.0);
}

}  // namespace tradefl::game
