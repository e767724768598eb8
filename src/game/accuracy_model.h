// Data-accuracy function P (Eq. 4) and the accuracy-loss models behind it.
//
// TradeFL deliberately does not assume a functional form for P; it only
// requires the first/second-derivative conditions of Eq. (5):
//   dP/dΩ >= 0 and d²P/dΩ² <= 0 (monotone, diminishing returns).
// We express that as the AccuracyModel interface. The simulations use the
// bound from footnote 7 (SqrtAccuracyModel); the FL evaluation can fit an
// EmpiricalAccuracyModel from measured accuracy-vs-data curves (Fig. 2), and
// alternative smooth forms are provided to exercise the "no specific form"
// claim in tests and ablations.
#pragma once

#include <memory>

#include "common/stats.h"

namespace tradefl::game {

/// Accuracy loss A(Ω) as a function of effective contributed data Ω >= 0
/// (scaled units, see GameParams::data_scale). Implementations must be
/// nonincreasing and convex in Ω so that P(Ω) = A(0) - A(Ω) satisfies Eq. (5).
class AccuracyModel {
 public:
  virtual ~AccuracyModel() = default;

  /// A(Ω) — accuracy loss with effective data Ω.
  [[nodiscard]] virtual double loss(double omega) const = 0;

  /// dA/dΩ (<= 0).
  [[nodiscard]] virtual double loss_derivative(double omega) const = 0;

  /// d²A/dΩ² (>= 0).
  [[nodiscard]] virtual double loss_second_derivative(double omega) const = 0;

  /// A(0) — the untrained-model loss; anchors P (Eq. 4).
  [[nodiscard]] double loss_at_zero() const { return loss(0.0); }

  /// P(Ω) = A(0) - A(Ω) (Eq. 4). P(0) = 0 by construction.
  [[nodiscard]] double performance(double omega) const {
    return loss_at_zero() - loss(omega);
  }
  [[nodiscard]] double performance_derivative(double omega) const {
    return -loss_derivative(omega);
  }
  [[nodiscard]] double performance_second_derivative(double omega) const {
    return -loss_second_derivative(omega);
  }

  /// (P')⁻¹(μ): the Ω >= 0 with P'(Ω) = μ, in closed form. P' falls from
  /// P'(0) towards 0 as Ω grows, so the inverse is clipped at both ends:
  /// μ >= P'(0) gives 0 and μ <= 0 gives +∞. A NaN μ propagates.
  [[nodiscard]] virtual double inverse_performance_derivative(double mu) const = 0;
};

/// Footnote 7's bound, smoothed so that A(0) equals the configured untrained
/// loss a0 exactly:
///   A(Ω) = 1 / sqrt((Ω + Ω₀) G) + 1/G,  Ω₀ = 1 / (G (a0 - 1/G)²).
/// Monotone decreasing and convex for all Ω >= 0, so P satisfies Eq. (5).
class SqrtAccuracyModel final : public AccuracyModel {
 public:
  SqrtAccuracyModel(double epochs_g, double a0);

  [[nodiscard]] double loss(double omega) const override;
  [[nodiscard]] double loss_derivative(double omega) const override;
  [[nodiscard]] double loss_second_derivative(double omega) const override;
  [[nodiscard]] double inverse_performance_derivative(double mu) const override;

  [[nodiscard]] double epochs() const { return epochs_g_; }
  [[nodiscard]] double omega_offset() const { return omega0_; }

 private:
  double epochs_g_;
  double omega0_;
};

/// A(Ω) = a0 (1 + Ω/ω_ref)^(-α), α in (0, 1]: power-law saturation, an
/// alternative form satisfying Eq. (5).
class PowerLawAccuracyModel final : public AccuracyModel {
 public:
  PowerLawAccuracyModel(double a0, double omega_ref, double alpha);

  [[nodiscard]] double loss(double omega) const override;
  [[nodiscard]] double loss_derivative(double omega) const override;
  [[nodiscard]] double loss_second_derivative(double omega) const override;
  [[nodiscard]] double inverse_performance_derivative(double mu) const override;

 private:
  double a0_;
  double omega_ref_;
  double alpha_;
};

/// A(Ω) = a0 exp(-Ω/ω_ref): exponential saturation, another Eq.(5) form.
class ExponentialAccuracyModel final : public AccuracyModel {
 public:
  ExponentialAccuracyModel(double a0, double omega_ref);

  [[nodiscard]] double loss(double omega) const override;
  [[nodiscard]] double loss_derivative(double omega) const override;
  [[nodiscard]] double loss_second_derivative(double omega) const override;
  [[nodiscard]] double inverse_performance_derivative(double mu) const override;

 private:
  double a0_;
  double omega_ref_;
};

/// Built from a SqrtSaturationFit of measured accuracy-vs-data points (the
/// Fig. 2 pre-experiment): accuracy(Ω) ≈ a - b/sqrt(Ω + c), so the loss is
/// A(Ω) = A(0) - (accuracy(Ω) - accuracy(0)). Satisfies Eq. (5) when b >= 0.
class EmpiricalAccuracyModel final : public AccuracyModel {
 public:
  EmpiricalAccuracyModel(SqrtSaturationFit fit, double a0);

  [[nodiscard]] double loss(double omega) const override;
  [[nodiscard]] double loss_derivative(double omega) const override;
  [[nodiscard]] double loss_second_derivative(double omega) const override;
  [[nodiscard]] double inverse_performance_derivative(double mu) const override;

  [[nodiscard]] const SqrtSaturationFit& fit() const { return fit_; }

 private:
  SqrtSaturationFit fit_;
  double a0_;
};

using AccuracyModelPtr = std::shared_ptr<const AccuracyModel>;

}  // namespace tradefl::game
