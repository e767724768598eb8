#include "math/barrier_solver.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "common/check.h"

namespace tradefl::math {
namespace {

SmoothObjective quadratic_objective(const Vec& center) {
  // g(x) = -||x - c||^2, maximized at c.
  SmoothObjective objective;
  objective.value = [center](const Vec& x) {
    double total = 0.0;
    for (std::size_t i = 0; i < x.size(); ++i) total -= (x[i] - center[i]) * (x[i] - center[i]);
    return total;
  };
  objective.gradient = [center](const Vec& x, Vec& grad) {
    for (std::size_t i = 0; i < x.size(); ++i) grad[i] = -2.0 * (x[i] - center[i]);
  };
  objective.hessian = [](const Vec& x, Matrix& h) {
    for (std::size_t i = 0; i < x.size(); ++i) {
      for (std::size_t j = 0; j < x.size(); ++j) h.at(i, j) = i == j ? -2.0 : 0.0;
    }
  };
  return objective;
}

TEST(Barrier, UnconstrainedInteriorOptimum) {
  const Vec center{0.4, 0.6};
  const auto result = maximize_with_barrier(quadratic_objective(center),
                                            {Vec{0.0, 0.0}, Vec{1.0, 1.0}},
                                            LinearInequalities{}, Vec{0.5, 0.5});
  EXPECT_TRUE(result.converged);
  EXPECT_NEAR(result.x[0], 0.4, 1e-5);
  EXPECT_NEAR(result.x[1], 0.6, 1e-5);
}

TEST(Barrier, BoxActiveAtOptimum) {
  // Optimum at c = (1.5, 0.5) clipped to the box upper bound in x0.
  const auto result = maximize_with_barrier(quadratic_objective({1.5, 0.5}),
                                            {Vec{0.0, 0.0}, Vec{1.0, 1.0}},
                                            LinearInequalities{}, Vec{0.5, 0.5});
  EXPECT_NEAR(result.x[0], 1.0, 1e-4);
  EXPECT_NEAR(result.x[1], 0.5, 1e-5);
}

TEST(Barrier, LinearConstraintBinds) {
  // max -(x0-1)^2 -(x1-1)^2 s.t. x0 + x1 <= 1 inside [0,1]^2:
  // optimum at (0.5, 0.5) with active constraint.
  LinearInequalities ineq;
  ineq.a = Matrix(1, 2);
  ineq.a.at(0, 0) = 1.0;
  ineq.a.at(0, 1) = 1.0;
  ineq.b = {1.0};
  const auto result = maximize_with_barrier(quadratic_objective({1.0, 1.0}),
                                            {Vec{0.0, 0.0}, Vec{1.0, 1.0}}, ineq,
                                            Vec{0.2, 0.2});
  EXPECT_NEAR(result.x[0], 0.5, 1e-4);
  EXPECT_NEAR(result.x[1], 0.5, 1e-4);
  // KKT multiplier of the active constraint: gradient of objective at the
  // optimum is (1, 1); constraint normal (1, 1) => u = 1.
  ASSERT_EQ(result.multipliers.size(), 1u);
  EXPECT_NEAR(result.multipliers[0], 1.0, 0.05);
}

TEST(Barrier, InactiveConstraintHasTinyMultiplier) {
  LinearInequalities ineq;
  ineq.a = Matrix(1, 2);
  ineq.a.at(0, 0) = 1.0;
  ineq.a.at(0, 1) = 1.0;
  ineq.b = {10.0};  // never binds
  const auto result = maximize_with_barrier(quadratic_objective({0.5, 0.5}),
                                            {Vec{0.0, 0.0}, Vec{1.0, 1.0}}, ineq,
                                            Vec{0.2, 0.2});
  EXPECT_NEAR(result.x[0], 0.5, 1e-5);
  EXPECT_LT(result.multipliers[0], 1e-6);
}

TEST(Barrier, RankOneHessianObjective) {
  // g(x) = sqrt(1 + w.x) - c.x — the structure of the GBD primal
  // (concave in the aggregate plus linear terms).
  const Vec w{2.0, 3.0};
  const Vec c{0.05, 0.05};
  SmoothObjective objective;
  objective.value = [&](const Vec& x) { return std::sqrt(1.0 + dot(w, x)) - dot(c, x); };
  objective.gradient = [&](const Vec& x, Vec& grad) {
    const double root = std::sqrt(1.0 + dot(w, x));
    for (std::size_t i = 0; i < x.size(); ++i) grad[i] = 0.5 * w[i] / root - c[i];
  };
  objective.hessian = [&](const Vec& x, Matrix& h) {
    const double factor = -0.25 * std::pow(1.0 + dot(w, x), -1.5);
    for (std::size_t i = 0; i < x.size(); ++i) {
      for (std::size_t j = 0; j < x.size(); ++j) h.at(i, j) = factor * w[i] * w[j];
    }
  };
  const auto result = maximize_with_barrier(objective, {Vec{0.0, 0.0}, Vec{10.0, 10.0}},
                                            LinearInequalities{}, Vec{1.0, 1.0});
  EXPECT_TRUE(result.converged);
  // Verify stationarity: projected gradient ~ 0 at interior coordinates.
  Vec grad(result.x.size());
  objective.gradient(result.x, grad);
  for (std::size_t i = 0; i < grad.size(); ++i) {
    if (result.x[i] > 1e-3 && result.x[i] < 10.0 - 1e-3) {
      EXPECT_NEAR(grad[i], 0.0, 1e-3);
    }
  }
}

TEST(Barrier, NudgesInfeasibleStartIntoBox) {
  const auto result = maximize_with_barrier(quadratic_objective({0.5, 0.5}),
                                            {Vec{0.0, 0.0}, Vec{1.0, 1.0}},
                                            LinearInequalities{}, Vec{5.0, -5.0});
  EXPECT_NEAR(result.x[0], 0.5, 1e-4);
  EXPECT_NEAR(result.x[1], 0.5, 1e-4);
}

TEST(Barrier, ThrowsWhenNoStrictlyFeasiblePoint) {
  LinearInequalities ineq;
  ineq.a = Matrix(1, 1);
  ineq.a.at(0, 0) = 1.0;
  ineq.b = {-1.0};  // x <= -1 impossible for x in [0, 1]
  EXPECT_THROW(maximize_with_barrier(quadratic_objective({0.5}), {Vec{0.0}, Vec{1.0}}, ineq,
                                     Vec{0.5}),
               std::invalid_argument);
}

TEST(Barrier, RejectsDegenerateBox) {
  EXPECT_THROW(maximize_with_barrier(quadratic_objective({0.5}), {Vec{1.0}, Vec{1.0}},
                                     LinearInequalities{}, Vec{1.0}),
               std::invalid_argument);
}

TEST(Barrier, NanObjectiveIsTrappedNotReturned) {
  // Regression: a NaN gradient used to flow straight through the Cholesky (NaN
  // fails the `diag <= 0.0` SPD test, so the factorization "succeeded") and
  // out via result.x without any diagnostic. The solver must throw instead
  // of handing back a poisoned iterate.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  SmoothObjective poisoned;
  poisoned.value = [nan](const Vec&) { return nan; };
  poisoned.gradient = [nan](const Vec& x, Vec& grad) {
    for (std::size_t i = 0; i < x.size(); ++i) grad[i] = nan;
  };
  poisoned.hessian = [](const Vec& x, Matrix& h) {
    for (std::size_t i = 0; i < x.size(); ++i) {
      for (std::size_t j = 0; j < x.size(); ++j) h.at(i, j) = i == j ? -1.0 : 0.0;
    }
  };
  BarrierOptions options;
  options.max_stages = 1;
  options.max_newton_per_stage = 2;
  EXPECT_THROW(maximize_with_barrier(poisoned, {Vec{0.0, 0.0}, Vec{1.0, 1.0}},
                                     LinearInequalities{}, Vec{0.5, 0.5}, options),
               tradefl::ContractViolation);
}

TEST(Barrier, DualityGapShrinksWithTolerance) {
  BarrierOptions loose;
  loose.duality_gap_tol = 1e-3;
  BarrierOptions tight;
  tight.duality_gap_tol = 1e-10;
  const auto coarse = maximize_with_barrier(quadratic_objective({0.4}), {Vec{0.0}, Vec{1.0}},
                                            LinearInequalities{}, Vec{0.5}, loose);
  const auto fine = maximize_with_barrier(quadratic_objective({0.4}), {Vec{0.0}, Vec{1.0}},
                                          LinearInequalities{}, Vec{0.5}, tight);
  EXPECT_LT(fine.duality_gap, coarse.duality_gap);
  EXPECT_LE(std::abs(fine.x[0] - 0.4), std::abs(coarse.x[0] - 0.4) + 1e-12);
}

}  // namespace
}  // namespace tradefl::math
