// Dense linear algebra for the test-only reference log-barrier in
// barrier_oracle.h: a small row-major matrix with a Cholesky solve (with
// diagonal regularization) for SPD systems, and the vector helpers the
// barrier's Newton loop uses. The library's exact KKT primal needs none of
// this. Keep it unchanged: the PrimalOracle tolerances are calibrated against
// the iterates it produces.
#pragma once

#include <vector>

#include "math/vec.h"

namespace tradefl::math {

double dot(const Vec& a, const Vec& b);
double norm_inf(const Vec& a);
double sum(const Vec& a);
Vec scale(const Vec& a, double factor);

/// Componentwise clamp into [lower, upper].
Vec clamp(const Vec& a, const Vec& lower, const Vec& upper);

class Matrix {
 public:
  Matrix() = default;
  Matrix(std::size_t rows, std::size_t cols, double fill = 0.0);

  /// Rank-one matrix factor * v v^T (the Hessian shape of P(sum w_i d_i)).
  static Matrix outer(const Vec& v, double factor);

  [[nodiscard]] std::size_t rows() const { return rows_; }
  [[nodiscard]] std::size_t cols() const { return cols_; }

  double& at(std::size_t r, std::size_t c) { return data_[r * cols_ + c]; }
  [[nodiscard]] double at(std::size_t r, std::size_t c) const { return data_[r * cols_ + c]; }

  [[nodiscard]] Matrix scaled(double factor) const;

  [[nodiscard]] Vec multiply(const Vec& x) const;

  /// Solves A x = b assuming A SPD via Cholesky; adds `ridge` * I to the
  /// diagonal before factoring (Newton damping). Throws std::runtime_error
  /// if still not SPD.
  [[nodiscard]] Vec solve_spd(const Vec& b, double ridge = 0.0) const;

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<double> data_;
};

}  // namespace tradefl::math
