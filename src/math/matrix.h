// Small dense row-major matrix with two factorizations: LU with partial
// pivoting for general systems and Cholesky (with diagonal regularization)
// for SPD systems.
#pragma once

#include <vector>

#include "math/vec.h"

namespace tradefl::math {

class Matrix {
 public:
  Matrix() = default;
  Matrix(std::size_t rows, std::size_t cols, double fill = 0.0);

  static Matrix identity(std::size_t n);
  /// Rank-one matrix factor * v v^T (the Hessian shape of P(sum w_i d_i)).
  static Matrix outer(const Vec& v, double factor);

  [[nodiscard]] std::size_t rows() const { return rows_; }
  [[nodiscard]] std::size_t cols() const { return cols_; }

  double& at(std::size_t r, std::size_t c) { return data_[r * cols_ + c]; }
  [[nodiscard]] double at(std::size_t r, std::size_t c) const { return data_[r * cols_ + c]; }

  Matrix& add_in_place(const Matrix& other);
  Matrix& add_diagonal(double value);
  Matrix& add_diagonal(const Vec& values);
  [[nodiscard]] Matrix scaled(double factor) const;
  [[nodiscard]] Matrix transposed() const;

  [[nodiscard]] Vec multiply(const Vec& x) const;
  [[nodiscard]] Matrix multiply(const Matrix& other) const;

  /// Solves A x = b via LU with partial pivoting. Throws on singularity.
  [[nodiscard]] Vec solve(const Vec& b) const;

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
