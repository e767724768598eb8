#include "math/matrix.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "common/check.h"

namespace tradefl::math {
namespace {

/// Debug-tier check that a matrix claimed SPD is at least symmetric; the
/// positive-definite half is established by the Cholesky factorization itself.
[[maybe_unused]] bool nearly_symmetric(const Matrix& m, double tol) {
  for (std::size_t r = 0; r < m.rows(); ++r) {
    for (std::size_t c = r + 1; c < m.cols(); ++c) {
      const double scale = std::max({1.0, std::abs(m.at(r, c)), std::abs(m.at(c, r))});
      if (std::abs(m.at(r, c) - m.at(c, r)) > tol * scale) return false;
    }
  }
  return true;
}

}  // namespace

Matrix::Matrix(std::size_t rows, std::size_t cols, double fill)
    : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

Matrix Matrix::identity(std::size_t n) {
  Matrix m(n, n);
  for (std::size_t i = 0; i < n; ++i) m.at(i, i) = 1.0;
  return m;
}

Matrix Matrix::outer(const Vec& v, double factor) {
  Matrix m(v.size(), v.size());
  for (std::size_t i = 0; i < v.size(); ++i) {
    for (std::size_t j = 0; j < v.size(); ++j) m.at(i, j) = factor * v[i] * v[j];
  }
  return m;
}

Matrix& Matrix::add_in_place(const Matrix& other) {
  if (other.rows_ != rows_ || other.cols_ != cols_) {
    throw std::invalid_argument("matrix: shape mismatch in add");
  }
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] += other.data_[i];
  return *this;
}

Matrix& Matrix::add_diagonal(double value) {
  const std::size_t n = std::min(rows_, cols_);
  for (std::size_t i = 0; i < n; ++i) at(i, i) += value;
  return *this;
}

Matrix& Matrix::add_diagonal(const Vec& values) {
  const std::size_t n = std::min(rows_, cols_);
  if (values.size() != n) throw std::invalid_argument("matrix: diagonal size mismatch");
  for (std::size_t i = 0; i < n; ++i) at(i, i) += values[i];
  return *this;
}

Matrix Matrix::scaled(double factor) const {
  Matrix out = *this;
  for (double& v : out.data_) v *= factor;
  return out;
}

Matrix Matrix::transposed() const {
  Matrix out(cols_, rows_);
  for (std::size_t r = 0; r < rows_; ++r) {
    for (std::size_t c = 0; c < cols_; ++c) out.at(c, r) = at(r, c);
  }
  return out;
}

Vec Matrix::multiply(const Vec& x) const {
  if (x.size() != cols_) throw std::invalid_argument("matrix: multiply size mismatch");
  Vec out(rows_, 0.0);
  for (std::size_t r = 0; r < rows_; ++r) {
    double total = 0.0;
    for (std::size_t c = 0; c < cols_; ++c) total += at(r, c) * x[c];
    out[r] = total;
  }
  return out;
}

Matrix Matrix::multiply(const Matrix& other) const {
  if (other.rows_ != cols_) throw std::invalid_argument("matrix: multiply shape mismatch");
  Matrix out(rows_, other.cols_);
  for (std::size_t r = 0; r < rows_; ++r) {
    for (std::size_t k = 0; k < cols_; ++k) {
      const double a = at(r, k);
      if (a == 0.0) continue;
      for (std::size_t c = 0; c < other.cols_; ++c) out.at(r, c) += a * other.at(k, c);
    }
  }
  return out;
}

Vec Matrix::solve(const Vec& b) const {
  if (rows_ != cols_ || b.size() != rows_) throw std::invalid_argument("matrix: solve shape");
  const std::size_t n = rows_;
  Matrix lu = *this;
  Vec x = b;
  std::vector<std::size_t> pivot(n);
  for (std::size_t i = 0; i < n; ++i) pivot[i] = i;

  for (std::size_t col = 0; col < n; ++col) {
    std::size_t best = col;
    double best_abs = std::abs(lu.at(col, col));
    for (std::size_t r = col + 1; r < n; ++r) {
      const double candidate = std::abs(lu.at(r, col));
      if (candidate > best_abs) {
        best = r;
        best_abs = candidate;
      }
    }
    if (best_abs < 1e-300) throw std::runtime_error("matrix: singular in solve");
    if (best != col) {
      for (std::size_t c = 0; c < n; ++c) std::swap(lu.at(best, c), lu.at(col, c));
      std::swap(x[best], x[col]);
    }
    for (std::size_t r = col + 1; r < n; ++r) {
      const double factor = lu.at(r, col) / lu.at(col, col);
      lu.at(r, col) = 0.0;
      if (factor == 0.0) continue;
      for (std::size_t c = col + 1; c < n; ++c) lu.at(r, c) -= factor * lu.at(col, c);
      x[r] -= factor * x[col];
    }
  }
  for (std::size_t ri = n; ri-- > 0;) {
    double total = x[ri];
    for (std::size_t c = ri + 1; c < n; ++c) total -= lu.at(ri, c) * x[c];
    x[ri] = total / lu.at(ri, ri);
    TFL_FINITE(x[ri]);
  }
  return x;
}

Vec Matrix::solve_spd(const Vec& b, double ridge) const {
  if (rows_ != cols_ || b.size() != rows_) throw std::invalid_argument("matrix: solve shape");
  TFL_ASSERT(nearly_symmetric(*this, 1e-8),
             "solve_spd requires a symmetric matrix (", rows_, "x", cols_, ")");
  TFL_ASSERT(ridge >= 0.0, "negative ridge ", ridge);
  const std::size_t n = rows_;
  Matrix chol = *this;
  chol.add_diagonal(ridge);
  // In-place lower Cholesky.
  for (std::size_t j = 0; j < n; ++j) {
    double diag = chol.at(j, j);
    for (std::size_t k = 0; k < j; ++k) diag -= chol.at(j, k) * chol.at(j, k);
    if (diag <= 0.0) throw std::runtime_error("matrix: not SPD in solve_spd");
    const double root = std::sqrt(diag);
    chol.at(j, j) = root;
    for (std::size_t i = j + 1; i < n; ++i) {
      double value = chol.at(i, j);
      for (std::size_t k = 0; k < j; ++k) value -= chol.at(i, k) * chol.at(j, k);
      chol.at(i, j) = value / root;
    }
  }
  // Forward then backward substitution.
  Vec y(n);
  for (std::size_t i = 0; i < n; ++i) {
    double total = b[i];
    for (std::size_t k = 0; k < i; ++k) total -= chol.at(i, k) * y[k];
    y[i] = total / chol.at(i, i);
  }
  Vec x(n);
  for (std::size_t ii = n; ii-- > 0;) {
    double total = y[ii];
    for (std::size_t k = ii + 1; k < n; ++k) total -= chol.at(k, ii) * x[k];
    x[ii] = total / chol.at(ii, ii);
    TFL_FINITE(x[ii]);
  }
  return x;
}

}  // namespace tradefl::math
