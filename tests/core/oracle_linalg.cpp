#include "oracle_linalg.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "common/check.h"

namespace tradefl::math {
namespace {

void require_same(const Vec& a, const Vec& b) {
  if (a.size() != b.size()) throw std::invalid_argument("vec: size mismatch");
}

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

double dot(const Vec& a, const Vec& b) {
  require_same(a, b);
  double total = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) total += a[i] * b[i];
  TFL_FINITE(total);
  return total;
}

double norm_inf(const Vec& a) {
  double best = 0.0;
  for (double v : a) best = std::max(best, std::abs(v));
  return best;
}

double sum(const Vec& a) {
  double total = 0.0;
  for (double v : a) total += v;
  return total;
}

Vec scale(const Vec& a, double factor) {
  Vec out(a.size());
  for (std::size_t i = 0; i < a.size(); ++i) out[i] = a[i] * factor;
  return out;
}

Vec clamp(const Vec& a, const Vec& lower, const Vec& upper) {
  require_same(a, lower);
  require_same(a, upper);
  Vec out(a.size());
  for (std::size_t i = 0; i < a.size(); ++i) out[i] = std::clamp(a[i], lower[i], upper[i]);
  return out;
}

Matrix::Matrix(std::size_t rows, std::size_t cols, double fill)
    : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

Matrix Matrix::outer(const Vec& v, double factor) {
  Matrix m(v.size(), v.size());
  for (std::size_t i = 0; i < v.size(); ++i) {
    for (std::size_t j = 0; j < v.size(); ++j) m.at(i, j) = factor * v[i] * v[j];
  }
  return m;
}

Matrix Matrix::scaled(double factor) const {
  Matrix out = *this;
  for (double& v : out.data_) v *= factor;
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

Vec Matrix::solve_spd(const Vec& b, double ridge) const {
  if (rows_ != cols_ || b.size() != rows_) throw std::invalid_argument("matrix: solve shape");
  TFL_ASSERT(nearly_symmetric(*this, 1e-8),
             "solve_spd requires a symmetric matrix (", rows_, "x", cols_, ")");
  TFL_ASSERT(ridge >= 0.0, "negative ridge ", ridge);
  const std::size_t n = rows_;
  Matrix chol = *this;
  for (std::size_t i = 0; i < n; ++i) chol.at(i, i) += ridge;
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
