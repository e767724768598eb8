// The reference barrier's linear algebra (oracle_linalg.h): the Cholesky
// solve must match the textbook factorization bit for bit, since the
// PrimalOracle tolerances are calibrated against the barrier it drives.
#include "oracle_linalg.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <stdexcept>

#include "common/rng.h"

namespace tradefl::math {
namespace {

TEST(Vec, DotAndNorms) {
  const Vec a{1.0, 2.0, 3.0};
  const Vec b{4.0, -5.0, 6.0};
  EXPECT_DOUBLE_EQ(dot(a, b), 12.0);
  EXPECT_DOUBLE_EQ(norm_inf({1.0, -7.0, 3.0}), 7.0);
  EXPECT_DOUBLE_EQ(sum(a), 6.0);
}

TEST(Vec, Arithmetic) {
  EXPECT_EQ(scale({1.0, 2.0}, 2.0), (Vec{2.0, 4.0}));
}

TEST(Vec, Clamp) {
  const Vec x{-1.0, 0.5, 2.0};
  EXPECT_EQ(clamp(x, Vec(3, 0.0), Vec(3, 1.0)), (Vec{0.0, 0.5, 1.0}));
}

TEST(Vec, SizeMismatchThrows) {
  EXPECT_THROW(dot({1.0}, {1.0, 2.0}), std::invalid_argument);
}

/// The textbook Cholesky solve: a fresh factor copy, then separate y and x
/// vectors. solve_spd must match it bit for bit.
Vec reference_solve_spd(const Matrix& a, const Vec& b, double ridge) {
  const std::size_t n = a.rows();
  Matrix chol = a;
  for (std::size_t i = 0; i < n; ++i) chol.at(i, i) += ridge;
  for (std::size_t j = 0; j < n; ++j) {
    double diag = chol.at(j, j);
    for (std::size_t k = 0; k < j; ++k) diag -= chol.at(j, k) * chol.at(j, k);
    if (diag <= 0.0) throw std::runtime_error("reference: not SPD");
    const double root = std::sqrt(diag);
    chol.at(j, j) = root;
    for (std::size_t i = j + 1; i < n; ++i) {
      double value = chol.at(i, j);
      for (std::size_t k = 0; k < j; ++k) value -= chol.at(i, k) * chol.at(j, k);
      chol.at(i, j) = value / root;
    }
  }
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
  }
  return x;
}

bool same_bits(const Vec& a, const Vec& b) {
  return a.size() == b.size() && std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

/// A random SPD system B B^T + shift I of size n.
Matrix random_spd(Rng& rng, std::size_t n, double shift) {
  Matrix base(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) base.at(i, j) = rng.uniform(-1.0, 1.0);
  }
  Matrix spd(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      for (std::size_t k = 0; k < n; ++k) spd.at(i, j) += base.at(i, k) * base.at(j, k);
    }
    spd.at(i, i) += shift;
  }
  return spd;
}

TEST(Matrix, IdentityMultiply) {
  Matrix eye(3, 3);
  for (std::size_t i = 0; i < 3; ++i) eye.at(i, i) = 1.0;
  const Vec x{1.0, 2.0, 3.0};
  EXPECT_EQ(eye.multiply(x), x);
}

TEST(Matrix, OuterProduct) {
  const Matrix m = Matrix::outer({1.0, 2.0}, 3.0);
  EXPECT_DOUBLE_EQ(m.at(0, 0), 3.0);
  EXPECT_DOUBLE_EQ(m.at(0, 1), 6.0);
  EXPECT_DOUBLE_EQ(m.at(1, 0), 6.0);
  EXPECT_DOUBLE_EQ(m.at(1, 1), 12.0);
}

TEST(Matrix, SolveSpdRejectsIndefinite) {
  Matrix m(2, 2);
  m.at(0, 0) = 1.0;
  m.at(1, 1) = -1.0;
  EXPECT_THROW(m.solve_spd({1.0, 1.0}), std::runtime_error);
}

TEST(Matrix, SolveSpdRidgeRegularizes) {
  Matrix m(2, 2);  // singular PSD (rank one)
  m.at(0, 0) = 1.0;
  EXPECT_THROW(m.solve_spd({1.0, 1.0}), std::runtime_error);
  EXPECT_NO_THROW(m.solve_spd({1.0, 1.0}, 1e-6));
}

TEST(Matrix, SolveSpdBitIdenticalToReferenceCholesky) {
  tradefl::Rng rng(23);
  for (std::size_t n : {1u, 2u, 5u, 8u, 13u}) {
    for (double ridge : {0.0, 1e-10, 1e-4}) {
      const Matrix spd = random_spd(rng, n, 1e-3);
      Vec b(n);
      for (double& v : b) v = rng.uniform(-1.0, 1.0);
      const Vec expected = reference_solve_spd(spd, b, ridge);
      EXPECT_TRUE(same_bits(expected, spd.solve_spd(b, ridge))) << n << " ridge " << ridge;
    }
  }
}

TEST(Matrix, ShapeErrors) {
  Matrix m(2, 3);
  EXPECT_THROW(m.multiply(Vec{1.0}), std::invalid_argument);
  EXPECT_THROW((void)m.solve_spd(Vec{1.0, 2.0}), std::invalid_argument);
  EXPECT_THROW((void)Matrix(2, 2).solve_spd(Vec{1.0}), std::invalid_argument);
}

}  // namespace
}  // namespace tradefl::math
