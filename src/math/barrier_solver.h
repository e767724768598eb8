// Log-barrier interior-point method for smooth concave maximization over a
// box intersected with linear inequality constraints A d <= b. This is the
// "IP method" of Sec. V-B: it solves the GBD primal problem (19) (concave by
// Lemma 1) and recovers the Lagrange multipliers u of the deadline
// constraints, which parameterize the Benders optimality cuts (Eq. 20).
//
// Method: for increasing barrier weight t, Newton-minimize
//     phi_t(d) = -t * g(d) - sum log(d - l) - sum log(u - d) - sum log(b - Ad)
// with backtracking line search; multipliers are recovered as
//     u_i = 1 / (t * (b_i - a_i^T d)).
// The duality gap of the barrier method bounds suboptimality by
// (#constraints)/t, which is the delta of Lemma 3.
//
// Every buffer a Newton step touches (gradient, Hessian, step, line-search
// candidate, A d, Cholesky factor) is sized once per solve; the steps
// themselves allocate nothing. Within a barrier stage, phi_t at the current
// iterate is carried over from the line search that accepted it, so every
// step after a stage's first evaluates the objective only at its candidates.
#pragma once

#include <functional>

#include "math/matrix.h"
#include "math/vec.h"

namespace tradefl::math {

/// A twice-differentiable objective g. The solver owns the output storage
/// and calls every callback at strictly feasible points only:
///   * `value(x)` returns g(x);
///   * `gradient(x, out)` overwrites each entry of `out` (pre-sized to the
///     dimension) with the gradient of g;
///   * `hessian(x, out)` overwrites each entry of `out` (pre-sized to
///     dimension x dimension) with the symmetric Hessian of g.
/// Neither output callback may resize its buffer; writing into the solver's
/// buffers is what keeps the Newton loop free of heap allocation. The solver
/// negates internally for maximization.
struct SmoothObjective {
  std::function<double(const Vec&)> value;
  std::function<void(const Vec& x, Vec& out)> gradient;
  std::function<void(const Vec& x, Matrix& out)> hessian;
};

/// Box bounds l <= d <= u (componentwise; l_i < u_i required, equal bounds
/// should be handled by the caller by eliminating the variable).
struct BoxBounds {
  Vec lower;
  Vec upper;
};

/// Linear inequality constraints A d <= b. May be empty (rows() == 0).
struct LinearInequalities {
  Matrix a;  // rows = #constraints, cols = dim
  Vec b;

  [[nodiscard]] std::size_t count() const { return b.size(); }
};

struct BarrierOptions {
  double initial_t = 1.0;
  double t_growth = 20.0;          // mu in Boyd & Vandenberghe's notation
  double duality_gap_tol = 1e-9;   // delta: stop when #constraints / t < tol
  double newton_tol = 1e-10;       // Newton decrement^2 / 2 threshold
  int max_newton_per_stage = 80;
  int max_stages = 64;
  double line_search_backtrack = 0.5;
  double line_search_slope = 0.25;
};

struct BarrierResult {
  Vec x;                 // solution (strictly feasible)
  double value = 0.0;    // g(x)
  Vec multipliers;       // one per row of A (>= 0); empty when no constraints
  bool converged = false;
  int newton_iterations = 0;
  double duality_gap = 0.0;
};

/// Maximizes `objective` over {l <= d <= u} ∩ {A d <= b}.
///
/// `start` must be strictly feasible; if it is not, the solver nudges it into
/// the strict interior of the box and throws std::invalid_argument when no
/// strictly feasible point exists for the linear constraints along the way.
BarrierResult maximize_with_barrier(const SmoothObjective& objective,
                                    const BoxBounds& box,
                                    const LinearInequalities& inequalities,
                                    Vec start,
                                    const BarrierOptions& options = {});

}  // namespace tradefl::math
