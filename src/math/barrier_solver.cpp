#include "math/barrier_solver.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <utility>

#include "common/check.h"
#include "common/logging.h"
#include "obs/obs.h"

namespace tradefl::math {
namespace {

constexpr double kFeasibilityMargin = 1e-9;

/// The buffers one solve's Newton steps work in, sized once.
struct NewtonWorkspace {
  NewtonWorkspace(std::size_t dim, std::size_t rows)
      : grad(dim), phi_grad(dim), step(dim), candidate(dim), ad(rows),
        phi_hess(dim, dim), factor(dim, dim) {}

  Vec grad;         // g'(d)
  Vec phi_grad;     // phi_t'(d)
  Vec step;         // -phi_t'(d), then the Newton step solved in place
  Vec candidate;    // line-search trial point
  Vec ad;           // A d
  Matrix phi_hess;  // g''(d), then phi_t''(d) in place
  Matrix factor;    // Cholesky factor of phi_hess + ridge I
};

/// Barrier value of phi_t at d; +inf when d leaves the strict interior.
/// `ad` is scratch for A d.
double barrier_phi(const SmoothObjective& objective, const BoxBounds& box,
                   const LinearInequalities& ineq, const Vec& d, double t, Vec& ad) {
  // Check strict feasibility BEFORE touching the objective: line-search
  // candidates may leave the domain where the objective is defined.
  double barrier_terms = 0.0;
  for (std::size_t i = 0; i < d.size(); ++i) {
    const double low_slack = d[i] - box.lower[i];
    const double high_slack = box.upper[i] - d[i];
    if (low_slack <= 0.0 || high_slack <= 0.0) {
      return std::numeric_limits<double>::infinity();
    }
    barrier_terms -= std::log(low_slack) + std::log(high_slack);
  }
  if (ineq.count() > 0) {
    ineq.a.multiply(d, ad);
    for (std::size_t i = 0; i < ineq.count(); ++i) {
      const double slack = ineq.b[i] - ad[i];
      if (slack <= 0.0) return std::numeric_limits<double>::infinity();
      barrier_terms -= std::log(slack);
    }
  }
  return -t * objective.value(d) + barrier_terms;
}

}  // namespace

BarrierResult maximize_with_barrier(const SmoothObjective& objective,
                                    const BoxBounds& box,
                                    const LinearInequalities& inequalities,
                                    Vec start,
                                    const BarrierOptions& options) {
  TFL_SPAN("barrier.solve");
  const std::size_t dim = start.size();
  if (box.lower.size() != dim || box.upper.size() != dim) {
    throw std::invalid_argument("barrier: box dimension mismatch");
  }
  for (std::size_t i = 0; i < dim; ++i) {
    if (!(box.lower[i] < box.upper[i])) {
      throw std::invalid_argument("barrier: need lower < upper per coordinate");
    }
  }
  if (inequalities.count() > 0 &&
      (inequalities.a.rows() != inequalities.count() || inequalities.a.cols() != dim)) {
    throw std::invalid_argument("barrier: inequality shape mismatch");
  }

  NewtonWorkspace ws(dim, inequalities.count());

  // Pull the start strictly inside the box.
  for (std::size_t i = 0; i < dim; ++i) {
    const double width = box.upper[i] - box.lower[i];
    const double margin = std::min(kFeasibilityMargin, width / 4.0);
    start[i] = std::clamp(start[i], box.lower[i] + margin, box.upper[i] - margin);
  }
  // Verify strict feasibility wrt the linear constraints; if violated, walk
  // toward the box's lower corner (our GBD constraints are monotone in d, so
  // the lower corner is the most feasible point; fail if even that violates).
  if (inequalities.count() > 0) {
    auto strictly_feasible = [&](const Vec& d) {
      inequalities.a.multiply(d, ws.ad);
      for (std::size_t i = 0; i < inequalities.count(); ++i) {
        if (!(ws.ad[i] < inequalities.b[i])) return false;
      }
      return true;
    };
    if (!strictly_feasible(start)) {
      Vec corner(dim);
      for (std::size_t i = 0; i < dim; ++i) {
        corner[i] = box.lower[i] + std::min(kFeasibilityMargin,
                                            (box.upper[i] - box.lower[i]) / 4.0);
      }
      bool found = false;
      for (double blend = 0.5; blend > 1e-12; blend *= 0.5) {
        Vec candidate(dim);
        for (std::size_t i = 0; i < dim; ++i) {
          candidate[i] = corner[i] + blend * (start[i] - corner[i]);
        }
        if (strictly_feasible(candidate)) {
          start = candidate;
          found = true;
          break;
        }
      }
      if (!found) {
        if (!strictly_feasible(corner)) {
          throw std::invalid_argument("barrier: no strictly feasible start exists");
        }
        start = corner;
      }
    }
  }

  const std::size_t constraint_count = 2 * dim + inequalities.count();
  BarrierResult result;
  result.x = std::move(start);
  double t = options.initial_t;
  int total_newton = 0;

  for (int stage = 0; stage < options.max_stages; ++stage) {
    // phi_t at result.x, known once a line search of this stage accepted it.
    double phi_now = 0.0;
    bool phi_known = false;
    // --- Newton's method on phi_t. ---
    for (int it = 0; it < options.max_newton_per_stage; ++it) {
      ++total_newton;
      const Vec& d = result.x;
      objective.gradient(d, ws.grad);
      objective.hessian(d, ws.phi_hess);
      // A NaN here silently corrupts the Newton system; sum() propagates any
      // NaN/Inf element (norm_inf would mask NaN via std::max ordering).
      TFL_FINITE(sum(ws.grad));
      // phi gradient: -t*g' + barrier terms; phi Hessian: -t*g'' + barrier terms.
      ws.phi_hess.scale_in_place(-t);
      for (std::size_t i = 0; i < dim; ++i) {
        const double low_slack = d[i] - box.lower[i];
        const double high_slack = box.upper[i] - d[i];
        ws.phi_grad[i] = -t * ws.grad[i] - 1.0 / low_slack + 1.0 / high_slack;
        ws.phi_hess.at(i, i) +=
            1.0 / (low_slack * low_slack) + 1.0 / (high_slack * high_slack);
      }
      if (inequalities.count() > 0) {
        inequalities.a.multiply(d, ws.ad);
        for (std::size_t r = 0; r < inequalities.count(); ++r) {
          const double slack = inequalities.b[r] - ws.ad[r];
          const double inv = 1.0 / slack;
          for (std::size_t i = 0; i < dim; ++i) {
            const double ari = inequalities.a.at(r, i);
            if (ari == 0.0) continue;
            ws.phi_grad[i] += ari * inv;
            for (std::size_t j = 0; j < dim; ++j) {
              const double arj = inequalities.a.at(r, j);
              if (arj != 0.0) ws.phi_hess.at(i, j) += ari * arj * inv * inv;
            }
          }
        }
      }

      // Newton step with progressive ridge regularization, solved in place
      // over the right-hand side -phi_grad (a failed factorization leaves it).
      for (std::size_t i = 0; i < dim; ++i) ws.step[i] = -ws.phi_grad[i];
      bool solved = false;
      {
        TFL_SCOPED_TIMER("solver.factorize.seconds");
        for (double ridge = 0.0; ridge < 1e9;
             ridge = (ridge == 0.0 ? 1e-10 : ridge * 100.0)) {
          if (ws.phi_hess.try_solve_spd(ws.step, ridge, ws.factor, ws.step)) {
            solved = true;
            break;
          }
        }
      }
      if (!solved) throw std::runtime_error("barrier: Newton system unsolvable");
      TFL_FINITE(sum(ws.step));

      // Newton decrement^2 = grad^T H^-1 grad = -step . grad (step = -H^-1 grad);
      // grad . step is also the line search's directional derivative.
      const double directional = dot(ws.phi_grad, ws.step);
      const double lambda_sq = -directional;
      if (lambda_sq / 2.0 <= options.newton_tol) break;

      // Backtracking line search keeping strict feasibility.
      if (!phi_known) phi_now = barrier_phi(objective, box, inequalities, d, t, ws.ad);
      double step_size = 1.0;
      double phi_candidate = 0.0;
      int backtracks = 0;
      for (; backtracks < 80; ++backtracks) {
        for (std::size_t i = 0; i < dim; ++i) ws.candidate[i] = d[i] + step_size * ws.step[i];
        phi_candidate = barrier_phi(objective, box, inequalities, ws.candidate, t, ws.ad);
        if (phi_candidate <= phi_now + options.line_search_slope * step_size * directional) break;
        step_size *= options.line_search_backtrack;
      }
      TFL_COUNTER_ADD("solver.linesearch.backtracks", backtracks);
      const double movement = step_size * norm_inf(ws.step);
      std::swap(result.x, ws.candidate);
      phi_now = phi_candidate;
      phi_known = true;
      if (movement < 1e-15) break;
    }

    result.duality_gap = static_cast<double>(constraint_count) / t;
    if (result.duality_gap < options.duality_gap_tol) {
      result.converged = true;
      break;
    }
    t *= options.t_growth;
  }

  result.newton_iterations = total_newton;
  TFL_COUNTER_ADD("solver.newton.iterations", total_newton);
  result.value = objective.value(result.x);
  // Always-on exit contract: a NaN objective/gradient corrupts the iterate
  // silently (NaN fails the `diag <= 0.0` SPD test inside try_solve_spd, so the
  // factorization "succeeds" and the poisoned step is accepted). Every
  // downstream quantity — cuts, payoffs, welfare — would inherit the NaN.
  TFL_CHECK(std::isfinite(sum(result.x)) && std::isfinite(result.value),
            "barrier solver produced a non-finite iterate (value ", result.value,
            "); objective/gradient returned NaN or Inf inside the feasible region");
  // Multiplier recovery for the linear constraints at the final t.
  if (inequalities.count() > 0) {
    result.multipliers.assign(inequalities.count(), 0.0);
    inequalities.a.multiply(result.x, ws.ad);
    for (std::size_t r = 0; r < inequalities.count(); ++r) {
      const double slack = inequalities.b[r] - ws.ad[r];
      result.multipliers[r] = 1.0 / (t * std::max(slack, 1e-300));
    }
  }
  if (!result.converged) {
    TFL_DEBUG << "barrier: stopped at duality gap " << result.duality_gap;
  }
  return result;
}

}  // namespace tradefl::math
