// Test-only reference implementation of the CGBD primal (19) and the Benders
// loop around it, written the direct way: the exact potential and its
// d-gradient evaluated from the whole profile (one Ω pass and one P'(Ω) per
// gradient component), a scratch StrategyProfile rewritten at every call,
// and the allocating log-barrier Newton loop with multiplier recovery
// u_i = 1 / (t (b_i - a_i d)) that the library used before its primal became
// an exact KKT solve. The PrimalOracle tests hold the library's exact primal
// to this barrier within tolerances, and hold the potential evaluator to the
// full-profile sums bit for bit, the way payoff_oracle.h anchors the
// unilateral-deviation evaluator.
#pragma once

#include <cstddef>
#include <functional>
#include <vector>

#include "core/gbd.h"
#include "core/solution.h"
#include "game/game.h"
#include "math/matrix.h"
#include "math/vec.h"

namespace tradefl::oracle {

/// Exact weighted potential U(π) (Theorem 1), summed from the profile.
double reference_potential(const game::CoopetitionGame& game,
                           const game::StrategyProfile& profile);

/// Eq. (15) as printed (the trace's `paper_potential`).
double reference_paper_potential(const game::CoopetitionGame& game,
                                 const game::StrategyProfile& profile);

/// ∂U/∂d_i at fixed frequencies, with its own Ω pass and P'(Ω).
double reference_potential_gradient_d(const game::CoopetitionGame& game,
                                      const game::StrategyProfile& profile, game::OrgId i);

/// Schedule of the reference log-barrier method: for t growing by
/// `t_growth`, Newton-minimize φ_t(d) = -t U(d) - Σ log(box and deadline
/// slacks) until the duality gap (#constraints)/t is below
/// `duality_gap_tol`.
struct BarrierOptions {
  double initial_t = 1.0;
  double t_growth = 20.0;
  double duality_gap_tol = 1e-9;
  double newton_tol = 1e-10;  // Newton decrement² / 2 threshold
  int max_newton_per_stage = 80;
  int max_stages = 64;
  double line_search_backtrack = 0.5;
  double line_search_slope = 0.25;
};

/// The barrier's primal at one frequency tuple: feasibility screen, then the
/// barrier on the exact potential over D_min <= d <= 1 with the diagonal
/// deadline rows (a box of width < 1e-9 is widened to 1e-9, since the
/// barrier needs a strict interior).
core::PrimalSolve reference_solve_primal(const game::CoopetitionGame& game,
                                         const std::vector<std::size_t>& freq_indices,
                                         const BarrierOptions& barrier = {});

/// A primal solver the reference Benders loop can drive.
using PrimalFunction =
    std::function<core::PrimalSolve(const std::vector<std::size_t>& freq_indices)>;

/// One reference run of Algorithm 1 (serial master, no checkpointing, the
/// library's stop rule: converged on UB - LB <= ε only, and a "stop_revisit"
/// diagnostic when the master re-proposes a visited tuple first).
struct ReferenceGbdRun {
  core::Solution solution;                       // solve_seconds left at 0
  std::vector<std::vector<std::size_t>> tuples;  // every tuple solved, in order
};

ReferenceGbdRun reference_gbd_solve(const game::CoopetitionGame& game,
                                    const PrimalFunction& primal,
                                    const core::GbdOptions& options = {});

/// reference_gbd_solve driven by reference_solve_primal.
ReferenceGbdRun reference_barrier_gbd_solve(const game::CoopetitionGame& game,
                                            const core::GbdOptions& options = {});

}  // namespace tradefl::oracle
