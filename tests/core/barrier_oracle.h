// Test-only reference implementation of the CGBD primal (19) and the Benders
// loop around it, written the direct way: the exact potential and its
// d-gradient evaluated from the whole profile (one Ω pass and one P'(Ω) per
// gradient component), a scratch StrategyProfile rewritten at every call,
// and the allocating log-barrier Newton loop (Hessian `scaled`, right-hand
// side `scale`d, `solve_spd` per ridge retry, `A.multiply(d)` per barrier
// value, φ_t re-evaluated at the top of every line search). The library's
// fixed-frequency evaluator and allocation-free barrier compute the same
// quantities; the BarrierOracle tests hold the two to bit equality, the way
// payoff_oracle.h anchors the unilateral-deviation evaluator.
#pragma once

#include <cstddef>
#include <vector>

#include "core/gbd.h"
#include "core/solution.h"
#include "game/game.h"
#include "math/barrier_solver.h"

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

/// Deterministic work counts of one reference barrier solve, comparable with
/// the solver.newton.iterations / solver.linesearch.backtracks counters.
struct BarrierCounts {
  long newton_iterations = 0;
  long backtracks = 0;
};

/// GbdSolver::solve_primal's body: feasibility screen, then the barrier on
/// the exact potential. `poison` makes the objective value NaN (the injected
/// solver fault). Adds this solve's work to `counts` when non-null.
core::PrimalSolve reference_solve_primal(const game::CoopetitionGame& game,
                                         const std::vector<std::size_t>& freq_indices,
                                         const math::BarrierOptions& barrier, bool poison,
                                         BarrierCounts* counts = nullptr);

/// GbdSolver::solve_primal_recovering: a poisoned first attempt when
/// options.faults perturbs `iteration`, the damped restart on divergence,
/// core::SolverFailure when that diverges too.
core::PrimalSolve reference_solve_primal_recovering(const game::CoopetitionGame& game,
                                                    const core::GbdOptions& options,
                                                    const std::vector<std::size_t>& freq_indices,
                                                    int iteration,
                                                    BarrierCounts* counts = nullptr);

/// One reference run of Algorithm 1 (serial master, no checkpointing).
struct ReferenceGbdRun {
  core::Solution solution;                      // solve_seconds left at 0
  std::vector<std::vector<std::size_t>> tuples;  // every tuple solved, in order
  BarrierCounts counts;
};

ReferenceGbdRun reference_gbd_solve(const game::CoopetitionGame& game,
                                    const core::GbdOptions& options = {});

}  // namespace tradefl::oracle
