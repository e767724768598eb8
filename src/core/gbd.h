// Generalized Benders Decomposition engine (Sec. V-A/B). Solves
//   max_{d, f}  U(d, f)   s.t.  d_i ∈ [D_min, 1],  f_i ∈ grid,  C^(3)
// by alternating:
//   * primal (19): fix f, maximize the concave U over d with the deadline
//     constraints. The deadline rows are diagonal, so the feasible set is a
//     box and U = P(Ω) + linear, a one-dimensional problem in Ω: it is
//     solved exactly (game::FixedFrequencyPotential::maximize) and the
//     deadline multipliers come from KKT, so each optimality cut equals
//     v(f) at the tuple it was made at;
//   * feasibility check (21) when the primal is infeasible — for our
//     monotone deadline constraints it has the closed form
//     ζ* = max_i [g_i(D_min, f_i)]+ with λ an indicator of the argmax row;
//   * master (23): traversal over the discrete f grid (the paper
//     "exhaustively enumerates the feasible values of f"), maximizing the
//     upper envelope of the accumulated optimality cuts subject to the
//     feasibility cuts.
// Optimality cuts use the Lagrangian of Eq. (20):
//   cut_k(f) = U(d^(k), f) - Σ_i u_i^(k) g_i(d^(k), f),
// which is separable per organization at fixed d^(k), so each cut is
// pre-tabulated per (organization, frequency level).
#pragma once

#include <cstdint>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/faults.h"
#include "common/result.h"
#include "core/solution.h"
#include "game/game.h"

namespace tradefl::core {

struct GbdOptions {
  /// ε — UB-LB convergence tolerance (Lemmas 2-3).
  double epsilon = 1e-6;

  /// K — iteration cap of Algorithm 1.
  int max_iterations = 64;

  /// Fault injection (nullptr = fault-free; must outlive the solve). A
  /// perturbed iteration poisons the primal value with NaN so the primal's
  /// finiteness check trips, exercising the re-solve path below.
  const FaultInjector* faults = nullptr;

  /// Crash-consistent checkpointing (empty = none): every `checkpoint_every`
  /// iterations the accumulated Benders state — optimality/feasibility cuts,
  /// visited tuples, bounds, incumbent, trace — is snapshotted atomically.
  /// `resume` reloads it so a killed solve continues without re-deriving a
  /// single cut, bit-identically to an uninterrupted run.
  std::string checkpoint_path;
  std::size_t checkpoint_every = 1;
  bool resume = false;

  /// Cooperative cancellation (nullptr = never cancelled; must outlive the
  /// solve). Checked once per Benders iteration; when the token fires the
  /// solve throws OperationCancelled. The serve daemon's watchdog sets it to
  /// evict a session whose solve exceeds its deadline without touching the
  /// process hosting every other session.
  const std::atomic<bool>* cancel = nullptr;
};

/// Thrown when a primal solve is non-finite AND its clean re-solve is too —
/// the structured signal run_cgbd() uses to fall back to DBR. Genuine
/// infeasibility ("no frequency assignment satisfies the deadline") stays a
/// plain std::runtime_error and propagates: no solver can fix a bad instance.
class SolverFailure : public std::runtime_error {
 public:
  explicit SolverFailure(const std::string& what) : std::runtime_error(what) {}
};

/// Result of one primal solve (used by tests and the scaling ablation).
struct PrimalSolve {
  bool feasible = false;
  std::vector<double> d;
  std::vector<double> multipliers;  // u^(k), one per organization
  double value = 0.0;               // U(d^(k), f^(k-1)) when feasible
  double zeta = 0.0;                // ζ* of (21) when infeasible
  std::size_t violating_org = 0;    // argmax row of (21) when infeasible
};

/// Benders cuts on the master problem (23), pre-tabulated per organization
/// and frequency level.
struct OptimalityCut {
  double base = 0.0;                            // P(Ω(d_v))
  std::vector<std::vector<double>> per_level;   // [org][level] terms
};
struct FeasibilityCut {
  std::size_t org = 0;                 // λ is the indicator of this row
  std::vector<double> slack_by_level;  // g_org(d_v, level)
};

/// The "core.gbd" snapshot: the master problem's state after a completed
/// iteration, fingerprinted to the game it was solved on so a checkpoint can
/// never resume a different instance.
struct GbdCheckpoint {
  std::uint64_t org_count = 0;
  std::uint64_t level_fingerprint = 0;
  std::int64_t iteration_completed = 0;
  std::vector<std::size_t> freq;  // the next tuple to solve
  double lower_bound = 0.0;
  double upper_bound = 0.0;
  game::StrategyProfile incumbent;
  std::uint64_t total_tuples = 0;
  std::vector<IterationRecord> trace;
  std::vector<OptimalityCut> optimality_cuts;
  std::vector<FeasibilityCut> feasibility_cuts;
  std::set<std::vector<std::size_t>> visited;
};

Result<std::size_t> write_gbd_checkpoint(const std::string& path, const GbdCheckpoint& state);
[[nodiscard]] Result<GbdCheckpoint> read_gbd_checkpoint(const std::string& path);

class GbdSolver {
 public:
  GbdSolver(const game::CoopetitionGame& game, GbdOptions options = {});

  /// Runs Algorithm 1. The trace records the incumbent per iteration; the
  /// diagnostics include "upper_bound", "lower_bound", "gap", and
  /// "master_tuples" (the m^|N| traversal size, Lemma 4). `converged` means
  /// the solve stopped on UB - LB <= ε (counter cgbd.stop.gap). A master
  /// that re-proposes a visited tuple with the gap still above ε also ends
  /// the solve, since no bound can move, but unconverged: counter
  /// cgbd.stop.revisit and diagnostic "stop_revisit" = 1.
  [[nodiscard]] Solution solve();

  /// Solves the primal problem (19) at fixed frequency levels. Public for
  /// tests.
  [[nodiscard]] PrimalSolve solve_primal(const std::vector<std::size_t>& freq_indices) const;

  /// solve_primal with the fault/recovery wrapper applied: an injected
  /// perturbation (keyed on `iteration`) poisons the first attempt; a
  /// non-finite attempt is re-solved once without the fault, and a second
  /// non-finite result raises SolverFailure. Public for tests.
  [[nodiscard]] PrimalSolve solve_primal_recovering(
      const std::vector<std::size_t>& freq_indices, int iteration) const;

  /// g_i(d, f) = T^(1) + η_i s_i d / f + T^(3) - τ (the C^(3) slack).
  [[nodiscard]] double deadline_slack(game::OrgId i, double d, double f) const;

 private:
  /// Shared body of the two public primal entry points: `poison` injects a
  /// non-finite primal value.
  [[nodiscard]] PrimalSolve solve_primal_impl(const std::vector<std::size_t>& freq_indices,
                                              bool poison) const;

  /// ub_i(level) = clip(data_upper_bound, D_min, 1): the upper end of d_i in
  /// the primal's box and in every optimality cut, the same value in both so
  /// a cut is tight at the tuple it was made at.
  [[nodiscard]] double upper_fraction(game::OrgId i, std::size_t level) const;

  [[nodiscard]] OptimalityCut make_optimality_cut(const PrimalSolve& primal) const;
  [[nodiscard]] FeasibilityCut make_feasibility_cut(const PrimalSolve& primal,
                                                    const std::vector<std::size_t>& freq) const;

  /// Solves the master problem by traversal; returns the argmax tuple and
  /// its bound via out-params; false when no tuple passes the feasibility
  /// cuts.
  [[nodiscard]] bool solve_master(const std::vector<OptimalityCut>& optimality_cuts,
                                  const std::vector<FeasibilityCut>& feasibility_cuts,
                                  std::vector<std::size_t>& best_tuple,
                                  double& best_bound,
                                  std::uint64_t& tuples_visited) const;

  const game::CoopetitionGame& game_;
  GbdOptions options_;
};

}  // namespace tradefl::core
