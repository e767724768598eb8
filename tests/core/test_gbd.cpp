// Algorithm 1 (CGBD) and the GBD machinery: primal convexity (Lemma 1),
// feasibility-check closed form (problem 21), cut validity, finite
// convergence (Lemma 2), and (δ+ε)-optimality (Lemma 3) against exhaustive
// enumeration on small instances.
#include "core/gbd.h"

#include <gtest/gtest.h>

#include "core/cgbd.h"
#include "game/game_factory.h"
#include "game/potential.h"

namespace tradefl::core {
namespace {

using game::ExperimentSpec;
using game::make_experiment_game;
using game::make_toy_game;
using game::OrgId;

game::CoopetitionGame small_game(std::uint64_t seed, std::size_t n = 4) {
  ExperimentSpec spec;
  spec.org_count = n;
  return make_experiment_game(spec, seed);
}

TEST(Gbd, PrimalSolvesConcaveProblem) {
  const auto game = small_game(42);
  GbdSolver solver(game);
  std::vector<std::size_t> freq(game.size());
  for (OrgId i = 0; i < game.size(); ++i) freq[i] = game.org(i).freq_levels.size() - 1;
  const PrimalSolve primal = solver.solve_primal(freq);
  ASSERT_TRUE(primal.feasible);
  // The returned d must lie in the box and satisfy deadlines.
  for (OrgId i = 0; i < game.size(); ++i) {
    EXPECT_GE(primal.d[i], game.params().d_min - 1e-9);
    EXPECT_LE(primal.d[i], 1.0 + 1e-9);
    EXPECT_LE(solver.deadline_slack(i, primal.d[i], game.org(i).freq_levels[freq[i]]), 1e-6);
  }
  // Value must match the potential at the solution point.
  game::StrategyProfile profile(game.size());
  for (OrgId i = 0; i < game.size(); ++i) profile[i] = {primal.d[i], freq[i]};
  EXPECT_NEAR(primal.value, game::potential(game, profile), 1e-9);
}

TEST(Gbd, PrimalBeatsGridSearchOverD) {
  const auto game = small_game(7);
  GbdSolver solver(game);
  std::vector<std::size_t> freq(game.size(), 0);
  for (OrgId i = 0; i < game.size(); ++i) {
    freq[i] = game.feasible_freq_levels(i).back();
  }
  const PrimalSolve primal = solver.solve_primal(freq);
  ASSERT_TRUE(primal.feasible);
  // Random grid probes over d must not beat the IP solution.
  tradefl::Rng rng(3);
  game::StrategyProfile probe(game.size());
  for (int trial = 0; trial < 300; ++trial) {
    for (OrgId i = 0; i < game.size(); ++i) {
      const double upper = std::min(1.0, game.data_upper_bound(i, freq[i]));
      probe[i] = {rng.uniform(game.params().d_min, upper), freq[i]};
    }
    EXPECT_LE(game::potential(game, probe), primal.value + 1e-6);
  }
}

TEST(Gbd, InfeasibleFrequencyDetected) {
  // Force an infeasible primal: tight deadline at the lowest level.
  ExperimentSpec spec;
  spec.org_count = 3;
  spec.params.tau = 18.0;  // lowest level cannot meet it for most orgs
  const auto game = make_experiment_game(spec, 11);
  GbdSolver solver(game);
  // Pick the slowest level for every org; expect infeasibility if the bound
  // dips below d_min for someone.
  std::vector<std::size_t> freq(game.size(), 0);
  bool expect_infeasible = false;
  for (OrgId i = 0; i < game.size(); ++i) {
    if (game.data_upper_bound(i, 0) < game.params().d_min) expect_infeasible = true;
  }
  const PrimalSolve primal = solver.solve_primal(freq);
  EXPECT_EQ(primal.feasible, !expect_infeasible);
  if (!primal.feasible) {
    EXPECT_GT(primal.zeta, 0.0);
    // zeta is the worst deadline slack at d = D_min (problem 21 closed form).
    const OrgId worst = primal.violating_org;
    EXPECT_NEAR(primal.zeta,
                solver.deadline_slack(worst, game.params().d_min,
                                      game.org(worst).freq_levels[0]),
                1e-9);
  }
}

TEST(Gbd, PrimalHandlesDegenerateBox) {
  // D_min = 1: the box is the single point d = 1, priced by no deadline.
  {
    ExperimentSpec spec;
    spec.org_count = 4;
    spec.params.d_min = 1.0;
    spec.params.tau = 1000.0;
    const auto game = make_experiment_game(spec, 42);
    GbdSolver solver(game);
    std::vector<std::size_t> freq(game.size());
    for (OrgId i = 0; i < game.size(); ++i) freq[i] = game.org(i).freq_levels.size() - 1;
    const PrimalSolve primal = solver.solve_primal(freq);
    ASSERT_TRUE(primal.feasible);
    game::StrategyProfile profile(game.size());
    for (OrgId i = 0; i < game.size(); ++i) {
      EXPECT_EQ(primal.d[i], 1.0);
      EXPECT_EQ(primal.multipliers[i], 0.0);
      profile[i] = {1.0, freq[i]};
    }
    EXPECT_EQ(primal.value, game::potential(game, profile));
    const Solution solution = run_cgbd(game);
    EXPECT_TRUE(solution.converged);
  }
  // A deadline bound of exactly 1 at org 0's fastest level: the deadline and
  // the box bind together, and the box's multiplier (0) is the one reported.
  {
    const auto toy = make_toy_game();
    std::vector<game::Organization> orgs = toy.orgs();
    orgs[0].download_time = 2.0;
    orgs[0].upload_time = 2.0;
    game::GameParams params = toy.params();
    params.tau = 84.0;  // compute budget 80 s = η s / f at f = 5 GHz
    const game::CoopetitionGame game(orgs, toy.rho(), toy.accuracy_ptr(), params);
    const std::size_t fastest = orgs[0].freq_levels.size() - 1;
    ASSERT_EQ(orgs[0].max_data_fraction_for_deadline(orgs[0].freq_levels[fastest], params.tau),
              1.0);
    GbdSolver solver(game);
    const std::vector<std::size_t> freq(game.size(), fastest);
    const PrimalSolve primal = solver.solve_primal(freq);
    ASSERT_TRUE(primal.feasible);
    EXPECT_LE(primal.d[0], 1.0);
    EXPECT_EQ(primal.multipliers[0], 0.0);
    const Solution solution = run_cgbd(game);
    EXPECT_TRUE(solution.converged);
    EXPECT_EQ(solution.diagnostic("stop_revisit"), 0.0);
  }
}

TEST(Cgbd, StopsOnGapAcrossTableIIGames) {
  // With exact KKT multipliers each optimality cut equals v(f) at the tuple
  // it was made at, so a master that re-proposes a visited tuple already has
  // UB - LB <= 0: every solve must stop on the gap, and at an NE.
  ExperimentSpec spec;
  spec.org_count = 6;
  for (std::uint64_t i = 0; i < 512; ++i) {
    const std::uint64_t seed = 100003 + i;
    const auto game = make_experiment_game(spec, seed);
    const Solution solution = run_cgbd(game);
    EXPECT_TRUE(solution.converged) << "seed " << seed;
    EXPECT_LE(solution.diagnostic("gap"), GbdOptions{}.epsilon) << "seed " << seed;
    EXPECT_EQ(solution.diagnostic("stop_revisit"), 0.0) << "seed " << seed;
    EXPECT_LE(game.max_unilateral_gain(solution.profile), 1e-4) << "seed " << seed;
  }
}

TEST(Cgbd, ConvergesAndIsFeasible) {
  const auto game = small_game(42);
  const Solution solution = run_cgbd(game);
  EXPECT_TRUE(solution.converged);
  EXPECT_TRUE(game.is_feasible(solution.profile));
  EXPECT_GT(solution.iterations, 0);
}

TEST(Cgbd, MatchesExhaustiveEnumeration) {
  // Lemma 3: (δ+ε)-optimal. Compare against brute force over all frequency
  // tuples with the same primal solver.
  for (std::uint64_t seed : {1ULL, 42ULL, 123ULL}) {
    const auto game = small_game(seed);
    const Solution cgbd = run_cgbd(game);
    const Solution brute = solve_by_enumeration(game);
    const double best = brute.diagnostic("best_potential");
    const double cgbd_value = game::potential(game, cgbd.profile);
    EXPECT_GE(cgbd_value, best - 1e-4 * std::max(1.0, std::abs(best))) << "seed " << seed;
  }
}

TEST(Cgbd, UpperBoundDominatesLowerBound) {
  const auto game = small_game(42);
  const Solution solution = run_cgbd(game);
  EXPECT_GE(solution.diagnostic("upper_bound") + 1e-9, solution.diagnostic("lower_bound"));
  EXPECT_GE(solution.diagnostic("gap"), -1e-9);
}

TEST(Cgbd, MasterTraversalCountsTuples) {
  const auto game = small_game(42, 3);
  const Solution solution = run_cgbd(game);
  // m^|N| = 3^3 tuples enumerated by the traversal (Lemma 4).
  EXPECT_DOUBLE_EQ(solution.diagnostic("master_tuples"), 27.0);
}

TEST(Cgbd, SolutionIsNashEquilibrium) {
  const auto game = small_game(42);
  const Solution solution = run_cgbd(game);
  EXPECT_LE(game.max_unilateral_gain(solution.profile), 5e-3);
}

TEST(Cgbd, AgreesWithDbrOnPotential) {
  // Both reach (approximately) the potential maximizer on the default game.
  const auto game = game::make_default_game(42);
  const Solution cgbd = run_cgbd(game);
  const double cgbd_potential = game::potential(game, cgbd.profile);
  EXPECT_GT(cgbd_potential, 0.0);
}

TEST(Cgbd, FiniteConvergenceUnderIterationCap) {
  const auto game = small_game(42);
  GbdOptions options;
  options.max_iterations = 3;
  const Solution solution = run_cgbd(game, options);
  EXPECT_LE(solution.iterations, 3);
  EXPECT_TRUE(game.is_feasible(solution.profile));
}

TEST(Cgbd, RejectsBadOptions) {
  const auto game = small_game(42);
  GbdOptions bad;
  bad.epsilon = -1.0;
  EXPECT_THROW(GbdSolver(game, bad), std::invalid_argument);
  bad = GbdOptions{};
  bad.max_iterations = 0;
  EXPECT_THROW(GbdSolver(game, bad), std::invalid_argument);
}

TEST(Cgbd, ThrowsWhenNoTupleFeasible) {
  ExperimentSpec spec;
  spec.org_count = 3;
  spec.params.tau = 3.0;  // below comm times: nothing works
  const auto game = make_experiment_game(spec, 5);
  EXPECT_THROW(run_cgbd(game), std::runtime_error);
}

TEST(GbdFaults, EmptyPlanInjectorIsNoOp) {
  const auto game = small_game(42);
  const FaultInjector inert{};
  GbdOptions options;
  options.faults = &inert;  // disabled: all-zero plan
  const Solution faulted = run_cgbd(game, options);
  const Solution plain = run_cgbd(game);
  ASSERT_EQ(faulted.profile.size(), plain.profile.size());
  for (OrgId i = 0; i < game.size(); ++i) {
    EXPECT_EQ(faulted.profile[i].data_fraction, plain.profile[i].data_fraction);  // bitwise
    EXPECT_EQ(faulted.profile[i].freq_index, plain.profile[i].freq_index);
  }
}

TEST(GbdFaults, PerturbationRecoversViaResolve) {
  // Every primal solve is poisoned with NaN; the solver must recover by
  // re-solving each tuple without the fault, which reproduces the
  // unperturbed run bit for bit.
  const auto game = small_game(42);
  FaultPlan plan;
  plan.solver_perturb_rate = 1.0;
  const FaultInjector injector(plan);
  GbdOptions options;
  options.faults = &injector;
  const Solution recovered = run_cgbd(game, options);
  EXPECT_TRUE(recovered.converged);
  EXPECT_EQ(recovered.diagnostic("fallback_dbr"), 0.0);
  const Solution plain = run_cgbd(game);
  ASSERT_EQ(recovered.profile.size(), plain.profile.size());
  for (OrgId i = 0; i < game.size(); ++i) {
    EXPECT_EQ(recovered.profile[i].data_fraction, plain.profile[i].data_fraction);  // bitwise
    EXPECT_EQ(recovered.profile[i].freq_index, plain.profile[i].freq_index);
  }
  EXPECT_EQ(recovered.iterations, plain.iterations);
}

TEST(GbdFaults, PerturbationScheduleIsDeterministic) {
  const auto game = small_game(42);
  FaultPlan plan;
  plan.solver_perturb_rate = 0.5;
  plan.seed = 19;
  const FaultInjector injector(plan);
  GbdOptions options;
  options.faults = &injector;
  const Solution a = run_cgbd(game, options);
  const Solution b = run_cgbd(game, options);
  ASSERT_EQ(a.profile.size(), b.profile.size());
  for (OrgId i = 0; i < game.size(); ++i) {
    EXPECT_EQ(a.profile[i].data_fraction, b.profile[i].data_fraction);
    EXPECT_EQ(a.profile[i].freq_index, b.profile[i].freq_index);
  }
}

TEST(Enumeration, VisitsAllTuples) {
  const auto game = small_game(9, 3);
  const Solution brute = solve_by_enumeration(game);
  EXPECT_DOUBLE_EQ(brute.diagnostic("tuples"), 27.0);
  EXPECT_TRUE(game.is_feasible(brute.profile));
}

}  // namespace
}  // namespace tradefl::core
