// Differential oracle for the CGBD primal. The exact potential, its gradient
// and curvature, and the whole Benders loop must agree bit for bit with the
// direct full-profile references in barrier_oracle.{h,cpp}: the session
// reports, the trace potentials and the benchmark's NE verdicts depend on
// exact values. The exact KKT primal itself is held to the reference
// log-barrier within tolerances (the barrier stops a duality gap short of
// the optimum), and to the KKT conditions directly.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "barrier_oracle.h"
#include "common/faults.h"
#include "common/rng.h"
#include "core/mechanism.h"
#include "game/game_factory.h"
#include "game/potential.h"
#include "math/matrix.h"
#include "payoff_oracle.h"

namespace tradefl::core {
namespace {

using game::CoopetitionGame;
using game::OrgId;
using game::StrategyProfile;

::testing::AssertionResult same_bits(double expected, double actual) {
  if (std::memcmp(&expected, &actual, sizeof(double)) == 0) {
    return ::testing::AssertionSuccess();
  }
  char buffer[96];
  std::snprintf(buffer, sizeof(buffer), "expected %a, got %a", expected, actual);
  return ::testing::AssertionFailure() << buffer;
}

::testing::AssertionResult same_bits(const std::vector<double>& expected,
                                     const std::vector<double>& actual) {
  if (expected.size() != actual.size()) {
    return ::testing::AssertionFailure() << "size " << expected.size() << " vs " << actual.size();
  }
  for (std::size_t i = 0; i < expected.size(); ++i) {
    if (auto result = same_bits(expected[i], actual[i]); !result) return result << " at " << i;
  }
  return ::testing::AssertionSuccess();
}

::testing::AssertionResult same_bits(const StrategyProfile& expected,
                                     const StrategyProfile& actual) {
  if (expected.size() != actual.size()) return ::testing::AssertionFailure() << "size differs";
  for (std::size_t i = 0; i < expected.size(); ++i) {
    if (expected[i].freq_index != actual[i].freq_index) {
      return ::testing::AssertionFailure() << "org " << i << " freq level differs";
    }
    if (auto result = same_bits(expected[i].data_fraction, actual[i].data_fraction); !result) {
      return result << " (org " << i << " data fraction)";
    }
  }
  return ::testing::AssertionSuccess();
}

::testing::AssertionResult same_bits(const PrimalSolve& expected, const PrimalSolve& actual) {
  if (expected.feasible != actual.feasible) return ::testing::AssertionFailure() << "feasible";
  if (expected.violating_org != actual.violating_org) {
    return ::testing::AssertionFailure() << "violating_org";
  }
  if (auto result = same_bits(expected.d, actual.d); !result) return result << " (d)";
  if (auto result = same_bits(expected.multipliers, actual.multipliers); !result) {
    return result << " (multipliers)";
  }
  if (auto result = same_bits(expected.value, actual.value); !result) return result << " (value)";
  if (auto result = same_bits(expected.zeta, actual.zeta); !result) return result << " (zeta)";
  return ::testing::AssertionSuccess();
}

/// Everything but solve_seconds (wall time).
::testing::AssertionResult same_bits(const Solution& expected, const Solution& actual) {
  if (auto result = same_bits(expected.profile, actual.profile); !result) {
    return result << " (profile)";
  }
  if (expected.converged != actual.converged) return ::testing::AssertionFailure() << "converged";
  if (expected.iterations != actual.iterations) {
    return ::testing::AssertionFailure() << "iterations " << expected.iterations << " vs "
                                         << actual.iterations;
  }
  if (expected.trace.size() != actual.trace.size()) {
    return ::testing::AssertionFailure() << "trace length";
  }
  for (std::size_t k = 0; k < expected.trace.size(); ++k) {
    const IterationRecord& want = expected.trace[k];
    const IterationRecord& got = actual.trace[k];
    const std::string where = " (trace record " + std::to_string(k) + ")";
    if (want.iteration != got.iteration) return ::testing::AssertionFailure() << where;
    for (const auto member : {&IterationRecord::potential, &IterationRecord::paper_potential,
                              &IterationRecord::welfare}) {
      if (auto result = same_bits(want.*member, got.*member); !result) return result << where;
    }
    if (auto result = same_bits(want.payoffs, got.payoffs); !result) return result << where;
    if (auto result = same_bits(want.profile, got.profile); !result) return result << where;
  }
  if (expected.diagnostics.size() != actual.diagnostics.size()) {
    return ::testing::AssertionFailure() << "diagnostics count";
  }
  for (std::size_t k = 0; k < expected.diagnostics.size(); ++k) {
    if (expected.diagnostics[k].first != actual.diagnostics[k].first) {
      return ::testing::AssertionFailure() << "diagnostic name " << actual.diagnostics[k].first;
    }
    if (auto result = same_bits(expected.diagnostics[k].second, actual.diagnostics[k].second);
        !result) {
      return result << " (" << expected.diagnostics[k].first << ")";
    }
  }
  return ::testing::AssertionSuccess();
}

struct NamedGame {
  std::string name;
  CoopetitionGame game;
};

CoopetitionGame with_accuracy(const CoopetitionGame& game, game::AccuracyModelPtr accuracy) {
  return CoopetitionGame(game.orgs(), game.rho(), std::move(accuracy), game.params());
}

CoopetitionGame table_ii_game(std::size_t orgs, std::uint64_t seed) {
  game::ExperimentSpec spec;
  spec.org_count = orgs;
  return game::make_experiment_game(spec, seed);
}

/// Table-II games, the four accuracy models, γ = 0, ρ = 0 and the former
/// CGBD NE miss.
std::vector<NamedGame> oracle_games() {
  const CoopetitionGame table_ii = table_ii_game(6, 11);
  SqrtSaturationFit fit;
  fit.a = 0.8;
  fit.b = 1.5;
  fit.c = 5.0;
  std::vector<NamedGame> games;
  games.push_back({"toy", game::make_toy_game()});
  games.push_back({"toy_gamma0", game::make_toy_game(0.0)});
  games.push_back({"toy_rho0", game::make_toy_game(5.12e-9, 0.0)});
  games.push_back({"sqrt", table_ii});
  games.push_back(
      {"power", with_accuracy(table_ii, std::make_shared<const game::PowerLawAccuracyModel>(
                                            0.8, 20.0, 0.5))});
  games.push_back(
      {"exp", with_accuracy(table_ii, std::make_shared<const game::ExponentialAccuracyModel>(
                                          0.7, 60.0))});
  games.push_back(
      {"empirical",
       with_accuracy(table_ii, std::make_shared<const game::EmpiricalAccuracyModel>(fit, 0.9))});
  games.push_back({"table_ii_4_seed3", table_ii_game(4, 3)});
  games.push_back({"table_ii_5_seed42", table_ii_game(5, 42)});
  games.push_back({"table_ii_6_seed7", table_ii_game(6, 7)});
  games.push_back({"ne_miss_110104993", table_ii_game(6, 110104993)});
  return games;
}

/// Random profiles with d_i uniform in [D_min, 1] and random levels.
std::vector<StrategyProfile> random_profiles(const CoopetitionGame& game, std::uint64_t seed,
                                             std::size_t count) {
  Rng rng(seed);
  std::vector<StrategyProfile> profiles;
  for (std::size_t k = 0; k < count; ++k) {
    StrategyProfile profile(game.size());
    for (OrgId i = 0; i < game.size(); ++i) {
      const auto levels = static_cast<std::int64_t>(game.org(i).freq_levels.size());
      profile[i].freq_index = static_cast<std::size_t>(rng.uniform_int(0, levels - 1));
      profile[i].data_fraction = rng.uniform(game.params().d_min, 1.0);
    }
    profiles.push_back(std::move(profile));
  }
  return profiles;
}

TEST(PrimalOracle, PotentialGradientCurvatureBitIdenticalAtRandomPoints) {
  for (const auto& [name, game] : oracle_games()) {
    for (const StrategyProfile& profile : random_profiles(game, 17, 24)) {
      EXPECT_TRUE(same_bits(oracle::reference_potential(game, profile),
                            game::potential(game, profile)))
          << name;
      EXPECT_TRUE(same_bits(oracle::reference_paper_potential(game, profile),
                            game::paper_potential(game, profile)))
          << name;
      const double curvature =
          game.accuracy().performance_second_derivative(game.omega(profile));
      for (OrgId i = 0; i < game.size(); ++i) {
        EXPECT_TRUE(same_bits(oracle::reference_potential_gradient_d(game, profile, i),
                              game::potential_gradient_d(game, profile, i)))
            << name << " org " << i;
        for (OrgId j = 0; j < game.size(); ++j) {
          EXPECT_TRUE(same_bits(curvature * game.contribution_weight(i) *
                                    game.contribution_weight(j),
                                game::potential_hessian_dd(game, profile, i, j)))
              << name << " entry " << i << "," << j;
        }
      }
    }
  }
}

TEST(PrimalOracle, FixedFrequencyEvaluatorBitIdenticalAtRandomPoints) {
  for (const auto& [name, game] : oracle_games()) {
    for (const StrategyProfile& profile : random_profiles(game, 29, 24)) {
      std::vector<std::size_t> levels;
      math::Vec d;
      for (const game::Strategy& strategy : profile) {
        levels.push_back(strategy.freq_index);
        d.push_back(strategy.data_fraction);
      }
      const game::FixedFrequencyPotential evaluator(game, levels);
      EXPECT_TRUE(same_bits(game.omega(profile), evaluator.omega(d))) << name;
      EXPECT_TRUE(same_bits(oracle::reference_potential(game, profile), evaluator.value(d)))
          << name;
      math::Vec gradient(game.size());
      evaluator.gradient(d, gradient);
      math::Matrix hessian(game.size(), game.size());
      evaluator.hessian(d, hessian);
      const double curvature =
          game.accuracy().performance_second_derivative(game.omega(profile));
      for (OrgId i = 0; i < game.size(); ++i) {
        EXPECT_TRUE(same_bits(oracle::reference_potential_gradient_d(game, profile, i),
                              gradient[i]))
            << name << " org " << i;
        for (OrgId j = 0; j < game.size(); ++j) {
          EXPECT_TRUE(same_bits(curvature * game.contribution_weight(i) *
                                    game.contribution_weight(j),
                                hessian.at(i, j)))
              << name << " entry " << i << "," << j;
        }
      }
    }
  }
}

TEST(PrimalOracle, FixedFrequencyEvaluatorRejectsBadShapes) {
  const auto game = game::make_toy_game();
  EXPECT_THROW(game::FixedFrequencyPotential(game, std::vector<std::size_t>{0}),
               std::invalid_argument);
  StrategyProfile short_profile = game.minimal_profile();
  short_profile.pop_back();
  EXPECT_THROW((void)game::potential(game, short_profile), std::invalid_argument);
  std::vector<std::size_t> levels(game.size(), 0);
  levels[0] = game.org(0).freq_levels.size();
  EXPECT_THROW(game::FixedFrequencyPotential(game, levels), std::out_of_range);
}

/// The oracle games plus 200 more Table-II games (orgs=6): the tolerance
/// suites' population.
std::vector<NamedGame> tolerance_games() {
  std::vector<NamedGame> games = oracle_games();
  for (std::uint64_t k = 0; k < 200; ++k) {
    const std::uint64_t seed = 7919 * k + 13;
    games.push_back({"table_ii_6_seed" + std::to_string(seed), table_ii_game(6, seed)});
  }
  return games;
}

/// The library's Benders loop, replayed serially around its own exact
/// primal: the tuples CGBD visits, in order.
oracle::ReferenceGbdRun exact_gbd_run(const CoopetitionGame& game,
                                      const GbdOptions& options = {}) {
  const GbdSolver solver(game, options);
  return oracle::reference_gbd_solve(
      game, [&solver](const std::vector<std::size_t>& freq) { return solver.solve_primal(freq); },
      options);
}

/// Every tuple CGBD visits plus the all-slowest tuple (usually infeasible,
/// so the closed-form ζ* path is covered too).
std::vector<std::vector<std::size_t>> probe_tuples(const CoopetitionGame& game) {
  std::vector<std::vector<std::size_t>> tuples = exact_gbd_run(game).tuples;
  tuples.emplace_back(game.size(), 0);
  return tuples;
}

double max_abs(const std::vector<double>& values) {
  double largest = 0.0;
  for (double value : values) largest = std::max(largest, std::abs(value));
  return largest;
}

TEST(PrimalOracle, ExactPrimalMatchesBarrierAtEveryVisitedTuple) {
  // The default barrier stops a duality gap of 1e-9 short of the optimum,
  // which leaves its d up to ~1e-6 off along the flat marginal direction, so
  // d is compared against a barrier run to a 1e-13 gap. Multipliers come from
  // the default run: at a 1e-13 gap the slack b_i - a_i d behind
  // u_i = 1 / (t slack) is a few thousand ulps of b_i, too coarse to resolve
  // u. Where no deadline binds, the barrier's u_i is its 1 / (t slack)
  // residue (Σ u_i slack_i is its duality gap), so the comparison floors at
  // that gap.
  oracle::BarrierOptions tight;
  tight.duality_gap_tol = 1e-13;
  const double gap = oracle::BarrierOptions{}.duality_gap_tol;
  for (const auto& [name, game] : tolerance_games()) {
    const GbdSolver solver(game);
    for (const auto& tuple : probe_tuples(game)) {
      const PrimalSolve exact = solver.solve_primal(tuple);
      const PrimalSolve barrier = oracle::reference_solve_primal(game, tuple);
      ASSERT_EQ(barrier.feasible, exact.feasible) << name;
      if (!exact.feasible) {
        EXPECT_TRUE(same_bits(barrier, exact)) << name;
        continue;
      }
      const PrimalSolve centered = oracle::reference_solve_primal(game, tuple, tight);
      EXPECT_GE(exact.value, barrier.value - 1e-12) << name;
      EXPECT_GE(exact.value, centered.value - 1e-12) << name;
      const double u_tolerance = std::max(1e-3 * max_abs(barrier.multipliers), gap);
      for (OrgId i = 0; i < game.size(); ++i) {
        EXPECT_LE(std::abs(exact.d[i] - centered.d[i]), 1e-7) << name << " org " << i;
        EXPECT_LE(std::abs(exact.multipliers[i] - barrier.multipliers[i]), u_tolerance)
            << name << " org " << i;
      }
    }
  }
}

TEST(PrimalOracle, ExactPrimalSatisfiesKkt) {
  for (const auto& [name, game] : tolerance_games()) {
    const GbdSolver solver(game);
    for (const auto& tuple : probe_tuples(game)) {
      const PrimalSolve exact = solver.solve_primal(tuple);
      if (!exact.feasible) continue;
      StrategyProfile profile(game.size());
      for (OrgId i = 0; i < game.size(); ++i) profile[i] = {exact.d[i], tuple[i]};
      const double p_slope = game.accuracy().performance_derivative(game.omega(profile));
      std::size_t marginal = 0;
      for (OrgId i = 0; i < game.size(); ++i) {
        const double lower = game.params().d_min;
        const double upper = std::max(lower, game.data_upper_bound(i, tuple[i]));
        const double gradient = game::potential_gradient_d(game, profile, i);
        const double linear = gradient - p_slope * game.contribution_weight(i);
        const double tolerance = 1e-12 * (std::abs(p_slope * game.contribution_weight(i)) +
                                          std::abs(linear));
        ASSERT_GE(exact.d[i], lower) << name;
        ASSERT_LE(exact.d[i], upper) << name;
        if (lower == upper) continue;
        if (exact.d[i] == lower) {
          EXPECT_LE(gradient, tolerance) << name << " org " << i << " at D_min";
        } else if (exact.d[i] == upper) {
          EXPECT_GE(gradient, -tolerance) << name << " org " << i << " at its upper bound";
        } else {
          ++marginal;
          EXPECT_LE(std::abs(gradient), tolerance) << name << " marginal org " << i;
        }
        // KKT multipliers: only a binding deadline (not the box at 1) prices.
        if (exact.d[i] == upper && upper < 1.0) {
          EXPECT_GE(exact.multipliers[i], 0.0) << name;
        } else {
          EXPECT_EQ(exact.multipliers[i], 0.0) << name << " org " << i;
        }
      }
      EXPECT_LE(marginal, 1u) << name;
    }
  }
}

TEST(PrimalOracle, GbdSolveBitIdentical) {
  for (const auto& [name, game] : oracle_games()) {
    GbdSolver solver(game);
    EXPECT_TRUE(same_bits(exact_gbd_run(game).solution, solver.solve())) << name;
  }
}

TEST(PrimalOracle, SameFinalTupleAsBarrierLoop) {
  // The barrier loop's inexact multipliers make its cuts loose at visited
  // tuples, so it can stop on a revisit short of ε; only there may the exact
  // loop end elsewhere, and then never lower in U.
  for (const auto& [name, game] : tolerance_games()) {
    GbdSolver solver(game);
    const Solution exact = solver.solve();
    const Solution barrier = oracle::reference_barrier_gbd_solve(game).solution;
    EXPECT_TRUE(exact.converged) << name;
    bool same_tuple = true;
    for (OrgId i = 0; i < game.size(); ++i) {
      same_tuple = same_tuple && exact.profile[i].freq_index == barrier.profile[i].freq_index;
    }
    if (same_tuple) {
      for (OrgId i = 0; i < game.size(); ++i) {
        EXPECT_LE(std::abs(exact.profile[i].data_fraction - barrier.profile[i].data_fraction),
                  1e-7)
            << name << " org " << i;
      }
    } else {
      EXPECT_EQ(barrier.diagnostic("stop_revisit"), 1.0) << name;
      EXPECT_GT(game::potential(game, exact.profile), game::potential(game, barrier.profile))
          << name;
    }
  }
}

TEST(PrimalOracle, PoisonedObjectiveRecoveryBitIdentical) {
  // A perturbed iteration poisons the primal value with NaN; the always-on
  // finiteness check trips and the clean re-solve produces exactly the
  // unperturbed primal. Rate 1.0 poisons every iteration, rate 0.5 a
  // deterministic subset.
  FaultPlan always;
  always.solver_perturb_rate = 1.0;
  FaultPlan half;
  half.solver_perturb_rate = 0.5;
  half.seed = 19;
  for (const FaultPlan& plan : {always, half}) {
    const FaultInjector injector(plan);
    GbdOptions options;
    options.faults = &injector;
    for (const auto& [name, game] : oracle_games()) {
      const GbdSolver plain(game);
      const GbdSolver solver(game, options);
      int iteration = 0;
      for (const auto& tuple : probe_tuples(game)) {
        ++iteration;
        EXPECT_TRUE(same_bits(plain.solve_primal(tuple),
                              solver.solve_primal_recovering(tuple, iteration)))
            << name << " iteration " << iteration;
      }
      GbdSolver full(game, options);
      GbdSolver unperturbed(game);
      EXPECT_TRUE(same_bits(unperturbed.solve(), full.solve()))
          << name << " rate " << plan.solver_perturb_rate;
    }
  }
}

// Game seed 110104993 (Table II, 6 orgs): the barrier primal's inexact
// multipliers stopped CGBD on a revisit at an epsilon-equilibrium whose best
// unilateral gain (1.32e-3) missed the NE tolerance. With exact multipliers
// the solve stops on the gap at an NE, and the NE check still agrees with
// the full-profile oracle bit for bit.
TEST(PrimalOracle, KnownCgbdNashMissReportedExactly) {
  const auto game = table_ii_game(6, 110104993);
  const auto result = run_scheme(game, Scheme::kCgbd);
  EXPECT_TRUE(result.solution.converged);
  EXPECT_EQ(result.solution.diagnostic("stop_revisit"), 0.0);
  const double expected = oracle::reference_max_unilateral_gain(game, result.solution.profile);
  const PropertyReport report = verify_properties(game, result);
  EXPECT_TRUE(report.nash_equilibrium);
  EXPECT_TRUE(same_bits(expected, report.max_unilateral_gain));
  EXPECT_LE(expected, 1e-9);
  const Solution barrier = oracle::reference_barrier_gbd_solve(game).solution;
  EXPECT_EQ(barrier.diagnostic("stop_revisit"), 1.0);
  EXPECT_NEAR(oracle::reference_max_unilateral_gain(game, barrier.profile), 1.32e-3, 5e-6);
}

}  // namespace
}  // namespace tradefl::core
