// Differential oracle for the CGBD primal: the exact potential, its gradient
// and curvature, every primal solve (19) and the whole Benders loop must
// agree bit for bit with the direct full-profile, allocating reference in
// barrier_oracle.{h,cpp}. Equality is memcmp, never a tolerance: the session
// reports, the trace potentials and the benchmark's NE verdicts depend on
// exact values.
#include <gtest/gtest.h>

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
#include "obs/metrics.h"
#include "obs/obs.h"
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

/// Table-II games, the four accuracy models, γ = 0, ρ = 0 and the known
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

TEST(BarrierOracle, PotentialGradientCurvatureBitIdenticalAtRandomPoints) {
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

TEST(BarrierOracle, FixedFrequencyEvaluatorBitIdenticalAtRandomPoints) {
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

TEST(BarrierOracle, FixedFrequencyEvaluatorRejectsBadShapes) {
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

/// Every tuple the reference Benders loop solves, plus the all-slowest
/// tuple (usually infeasible, so the closed-form ζ* path is covered too).
std::vector<std::vector<std::size_t>> probe_tuples(const CoopetitionGame& game) {
  std::vector<std::vector<std::size_t>> tuples = oracle::reference_gbd_solve(game).tuples;
  tuples.emplace_back(game.size(), 0);
  return tuples;
}

TEST(BarrierOracle, PrimalBitIdenticalAtEveryVisitedTuple) {
  for (const auto& [name, game] : oracle_games()) {
    const GbdSolver solver(game);
    for (const auto& tuple : probe_tuples(game)) {
      EXPECT_TRUE(same_bits(oracle::reference_solve_primal(game, tuple, {}, false),
                            solver.solve_primal(tuple)))
          << name;
    }
  }
}

TEST(BarrierOracle, DampedScheduleBitIdentical) {
  // The recovery path's restart runs the barrier with recovery_t_growth: a
  // different stage schedule through the same Newton loop.
  GbdOptions options;
  options.barrier.t_growth = options.recovery_t_growth;
  for (const auto& [name, game] : oracle_games()) {
    const GbdSolver solver(game, options);
    for (const auto& tuple : probe_tuples(game)) {
      EXPECT_TRUE(same_bits(oracle::reference_solve_primal(game, tuple, options.barrier, false),
                            solver.solve_primal(tuple)))
          << name;
    }
  }
}

TEST(BarrierOracle, GbdSolveBitIdentical) {
  for (const auto& [name, game] : oracle_games()) {
    GbdSolver solver(game);
    EXPECT_TRUE(same_bits(oracle::reference_gbd_solve(game).solution, solver.solve())) << name;
  }
}

TEST(BarrierOracle, PoisonedObjectiveRecoveryBitIdentical) {
  // A perturbed iteration poisons the primal value with NaN; the barrier's
  // exit contract trips and the damped restart produces the primal. Rate
  // 1.0 poisons every iteration, rate 0.5 a deterministic subset.
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
      const GbdSolver solver(game, options);
      int iteration = 0;
      for (const auto& tuple : probe_tuples(game)) {
        ++iteration;
        EXPECT_TRUE(same_bits(
            oracle::reference_solve_primal_recovering(game, options, tuple, iteration),
            solver.solve_primal_recovering(tuple, iteration)))
            << name << " iteration " << iteration;
      }
      GbdSolver full(game, options);
      EXPECT_TRUE(same_bits(oracle::reference_gbd_solve(game, options).solution, full.solve()))
          << name << " rate " << plan.solver_perturb_rate;
    }
  }
}

#if TRADEFL_ENABLE_TRACING
TEST(BarrierOracle, NewtonAndBacktrackCountsUnchanged) {
  obs::set_enabled(true);
  auto& registry = obs::metrics();
  for (const auto& [name, game] : oracle_games()) {
    const std::uint64_t newton_before = registry.counter("solver.newton.iterations").value();
    const std::uint64_t backtracks_before =
        registry.counter("solver.linesearch.backtracks").value();
    const std::uint64_t iterations_before = registry.counter("cgbd.iterations").value();
    GbdSolver solver(game);
    (void)solver.solve();
    const oracle::ReferenceGbdRun reference = oracle::reference_gbd_solve(game);
    EXPECT_EQ(registry.counter("solver.newton.iterations").value() - newton_before,
              static_cast<std::uint64_t>(reference.counts.newton_iterations))
        << name;
    EXPECT_EQ(registry.counter("solver.linesearch.backtracks").value() - backtracks_before,
              static_cast<std::uint64_t>(reference.counts.backtracks))
        << name;
    EXPECT_EQ(registry.counter("cgbd.iterations").value() - iterations_before,
              static_cast<std::uint64_t>(reference.solution.iterations))
        << name;
  }
  obs::set_enabled(false);
}
#endif

// Game seed 110104993 (Table II, 6 orgs): CGBD stops at an
// epsilon-equilibrium whose best unilateral gain (1.32e-3) misses the NE
// tolerance. The primal rewrite must land on the same profile and report
// the same miss, bit for bit.
TEST(BarrierOracle, KnownCgbdNashMissReportedExactly) {
  const auto game = table_ii_game(6, 110104993);
  const auto result = run_scheme(game, Scheme::kCgbd);
  const Solution reference = oracle::reference_gbd_solve(game).solution;
  ASSERT_TRUE(same_bits(reference.profile, result.solution.profile));
  const double expected = oracle::reference_max_unilateral_gain(game, reference.profile);
  EXPECT_NEAR(expected, 1.32e-3, 5e-6);
  const PropertyReport report = verify_properties(game, result);
  EXPECT_FALSE(report.nash_equilibrium);
  EXPECT_TRUE(same_bits(expected, report.max_unilateral_gain));
}

}  // namespace
}  // namespace tradefl::core
