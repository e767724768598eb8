// Differential oracle: the cached unilateral-deviation evaluator
// (CoopetitionGame::deviation) and everything built on it — payoff_breakdown,
// the per-term members, max_unilateral_gain, best_response and the DBR/WPR/FIP
// solvers — must agree bit for bit with the direct full-profile evaluation in
// payoff_oracle.{h,cpp}. Equality is memcmp, never a tolerance: the session
// reports, snapshots and the benchmark's NE verdicts depend on exact values.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "core/baselines.h"
#include "core/mechanism.h"
#include "game/game_factory.h"
#include "payoff_oracle.h"

namespace tradefl::core {
namespace {

using game::CoopetitionGame;
using game::OrgId;
using game::PayoffBreakdown;
using game::StrategyProfile;

::testing::AssertionResult same_bits(double expected, double actual) {
  if (std::memcmp(&expected, &actual, sizeof(double)) == 0) {
    return ::testing::AssertionSuccess();
  }
  char buffer[96];
  std::snprintf(buffer, sizeof(buffer), "expected %a, got %a", expected, actual);
  return ::testing::AssertionFailure() << buffer;
}

::testing::AssertionResult same_bits(const PayoffBreakdown& expected,
                                     const PayoffBreakdown& actual) {
  for (const auto member : {&PayoffBreakdown::revenue, &PayoffBreakdown::energy_cost,
                            &PayoffBreakdown::damage, &PayoffBreakdown::redistribution}) {
    if (auto result = same_bits(expected.*member, actual.*member); !result) return result;
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

struct NamedGame {
  std::string name;
  CoopetitionGame game;
};

/// The same Table-II game under another accuracy model.
CoopetitionGame with_accuracy(const CoopetitionGame& game, game::AccuracyModelPtr accuracy) {
  return CoopetitionGame(game.orgs(), game.rho(), std::move(accuracy), game.params());
}

std::vector<NamedGame> oracle_games() {
  game::ExperimentSpec spec;
  spec.org_count = 6;
  const CoopetitionGame table_ii = game::make_experiment_game(spec, 11);
  SqrtSaturationFit fit;
  fit.a = 0.8;
  fit.b = 1.5;
  fit.c = 5.0;
  const auto power = std::make_shared<const game::PowerLawAccuracyModel>(0.8, 20.0, 0.5);
  const auto exponential = std::make_shared<const game::ExponentialAccuracyModel>(0.7, 60.0);
  const auto empirical = std::make_shared<const game::EmpiricalAccuracyModel>(fit, 0.9);
  std::vector<NamedGame> games;
  games.push_back({"toy", game::make_toy_game()});
  games.push_back({"toy_gamma0", game::make_toy_game(0.0)});
  games.push_back({"toy_rho0", game::make_toy_game(5.12e-9, 0.0)});
  games.push_back({"sqrt", table_ii});
  games.push_back({"power", with_accuracy(table_ii, power)});
  games.push_back({"exp", with_accuracy(table_ii, exponential)});
  games.push_back({"empirical", with_accuracy(table_ii, empirical)});
  return games;
}

/// Profiles worth probing: the minimal profile and the DBR equilibrium.
std::vector<StrategyProfile> probe_profiles(const CoopetitionGame& game) {
  return {game.minimal_profile(), run_dbr(game).profile};
}

TEST(PayoffOracle, BreakdownBitIdenticalAtEveryProbedDeviation) {
  for (const auto& [name, game] : oracle_games()) {
    for (const StrategyProfile& profile : probe_profiles(game)) {
      for (OrgId i = 0; i < game.size(); ++i) {
        const game::UnilateralDeviation view = game.deviation(i, profile);
        EXPECT_TRUE(same_bits(oracle::reference_payoff_breakdown(game, i, profile),
                              game.payoff_breakdown(i, profile)))
            << name << " org " << i;
        for (std::size_t level : game.feasible_freq_levels(i)) {
          const double d_min = game.params().d_min;
          const double upper = game.data_upper_bound(i, level);
          // D_min, the level's upper bound, and seven interior points.
          std::vector<double> trial_d{d_min, upper};
          for (int k = 1; k <= 7; ++k) trial_d.push_back(d_min + (upper - d_min) * k / 8.0);
          for (double d : trial_d) {
            StrategyProfile trial = profile;
            trial[i] = game::Strategy{d, level};
            const PayoffBreakdown expected = oracle::reference_payoff_breakdown(game, i, trial);
            const std::string where =
                name + " org " + std::to_string(i) + " level " + std::to_string(level);
            EXPECT_TRUE(same_bits(expected, view.breakdown(d, level))) << where;
            EXPECT_TRUE(same_bits(expected, game.payoff_breakdown(i, trial))) << where;
            EXPECT_TRUE(same_bits(expected.total(), game.payoff(i, trial))) << where;
            EXPECT_TRUE(same_bits(expected.revenue, game.revenue(i, trial))) << where;
            EXPECT_TRUE(same_bits(expected.damage, game.damage(i, trial))) << where;
            EXPECT_TRUE(same_bits(expected.redistribution, game.redistribution(i, trial)))
                << where;
            EXPECT_TRUE(same_bits(game.omega(trial), view.omega(d))) << where;
          }
        }
      }
    }
  }
}

TEST(PayoffOracle, DeviationRejectsWrongProfileSize) {
  const auto game = game::make_toy_game();
  StrategyProfile short_profile = game.minimal_profile();
  short_profile.pop_back();
  EXPECT_THROW((void)game.deviation(0, short_profile), std::invalid_argument);
  EXPECT_THROW((void)game.payoff(0, short_profile), std::invalid_argument);
  EXPECT_THROW((void)game.max_unilateral_gain(short_profile), std::invalid_argument);
}

TEST(PayoffOracle, GainBitIdenticalAtProbedProfiles) {
  for (const auto& [name, game] : oracle_games()) {
    for (const StrategyProfile& profile : probe_profiles(game)) {
      EXPECT_TRUE(same_bits(oracle::reference_max_unilateral_gain(game, profile),
                            game.max_unilateral_gain(profile)))
          << name;
      EXPECT_TRUE(same_bits(oracle::reference_max_unilateral_gain(game, profile, 8),
                            game.max_unilateral_gain(profile, 8)))
          << name << " grid 8";
    }
  }
}

// Game seed 110104993 (Table II, 6 orgs) was a known case where CGBD stopped
// at an epsilon-equilibrium that missed the NE tolerance by an order of
// magnitude. CGBD now reaches an NE there, and the faster check must still
// report the gain exactly.
TEST(PayoffOracle, KnownCgbdNashMissReportedExactly) {
  game::ExperimentSpec spec;
  spec.org_count = 6;
  const auto game = game::make_experiment_game(spec, 110104993);
  const auto result = run_scheme(game, Scheme::kCgbd);
  const double expected = oracle::reference_max_unilateral_gain(game, result.solution.profile);
  EXPECT_TRUE(same_bits(expected, game.max_unilateral_gain(result.solution.profile)));
  // The barrier primal's inexact multipliers once stopped CGBD here with a
  // 1.32e-3 gain; the exact primal reaches an NE.
  EXPECT_LE(expected, 1e-9);
  const PropertyReport report = verify_properties(game, result);
  EXPECT_TRUE(report.nash_equilibrium);
  EXPECT_TRUE(same_bits(expected, report.max_unilateral_gain));
}

TEST(PayoffOracle, BestResponseBitIdenticalForEveryOptionSet) {
  BestResponseOptions wpr;
  wpr.include_redistribution = false;
  BestResponseOptions fip;
  fip.d_grid_step = FipOptions{}.grid_step;
  for (const auto& [name, game] : oracle_games()) {
    for (const StrategyProfile& profile : probe_profiles(game)) {
      for (OrgId i = 0; i < game.size(); ++i) {
        BestResponseOptions pinned;
        pinned.forced_freq_level = static_cast<int>(profile[i].freq_index);
        for (const BestResponseOptions& options : {BestResponseOptions{}, wpr, fip, pinned}) {
          const BestResponse expected = oracle::reference_best_response(game, i, profile, options);
          const BestResponse actual = best_response(game, i, profile, options);
          EXPECT_TRUE(same_bits(expected.payoff, actual.payoff)) << name << " org " << i;
          EXPECT_TRUE(same_bits(StrategyProfile{expected.strategy},
                                StrategyProfile{actual.strategy}))
              << name << " org " << i;
        }
      }
    }
  }
}

TEST(PayoffOracle, DbrWprFipProfilesBitIdentical) {
  const SchemeOptions defaults;
  DbrOptions wpr = defaults.dbr;
  wpr.best_response.include_redistribution = false;
  DbrOptions fip = defaults.fip.dbr;
  fip.best_response.d_grid_step = defaults.fip.grid_step;
  for (const auto& [name, game] : oracle_games()) {
    EXPECT_TRUE(same_bits(oracle::reference_dbr_profile(game, defaults.dbr),
                          run_scheme(game, Scheme::kDbr).solution.profile))
        << name << " DBR";
    EXPECT_TRUE(same_bits(oracle::reference_dbr_profile(game, wpr),
                          run_scheme(game, Scheme::kWpr).solution.profile))
        << name << " WPR";
    EXPECT_TRUE(same_bits(oracle::reference_dbr_profile(game, fip),
                          run_scheme(game, Scheme::kFip).solution.profile))
        << name << " FIP";
  }
}

}  // namespace
}  // namespace tradefl::core
