// Randomized property sweep: for a grid of seeds × parameter variations, the
// TradeFL invariants must hold on games this suite has never seen —
// feasibility of equilibria, IR/BB (Theorem 2), the NE condition, potential
// ascent, and the exact weighted-potential identity (Theorem 1) — and the NE
// check's reported gain must equal the direct-evaluation oracle bit for bit.
#include <gtest/gtest.h>

#include <cstring>

#include "core/mechanism.h"
#include "game/game_factory.h"
#include "game/potential.h"
#include "payoff_oracle.h"

namespace tradefl::core {
namespace {

struct SweepCase {
  std::uint64_t seed;
  double gamma;
  double mu;
  std::size_t orgs;
};

void PrintTo(const SweepCase& c, std::ostream* os) {
  *os << "seed" << c.seed << "_g" << c.gamma << "_mu" << c.mu << "_n" << c.orgs;
}

class RandomGameInvariants : public ::testing::TestWithParam<SweepCase> {
 protected:
  game::CoopetitionGame make() const {
    const SweepCase& c = GetParam();
    game::ExperimentSpec spec;
    spec.org_count = c.orgs;
    spec.params.gamma = c.gamma;
    spec.rho_mean = c.mu;
    return game::make_experiment_game(spec, c.seed);
  }
};

TEST_P(RandomGameInvariants, DbrEquilibriumInvariants) {
  const auto game = make();
  const auto result = run_scheme(game, Scheme::kDbr);
  ASSERT_TRUE(result.solution.converged);
  EXPECT_TRUE(game.is_feasible(result.solution.profile))
      << game.feasibility_report(result.solution.profile);
  const auto report = verify_properties(game, result);
  EXPECT_TRUE(report.individual_rationality) << report.summary();
  EXPECT_TRUE(report.budget_balance) << report.summary();
  EXPECT_TRUE(report.nash_equilibrium) << report.summary();
}

TEST_P(RandomGameInvariants, NashGainBitIdenticalToOracle) {
  const auto game = make();
  for (const auto& profile : {game.minimal_profile(), run_dbr(game).profile}) {
    const double expected = oracle::reference_max_unilateral_gain(game, profile);
    const double actual = game.max_unilateral_gain(profile);
    EXPECT_EQ(std::memcmp(&expected, &actual, sizeof(double)), 0)
        << "oracle " << expected << " vs " << actual;
  }
}

TEST_P(RandomGameInvariants, PotentialAscentAlongDbrTrace) {
  const auto game = make();
  const auto solution = run_dbr(game);
  for (std::size_t k = 1; k < solution.trace.size(); ++k) {
    EXPECT_GE(solution.trace[k].potential, solution.trace[k - 1].potential - 1e-9);
  }
}

TEST_P(RandomGameInvariants, WeightedPotentialIdentityExact) {
  const auto game = make();
  const auto check =
      game::check_weighted_potential_identity(game, game.minimal_profile(), 100,
                                              GetParam().seed * 13 + 1);
  EXPECT_LT(check.max_rel_error, 1e-8);
}

TEST_P(RandomGameInvariants, ZWeightsPositive) {
  const auto game = make();
  for (game::OrgId i = 0; i < game.size(); ++i) {
    EXPECT_GT(game.weight_z(i), 0.0) << "org " << i;
  }
}

TEST_P(RandomGameInvariants, RedistributionAntisymmetric) {
  const auto game = make();
  const auto result = run_scheme(game, Scheme::kDbr);
  for (game::OrgId i = 0; i < game.size(); ++i) {
    for (game::OrgId j = i + 1; j < game.size(); ++j) {
      EXPECT_NEAR(result.redistribution[i][j], -result.redistribution[j][i], 1e-12);
    }
  }
}

std::vector<SweepCase> sweep_cases() {
  std::vector<SweepCase> cases;
  for (std::uint64_t seed : {3ULL, 77ULL, 2024ULL}) {
    for (double gamma : {1e-9, 5.12e-9, 5e-8}) {
      cases.push_back({seed, gamma, 0.05, 8});
    }
  }
  cases.push_back({5, 5.12e-9, 0.0, 6});    // no competition at all
  cases.push_back({5, 5.12e-9, 0.15, 6});   // heavy competition (guard active)
  cases.push_back({5, 0.0, 0.05, 6});       // no redistribution
  cases.push_back({9, 5.12e-9, 0.05, 3});   // small consortium
  cases.push_back({9, 5.12e-9, 0.05, 15});  // larger consortium
  return cases;
}

INSTANTIATE_TEST_SUITE_P(Sweep, RandomGameInvariants, ::testing::ValuesIn(sweep_cases()));

}  // namespace
}  // namespace tradefl::core
