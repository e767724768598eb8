// Test-only reference implementation of the payoff (Eq. 11), the NE check
// (Definition 6) and the best response (Definition 9), written the direct
// way: every trial copies the profile and re-evaluates the full payoff from
// the game's profile-level primitives (omega, omega_excluding, performance,
// energy, redistribution_pair). CoopetitionGame::deviation prices the same
// quantities from cached opponent aggregates; the oracle tests hold the two
// to bit equality, the way fl::KernelBackend::kNaive anchors the GEMM path.
#pragma once

#include "core/best_response.h"
#include "core/dbr.h"
#include "game/game.h"

namespace tradefl::oracle {

/// The four terms of Eq. (11), each computed from the whole profile.
game::PayoffBreakdown reference_payoff_breakdown(const game::CoopetitionGame& game,
                                                 game::OrgId i,
                                                 const game::StrategyProfile& profile);

/// Golden-section search plus a (grid+1)-point grid over every feasible
/// level, one profile copy per org and one full payoff per trial.
double reference_max_unilateral_gain(const game::CoopetitionGame& game,
                                     const game::StrategyProfile& profile,
                                     std::size_t grid = 64);

/// Best response evaluating the objective and its derivative on a scratch
/// copy of the profile.
core::BestResponse reference_best_response(const game::CoopetitionGame& game, game::OrgId i,
                                           const game::StrategyProfile& profile,
                                           const core::BestResponseOptions& options = {});

/// Sequential best-response dynamics (core::run_dbr's default loop) driven
/// by reference_best_response; returns the final profile.
game::StrategyProfile reference_dbr_profile(const game::CoopetitionGame& game,
                                            const core::DbrOptions& options = {});

}  // namespace tradefl::oracle
