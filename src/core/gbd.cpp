#include "core/gbd.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <set>
#include <stdexcept>
#include <utility>

#include "common/check.h"
#include "common/logging.h"
#include "common/parallel.h"
#include "common/snapshot.h"
#include "common/stopwatch.h"
#include "core/iteration_trace.h"
#include "game/potential.h"
#include "math/grid.h"
#include "obs/obs.h"

namespace tradefl::core {

using game::CoopetitionGame;
using game::OrgId;
using game::StrategyProfile;
using math::Vec;

namespace {

StrategyProfile to_profile(const Vec& d, const std::vector<std::size_t>& freq) {
  StrategyProfile profile(d.size());
  for (std::size_t i = 0; i < d.size(); ++i) {
    profile[i].data_fraction = d[i];
    profile[i].freq_index = freq[i];
  }
  return profile;
}

}  // namespace

GbdSolver::GbdSolver(const CoopetitionGame& game, GbdOptions options)
    : game_(game), options_(options) {
  if (options_.epsilon < 0.0) throw std::invalid_argument("gbd: epsilon must be >= 0");
  if (options_.max_iterations < 1) throw std::invalid_argument("gbd: need >= 1 iteration");
}

double GbdSolver::deadline_slack(OrgId i, double d, double f) const {
  const auto& org = game_.org(i);
  return org.download_time + org.cycles_per_bit * d * org.data_size_bits / f +
         org.upload_time - game_.params().tau;
}

double GbdSolver::upper_fraction(OrgId i, std::size_t level) const {
  const double d_min = game_.params().d_min;
  return std::max(d_min, std::min(1.0, game_.data_upper_bound(i, level)));
}

PrimalSolve GbdSolver::solve_primal(const std::vector<std::size_t>& freq_indices) const {
  return solve_primal_impl(freq_indices, /*poison=*/false);
}

PrimalSolve GbdSolver::solve_primal_recovering(const std::vector<std::size_t>& freq_indices,
                                               int iteration) const {
  const bool perturbed = options_.faults != nullptr && options_.faults->enabled() &&
                         options_.faults->perturb_solver(static_cast<std::uint64_t>(iteration));
  if (perturbed) TFL_COUNTER_INC("fault.injected.solver");
  try {
    return solve_primal_impl(freq_indices, perturbed);
  } catch (const ContractViolation& poisoned) {
    // Recovery, stage 1: the exact primal has no schedule to damp, so solve
    // the same tuple again without the fault.
    TFL_COUNTER_INC("solver.recoveries");
    TFL_WARN << "gbd: non-finite primal at iteration " << iteration
             << ", re-solving: " << poisoned.what();
    try {
      return solve_primal_impl(freq_indices, /*poison=*/false);
    } catch (const ContractViolation& second) {
      // Stage 2 is the caller's: run_cgbd() catches SolverFailure and falls
      // back to DBR.
      throw SolverFailure(std::string("gbd: primal re-solve non-finite at iteration ") +
                          std::to_string(iteration) + ": " + second.what());
    }
  }
}

PrimalSolve GbdSolver::solve_primal_impl(const std::vector<std::size_t>& freq_indices,
                                         bool poison) const {
  TFL_SPAN("cgbd.primal_solve");
  TFL_SCOPED_TIMER("cgbd.subproblem.seconds");
  const std::size_t n = game_.size();
  const double d_min = game_.params().d_min;
  PrimalSolve result;

  // Feasibility screen: each org must satisfy the deadline at d = D_min.
  double worst_slack = -std::numeric_limits<double>::infinity();
  std::size_t worst_org = 0;
  for (OrgId i = 0; i < n; ++i) {
    const double f = game_.org(i).freq_levels.at(freq_indices[i]);
    const double slack = deadline_slack(i, d_min, f);
    if (slack > worst_slack) {
      worst_slack = slack;
      worst_org = i;
    }
  }
  if (worst_slack >= 0.0) {
    // Problem (21): ζ* = max_i [g_i(D_min, f_i)]+ at d = D_min (g increases
    // in d, so D_min minimizes every row simultaneously).
    result.feasible = false;
    result.zeta = worst_slack;
    result.violating_org = worst_org;
    result.d.assign(n, d_min);
    return result;
  }

  // The deadline rows a_ii d_i <= b_i are diagonal, so the feasible set is
  // the box D_min <= d_i <= ub_i and the exact potential is maximized there
  // in closed form.
  const game::FixedFrequencyPotential potential(game_, freq_indices);
  Vec upper(n);
  for (OrgId i = 0; i < n; ++i) upper[i] = upper_fraction(i, freq_indices[i]);
  potential.maximize(d_min, upper, result.d);
  result.feasible = true;
  result.value = poison ? std::numeric_limits<double>::quiet_NaN() : potential.value(result.d);
  // Always on (unlike TFL_FINITE): the fault path must trip in every build.
  TFL_CHECK(std::isfinite(result.value), "gbd: non-finite primal value ", result.value);

  // KKT multipliers of the deadline rows: where the deadline (not the box at
  // 1) binds, u_i a_ii = [∂U/∂d_i]+; everywhere else u_i = 0.
  Vec gradient(n);
  potential.gradient(result.d, gradient);
  result.multipliers.assign(n, 0.0);
  for (OrgId i = 0; i < n; ++i) {
    if (result.d[i] < upper[i] || upper[i] >= 1.0) continue;
    const auto& org = game_.org(i);
    const double f = org.freq_levels[freq_indices[i]];
    result.multipliers[i] =
        std::max(gradient[i], 0.0) / (org.cycles_per_bit * org.data_size_bits / f);
  }
  return result;
}

OptimalityCut GbdSolver::make_optimality_cut(const PrimalSolve& primal) const {
  // A valid Benders optimality cut for the max problem must over-estimate
  // v(f) = max_{d feasible} U(d, f). We take the Lagrangian
  //   L(d, f, u) = U(d, f) - Σ_i u_i g_i(d, f)   (>= U on the feasible set)
  // and over-estimate its max over d in closed form by linearizing the only
  // coupled term, P(Ω(d)), at the primal point Ω_v (P is concave, so its
  // tangent majorizes it). Everything is then separable per organization:
  //   cut(f) = P(Ω_v) - P'(Ω_v) Ω_v
  //            + Σ_i max_{d_i ∈ [D_min, ub_i(f_i)]} [slope_i(f_i) d_i]
  //            + Σ_i const_i(f_i),
  // with the max attained at an interval endpoint. Tabulated per org/level.
  OptimalityCut cut;
  StrategyProfile probe = to_profile(primal.d, std::vector<std::size_t>(game_.size(), 0));
  const double omega_v = game_.omega(probe);
  const double p_slope = game_.accuracy().performance_derivative(omega_v);
  cut.base = game_.accuracy().performance(omega_v) - p_slope * omega_v;

  const auto& params = game_.params();
  cut.per_level.resize(game_.size());
  for (OrgId i = 0; i < game_.size(); ++i) {
    const auto& org = game_.org(i);
    const double z = game_.weight_z(i);
    const double w_i = game_.contribution_weight(i);
    const double u = primal.multipliers.empty() ? 0.0 : primal.multipliers[i];
    cut.per_level[i].reserve(org.freq_levels.size());
    for (std::size_t level = 0; level < org.freq_levels.size(); ++level) {
      const double f = org.freq_levels[level];
      // Coefficient of d_i inside L at this frequency.
      double slope = p_slope * w_i;
      slope -= params.omega_e * params.kappa * f * f * org.cycles_per_bit *
               org.data_size_bits / z;
      slope += params.gamma * game_.rho().row_sum(i) * org.data_size_bits / z;
      slope -= u * org.cycles_per_bit * org.data_size_bits / f;
      // d_i-independent contribution at this frequency.
      double constant = params.gamma * game_.rho().row_sum(i) * params.lambda * f / z;
      constant -= u * (org.download_time + org.upload_time - params.tau);
      // Maximize slope * d over the deadline-feasible interval.
      const double upper = upper_fraction(i, level);
      const double best_linear = std::max(slope * params.d_min, slope * upper);
      cut.per_level[i].push_back(best_linear + constant);
    }
  }
  return cut;
}

FeasibilityCut GbdSolver::make_feasibility_cut(
    const PrimalSolve& primal, const std::vector<std::size_t>& freq) const {
  (void)freq;
  FeasibilityCut cut;
  cut.org = primal.violating_org;
  const auto& org = game_.org(cut.org);
  cut.slack_by_level.reserve(org.freq_levels.size());
  for (double f : org.freq_levels) {
    cut.slack_by_level.push_back(deadline_slack(cut.org, primal.d[cut.org], f));
  }
  return cut;
}

bool GbdSolver::solve_master(const std::vector<OptimalityCut>& optimality_cuts,
                             const std::vector<FeasibilityCut>& feasibility_cuts,
                             std::vector<std::size_t>& best_tuple, double& best_bound,
                             std::uint64_t& tuples_visited) const {
  TFL_SPAN("cgbd.master_step");
  TFL_SCOPED_TIMER("cgbd.master.seconds");
  const std::size_t n = game_.size();
  std::vector<std::size_t> radices(n);
  for (OrgId i = 0; i < n; ++i) radices[i] = game_.org(i).freq_levels.size();
  best_bound = -std::numeric_limits<double>::infinity();
  tuples_visited = 0;
  if (math::cartesian_size(radices) == 0) return false;  // an org with no levels

  ThreadPool* pool = global_pool();
  const std::size_t workers = pool == nullptr ? 1 : pool->size();
  TFL_GAUGE_SET("parallel.pool.size", workers);

  // Split the mixed-radix grid by fixing suffix digits [split, n): each chunk
  // enumerates the leading digits [0, split) with the suffix held constant.
  // enumerate_cartesian increments digit 0 fastest, so increasing chunk index
  // walks suffixes in exactly the serial visiting order — folding chunks in
  // index order with a strict `>` reproduces the serial first-max tuple bit
  // for bit. The chunk grid depends only on the problem and worker count
  // target, never on scheduling.
  std::size_t split = n;
  std::size_t chunks = 1;
  if (pool != nullptr) {
    const std::size_t target = 4 * workers;
    while (split > 0 && chunks < target) {
      --split;
      chunks *= radices[split];
    }
  }
  TFL_GAUGE_SET("parallel.queue.depth", pool == nullptr ? 0 : chunks);

  const std::vector<std::size_t> lead_radices(radices.begin(),
                                              radices.begin() + static_cast<std::ptrdiff_t>(split));

  struct ChunkBest {
    bool found = false;
    double bound = -std::numeric_limits<double>::infinity();
    std::vector<std::size_t> tuple;
    std::uint64_t visited = 0;
  };

  const auto scan_chunk = [&](std::size_t chunk, std::size_t) {
    ChunkBest local;
    std::vector<std::size_t> f(n, 0);
    // Decode the fixed suffix digits of this chunk (digit `split` varies
    // fastest across chunks, mirroring the serial mixed-radix order).
    std::size_t remainder = chunk;
    for (std::size_t j = split; j < n; ++j) {
      f[j] = remainder % radices[j];
      remainder /= radices[j];
    }
    local.visited = math::enumerate_cartesian(lead_radices, [&](const std::vector<std::size_t>& lead) {
      for (std::size_t i = 0; i < split; ++i) f[i] = lead[i];
      for (const FeasibilityCut& cut : feasibility_cuts) {
        if (cut.slack_by_level[f[cut.org]] > 0.0) return true;  // pruned, keep going
      }
      double envelope = std::numeric_limits<double>::infinity();
      for (const OptimalityCut& cut : optimality_cuts) {
        double value = cut.base;
        for (std::size_t i = 0; i < n; ++i) value += cut.per_level[i][f[i]];
        envelope = std::min(envelope, value);
        if (envelope <= local.bound) break;  // cannot beat the incumbent tuple
      }
      if (envelope > local.bound) {
        local.bound = envelope;
        local.tuple = f;
        local.found = true;
      }
      return true;
    });
    return local;
  };

  const ChunkBest best = ordered_reduce<ChunkBest>(
      pool, chunks, ChunkBest{}, scan_chunk, [](ChunkBest& acc, ChunkBest&& value) {
        acc.visited += value.visited;
        if (value.found && value.bound > acc.bound) {
          acc.bound = value.bound;
          acc.tuple = std::move(value.tuple);
          acc.found = true;
        }
      });

  tuples_visited = best.visited;
  best_bound = best.bound;
  if (best.found) best_tuple = best.tuple;
  return best.found;
}

namespace {
constexpr std::uint32_t kGbdSnapshotVersion = 1;
constexpr const char* kGbdSnapshotKind = "core.gbd";
}  // namespace

template <class Io, FieldsOf<OptimalityCut> Self>
void fields(Io& io, Self& cut) {
  io.f64(cut.base);
  io.seq(cut.per_level);
}

template <class Io, FieldsOf<FeasibilityCut> Self>
void fields(Io& io, Self& cut) {
  io.u64(cut.org);
  io.seq(cut.slack_by_level);
}

template <class Io, FieldsOf<GbdCheckpoint> Self>
void fields(Io& io, Self& state) {
  io.u64(state.org_count);
  io.u64(state.level_fingerprint);
  io.i64(state.iteration_completed);
  io.seq(state.freq);
  io.f64(state.lower_bound);
  io.f64(state.upper_bound);
  io.seq(state.incumbent);
  io.u64(state.total_tuples);
  io.seq(state.trace);
  io.seq(state.optimality_cuts);
  io.seq(state.feasibility_cuts);
  io.seq(state.visited);
}

Result<std::size_t> write_gbd_checkpoint(const std::string& path, const GbdCheckpoint& state) {
  return write_snapshot_value(path, kGbdSnapshotKind, kGbdSnapshotVersion, state);
}

Result<GbdCheckpoint> read_gbd_checkpoint(const std::string& path) {
  return read_snapshot_value<GbdCheckpoint>(path, kGbdSnapshotKind, kGbdSnapshotVersion);
}

Solution GbdSolver::solve() {
  TFL_SPAN("cgbd.solve");
  Stopwatch watch;
  const std::size_t n = game_.size();
  Solution solution;

  // The loop works on the checkpoint struct directly, so a checkpoint is a
  // plain write of it and a resume a plain assignment.
  GbdCheckpoint state;
  std::vector<OptimalityCut>& optimality_cuts = state.optimality_cuts;
  std::vector<FeasibilityCut>& feasibility_cuts = state.feasibility_cuts;
  std::set<std::vector<std::size_t>>& visited = state.visited;
  std::vector<IterationRecord>& trace = state.trace;

  // f^(0): fastest level per organization (most likely feasible under C^(3)).
  std::vector<std::size_t>& freq = state.freq;
  freq.resize(n);
  for (OrgId i = 0; i < n; ++i) freq[i] = game_.org(i).freq_levels.size() - 1;

  double& lower_bound = state.lower_bound;
  double& upper_bound = state.upper_bound;
  lower_bound = -std::numeric_limits<double>::infinity();
  upper_bound = std::numeric_limits<double>::infinity();
  StrategyProfile& incumbent = state.incumbent;
  std::uint64_t& total_tuples = state.total_tuples;
  int first_iteration = 1;
  bool stopped_on_revisit = false;

  // ----- checkpointing -----
  // Fingerprint the economic parameters, not just the problem shape: two
  // games with identical org/level counts but different draws must not be
  // able to exchange checkpoints.
  std::uint64_t& level_fingerprint = state.level_fingerprint;
  state.org_count = n;
  {
    SnapshotWriter fingerprint;
    for (OrgId i = 0; i < n; ++i) {
      const game::Organization& org = game_.org(i);
      fingerprint.put_f64(org.data_size_bits);
      fingerprint.put_u64(org.sample_count);
      fingerprint.put_f64(org.profitability);
      fingerprint.put_f64(org.cycles_per_bit);
      fingerprint.seq(org.freq_levels);
      fingerprint.put_f64(org.download_time);
      fingerprint.put_f64(org.upload_time);
    }
    level_fingerprint = crc32(fingerprint.payload());
  }

  const auto write_checkpoint = [&](int iteration_completed) {
    state.iteration_completed = iteration_completed;
    const auto written = write_gbd_checkpoint(options_.checkpoint_path, state);
    if (!written.ok()) {
      throw std::runtime_error("gbd checkpoint write failed [" + written.error().code +
                               "]: " + written.error().message);
    }
    TFL_COUNTER_INC("snapshot.writes");
    TFL_COUNTER_ADD("snapshot.bytes", written.value());
  };

  if (options_.resume && !options_.checkpoint_path.empty() &&
      snapshot_exists(options_.checkpoint_path)) {
    auto loaded = read_gbd_checkpoint(options_.checkpoint_path);
    if (!loaded.ok()) {
      throw std::runtime_error("gbd resume failed closed [" + loaded.error().code +
                               "]: " + loaded.error().message);
    }
    if (loaded.value().org_count != n || loaded.value().level_fingerprint != level_fingerprint) {
      throw std::runtime_error(
          "gbd resume failed closed [snapshot.decode]: checkpoint was written for a different "
          "game instance");
    }
    state = std::move(loaded.value());
    first_iteration = static_cast<int>(state.iteration_completed) + 1;
    solution.iterations = first_iteration - 1;
    TFL_COUNTER_INC("snapshot.resumes");
  }

  for (int k = first_iteration; k <= options_.max_iterations; ++k) {
    check_cancelled(options_.cancel);
    crash_if_scheduled(options_.faults, static_cast<std::uint64_t>(k));
    visited.insert(freq);
    const PrimalSolve primal = solve_primal_recovering(freq, k);
    if (primal.feasible) {
      optimality_cuts.push_back(make_optimality_cut(primal));
      if (primal.value > lower_bound) {
        lower_bound = primal.value;
        incumbent = to_profile(primal.d, freq);
      }
    } else {
      feasibility_cuts.push_back(make_feasibility_cut(primal, freq));
    }

    if (!incumbent.empty()) {
      append_iteration(game_, incumbent, k, trace);
    }
    solution.iterations = k;
    TFL_COUNTER_INC("cgbd.iterations");

    std::vector<std::size_t> next;
    double master_bound = 0.0;
    std::uint64_t tuples = 0;
    if (!solve_master(optimality_cuts, feasibility_cuts, next, master_bound, tuples)) {
      // Every tuple excluded by feasibility cuts: the instance is infeasible.
      throw std::runtime_error("gbd: no frequency assignment satisfies the deadline");
    }
    total_tuples = tuples;
    upper_bound = master_bound;
    TFL_SERIES_APPEND("cgbd.bound_gap.trajectory", upper_bound - lower_bound);

    if (upper_bound - lower_bound <= options_.epsilon) {
      solution.converged = true;
      TFL_COUNTER_INC("cgbd.stop.gap");
      break;
    }
    if (visited.count(next) > 0) {
      // The master re-proposed a visited tuple with the gap still above ε.
      // Its cut equals v(f) there up to rounding, so the bounds cannot move
      // any more: stop, but this is no convergence certificate.
      stopped_on_revisit = true;
      TFL_COUNTER_INC("cgbd.stop.revisit");
      break;
    }
    freq = std::move(next);
    // Iteration k is complete (cuts recorded, bounds updated, `freq` holds
    // the next tuple): this is the durable point a resumed solve restarts
    // from. A converged solve breaks above without checkpointing — replaying
    // its final iteration from the previous checkpoint reconverges
    // identically.
    if (!options_.checkpoint_path.empty() &&
        (k % static_cast<int>(std::max<std::size_t>(options_.checkpoint_every, 1)) == 0)) {
      write_checkpoint(k);
    }
  }

  if (incumbent.empty()) {
    throw std::runtime_error("gbd: no feasible primal encountered");
  }
  solution.profile = incumbent;
  solution.trace = std::move(trace);
  solution.solve_seconds = watch.elapsed_seconds();
  TFL_COUNTER_ADD("cgbd.cuts.optimality", optimality_cuts.size());
  TFL_COUNTER_ADD("cgbd.cuts.feasibility", feasibility_cuts.size());
  solution.diagnostics.emplace_back("upper_bound", upper_bound);
  solution.diagnostics.emplace_back("lower_bound", lower_bound);
  solution.diagnostics.emplace_back("gap", upper_bound - lower_bound);
  solution.diagnostics.emplace_back("master_tuples", static_cast<double>(total_tuples));
  solution.diagnostics.emplace_back("optimality_cuts", static_cast<double>(optimality_cuts.size()));
  solution.diagnostics.emplace_back("feasibility_cuts",
                                    static_cast<double>(feasibility_cuts.size()));
  if (stopped_on_revisit) solution.diagnostics.emplace_back("stop_revisit", 1.0);
  return solution;
}

}  // namespace tradefl::core
