#include "barrier_oracle.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>
#include <stdexcept>
#include <string>

#include "common/check.h"
#include "math/grid.h"
#include "math/matrix.h"
#include "math/vec.h"

namespace tradefl::oracle {

using game::CoopetitionGame;
using game::OrgId;
using game::StrategyProfile;
using math::Matrix;
using math::Vec;

namespace {

constexpr double kFeasibilityMargin = 1e-9;

/// χ_i = d_i s_i + λ f_i.
double resource_contribution(const CoopetitionGame& game, const StrategyProfile& profile,
                             OrgId i) {
  return profile[i].data_fraction * game.org(i).data_size_bits +
         game.params().lambda * game.frequency(i, profile[i]);
}

double weighted_energy_sum(const CoopetitionGame& game, const StrategyProfile& profile) {
  const game::GameParams& params = game.params();
  double total = 0.0;
  for (std::size_t i = 0; i < game.size(); ++i) {
    const game::Organization& org = game.org(i);
    const double f = game.frequency(i, profile[i]);
    const double comp_energy = params.kappa * f * f * org.cycles_per_bit *
                               profile[i].data_fraction * org.data_size_bits;
    total += params.omega_e * comp_energy / game.weight_z(i);
  }
  return total;
}

/// The barrier's objective: every callback returns by value.
struct ReferenceObjective {
  std::function<double(const Vec&)> value;
  std::function<Vec(const Vec&)> gradient;
  std::function<Matrix(const Vec&)> hessian;
};

/// l <= d <= u componentwise (l_i < u_i).
struct BoxBounds {
  Vec lower;
  Vec upper;
};

/// A d <= b.
struct LinearInequalities {
  Matrix a;
  Vec b;

  [[nodiscard]] std::size_t count() const { return b.size(); }
};

struct BarrierResult {
  Vec x;               // strictly feasible
  double value = 0.0;  // g(x)
  Vec multipliers;     // one per row of A
};

double barrier_phi(const ReferenceObjective& objective, const BoxBounds& box,
                   const LinearInequalities& ineq, const Vec& d, double t) {
  double barrier_terms = 0.0;
  for (std::size_t i = 0; i < d.size(); ++i) {
    const double low_slack = d[i] - box.lower[i];
    const double high_slack = box.upper[i] - d[i];
    if (low_slack <= 0.0 || high_slack <= 0.0) {
      return std::numeric_limits<double>::infinity();
    }
    barrier_terms -= std::log(low_slack) + std::log(high_slack);
  }
  if (ineq.count() > 0) {
    const Vec ad = ineq.a.multiply(d);
    for (std::size_t i = 0; i < ineq.count(); ++i) {
      const double slack = ineq.b[i] - ad[i];
      if (slack <= 0.0) return std::numeric_limits<double>::infinity();
      barrier_terms -= std::log(slack);
    }
  }
  return -t * objective.value(d) + barrier_terms;
}

BarrierResult reference_barrier(const ReferenceObjective& objective, const BoxBounds& box,
                                const LinearInequalities& inequalities, Vec start,
                                const BarrierOptions& options) {
  const std::size_t dim = start.size();
  for (std::size_t i = 0; i < dim; ++i) {
    const double width = box.upper[i] - box.lower[i];
    const double margin = std::min(kFeasibilityMargin, width / 4.0);
    start[i] = std::clamp(start[i], box.lower[i] + margin, box.upper[i] - margin);
  }
  if (inequalities.count() > 0) {
    auto strictly_feasible = [&](const Vec& d) {
      const Vec ad = inequalities.a.multiply(d);
      for (std::size_t i = 0; i < inequalities.count(); ++i) {
        if (!(ad[i] < inequalities.b[i])) return false;
      }
      return true;
    };
    if (!strictly_feasible(start)) {
      Vec corner(dim);
      for (std::size_t i = 0; i < dim; ++i) {
        corner[i] = box.lower[i] + std::min(kFeasibilityMargin,
                                            (box.upper[i] - box.lower[i]) / 4.0);
      }
      bool found = false;
      for (double blend = 0.5; blend > 1e-12; blend *= 0.5) {
        Vec candidate(dim);
        for (std::size_t i = 0; i < dim; ++i) {
          candidate[i] = corner[i] + blend * (start[i] - corner[i]);
        }
        if (strictly_feasible(candidate)) {
          start = candidate;
          found = true;
          break;
        }
      }
      if (!found) {
        if (!strictly_feasible(corner)) {
          throw std::invalid_argument("barrier: no strictly feasible start exists");
        }
        start = corner;
      }
    }
  }

  const std::size_t constraint_count = 2 * dim + inequalities.count();
  BarrierResult result;
  result.x = start;
  double t = options.initial_t;

  for (int stage = 0; stage < options.max_stages; ++stage) {
    for (int it = 0; it < options.max_newton_per_stage; ++it) {
      const Vec& d = result.x;
      Vec grad = objective.gradient(d);
      Matrix hess = objective.hessian(d);
      TFL_FINITE(math::sum(grad));
      Vec phi_grad(dim);
      Matrix phi_hess = hess.scaled(-t);
      for (std::size_t i = 0; i < dim; ++i) {
        const double low_slack = d[i] - box.lower[i];
        const double high_slack = box.upper[i] - d[i];
        phi_grad[i] = -t * grad[i] - 1.0 / low_slack + 1.0 / high_slack;
        phi_hess.at(i, i) += 1.0 / (low_slack * low_slack) + 1.0 / (high_slack * high_slack);
      }
      if (inequalities.count() > 0) {
        const Vec ad = inequalities.a.multiply(d);
        for (std::size_t r = 0; r < inequalities.count(); ++r) {
          const double slack = inequalities.b[r] - ad[r];
          const double inv = 1.0 / slack;
          for (std::size_t i = 0; i < dim; ++i) {
            const double ari = inequalities.a.at(r, i);
            if (ari == 0.0) continue;
            phi_grad[i] += ari * inv;
            for (std::size_t j = 0; j < dim; ++j) {
              const double arj = inequalities.a.at(r, j);
              if (arj != 0.0) phi_hess.at(i, j) += ari * arj * inv * inv;
            }
          }
        }
      }

      Vec step;
      bool solved = false;
      for (double ridge = 0.0; ridge < 1e9; ridge = (ridge == 0.0 ? 1e-10 : ridge * 100.0)) {
        try {
          step = phi_hess.solve_spd(math::scale(phi_grad, -1.0), ridge);
          solved = true;
          break;
        } catch (const std::runtime_error&) {
          continue;
        }
      }
      if (!solved) throw std::runtime_error("barrier: Newton system unsolvable");
      TFL_FINITE(math::sum(step));

      const double lambda_sq = -math::dot(step, phi_grad);
      if (lambda_sq / 2.0 <= options.newton_tol) break;

      const double phi_now = barrier_phi(objective, box, inequalities, d, t);
      double step_size = 1.0;
      Vec candidate(dim);
      for (int backtracks = 0; backtracks < 80; ++backtracks) {
        for (std::size_t i = 0; i < dim; ++i) candidate[i] = d[i] + step_size * step[i];
        const double phi_candidate = barrier_phi(objective, box, inequalities, candidate, t);
        if (phi_candidate <=
            phi_now + options.line_search_slope * step_size * math::dot(phi_grad, step)) {
          break;
        }
        step_size *= options.line_search_backtrack;
      }
      const double movement = step_size * math::norm_inf(step);
      result.x = candidate;
      if (movement < 1e-15) break;
    }

    if (static_cast<double>(constraint_count) / t < options.duality_gap_tol) break;
    t *= options.t_growth;
  }

  result.value = objective.value(result.x);
  TFL_CHECK(std::isfinite(math::sum(result.x)) && std::isfinite(result.value),
            "reference barrier produced a non-finite iterate (value ", result.value, ")");
  if (inequalities.count() > 0) {
    result.multipliers.assign(inequalities.count(), 0.0);
    const Vec ad = inequalities.a.multiply(result.x);
    for (std::size_t r = 0; r < inequalities.count(); ++r) {
      const double slack = inequalities.b[r] - ad[r];
      result.multipliers[r] = 1.0 / (t * std::max(slack, 1e-300));
    }
  }
  return result;
}

double deadline_slack(const CoopetitionGame& game, OrgId i, double d, double f) {
  const auto& org = game.org(i);
  return org.download_time + org.cycles_per_bit * d * org.data_size_bits / f +
         org.upload_time - game.params().tau;
}

StrategyProfile to_profile(const Vec& d, const std::vector<std::size_t>& freq) {
  StrategyProfile profile(d.size());
  for (std::size_t i = 0; i < d.size(); ++i) {
    profile[i].data_fraction = d[i];
    profile[i].freq_index = freq[i];
  }
  return profile;
}

core::OptimalityCut optimality_cut(const CoopetitionGame& game, const core::PrimalSolve& primal) {
  core::OptimalityCut cut;
  const StrategyProfile probe =
      to_profile(primal.d, std::vector<std::size_t>(game.size(), 0));
  const double omega_v = game.omega(probe);
  const double p_slope = game.accuracy().performance_derivative(omega_v);
  cut.base = game.accuracy().performance(omega_v) - p_slope * omega_v;
  const auto& params = game.params();
  cut.per_level.resize(game.size());
  for (OrgId i = 0; i < game.size(); ++i) {
    const auto& org = game.org(i);
    const double z = game.weight_z(i);
    const double w_i = game.contribution_weight(i);
    const double u = primal.multipliers.empty() ? 0.0 : primal.multipliers[i];
    for (std::size_t level = 0; level < org.freq_levels.size(); ++level) {
      const double f = org.freq_levels[level];
      double slope = p_slope * w_i;
      slope -= params.omega_e * params.kappa * f * f * org.cycles_per_bit *
               org.data_size_bits / z;
      slope += params.gamma * game.rho().row_sum(i) * org.data_size_bits / z;
      slope -= u * org.cycles_per_bit * org.data_size_bits / f;
      double constant = params.gamma * game.rho().row_sum(i) * params.lambda * f / z;
      constant -= u * (org.download_time + org.upload_time - params.tau);
      const double upper =
          std::max(params.d_min, std::min(1.0, game.data_upper_bound(i, level)));
      const double best_linear = std::max(slope * params.d_min, slope * upper);
      cut.per_level[i].push_back(best_linear + constant);
    }
  }
  return cut;
}

core::IterationRecord reference_record(const CoopetitionGame& game,
                                       const StrategyProfile& profile, int iteration) {
  core::IterationRecord record;
  record.iteration = iteration;
  record.potential = reference_potential(game, profile);
  record.paper_potential = reference_paper_potential(game, profile);
  record.welfare = game.social_welfare(profile);
  for (OrgId i = 0; i < game.size(); ++i) record.payoffs.push_back(game.payoff(i, profile));
  record.profile = profile;
  return record;
}

}  // namespace

double reference_potential(const CoopetitionGame& game, const StrategyProfile& profile) {
  const game::GameParams& params = game.params();
  double value = game.accuracy().performance(game.omega(profile));
  value -= weighted_energy_sum(game, profile);
  for (std::size_t i = 0; i < game.size(); ++i) {
    value += params.gamma * game.rho().row_sum(i) * resource_contribution(game, profile, i) /
             game.weight_z(i);
  }
  return value;
}

double reference_paper_potential(const CoopetitionGame& game, const StrategyProfile& profile) {
  double value = game.accuracy().performance(game.omega(profile));
  value -= weighted_energy_sum(game, profile);
  for (std::size_t i = 0; i < game.size(); ++i) {
    value += game.redistribution(i, profile) / game.weight_z(i);
  }
  return value;
}

double reference_potential_gradient_d(const CoopetitionGame& game,
                                      const StrategyProfile& profile, OrgId i) {
  const game::GameParams& params = game.params();
  const game::Organization& org = game.org(i);
  const double w_i = game.contribution_weight(i);
  const double f = game.frequency(i, profile[i]);
  double gradient = game.accuracy().performance_derivative(game.omega(profile)) * w_i;
  gradient -= params.omega_e * params.kappa * f * f * org.cycles_per_bit * org.data_size_bits /
              game.weight_z(i);
  gradient += params.gamma * org.data_size_bits * game.rho().row_sum(i) / game.weight_z(i);
  return gradient;
}

core::PrimalSolve reference_solve_primal(const CoopetitionGame& game,
                                         const std::vector<std::size_t>& freq_indices,
                                         const BarrierOptions& barrier) {
  const std::size_t n = game.size();
  const double d_min = game.params().d_min;
  core::PrimalSolve result;

  double worst_slack = -std::numeric_limits<double>::infinity();
  std::size_t worst_org = 0;
  for (OrgId i = 0; i < n; ++i) {
    const double f = game.org(i).freq_levels.at(freq_indices[i]);
    const double slack = deadline_slack(game, i, d_min, f);
    if (slack > worst_slack) {
      worst_slack = slack;
      worst_org = i;
    }
  }
  if (worst_slack >= 0.0) {
    result.feasible = false;
    result.zeta = worst_slack;
    result.violating_org = worst_org;
    result.d.assign(n, d_min);
    return result;
  }

  ReferenceObjective objective;
  StrategyProfile scratch = to_profile(Vec(n, d_min), freq_indices);
  objective.value = [&game, &scratch](const Vec& d) {
    for (std::size_t i = 0; i < d.size(); ++i) scratch[i].data_fraction = d[i];
    return reference_potential(game, scratch);
  };
  objective.gradient = [&game, &scratch](const Vec& d) {
    for (std::size_t i = 0; i < d.size(); ++i) scratch[i].data_fraction = d[i];
    Vec grad(d.size());
    for (OrgId i = 0; i < d.size(); ++i) {
      grad[i] = reference_potential_gradient_d(game, scratch, i);
    }
    return grad;
  };
  objective.hessian = [&game, &scratch](const Vec& d) {
    for (std::size_t i = 0; i < d.size(); ++i) scratch[i].data_fraction = d[i];
    Vec weights(d.size());
    for (OrgId i = 0; i < d.size(); ++i) weights[i] = game.contribution_weight(i);
    const double curvature =
        game.accuracy().performance_second_derivative(game.omega(scratch));
    return Matrix::outer(weights, curvature);
  };

  BoxBounds box{Vec(n, d_min), Vec(n, 1.0)};
  for (std::size_t i = 0; i < n; ++i) {
    if (box.upper[i] - box.lower[i] < 1e-9) box.upper[i] = box.lower[i] + 1e-9;
  }
  LinearInequalities inequalities;
  inequalities.a = Matrix(n, n);
  inequalities.b.assign(n, 0.0);
  for (OrgId i = 0; i < n; ++i) {
    const auto& org = game.org(i);
    const double f = org.freq_levels.at(freq_indices[i]);
    inequalities.a.at(i, i) = org.cycles_per_bit * org.data_size_bits / f;
    inequalities.b[i] = game.params().tau - org.download_time - org.upload_time;
  }

  const auto solved = reference_barrier(objective, box, inequalities, Vec(n, d_min), barrier);
  result.feasible = true;
  result.d = solved.x;
  result.multipliers = solved.multipliers;
  result.value = solved.value;
  return result;
}

ReferenceGbdRun reference_gbd_solve(const CoopetitionGame& game, const PrimalFunction& primal_fn,
                                    const core::GbdOptions& options) {
  const std::size_t n = game.size();
  ReferenceGbdRun run;
  core::Solution& solution = run.solution;
  std::vector<core::OptimalityCut> optimality_cuts;
  std::vector<core::FeasibilityCut> feasibility_cuts;
  std::vector<std::size_t> radices(n);
  std::vector<std::size_t> freq(n);
  for (OrgId i = 0; i < n; ++i) {
    radices[i] = game.org(i).freq_levels.size();
    freq[i] = radices[i] - 1;
  }
  double lower_bound = -std::numeric_limits<double>::infinity();
  double upper_bound = std::numeric_limits<double>::infinity();
  double total_tuples = 0.0;
  StrategyProfile incumbent;
  bool stopped_on_revisit = false;

  for (int k = 1; k <= options.max_iterations; ++k) {
    run.tuples.push_back(freq);
    const core::PrimalSolve primal = primal_fn(freq);
    if (primal.feasible) {
      optimality_cuts.push_back(optimality_cut(game, primal));
      if (primal.value > lower_bound) {
        lower_bound = primal.value;
        incumbent = to_profile(primal.d, freq);
      }
    } else {
      core::FeasibilityCut cut;
      cut.org = primal.violating_org;
      for (double f : game.org(cut.org).freq_levels) {
        cut.slack_by_level.push_back(deadline_slack(game, cut.org, primal.d[cut.org], f));
      }
      feasibility_cuts.push_back(std::move(cut));
    }
    if (!incumbent.empty()) solution.trace.push_back(reference_record(game, incumbent, k));
    solution.iterations = k;

    // Serial master: first maximum of the cut envelope in mixed-radix order.
    bool found = false;
    double master_bound = -std::numeric_limits<double>::infinity();
    std::vector<std::size_t> next;
    total_tuples = static_cast<double>(
        math::enumerate_cartesian(radices, [&](const std::vector<std::size_t>& f) {
          for (const core::FeasibilityCut& cut : feasibility_cuts) {
            if (cut.slack_by_level[f[cut.org]] > 0.0) return true;
          }
          double envelope = std::numeric_limits<double>::infinity();
          for (const core::OptimalityCut& cut : optimality_cuts) {
            double value = cut.base;
            for (std::size_t i = 0; i < n; ++i) value += cut.per_level[i][f[i]];
            envelope = std::min(envelope, value);
          }
          if (envelope > master_bound) {
            master_bound = envelope;
            next = f;
            found = true;
          }
          return true;
        }));
    if (!found) throw std::runtime_error("reference gbd: no feasible frequency assignment");
    upper_bound = master_bound;
    if (upper_bound - lower_bound <= options.epsilon) {
      solution.converged = true;
      break;
    }
    if (std::find(run.tuples.begin(), run.tuples.end(), next) != run.tuples.end()) {
      stopped_on_revisit = true;
      break;
    }
    freq = std::move(next);
  }

  if (incumbent.empty()) throw std::runtime_error("reference gbd: no feasible primal");
  solution.profile = incumbent;
  solution.diagnostics.emplace_back("upper_bound", upper_bound);
  solution.diagnostics.emplace_back("lower_bound", lower_bound);
  solution.diagnostics.emplace_back("gap", upper_bound - lower_bound);
  solution.diagnostics.emplace_back("master_tuples", total_tuples);
  solution.diagnostics.emplace_back("optimality_cuts",
                                    static_cast<double>(optimality_cuts.size()));
  solution.diagnostics.emplace_back("feasibility_cuts",
                                    static_cast<double>(feasibility_cuts.size()));
  if (stopped_on_revisit) solution.diagnostics.emplace_back("stop_revisit", 1.0);
  return run;
}

ReferenceGbdRun reference_barrier_gbd_solve(const CoopetitionGame& game,
                                            const core::GbdOptions& options) {
  return reference_gbd_solve(
      game, [&game](const std::vector<std::size_t>& freq) {
        return reference_solve_primal(game, freq);
      },
      options);
}

}  // namespace tradefl::oracle
