#include "core/optimizer.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>
#include <utility>

#include "core/dauwe_kernel.h"
#include "math/simd.h"
#include "obs/trace.h"
#include "util/parallel.h"

namespace mlck::core {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

using math::kSimdLanes;
using math::LaneMask;
using math::Vec8d;

struct Candidate {
  double time = kInf;
  double tau0 = 0.0;
  std::vector<int> counts;
};

double pattern_of(const std::vector<int>& counts) noexcept {
  double p = 1.0;
  for (const int n : counts) p *= static_cast<double>(n + 1);
  return p;
}

std::vector<double> log_grid(double lo, double hi, int points) {
  std::vector<double> out;
  out.reserve(static_cast<std::size_t>(points));
  const double ratio = std::log(hi / lo);
  for (int i = 0; i < points; ++i) {
    const double f = (points == 1)
                         ? 0.5
                         : static_cast<double>(i) / (points - 1);
    out.push_back(lo * std::exp(ratio * f));
  }
  return out;
}

/// Per-(subset, tau0) coarse-pass output. One slot per tau0 point keeps
/// the reduction serial and deterministic regardless of how slices are
/// grouped into tasks (per-plan: one task per slot; staged: one task per
/// 8 slots).
struct Slot {
  Candidate best;
  std::size_t evals = 0;
  std::size_t pruned_feas = 0;   ///< leaves cut by tau0 * prod(N+1) > T_B
  std::size_t pruned_bound = 0;  ///< leaves cut by the admissible bound
};

/// leaves_below[d]: leaf plans under one chosen rung at depth d.
std::vector<std::size_t> leaves_below(std::size_t dims, std::size_t rungs) {
  std::vector<std::size_t> out(dims);
  std::size_t p = 1;
  for (std::size_t d = dims; d-- > 0;) {
    out[d] = p;
    p *= rungs;
  }
  return out;
}

/// Enumerates the ladder^dims count lattice for one tau0 slice of the
/// per-plan search, evaluating @p model at every feasible leaf of
/// @p plan's level subset. The walk is the recursive sweep flattened into
/// an explicit rung stack. The feasibility prune (the ladder ascends, so
/// the first infeasible rung cuts the rest of the depth) counts *leaf
/// plans* eliminated: each rung cut at depth d hides ladder^(dims-1-d)
/// leaves, so evals + pruned_feas == ladder^dims for every slice.
void sweep_slice(const ExecutionTimeModel& model,
                 const systems::SystemConfig& system,
                 const std::vector<int>& ladder, CheckpointPlan& plan,
                 Slot& slot) {
  const std::size_t dims = plan.counts.size();
  const auto consider = [&] {
    ++slot.evals;
    const double t = model.expected_time(system, plan);
    if (t < slot.best.time) {
      slot.best.time = t;
      slot.best.tau0 = plan.tau0;
      slot.best.counts = plan.counts;
    }
  };
  if (dims == 0) {
    consider();
    return;
  }

  const std::vector<std::size_t> below = leaves_below(dims, ladder.size());
  std::vector<std::size_t> rung(dims, 0);
  std::vector<double> pattern(dims + 1, 1.0);  // prefix prod (N_j + 1)
  std::size_t d = 0;
  while (true) {
    if (rung[d] == ladder.size()) {  // depth exhausted: ascend
      if (d == 0) return;
      --d;
      ++rung[d];
      continue;
    }
    const int n = ladder[rung[d]];
    const double p = pattern[d] * (n + 1);
    if (plan.tau0 * p > system.base_time) {  // cut the remaining rungs
      slot.pruned_feas += (ladder.size() - rung[d]) * below[d];
      if (d == 0) return;
      --d;
      ++rung[d];
      continue;
    }
    plan.counts[d] = n;
    pattern[d + 1] = p;
    if (d + 1 == dims) {
      consider();
      ++rung[d];
    } else {
      ++d;
      rung[d] = 0;
    }
  }
}

/// Tau-independent constants of the admissible subtree lower bound for one
/// kernel. Index k is the *stack* index: the stage just entered after
/// pushing interior stage k - 1 (or stage 0 at begin()).
///
/// Derivation (docs/PERFORMANCE.md has the prose version). Unrolling
/// Eqn. 4, tau_{k+1} = m_k tau_k + A_k with A_k >= 0 the stage's overhead
/// terms, and the run contains occ_k = T_B / (tau0 P_k) intervals of
/// tau_k, P_k = prod_{j<k}(N_j + 1) — exact and independent of counts
/// deeper than k. Hence for a prefix that has entered stage k:
///
///   T_before_scratch = occ_k tau_k + sum_{j>=k} occ_{j+1} A_j
///
/// where occ_k tau_k is the *exact* accumulated prefix (it telescopes
/// T_B + the pushed stages' overheads). Every future stage j >= k obeys
/// A_j >= m_j gamma_j (E_j + R_j) (the rework and successful-restart
/// terms survive every DauweOptions ablation and beta >= gamma m), so
/// stage k itself contributes occ_k (gamma_k E_k + gamma_k R_k) — exact
/// from the cursor stack. Deeper exponential stages are bounded by the
/// Benoit/Young first-order waste: gamma E = (e^u - 1 - u)/lambda >=
/// lambda t^2 / 2, and with occ_j tau_j >= T_B, tau_j >= tau_k this
/// yields occ_{j+1} A_j >= (lambda_j / 2) T_B tau_k per level — the
/// single-level relaxation that justifies bounding whole subtrees.
/// Non-exponential levels are gated out of the tail (their quadratic
/// identity does not hold); their contribution is simply dropped, which
/// keeps the bound admissible under every FailureLaw.
struct BoundTerms {
  /// R_k of the level at stack index k (restart cost behind the
  /// gamma_k R_k term).
  std::array<double, kDauweMaxLevels> restart_cost{};
  /// 0.5 * sum of lambda_j over exponential levels deeper than k.
  std::array<double, kDauweMaxLevels> tail_half{};
};

BoundTerms bound_terms(const DauweKernel& kernel) {
  BoundTerms bt;
  const auto& levels = kernel.levels();
  double tail = 0.0;
  for (std::size_t k = levels.size(); k-- > 0;) {
    bt.restart_cost[k] = levels[k].restart_cost;
    bt.tail_half[k] = tail;
    if (levels[k].law == nullptr) tail += 0.5 * levels[k].lambda;
  }
  return bt;
}

/// Inputs of one lane-batched sweep task: up to kSimdLanes consecutive
/// tau0 grid points of one level subset, walked through the count lattice
/// together.
struct LaneSweepArgs {
  const DauweKernel* kernel = nullptr;
  const double* taus = nullptr;  ///< ascending lane tau0 values
  int nlanes = 0;                ///< 1..kSimdLanes
  double base_time = 0.0;
  const std::vector<int>* ladder = nullptr;
  /// Best expected time found so far for this level subset, shared across
  /// all of its sweep tasks. Monotone non-increasing, so relaxed loads are
  /// safe: a stale value can only prune less, never a surviving candidate.
  std::atomic<double>* incumbent = nullptr;
  Slot* slots = nullptr;  ///< nlanes entries, one per tau0 point
};

/// The staged counterpart of sweep_slice: eight scalar cursors
/// advance in lockstep through one shared rung-stack walk, so the lattice
/// bookkeeping (rungs, pattern prefix, leaves_below) is paid once per
/// block instead of once per tau0 point, while every model value still
/// comes out of the scalar DauweKernel::Cursor arithmetic — the lanes
/// change which subtrees are *visited*, never what a visited leaf is
/// worth. Per-lane accounting matches the scalar walk exactly:
/// evals + pruned_feas + pruned_bound == ladder^dims for every lane.
void lane_sweep(const LaneSweepArgs& a, std::vector<int>& counts) {
  const std::vector<int>& ladder = *a.ladder;
  const std::size_t dims = counts.size();

  DauweKernel::Cursor cursors[kSimdLanes] = {
      a.kernel->cursor(), a.kernel->cursor(), a.kernel->cursor(),
      a.kernel->cursor(), a.kernel->cursor(), a.kernel->cursor(),
      a.kernel->cursor(), a.kernel->cursor()};
  Vec8d tau0v = math::v8_splat(std::numeric_limits<double>::quiet_NaN());
  for (int l = 0; l < a.nlanes; ++l) {
    cursors[l].begin(a.taus[l]);
    tau0v.lane[l] = a.taus[l];
  }

  const auto consider = [&](int l, double t) {
    Slot& s = a.slots[l];
    ++s.evals;
    if (t < s.best.time) {
      s.best.time = t;
      s.best.tau0 = a.taus[l];
      s.best.counts = counts;
      double cur = a.incumbent->load(std::memory_order_relaxed);
      while (t < cur && !a.incumbent->compare_exchange_weak(
                            cur, t, std::memory_order_relaxed)) {
      }
    }
  };

  if (dims == 0) {
    for (int l = 0; l < a.nlanes; ++l) {
      consider(l, cursors[l].finish_expected_time(1.0));
    }
    return;
  }

  const std::vector<std::size_t> below = leaves_below(dims, ladder.size());
  const BoundTerms bt = bound_terms(*a.kernel);
  const double safety = 1.0 - 1e-12;  // absorbs bound-side rounding

  std::vector<std::size_t> rung(dims, 0);
  std::vector<double> pattern(dims + 1, 1.0);
  // alive[d]: lanes still feasible at the current depth-d prefix. Lane
  // taus ascend, so a lane cut at rung r is infeasible for every deeper
  // rung too — it leaves depth d for good, credited for all remaining
  // rungs exactly as its own scalar walk would have been.
  std::vector<LaneMask> alive(dims + 1, 0);
  alive[0] = static_cast<LaneMask>((1u << a.nlanes) - 1u);
  std::size_t d = 0;
  while (true) {
    if (rung[d] == ladder.size()) {  // depth exhausted: ascend
      if (d == 0) return;
      --d;
      ++rung[d];
      continue;
    }
    const int n = ladder[rung[d]];
    const double p = pattern[d] * (n + 1);
    LaneMask feas = alive[d];
    for (int l = 0; l < a.nlanes; ++l) {
      const auto bit = static_cast<LaneMask>(1u << l);
      if ((feas & bit) != 0 && a.taus[l] * p > a.base_time) {
        a.slots[l].pruned_feas += (ladder.size() - rung[d]) * below[d];
        feas = static_cast<LaneMask>(feas & ~bit);
      }
    }
    alive[d] = feas;
    if (feas == 0) {  // every lane exhausted this depth: ascend
      if (d == 0) return;
      --d;
      ++rung[d];
      continue;
    }
    counts[d] = n;
    for (int l = 0; l < a.nlanes; ++l) {
      if ((feas & (1u << l)) != 0) {
        cursors[l].push_stage(static_cast<int>(d), n);
      }
    }
    pattern[d + 1] = p;

    // Admissible bound at the just-entered stage e: lanes whose whole
    // subtree provably cannot beat the incumbent skip it. A dead lane's
    // stage tau is +inf, so its bound is +inf (or NaN, which the quiet
    // v8_gt leaves unpruned) — either way no finite-valued subtree is
    // ever cut incorrectly.
    LaneMask next = feas;
    const double inc = a.incumbent->load(std::memory_order_relaxed);
    if (inc < kInf) {
      const int e = static_cast<int>(d) + 1;
      Vec8d tau_e = math::v8_splat(0.0);
      Vec8d gamma = math::v8_splat(0.0);
      Vec8d gamma_e = math::v8_splat(0.0);
      for (int l = 0; l < a.nlanes; ++l) {
        if ((feas & (1u << l)) != 0) {
          tau_e.lane[l] = cursors[l].stage_tau(e);
          gamma.lane[l] = cursors[l].stage_gamma(e);
          gamma_e.lane[l] = cursors[l].stage_gamma_e(e);
        }
      }
      // occ_e = T_B / (tau0 * P_e); LB = occ_e * (tau_e + gamma_e E_e
      // + gamma_e R_e) + T_B * tail_half[e] * tau_e.
      const Vec8d occ =
          math::v8_div(math::v8_splat(a.base_time / p), tau0v);
      const Vec8d core =
          math::v8_fma(gamma, math::v8_splat(bt.restart_cost[e]),
                       math::v8_add(tau_e, gamma_e));
      const Vec8d lb = math::v8_fma(
          occ, core,
          math::v8_mul(math::v8_splat(a.base_time * bt.tail_half[e]),
                       tau_e));
      const LaneMask cut = static_cast<LaneMask>(
          math::v8_gt(math::v8_mul(lb, math::v8_splat(safety)), inc) &
          feas);
      if (cut != 0) {
        for (int l = 0; l < a.nlanes; ++l) {
          if ((cut & (1u << l)) != 0) {
            a.slots[l].pruned_bound += below[d];
          }
        }
        next = static_cast<LaneMask>(feas & ~cut);
      }
    }

    if (d + 1 == dims) {
      for (int l = 0; l < a.nlanes; ++l) {
        if ((next & (1u << l)) != 0) {
          consider(l, cursors[l].finish_expected_time(p));
        }
      }
      ++rung[d];
    } else {
      if (next == 0) {
        ++rung[d];
        continue;
      }
      alive[d + 1] = next;
      ++d;
      rung[d] = 0;
    }
  }
}

/// The plan space of one search: the candidate level subsets in search
/// order, the count ladder, and the log-spaced tau0 grid. A coarse pass
/// writes one Slot per (subset, tau0) pair, subset-major.
struct Lattice {
  std::vector<std::vector<int>> subsets;
  std::vector<int> ladder;
  std::vector<double> taus;
};

Lattice make_lattice(const systems::SystemConfig& system,
                     const OptimizerOptions& options) {
  system.validate();
  options.validate(system);

  Lattice lat;
  if (!options.restrict_levels.empty()) {
    lat.subsets.push_back(options.restrict_levels);
  } else {
    const int L = system.levels();
    const int min_k = options.allow_suffix_skipping ? 1 : L;
    for (int K = L; K >= min_k; --K) {
      std::vector<int> levels(static_cast<std::size_t>(K));
      for (int i = 0; i < K; ++i) levels[static_cast<std::size_t>(i)] = i;
      lat.subsets.push_back(std::move(levels));
    }
  }
  lat.ladder = count_ladder(options.max_count);
  lat.taus = log_grid(options.tau_min, system.base_time * (1.0 - 1e-9),
                      options.coarse_tau_points);
  return lat;
}

/// The shared tail of both searches: reduces the coarse-pass slots,
/// refines each subset's best point by coordinate descent against
/// @p plan_cost(subset index, plan) — the same evaluator as the coarse
/// pass — and keeps the global winner. Serial and deterministic.
template <typename PlanCost>
OptimizationResult refine_and_select(const Lattice& lat,
                                     std::vector<Slot>& slot,
                                     const PlanCost& plan_cost,
                                     const systems::SystemConfig& system,
                                     const OptimizerOptions& options) {
  const std::size_t nt = lat.taus.size();
  Candidate global;
  std::vector<int> global_levels;
  std::size_t total_evals = 0;
  std::size_t total_pruned_feas = 0;
  std::size_t total_pruned_bound = 0;
  std::size_t refine_evals = 0;

  for (std::size_t si = 0; si < lat.subsets.size(); ++si) {
    const auto& levels = lat.subsets[si];
    const std::size_t dims = levels.size() - 1;

    Candidate best;
    for (std::size_t ti = 0; ti < nt; ++ti) {
      Slot& s = slot[si * nt + ti];
      if (s.best.time < best.time) best = std::move(s.best);
      total_evals += s.evals;
      total_pruned_feas += s.pruned_feas;
      total_pruned_bound += s.pruned_bound;
    }
    if (!std::isfinite(best.time)) continue;

    // Refinement: coordinate descent over tau0 and each count.
    obs::Span refine_span(options.trace, "optimizer.refine", "optimizer");
    static constexpr double kTauFactors[] = {0.80, 0.90, 0.95, 0.98,
                                             1.02, 1.05, 1.10, 1.25};
    static constexpr int kCountSteps[] = {-4, -2, -1, 1, 2, 4};
    CheckpointPlan plan;
    plan.levels = levels;
    for (int round = 0; round < options.refine_rounds; ++round) {
      Candidate improved = best;
      // Every stepped candidate passes the same feasibility bound the
      // coarse sweep enforces (tau0 * prod(N_j + 1) <= T_B, Sec. III-C).
      // Dauwe-family evaluators return +inf past it anyway, but the
      // per-plan overload accepts arbitrary models, and one that returns a
      // finite time for an infeasible plan would otherwise be able to
      // step refinement onto — and return — an infeasible winner.
      for (const double f : kTauFactors) {
        const double tau = best.tau0 * f;
        if (tau <= 0.0 || tau >= system.base_time) continue;
        if (tau * pattern_of(best.counts) > system.base_time) continue;
        plan.tau0 = tau;
        plan.counts = best.counts;
        ++total_evals;
        ++refine_evals;
        const double t = plan_cost(si, plan);
        if (t < improved.time) {
          improved = Candidate{t, tau, best.counts};
        }
      }
      for (std::size_t d = 0; d < dims; ++d) {
        for (const int step : kCountSteps) {
          const int n = best.counts[d] + step;
          if (n < 0 || n > options.max_count) continue;
          plan.tau0 = best.tau0;
          plan.counts = best.counts;
          plan.counts[d] = n;
          if (best.tau0 * pattern_of(plan.counts) > system.base_time) {
            continue;
          }
          ++total_evals;
          ++refine_evals;
          const double t = plan_cost(si, plan);
          if (t < improved.time) {
            improved = Candidate{t, best.tau0, plan.counts};
          }
        }
      }
      if (improved.time >= best.time) break;  // converged
      best = std::move(improved);
    }

    if (best.time < global.time) {
      global = std::move(best);
      global_levels = levels;
    }
  }

  // Flush observe-only counters once, after the whole search, so the
  // enumeration itself stays free of atomic traffic.
  if (const OptimizerMetrics* m = options.metrics; m != nullptr) {
    if (m->plans_swept) m->plans_swept->add(total_evals - refine_evals);
    if (m->plans_pruned) m->plans_pruned->add(total_pruned_feas);
    if (m->plans_pruned_bound) {
      m->plans_pruned_bound->add(total_pruned_bound);
    }
    if (m->plans_refined) m->plans_refined->add(refine_evals);
    if (m->subsets_searched) m->subsets_searched->add(lat.subsets.size());
  }

  if (!std::isfinite(global.time)) {
    throw std::runtime_error("optimize_intervals: no feasible plan for " +
                             system.name);
  }

  OptimizationResult result;
  result.plan.tau0 = global.tau0;
  result.plan.levels = std::move(global_levels);
  result.plan.counts = std::move(global.counts);
  result.expected_time = global.time;
  result.efficiency = system.base_time / global.time;
  result.evaluations = total_evals;
  result.coarse_evaluations = total_evals - refine_evals;
  result.pruned_feasibility = total_pruned_feas;
  result.pruned_bound = total_pruned_bound;
  return result;
}

}  // namespace

void OptimizerOptions::validate(const systems::SystemConfig& system) const {
  const auto bad = [](const std::string& what) {
    throw std::invalid_argument("OptimizerOptions: " + what);
  };
  if (coarse_tau_points < 1) {
    bad("coarse_tau_points must be >= 1 (got " +
        std::to_string(coarse_tau_points) + ")");
  }
  if (max_count < 0) {
    bad("max_count must be >= 0 (got " + std::to_string(max_count) + ")");
  }
  if (refine_rounds < 0) {
    bad("refine_rounds must be >= 0 (got " + std::to_string(refine_rounds) +
        ")");
  }
  if (!(tau_min > 0.0)) {
    bad("tau_min must be > 0 (got " + std::to_string(tau_min) + ")");
  }
  // The coarse grid is log-spaced from tau_min up to this edge; a tau_min
  // at or past it would silently produce a descending or duplicate-point
  // grid instead of a sweep.
  const double tau_max = system.base_time * (1.0 - 1e-9);
  if (!(tau_min < tau_max)) {
    bad("tau_min (" + std::to_string(tau_min) +
        ") must be below system.base_time * (1 - 1e-9) = " +
        std::to_string(tau_max) + " for system \"" + system.name +
        "\"; the log-spaced tau0 grid is empty above that edge");
  }
}

std::vector<int> count_ladder(int max_count) {
  std::vector<int> out;
  int v = 0;
  while (v <= max_count) {
    out.push_back(v);
    v = std::max(v + 1, (v * 5) / 4);
  }
  return out;
}

OptimizationResult optimize_intervals(const ExecutionTimeModel& model,
                                      const systems::SystemConfig& system,
                                      const OptimizerOptions& options,
                                      util::ThreadPool* pool) {
  const Lattice lat = make_lattice(system, options);
  const std::size_t nt = lat.taus.size();
  std::vector<Slot> slot(lat.subsets.size() * nt);
  {
    // One independent task per (subset, tau0) pair, so systems with few
    // interior dims still expose many units of parallelism.
    obs::Span coarse(options.trace, "optimizer.coarse_sweep", "optimizer");
    util::parallel_for(pool, slot.size(), [&](std::size_t idx) {
      obs::Span span(options.trace, "optimizer.sweep_slice", "optimizer");
      CheckpointPlan plan;
      plan.tau0 = lat.taus[idx % nt];
      plan.levels = lat.subsets[idx / nt];
      plan.counts.assign(plan.levels.size() - 1, 0);
      sweep_slice(model, system, lat.ladder, plan, slot[idx]);
    });
  }
  return refine_and_select(
      lat, slot,
      [&](std::size_t, const CheckpointPlan& plan) {
        return model.expected_time(system, plan);
      },
      system, options);
}

OptimizationResult optimize_intervals_staged(
    const SubsetKernelFactory& factory, const systems::SystemConfig& system,
    const OptimizerOptions& options, util::ThreadPool* pool) {
  const Lattice lat = make_lattice(system, options);
  std::vector<const DauweKernel*> kernel;
  kernel.reserve(lat.subsets.size());
  for (const auto& levels : lat.subsets) kernel.push_back(&factory(levels));

  // Coarse pass: eight consecutive tau0 slices form one lane-sweep task
  // (still one slot per slice), and a per-subset incumbent lets the
  // admissible bound cut subtrees across tasks. The incumbent is per
  // *subset*, not global: a globally-pruned subset could otherwise hand
  // refinement a different starting candidate and change the returned
  // winner; per-subset, the subset's own optimum can never be cut, so
  // every refinement start — and hence the winner — is preserved exactly.
  const std::size_t nt = lat.taus.size();
  std::vector<Slot> slot(lat.subsets.size() * nt);
  {
    obs::Span coarse(options.trace, "optimizer.coarse_sweep", "optimizer");
    std::vector<std::atomic<double>> incumbent(lat.subsets.size());
    for (auto& inc : incumbent) inc.store(kInf, std::memory_order_relaxed);
    const std::size_t blocks =
        (nt + kSimdLanes - 1) / static_cast<std::size_t>(kSimdLanes);
    // Strided block order: early tasks sample tau0 blocks spread across
    // the whole grid, so each subset owns a near-optimal incumbent after
    // ~sqrt(blocks) tasks instead of only once the ascending sweep
    // reaches the optimum's neighborhood. Execution order only — slots,
    // accounting, and the winner are order-independent.
    std::vector<std::size_t> order;
    order.reserve(blocks);
    const auto stride = std::max<std::size_t>(
        1, static_cast<std::size_t>(
               std::lround(std::sqrt(static_cast<double>(blocks)))));
    for (std::size_t s = 0; s < stride; ++s) {
      for (std::size_t b = s; b < blocks; b += stride) order.push_back(b);
    }
    util::parallel_for(pool, lat.subsets.size() * blocks,
                       [&](std::size_t idx) {
      obs::Span span(options.trace, "optimizer.sweep_block", "optimizer");
      const std::size_t si = idx / blocks;
      const std::size_t t0 = order[idx % blocks] * kSimdLanes;
      std::vector<int> counts(lat.subsets[si].size() - 1, 0);
      LaneSweepArgs args;
      args.kernel = kernel[si];
      args.taus = lat.taus.data() + t0;
      args.nlanes =
          static_cast<int>(std::min<std::size_t>(kSimdLanes, nt - t0));
      args.base_time = system.base_time;
      args.ladder = &lat.ladder;
      args.incumbent = &incumbent[si];
      args.slots = slot.data() + si * nt + t0;
      lane_sweep(args, counts);
    });
  }
  return refine_and_select(
      lat, slot,
      [&](std::size_t si, const CheckpointPlan& plan) {
        return kernel[si]->expected_time(plan.tau0, plan.counts);
      },
      system, options);
}

}  // namespace mlck::core
