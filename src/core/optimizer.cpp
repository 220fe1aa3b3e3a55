#include "core/optimizer.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>
#include <utility>

#include "core/dauwe_kernel.h"
#include "obs/trace.h"
#include "util/parallel.h"

namespace mlck::core {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// tau0 grid points per sweep task, walked through one count lattice as
/// lanes.
constexpr std::size_t kLanes = 8;

/// Lane mask: bit l set means lane l participates.
using LaneMask = std::uint8_t;

/// Calls @p f(l) for every lane l set in @p mask, in ascending order.
template <typename F>
void for_each_lane(LaneMask mask, const F& f) {
  for (unsigned m = mask; m != 0; m &= m - 1) f(std::countr_zero(m));
}

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
/// the reduction serial and deterministic regardless of how tau0 points
/// are grouped into tasks.
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

/// One sweep task: up to kLanes tau0 grid points of one level subset,
/// walked through the count lattice together (coarse_pass picks them).
/// The walk fills the block's own slots, copied out once the task ends,
/// so tasks on other threads never share a cache line per leaf.
struct Block {
  std::array<double, kLanes> taus{};  ///< ascending lane tau0 values
  std::array<Slot, kLanes> slots{};   ///< each lane's (subset, tau0) slot
  int nlanes = 0;                     ///< 1..kLanes
};

/// Lane evaluator of the per-plan search: one ExecutionTimeModel call per
/// visited leaf. It keeps no prefix state and never cuts, so every lane
/// evaluates its whole feasible lattice, in the order a one-slice walk
/// would.
class ModelLanes {
 public:
  ModelLanes(const ExecutionTimeModel& model,
             const systems::SystemConfig& system, std::vector<int> levels,
             const double* taus)
      : model_(model), system_(system), taus_(taus) {
    plan_.levels = std::move(levels);
    plan_.counts.assign(plan_.levels.size() - 1, 0);
  }

  /// The counts the walk writes, read by leaf().
  std::vector<int>& counts() noexcept { return plan_.counts; }
  void begin(int, double) noexcept {}
  void push(int, int, int) noexcept {}
  LaneMask cut(int, double, LaneMask) const noexcept { return 0; }
  double leaf(int l, double) {
    plan_.tau0 = taus_[l];
    return model_.expected_time(system_, plan_);
  }
  void improved(double) noexcept {}

 private:
  const ExecutionTimeModel& model_;
  const systems::SystemConfig& system_;
  const double* taus_;
  CheckpointPlan plan_;
};

/// Lane evaluator of the staged search: one DauweKernel::Cursor stack per
/// lane, the admissible bound over those stacks, and the level subset's
/// shared incumbent. Every visited leaf is the cursor's scalar
/// arithmetic, so the lanes change which subtrees are *visited*, never
/// what a visited leaf is worth.
class KernelLanes {
 public:
  /// @p incumbent is the best expected time found so far for this level
  /// subset, shared across all of its sweep tasks. Monotone
  /// non-increasing, so relaxed loads are safe: a stale value can only
  /// prune less, never a surviving candidate.
  KernelLanes(const DauweKernel& kernel, const Block& block,
              double base_time, std::atomic<double>& incumbent)
      : cursor_{kernel.cursor(), kernel.cursor(), kernel.cursor(),
                kernel.cursor(), kernel.cursor(), kernel.cursor(),
                kernel.cursor(), kernel.cursor()},
        counts_(kernel.levels().size() - 1, 0),
        bt_(bound_terms(kernel)),
        taus_(block.taus.data()),
        base_time_(base_time),
        incumbent_(incumbent) {}

  std::vector<int>& counts() noexcept { return counts_; }
  void begin(int l, double tau0) noexcept { cursor_[l].begin(tau0); }
  void push(int l, int k, int n) noexcept { cursor_[l].push_stage(k, n); }

  /// Lanes of @p feas whose whole subtree below the just-entered stage
  /// @p e provably cannot beat the incumbent, at pattern prefix @p p:
  ///   LB = occ_e * (gamma_e R_e + (tau_e + gamma_e E_e))
  ///      + (T_B * tail_half[e]) * tau_e,   occ_e = (T_B / p) / tau0,
  /// cut when LB * (1 - 1e-12) > incumbent (the factor absorbs bound-side
  /// rounding). A dead lane's stage tau is +inf, so its bound is +inf or
  /// NaN; NaN never compares greater, so no finite subtree is cut.
  LaneMask cut(int e, double p, LaneMask feas) const noexcept {
    const double inc = incumbent_.load(std::memory_order_relaxed);
    if (!(inc < kInf)) return 0;
    const double occ_scale = base_time_ / p;
    const double restart = bt_.restart_cost[static_cast<std::size_t>(e)];
    const double tail = base_time_ * bt_.tail_half[static_cast<std::size_t>(e)];
    LaneMask out = 0;
    for_each_lane(feas, [&](int l) {
      const DauweKernel::Cursor& c = cursor_[l];
      const double tau_e = c.stage_tau(e);
      const double occ = occ_scale / taus_[l];
      const double core = c.stage_gamma(e) * restart +
                          (tau_e + c.stage_gamma_e(e));
      const double lb = occ * core + tail * tau_e;
      if (lb * (1.0 - 1e-12) > inc) out |= static_cast<LaneMask>(1u << l);
    });
    return out;
  }

  double leaf(int l, double p) const noexcept {
    return cursor_[l].finish_expected_time(p);
  }

  void improved(double t) noexcept {
    double cur = incumbent_.load(std::memory_order_relaxed);
    while (t < cur && !incumbent_.compare_exchange_weak(
                          cur, t, std::memory_order_relaxed)) {
    }
  }

 private:
  std::array<DauweKernel::Cursor, kLanes> cursor_;
  std::vector<int> counts_;
  BoundTerms bt_;
  const double* taus_;
  double base_time_;
  std::atomic<double>& incumbent_;
};

/// The count-lattice walk of both searches, flattened into an explicit
/// rung stack: the block's lanes advance in lockstep, so the lattice
/// bookkeeping (rungs, pattern prefix, leaves_below) is paid once per
/// block instead of once per tau0 point, while @p lanes prices each
/// visited leaf and may cut subtrees. The feasibility prune (the ladder
/// ascends, so the first infeasible rung cuts the rest of the depth)
/// counts *leaf plans* eliminated: each rung cut at depth d hides
/// ladder^(dims-1-d) leaves, so per lane
/// evals + pruned_feas + pruned_bound == ladder^dims.
///
/// Lanes (ModelLanes, KernelLanes) provides counts(), the vector the walk
/// writes; begin(l, tau0); push(l, d, n) when lane l takes count n at
/// depth d; cut(e, p, feas), the lanes of feas to skip below the
/// just-entered stage e at pattern prefix p; leaf(l, p), a visited leaf's
/// expected time; and improved(t) when a lane's slot-best drops to t.
template <typename Lanes>
void lane_sweep(Lanes& lanes, Block& b, const std::vector<int>& ladder,
                double base_time) {
  std::vector<int>& counts = lanes.counts();
  const std::size_t dims = counts.size();
  for (int l = 0; l < b.nlanes; ++l) lanes.begin(l, b.taus[l]);

  const auto consider = [&](int l, double p) {
    const double t = lanes.leaf(l, p);
    Slot& s = b.slots[l];
    ++s.evals;
    if (t < s.best.time) {
      s.best.time = t;
      s.best.tau0 = b.taus[l];
      s.best.counts = counts;
      lanes.improved(t);
    }
  };

  if (dims == 0) {
    for (int l = 0; l < b.nlanes; ++l) consider(l, 1.0);
    return;
  }

  const std::vector<std::size_t> below = leaves_below(dims, ladder.size());
  std::vector<std::size_t> rung(dims, 0);
  std::vector<double> pattern(dims + 1, 1.0);  // prefix prod (N_j + 1)
  // alive[d]: lanes still feasible at the current depth-d prefix. The
  // ladder ascends, so a lane cut at rung r is infeasible for every later
  // rung too — it leaves depth d for good, credited for all remaining
  // rungs exactly as its own one-lane walk would have been.
  std::vector<LaneMask> alive(dims + 1, 0);
  alive[0] = static_cast<LaneMask>((1u << b.nlanes) - 1u);
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
    for_each_lane(alive[d], [&](int l) {
      if (b.taus[l] * p > base_time) {
        b.slots[l].pruned_feas += (ladder.size() - rung[d]) * below[d];
        feas = static_cast<LaneMask>(feas & ~(1u << l));
      }
    });
    alive[d] = feas;
    if (feas == 0) {  // every lane exhausted this depth: ascend
      if (d == 0) return;
      --d;
      ++rung[d];
      continue;
    }
    counts[d] = n;
    for_each_lane(feas, [&](int l) { lanes.push(l, static_cast<int>(d), n); });
    pattern[d + 1] = p;

    const LaneMask cut = lanes.cut(static_cast<int>(d) + 1, p, feas);
    for_each_lane(cut, [&](int l) { b.slots[l].pruned_bound += below[d]; });
    const auto next = static_cast<LaneMask>(feas & ~cut);

    if (d + 1 == dims) {
      for_each_lane(next, [&](int l) { consider(l, p); });
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
/// order, the count ladder, the log-spaced tau0 grid, and the bound T_B on
/// tau0 * prod(N + 1). A coarse pass writes one Slot per (subset, tau0)
/// pair, subset-major.
struct Lattice {
  std::vector<std::vector<int>> subsets;
  std::vector<int> ladder;
  std::vector<double> taus;
  double base_time = 0.0;
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
  lat.base_time = system.base_time;
  lat.ladder = count_ladder(options.max_count);
  lat.taus = log_grid(options.tau_min, system.base_time * (1.0 - 1e-9),
                      options.coarse_tau_points);
  return lat;
}

/// The coarse pass of both searches: @p width (1..kLanes) neighbouring
/// tau0 points of one level subset form a Block, walked by lane_sweep
/// with the evaluator that @p make_lanes(subset index, block) returns,
/// writing one Slot per (subset, tau0) pair, subset-major. Tasks run
/// jointly over (subset, block), so even 2-level systems expose
/// subsets x blocks units of work. Slots, the winner and, without an
/// incumbent, the accounting are independent of the width, the task
/// order and the thread count.
template <typename MakeLanes>
std::vector<Slot> coarse_pass(const Lattice& lat,
                              const OptimizerOptions& options,
                              util::ThreadPool* pool, std::size_t width,
                              const MakeLanes& make_lanes) {
  const std::size_t nt = lat.taus.size();
  std::vector<Slot> slot(lat.subsets.size() * nt);
  obs::Span coarse(options.trace, "optimizer.coarse_sweep", "optimizer");
  const std::size_t blocks = (nt + width - 1) / width;
  // Strided block order: early tasks sample tau0 blocks spread across
  // the whole grid, so a per-subset incumbent is near-optimal after
  // ~sqrt(blocks) tasks instead of only once an ascending sweep reaches
  // the optimum's neighborhood. One-point tasks (a pooled walk that never
  // cuts) keep grid order, which queues the heaviest, smallest-tau0 tasks
  // first.
  std::vector<std::size_t> order;
  order.reserve(blocks);
  const auto stride =
      width == 1 ? std::size_t{1}
                 : std::max<std::size_t>(
                       1, static_cast<std::size_t>(std::lround(
                              std::sqrt(static_cast<double>(blocks)))));
  for (std::size_t s = 0; s < stride; ++s) {
    for (std::size_t b = s; b < blocks; b += stride) order.push_back(b);
  }
  util::parallel_for(pool, lat.subsets.size() * blocks, [&](std::size_t idx) {
    obs::Span span(options.trace, "optimizer.sweep_block", "optimizer");
    const std::size_t si = idx / blocks;
    const std::size_t first = order[idx % blocks] * width;
    Block b;
    b.nlanes = static_cast<int>(std::min(width, nt - first));
    for (int l = 0; l < b.nlanes; ++l) {
      b.taus[static_cast<std::size_t>(l)] =
          lat.taus[first + static_cast<std::size_t>(l)];
    }
    auto lanes = make_lanes(si, b);
    lane_sweep(lanes, b, lat.ladder, lat.base_time);
    for (int l = 0; l < b.nlanes; ++l) {
      slot[si * nt + first + static_cast<std::size_t>(l)] =
          std::move(b.slots[static_cast<std::size_t>(l)]);
    }
  });
  return slot;
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
  // A walk that never cuts shares nothing across lanes but the lattice
  // bookkeeping, so on a pool it takes one tau0 point per task: small-tau0
  // points hold most of the feasible leaves, and a 3-dim search split
  // into 12 eight-point tasks left 4 workers waiting on the heaviest few
  // (measured: mlck optimize --technique=moody, ~10% slower wall time at
  // equal CPU time). The width changes no result.
  const std::size_t width = pool != nullptr && pool->size() > 1 ? 1 : kLanes;
  std::vector<Slot> slot = coarse_pass(
      lat, options, pool, width, [&](std::size_t si, const Block& b) {
        return ModelLanes(model, system, lat.subsets[si], b.taus.data());
      });
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

  // The incumbent is per *subset*, not global: a globally-pruned subset
  // could otherwise hand refinement a different starting candidate and
  // change the returned winner; per-subset, the subset's own optimum can
  // never be cut, so every refinement start — and hence the winner — is
  // preserved exactly.
  std::vector<std::atomic<double>> incumbent(lat.subsets.size());
  for (auto& inc : incumbent) inc.store(kInf, std::memory_order_relaxed);
  std::vector<Slot> slot = coarse_pass(
      lat, options, pool, kLanes, [&](std::size_t si, const Block& b) {
        return KernelLanes(*kernel[si], b, system.base_time, incumbent[si]);
      });
  return refine_and_select(
      lat, slot,
      [&](std::size_t si, const CheckpointPlan& plan) {
        return kernel[si]->expected_time(plan.tau0, plan.counts);
      },
      system, options);
}

}  // namespace mlck::core
