#pragma once

#include <atomic>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

#include "core/dauwe_kernel.h"
#include "core/optimizer.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "systems/system_config.h"
#include "util/thread_pool.h"

namespace mlck::engine {

/// Optional engine observability: context-cache effectiveness and the
/// number of model evaluations served. Null members are skipped; the
/// per-evaluation cost with metrics attached is one relaxed atomic
/// increment, and zero extra work when detached.
struct EngineMetrics {
  obs::Counter* context_hits = nullptr;    ///< cache hit in context()
  obs::Counter* context_misses = nullptr;  ///< context built on demand
  obs::Counter* evaluations = nullptr;     ///< expected_time/predict calls
};

/// The cached tau-independent invariants for one (system, level-subset)
/// pair: the effective per-level failure rates, severity shares, and
/// checkpoint/restart retry terms that every model evaluation over the
/// subset would otherwise re-derive. Immutable after construction, so it
/// is shared freely across sweep threads.
struct EvaluationContext {
  std::vector<int> levels;    ///< the subset this context covers
  core::DauweKernel kernel;   ///< precomputed terms + recursion

  EvaluationContext(const systems::SystemConfig& system,
                    std::vector<int> subset, const core::DauweOptions& options,
                    std::shared_ptr<const math::FailureLaw> law = nullptr)
      : levels(std::move(subset)),
        kernel(system, levels, options, std::move(law)) {}
};

/// Cached evaluation front-end for one (system, model-options) pair — the
/// hot path of every optimizer sweep, figure, and ablation. Contexts are
/// built lazily per level subset and reused for the lifetime of the
/// engine, so repeated optimize()/expected_time() calls over the same
/// subsets skip all tau-independent work.
///
/// Every result is bit-identical to the direct DauweModel path: the
/// context precomputation is an exact factoring of the same arithmetic
/// (see core::DauweKernel), and optimize() drives the same search code as
/// core::optimize_intervals.
///
/// Thread-safety: all const members may be called concurrently. Context
/// *lookups* are lock-free (an acquire walk of an append-only list), so
/// concurrent expected_time/predict callers never serialize on the cache
/// once their subset is built; only first-build of a subset takes the
/// mutex, and contexts are immutable afterwards.
class EvaluationEngine {
 public:
  /// @p law threads a failure-law family into every cached kernel (see
  /// DauweKernel); null (exponential) keeps the closed-form fast path.
  explicit EvaluationEngine(systems::SystemConfig system,
                            core::DauweOptions options = {},
                            std::shared_ptr<const math::FailureLaw> law =
                                nullptr);
  ~EvaluationEngine();
  EvaluationEngine(const EvaluationEngine&) = delete;
  EvaluationEngine& operator=(const EvaluationEngine&) = delete;

  const systems::SystemConfig& system() const noexcept { return system_; }
  const core::DauweOptions& options() const noexcept { return options_; }
  const std::shared_ptr<const math::FailureLaw>& law() const noexcept {
    return law_;
  }

  /// The cached context for @p levels, building it on first use.
  const EvaluationContext& context(const std::vector<int>& levels) const;

  /// Expected execution time of @p plan; bit-identical to
  /// DauweModel(options).expected_time(system, plan).
  double expected_time(const core::CheckpointPlan& plan) const;

  /// Full forecast with breakdown; bit-identical to DauweModel::predict.
  core::Prediction predict(const core::CheckpointPlan& plan) const;

  /// Interval search over the cached contexts
  /// (core::optimize_intervals_staged): the plan and expected time that
  /// core::optimize_intervals selects on a DauweModel, bit for bit, with
  /// stage terms computed once per count prefix and subtrees bound-pruned.
  core::OptimizationResult optimize(const core::OptimizerOptions& options = {},
                                    util::ThreadPool* pool = nullptr) const;

  /// Number of level subsets cached so far (observability for tests and
  /// benchmarks).
  std::size_t cached_contexts() const;

  /// Installs the metric set (copied; pointed-to metrics must outlive the
  /// engine). Call before sharing the engine across threads.
  void attach_metrics(const EngineMetrics& metrics) { metrics_ = metrics; }

  /// Attaches a span sink: each on-demand context build is recorded as an
  /// "engine.context_build" span (docs/OBSERVABILITY.md). Observe-only;
  /// null detaches; the sink must outlive the engine. Call before sharing
  /// the engine across threads.
  void attach_trace(obs::TraceSink* sink) { trace_ = sink; }

 private:
  /// One cache entry. Nodes are heap-allocated, published once with a
  /// release store of head_, and never modified or freed before the
  /// engine dies — which is what makes the read path lock- and wait-free.
  struct ContextNode {
    ContextNode(const systems::SystemConfig& system, std::vector<int> subset,
                const core::DauweOptions& options,
                std::shared_ptr<const math::FailureLaw> law,
                const ContextNode* tail)
        : context(system, std::move(subset), options, std::move(law)),
          next(tail) {}
    EvaluationContext context;
    const ContextNode* next;
  };

  /// Lock-free lookup; nullptr when @p levels has no context yet.
  const EvaluationContext* find_context(
      const std::vector<int>& levels) const noexcept;

  systems::SystemConfig system_;
  core::DauweOptions options_;
  std::shared_ptr<const math::FailureLaw> law_;
  EngineMetrics metrics_;
  obs::TraceSink* trace_ = nullptr;
  mutable std::mutex mutex_;  ///< serializes context *builds* only
  /// Append-only singly-linked list of every built context; the few-entry
  /// linear walk (one node per level subset, <= levels of the system)
  /// beats a map lookup and needs no reader-side synchronization.
  mutable std::atomic<const ContextNode*> head_{nullptr};
};

}  // namespace mlck::engine
