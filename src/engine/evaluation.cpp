#include "engine/evaluation.h"

namespace mlck::engine {

EvaluationEngine::EvaluationEngine(systems::SystemConfig system,
                                   core::DauweOptions options,
                                   std::shared_ptr<const math::FailureLaw> law)
    : system_(std::move(system)), options_(options), law_(std::move(law)) {
  system_.validate();
}

EvaluationEngine::~EvaluationEngine() {
  const ContextNode* node = head_.load(std::memory_order_acquire);
  while (node != nullptr) {
    const ContextNode* next = node->next;
    delete node;
    node = next;
  }
}

const EvaluationContext* EvaluationEngine::find_context(
    const std::vector<int>& levels) const noexcept {
  // The acquire load pairs with the release store in context(): once a
  // node is visible, so is everything its constructor wrote. next
  // pointers are immutable after publication, so the walk is safe with
  // concurrent appends.
  for (const ContextNode* node = head_.load(std::memory_order_acquire);
       node != nullptr; node = node->next) {
    if (node->context.levels == levels) return &node->context;
  }
  return nullptr;
}

const EvaluationContext& EvaluationEngine::context(
    const std::vector<int>& levels) const {
  if (const EvaluationContext* ctx = find_context(levels); ctx != nullptr) {
    if (metrics_.context_hits != nullptr) metrics_.context_hits->add();
    return *ctx;
  }
  std::lock_guard<std::mutex> lock(mutex_);
  // Double-checked: another thread may have built it while we waited.
  if (const EvaluationContext* ctx = find_context(levels); ctx != nullptr) {
    if (metrics_.context_hits != nullptr) metrics_.context_hits->add();
    return *ctx;
  }
  obs::Span span(trace_, "engine.context_build", "engine");
  auto* node = new ContextNode(system_, levels, options_, law_,
                               head_.load(std::memory_order_relaxed));
  head_.store(node, std::memory_order_release);
  if (metrics_.context_misses != nullptr) metrics_.context_misses->add();
  return node->context;
}

double EvaluationEngine::expected_time(const core::CheckpointPlan& plan) const {
  if (metrics_.evaluations != nullptr) metrics_.evaluations->add();
  return context(plan.levels).kernel.expected_time(plan.tau0, plan.counts);
}

core::Prediction EvaluationEngine::predict(
    const core::CheckpointPlan& plan) const {
  plan.validate(system_);
  if (metrics_.evaluations != nullptr) metrics_.evaluations->add();
  return context(plan.levels).kernel.predict(plan);
}

core::OptimizationResult EvaluationEngine::optimize(
    const core::OptimizerOptions& options, util::ThreadPool* pool) const {
  const auto factory =
      [this](const std::vector<int>& levels) -> const core::DauweKernel& {
    return context(levels).kernel;
  };
  core::OptimizationResult result =
      core::optimize_intervals_staged(factory, system_, options, pool);
  // The staged sweep never leaves the kernel cursor, so the evaluation
  // counter is settled in one bulk add instead of one relaxed increment
  // per enumerated plan.
  if (metrics_.evaluations != nullptr) {
    metrics_.evaluations->add(result.evaluations);
  }
  return result;
}

std::size_t EvaluationEngine::cached_contexts() const {
  std::size_t n = 0;
  for (const ContextNode* node = head_.load(std::memory_order_acquire);
       node != nullptr; node = node->next) {
    ++n;
  }
  return n;
}

}  // namespace mlck::engine
