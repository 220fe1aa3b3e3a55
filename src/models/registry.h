#pragma once

#include <memory>
#include <string>

#include "core/model.h"
#include "core/technique.h"

namespace mlck::models {

/// Creates a baseline technique by short name: "di", "moody", "benoit",
/// "daly", "young". Throws std::out_of_range for unknown names. The Dauwe
/// technique is not a core::Technique: engine::select_plan resolves
/// "dauwe" to EvaluationEngine::optimize and every other name here.
std::unique_ptr<core::Technique> make_technique(const std::string& name);

/// Creates a baseline's execution-time model by the same short names, for
/// predicting a given plan (`mlck predict --model=`). Throws
/// std::out_of_range for unknown names; "dauwe" is served by the
/// evaluation engine, not here.
std::unique_ptr<core::ExecutionTimeModel> make_model(const std::string& name);

}  // namespace mlck::models
