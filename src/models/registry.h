#pragma once

#include <memory>
#include <string>

#include "core/technique.h"

namespace mlck::models {

/// Creates a baseline technique by short name: "di", "moody", "benoit",
/// "daly", "young". Throws std::out_of_range for unknown names. The Dauwe
/// technique is not a core::Technique: engine::select_plan resolves
/// "dauwe" to EvaluationEngine::optimize and every other name here.
std::unique_ptr<core::Technique> make_technique(const std::string& name);

}  // namespace mlck::models
