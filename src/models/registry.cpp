#include "models/registry.h"

#include <stdexcept>

#include "models/benoit.h"
#include "models/daly.h"
#include "models/di.h"
#include "models/moody.h"
#include "models/young.h"

namespace mlck::models {

std::unique_ptr<core::Technique> make_technique(const std::string& name) {
  if (name == "di") return std::make_unique<DiTechnique>();
  if (name == "moody") return std::make_unique<MoodyTechnique>();
  if (name == "benoit") return std::make_unique<BenoitTechnique>();
  if (name == "daly") return std::make_unique<DalyTechnique>();
  if (name == "young") return std::make_unique<YoungTechnique>();
  throw std::out_of_range("unknown technique: " + name);
}

std::unique_ptr<core::ExecutionTimeModel> make_model(const std::string& name) {
  if (name == "di") return std::make_unique<DiModel>();
  if (name == "moody") return std::make_unique<MoodyModel>();
  if (name == "benoit") return std::make_unique<BenoitModel>();
  if (name == "daly") return std::make_unique<DalyModel>();
  if (name == "young") return std::make_unique<YoungModel>();
  throw std::out_of_range("unknown model: " + name);
}

}  // namespace mlck::models
