#include "core/permuter.hpp"

namespace hmm::core {

std::string_view to_string(Strategy s) noexcept {
  switch (s) {
    case Strategy::kAuto: return "auto";
    case Strategy::kScheduled: return "scheduled";
    case Strategy::kSDesignated: return "s-designated";
    case Strategy::kDDesignated: return "d-designated";
    case Strategy::kMeasured: return "measured";
  }
  return "?";
}

}  // namespace hmm::core
