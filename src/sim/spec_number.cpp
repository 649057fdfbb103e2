#include "sim/spec_number.h"

#include <cmath>
#include <stdexcept>

namespace wearlock::sim {

double ParseSpecNumber(const char* grammar, const std::string& entry,
                       const std::string& text) {
  const std::string where = " in '" + entry + "'";
  std::size_t used = 0;
  double v = 0.0;
  try {
    v = std::stod(text, &used);
  } catch (const std::exception&) {
    throw std::invalid_argument(grammar + (": bad number" + where));
  }
  if (used != text.size()) {
    throw std::invalid_argument(grammar + (": trailing junk" + where));
  }
  if (!std::isfinite(v)) {
    throw std::invalid_argument(grammar + (": non-finite number" + where));
  }
  return v;
}

}  // namespace wearlock::sim
