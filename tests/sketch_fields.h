// A Sketch's exact fields, read the way the rollup and
// wearlock_telemetry read them: through the sketch's JSON form
// (Sketch::WriteJson), which carries the count, sum, min and max
// exactly.
#pragma once

#include <cstdint>
#include <limits>
#include <optional>
#include <sstream>
#include <string>

#include "obs/json.h"
#include "obs/sketch.h"

namespace wearlock::testing {

/// Field `name` ("count", "zero", "sum", "min" or "max") of the
/// sketch's JSON form; NaN when the field is missing.
inline double SketchField(const obs::Sketch& sketch, const std::string& name) {
  std::ostringstream os;
  sketch.WriteJson(os);
  const std::optional<obs::JsonValue> json = obs::JsonParse(os.str());
  const obs::JsonValue* field = json ? json->Find(name) : nullptr;
  const double nan = std::numeric_limits<double>::quiet_NaN();
  return field != nullptr ? field->NumberOr(nan) : nan;
}

/// The sketch's exact observation count.
inline std::uint64_t SketchCount(const obs::Sketch& sketch) {
  return static_cast<std::uint64_t>(SketchField(sketch, "count"));
}

}  // namespace wearlock::testing
