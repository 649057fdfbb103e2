// Numbers inside the CLI spec grammars (FaultPlan, ImpairmentPlan,
// AttackSpec): one parser, so every grammar accepts the same syntax and
// rejects the same junk.
#pragma once

#include <string>

namespace wearlock::sim {

/// Parses `text`, the numeric part of spec entry `entry`, with the
/// syntax std::stod accepts - but all of it, and finite only: a NaN or
/// an infinity would slip through range checks like `p < 0 || p > 1`.
/// @throws std::invalid_argument naming `grammar` (e.g. "FaultPlan")
/// and `entry`.
double ParseSpecNumber(const char* grammar, const std::string& entry,
                       const std::string& text);

}  // namespace wearlock::sim
