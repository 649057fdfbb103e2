// Argument parsing the command-line tools share: whole-string numbers
// and the environment names of --env / --envs.
#pragma once

#include <charconv>
#include <string>
#include <system_error>

#include "audio/noise.h"

namespace wearlock::cli {

/// The whole string must be one number: std::from_chars (the banned-api
/// lint rejects atoi/atof) with trailing junk rejected. A value outside
/// T's range is rejected too, so it never wraps.
template <typename T>
bool ParseNumber(const std::string& s, T* out) {
  const auto result = std::from_chars(s.data(), s.data() + s.size(), *out);
  return result.ec == std::errc() && result.ptr == s.data() + s.size();
}

/// quiet | office | classroom | cafe | grocery.
inline bool ParseEnvironment(const std::string& s, audio::Environment* out) {
  if (s == "quiet") { *out = audio::Environment::kQuietRoom; return true; }
  if (s == "office") { *out = audio::Environment::kOffice; return true; }
  if (s == "classroom") { *out = audio::Environment::kClassroom; return true; }
  if (s == "cafe") { *out = audio::Environment::kCafe; return true; }
  if (s == "grocery") {
    *out = audio::Environment::kGroceryStore;
    return true;
  }
  return false;
}

}  // namespace wearlock::cli
