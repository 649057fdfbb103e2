// Two-lane double vectors for the byte-exact kernels.
//
// GCC/Clang vector extensions, which lower to SSE2 on x86-64 and to
// scalar code where the target has no such unit. Each lane of an
// operation rounds exactly as the same scalar expression does, and
// baseline x86-64 has no FMA, so `a * b + c` rounds twice in a lane as
// it does in scalar code. A kernel written on F64x2 therefore keeps
// every output bit of its scalar loop as long as each lane evaluates
// that loop's expressions in the same order (docs/perf.md, "Byte-exact
// kernels").
#pragma once

#include <cstring>

namespace wearlock::dsp {

using F64x2 = double __attribute__((vector_size(16)));

inline F64x2 Load2(const double* p) {
  F64x2 v;
  std::memcpy(&v, p, sizeof v);
  return v;
}

inline void Store2(double* p, F64x2 v) { std::memcpy(p, &v, sizeof v); }

}  // namespace wearlock::dsp
