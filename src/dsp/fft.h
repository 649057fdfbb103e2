// Radix-2 FFT/IFFT and FFT-based helpers.
//
// This is the numerical core of the whole modem: OFDM modulation (IFFT),
// demodulation (FFT), fast cross-correlation, and the FFT-interpolation
// used by the pilot-based channel estimator all route through here.
#pragma once

#include <complex>
#include <cstddef>
#include <vector>

namespace wearlock::dsp {

class FftPlan;    // dsp/fft_plan.h
class Workspace;  // dsp/workspace.h

using Complex = std::complex<double>;
using ComplexVec = std::vector<Complex>;
using RealVec = std::vector<double>;

/// True if n is a power of two (and nonzero).
constexpr bool IsPowerOfTwo(std::size_t n) { return n != 0 && (n & (n - 1)) == 0; }

/// Smallest power of two >= n.
/// @throws std::invalid_argument when no power of two >= n is
/// representable in std::size_t (n > 2^63 on 64-bit targets).
std::size_t NextPowerOfTwo(std::size_t n);

/// In-place iterative radix-2 decimation-in-time FFT.
/// @throws std::invalid_argument if x.size() is not a power of two.
void Fft(ComplexVec& x);

/// In-place inverse FFT (includes the 1/N normalization).
/// @throws std::invalid_argument if x.size() is not a power of two.
void Ifft(ComplexVec& x);

/// Out-of-place FFT of a real signal; result has x.size() bins
/// (size must be a power of two).
ComplexVec FftReal(const RealVec& x);

/// FFT-based interpolation: given `points` samples of a (conceptually
/// periodic) sequence, produce `out_len` samples of the band-limited
/// interpolant by zero-padding the middle of the spectrum. Used to
/// expand the pilot-tone channel estimate to cover data sub-channels
/// (paper §III "FFT-based interpolation"). Works for any sizes: each
/// power-of-two transform runs a plan (`fwd_plan`/`inv_plan`, sizes
/// points.size() and out_len, let hot callers skip the cache lookup;
/// nullptr resolves through PlanCache::Shared()), any other size a
/// direct DFT. The result lives in workspace slot CSlot::kInterpPadded,
/// valid until the next FftInterpolateInto on `ws`, so power-of-two
/// shapes allocate nothing in steady state. The reference is mutable so
/// callers (the channel estimator) can post-process in place.
/// @throws std::invalid_argument if `points` is empty.
ComplexVec& FftInterpolateInto(const ComplexVec& points,
                               std::size_t out_len, Workspace& ws,
                               const FftPlan* fwd_plan = nullptr,
                               const FftPlan* inv_plan = nullptr);

}  // namespace wearlock::dsp
