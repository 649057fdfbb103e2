// Reusable per-thread scratch buffers for the DSP hot paths.
//
// A Workspace is a named-slot arena: each slot is a vector resized on
// demand and never shrunk, so steady-state reuse does zero allocations.
// Ownership rules (docs/perf.md):
//   - exactly one function writes each slot; the tables below name the
//     owner, so nested calls can never alias each other's scratch;
//   - a reference or span into a slot is valid only until the owning
//     function runs again on the same workspace;
//   - a Workspace is thread-confined. Hot paths use PerThread(), a
//     thread_local arena, so sim::ParallelExecutor tasks reuse their
//     worker thread's buffers across sweep points.
#pragma once

#include <array>
#include <cstdint>
#include <span>

#include "dsp/fft.h"

namespace wearlock::dsp {

/// Complex scratch slots; the comment names the sole owning function.
enum class CSlot : std::size_t {
  kFftScratch,      // PaddedComplex: a real signal's zero-padded transform
  kInterpSpec,      // FftInterpolateInto: forward spectrum of the points
  kInterpPadded,    // FftInterpolateInto: padded spectrum, then result
  kCorrX,           // CorrelateWithSpectrum: padded signal spectrum
  kCorrY,           // CrossCorrelateFftInto: uncached template spectrum
  kConvX,           // Convolve (FFT path): padded signal spectrum
  kConvH,           // Convolve (FFT path): padded kernel spectrum
  kSymbolSpectrum,  // Demodulator::SymbolSpectrumInto per-symbol FFT
  kSymbolBuild,     // modem::WriteSymbol spectrum + in-place IFFT
  kNoiseSpectrum,   // NoisePowerFromAmbient per-window FFT
  kSpectroSpec,     // ComputeSpectrogram per-frame FFT
  kEqPilots,        // Equalizer: raw per-pilot channel samples
  kEqDerot,         // Equalizer: derotated pilot samples
  kEqualized,       // Equalizer::EqualizeInto data-bin output
  kCount
};

/// Real scratch slots; the comment names the sole owning function.
enum class RSlot : std::size_t {
  kDetectorScores,  // PreambleDetector::ScoresInto correlation output
  kOnsetRms,        // FindSignalOnset window RMS series
  kOnsetSorted,     // FindSignalOnset noise-floor order statistic
  kResampleTaps,    // DelayFractional windowed-sinc taps, reversed
  kResampleShift,   // DelayFractional zero-padded input copy
  kSpectroFrame,    // ComputeSpectrogram windowed frame
  kFftSplit,        // FftPlan::SplitTransform split real/imaginary arrays
  kConvTaps,        // Convolve (direct form): kernel, reversed
  kConvShift,       // Convolve (direct form): zero-padded input copy
  kGaussians,       // DrawGaussians (audio): one world stage's noise draws
  kCount
};

class Workspace {
 public:
  /// The slot, sized to exactly `n` elements (contents unspecified where
  /// not subsequently written). Capacity never shrinks.
  ComplexVec& ComplexBuf(CSlot slot, std::size_t n);
  RealVec& RealBuf(RSlot slot, std::size_t n);

  /// The slot, sized to `n` elements and zero-filled.
  ComplexVec& ComplexZeroed(CSlot slot, std::size_t n);
  RealVec& RealZeroed(RSlot slot, std::size_t n);

  /// The first `n` elements of the slot (contents unspecified). Unlike
  /// RealBuf, the slot keeps its size when `n` is smaller, so a kernel
  /// that alternates sizes writes nothing to re-grow it.
  std::span<double> RealScratch(RSlot slot, std::size_t n);

  /// Bytes currently reserved across all slots of this workspace (also
  /// exported as the obs gauge `dsp.workspace.bytes` on growth).
  std::size_t bytes() const { return bytes_; }

  /// This thread's arena. Components resolve it per call instead of
  /// storing a reference, which keeps them cheap value types and makes
  /// cross-thread sharing of a component instance safe by construction.
  static Workspace& PerThread();

  /// Process-wide count of slot capacity growths, summed over every
  /// thread's arena. A warmed-up sweep holds this constant: any delta
  /// is a hot-path allocation regression.
  static std::uint64_t TotalGrowths();

 private:
  template <typename Vec>
  Vec& Sized(Vec& v, std::size_t n);

  std::array<ComplexVec, static_cast<std::size_t>(CSlot::kCount)> complex_;
  std::array<RealVec, static_cast<std::size_t>(RSlot::kCount)> real_;
  std::size_t bytes_ = 0;
};

}  // namespace wearlock::dsp
