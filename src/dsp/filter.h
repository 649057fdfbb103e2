// IIR biquad sections, Butterworth designs, and FIR convolution.
//
// Used by the hardware models: the Android-Wear microphone's mandatory
// ~7 kHz low-pass (paper §III-2 footnote) is a Butterworth cascade, and
// speaker ringing is an FIR convolution with a decaying impulse response.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace wearlock::dsp {

class SpectrumCache;  // dsp/correlate.h

/// One direct-form-I biquad: y = (b0 x + b1 x1 + b2 x2 - a1 y1 - a2 y2).
/// Coefficients are normalized (a0 == 1).
class Biquad {
 public:
  Biquad() = default;
  Biquad(double b0, double b1, double b2, double a1, double a2);

  /// Butterworth-Q low-pass at cutoff (RBJ cookbook formulas).
  static Biquad LowPass(double cutoff_hz, double sample_rate_hz, double q = 0.7071);
  /// Butterworth-Q high-pass at cutoff.
  static Biquad HighPass(double cutoff_hz, double sample_rate_hz, double q = 0.7071);

  /// Filter one sample, updating internal state.
  double Process(double x);
  /// Filter a whole buffer in place (stateful across calls).
  void ProcessBlock(std::span<double> x);

 private:
  double b0_ = 1.0, b1_ = 0.0, b2_ = 0.0, a1_ = 0.0, a2_ = 0.0;
  double x1_ = 0.0, x2_ = 0.0, y1_ = 0.0, y2_ = 0.0;
};

/// A cascade of biquads processed in series.
class BiquadCascade {
 public:
  BiquadCascade() = default;
  explicit BiquadCascade(std::vector<Biquad> sections);

  /// N-section (2N-order) Butterworth low-pass via cascaded RBJ sections
  /// with the standard per-section Q values.
  static BiquadCascade ButterworthLowPass(double cutoff_hz,
                                          double sample_rate_hz,
                                          std::size_t sections);

  double Process(double x);
  void ProcessBlock(std::span<double> x);
  std::size_t size() const { return sections_.size(); }

 private:
  std::vector<Biquad> sections_;
};

/// Full linear convolution y = x * h (length |x|+|h|-1), in x's buffer.
/// Short inputs or kernels run the direct form, as a gather loop over the
/// per-thread workspace whose every output equals the textbook scatter
/// loop's bit for bit (for a finite kernel); long signal x long kernel
/// pairs take an FFT overlap-free path, with h's zero-padded spectrum
/// from `kernel_spectra` if given, else transformed per call (same bits).
std::vector<double> Convolve(std::vector<double> x,
                             const std::vector<double>& h,
                             SpectrumCache* kernel_spectra = nullptr);

}  // namespace wearlock::dsp
