// Deterministic random-number utilities.
//
// Every stochastic element of the simulation (noise, jammer placement,
// link jitter, motion traces) draws from an explicitly seeded Rng so that
// tests and benchmark tables are reproducible run-to-run.
//
// The stream is MT19937-64 plus the Marsaglia polar normal, both
// implemented here and equal word for word and bit for bit to
// libstdc++'s std::mt19937_64 and std::normal_distribution<double>.
// Uniform, integer and Bernoulli draws still go through the std::
// distributions, over this engine.
#pragma once

#include <array>
#include <cstdint>
#include <random>
#include <span>
#include <vector>

namespace wearlock::sim {

/// 64-bit Mersenne Twister with std::mt19937_64's seeding, recurrence
/// and tempering, so it produces the same words. Satisfies
/// UniformRandomBitGenerator. The state is refilled a block of 312
/// words at a time, two words per step.
class Mt19937_64 {
 public:
  using result_type = std::uint64_t;
  static constexpr std::size_t kStateSize = 312;

  explicit Mt19937_64(result_type seed);

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~result_type{0}; }

  result_type operator()() {
    if (next_ == kStateSize) Refill();
    return Temper(state_[next_++]);
  }

  /// The untempered words not yet returned, in output order (the state
  /// is refilled first when none are left). Bulk consumers read them in
  /// place, apply Temper() and then Advance() past what they used.
  std::span<const result_type> Block() {
    if (next_ == kStateSize) Refill();
    return std::span<const result_type>(state_).subspan(next_);
  }
  void Advance(std::size_t words) { next_ += words; }

  /// The output function, on one word or (in rng.cpp) a vector of them.
  template <typename Word>
  static Word Temper(Word z) {
    z ^= (z >> 29) & 0x5555555555555555ULL;
    z ^= (z << 17) & 0x71D67FFFEDA60000ULL;
    z ^= (z << 37) & 0xFFF7EEE000000000ULL;
    return z ^ (z >> 43);
  }

 private:
  void Refill();

  alignas(16) std::array<result_type, kStateSize> state_;
  std::size_t next_ = kStateSize;
};

class Rng {
 public:
  explicit Rng(std::uint64_t seed) : engine_(seed) {}

  /// Standard normal (mean 0, stddev 1) scaled by `stddev`: one polar
  /// pair, as a fresh std::normal_distribution<double>(0, stddev) draws.
  double Gaussian(double stddev = 1.0);

  /// Uniform in [lo, hi).
  double Uniform(double lo, double hi) {
    return std::uniform_real_distribution<double>(lo, hi)(engine_);
  }

  /// Uniform integer in [lo, hi] inclusive.
  std::uint64_t UniformInt(std::uint64_t lo, std::uint64_t hi) {
    return std::uniform_int_distribution<std::uint64_t>(lo, hi)(engine_);
  }

  /// Bernoulli with probability p.
  bool Chance(double p) {
    return std::bernoulli_distribution(p)(engine_);
  }

  /// n iid Gaussian samples: the values, and the engine words consumed,
  /// of n draws from one std::normal_distribution<double>(0, stddev).
  std::vector<double> GaussianVector(std::size_t n, double stddev = 1.0);

  /// GaussianVector(out.size(), stddev)'s draws, into the caller's `out`.
  void FillGaussian(std::span<double> out, double stddev = 1.0);

  /// Consumes exactly the engine words GaussianVector(n) would, without
  /// their values: an unread capture still advances its stream. ROADMAP
  /// item 3's counter-based generator would make skipping free and delete it.
  void SkipGaussians(std::size_t n);

  /// Derive an independent child stream (for giving each subsystem its
  /// own deterministic sequence).
  Rng Fork() { return Rng(engine_()); }

 private:
  Mt19937_64 engine_;
};

}  // namespace wearlock::sim
