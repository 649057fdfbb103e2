#include "sim/rng.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>

namespace wearlock::sim {
namespace {

constexpr std::size_t kN = Mt19937_64::kStateSize;
constexpr std::size_t kM = 156;
constexpr std::uint64_t kMatrixA = 0xB5026F5AA96619E9ULL;
constexpr std::uint64_t kUpperMask = ~std::uint64_t{0} << 31;
constexpr std::uint64_t kLowerMask = ~kUpperMask;
// generate_canonical's clamp target: the largest double below 1.
constexpr double kBelowOne = 0x1.fffffffffffffp-1;

// Two engine words per step. GCC/Clang vector extensions lower to SSE2
// on x86-64 and to scalar code where the target has no such unit.
using U64x2 = std::uint64_t __attribute__((vector_size(16)));
using F64x2 = double __attribute__((vector_size(16)));

U64x2 Load2(const std::uint64_t* p) {
  U64x2 v;
  std::memcpy(&v, p, sizeof v);
  return v;
}

void Store2(std::uint64_t* p, U64x2 v) { std::memcpy(p, &v, sizeof v); }

/// One step of the recurrence: the new word k from the old words k and
/// k+1 and the word m places on (already renewed past the wrap).
template <typename Word>
Word Twist(Word cur, Word next, Word far) {
  const Word y = (cur & kUpperMask) | (next & kLowerMask);
  return far ^ (y >> 1) ^ (-(y & 1) & kMatrixA);
}

/// std::generate_canonical<double, 53> over a 64-bit engine: the word
/// rounded once to double, times 2^-64, with a result of 1 (the top
/// words round up to 2^64) clamped below 1. The two halves convert
/// exactly, so their sum is the single rounding, and nothing branches.
double Canonical(std::uint64_t u) {
  const double d =
      static_cast<double>(static_cast<std::uint32_t>(u >> 32)) * 0x1p32 +
      static_cast<double>(static_cast<std::uint32_t>(u));
  return std::min(d * 0x1p-64, kBelowOne);
}

/// Canonical() on two words. Each half is placed in the mantissa of a
/// power of two (2^84 + hi * 2^32 and 2^52 + lo, both exact); removing
/// both offsets at once is exact, and adding the low half rounds once.
F64x2 Canonical2(U64x2 u) {
  const F64x2 hi = std::bit_cast<F64x2>((u >> 32) | 0x4530000000000000ULL);
  const F64x2 lo =
      std::bit_cast<F64x2>((u & 0xFFFFFFFFULL) | 0x4330000000000000ULL);
  const F64x2 c = ((hi - 0x1.00000001p84) + lo) * 0x1p-64;
  const F64x2 below_one = {kBelowOne, kBelowOne};
  return c < 1.0 ? c : below_one;
}

/// One accepted polar pair (libstdc++ normal_distribution: x from the
/// first word, y from the second; reject r2 > 1 and r2 == 0).
struct PolarPair {
  double x, y, r2;
};

PolarPair DrawPair(Mt19937_64& engine) {
  PolarPair p;
  do {
    p.x = 2.0 * Canonical(engine()) - 1.0;
    p.y = 2.0 * Canonical(engine()) - 1.0;
    p.r2 = p.x * p.x + p.y * p.y;
  } while (p.r2 > 1.0 || p.r2 == 0.0);
  return p;
}

double PolarMult(double r2) { return std::sqrt(-2.0 * std::log(r2) / r2); }

/// Polar pairs from consecutive word pairs of `words`, accepted ones
/// compacted to the front of xs/ys/r2s in order. Returns how many.
std::size_t PolarBlock(std::span<const std::uint64_t> words, double* xs,
                       double* ys, double* r2s) {
  std::size_t kept = 0;
  for (std::size_t i = 0; i + 1 < words.size(); i += 2) {
    const F64x2 v =
        2.0 * Canonical2(Mt19937_64::Temper(Load2(&words[i]))) - 1.0;
    const F64x2 sq = v * v;
    const double r2 = sq[0] + sq[1];
    xs[kept] = v[0];
    ys[kept] = v[1];
    r2s[kept] = r2;
    // !(r2 > 1 || r2 == 0) without a branch on a random outcome.
    kept += (r2 <= 1.0) & (r2 != 0.0);
  }
  return kept;
}

/// n draws of one std::normal_distribution into `out`, or (null `out`)
/// only their engine words. It returns y * mult, then the saved x * mult,
/// per accepted pair, and scales each as v * stddev + mean (mean 0.0
/// turns -0.0 into +0.0). Pairs are drawn a block of buffered words at a
/// time: uniforms and r2 for every pair first, then ln, divide and sqrt
/// for the accepted ones. A block never holds more pairs than the draws
/// still need, so exactly the words the distribution would read are
/// consumed, including the pair whose second value an odd n drops.
void PolarWalk(Mt19937_64& engine, std::size_t n, double stddev,
               double* out) {
  double xs[kN / 2], ys[kN / 2], r2s[kN / 2];
  std::size_t filled = 0;
  while (filled < n) {
    const std::span<const std::uint64_t> words = engine.Block();
    const std::size_t pairs = std::min(words.size() / 2, (n - filled + 1) / 2);
    std::size_t kept = 1;
    if (pairs == 0) {
      // One word left: this pair straddles the refill.
      const PolarPair p = DrawPair(engine);
      xs[0] = p.x;
      ys[0] = p.y;
      r2s[0] = p.r2;
    } else {
      kept = PolarBlock(words.first(2 * pairs), xs, ys, r2s);
      engine.Advance(2 * pairs);
    }
    if (out == nullptr) {
      filled += 2 * kept;  // may pass n by the one dropped value
      continue;
    }
    // r2s[i] becomes pair i's multiplier; the calls overlap better in a
    // loop of their own.
    for (std::size_t i = 0; i < kept; ++i) r2s[i] = PolarMult(r2s[i]);
    for (std::size_t i = 0; i < kept; ++i) {
      out[filled++] = ys[i] * r2s[i] * stddev + 0.0;
      if (filled < n) out[filled++] = xs[i] * r2s[i] * stddev + 0.0;
    }
  }
}

}  // namespace

Mt19937_64::Mt19937_64(result_type seed) {
  state_[0] = seed;
  for (std::size_t i = 1; i < kN; ++i) {
    const result_type prev = state_[i - 1];
    state_[i] = 6364136223846793005ULL * (prev ^ (prev >> 62)) + i;
  }
}

void Mt19937_64::Refill() {
  // Word k reads only words k+1 and k+m beyond itself, so two words can
  // be renewed per step: the second lane's inputs are not yet written.
  result_type* x = state_.data();
  std::size_t k = 0;
  for (; k < kN - kM; k += 2) {
    Store2(x + k, Twist(Load2(x + k), Load2(x + k + 1), Load2(x + k + kM)));
  }
  for (; k + 2 < kN; k += 2) {
    Store2(x + k,
           Twist(Load2(x + k), Load2(x + k + 1), Load2(x + k + kM - kN)));
  }
  x[k] = Twist(x[k], x[k + 1], x[k + kM - kN]);
  x[kN - 1] = Twist(x[kN - 1], x[0], x[kM - 1]);
  next_ = 0;
}

double Rng::Gaussian(double stddev) {
  const PolarPair p = DrawPair(engine_);
  return p.y * PolarMult(p.r2) * stddev + 0.0;
}

std::vector<double> Rng::GaussianVector(std::size_t n, double stddev) {
  std::vector<double> v(n);
  PolarWalk(engine_, n, stddev, v.data());
  return v;
}

void Rng::SkipGaussians(std::size_t n) { PolarWalk(engine_, n, 1.0, nullptr); }

}  // namespace wearlock::sim
