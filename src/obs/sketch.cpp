#include "obs/sketch.h"

#include <bit>
#include <cmath>
#include <limits>
#include <stdexcept>

namespace wearlock::obs {

// ---------------------------------------------------------------------
// ExactSum
// ---------------------------------------------------------------------

namespace {

constexpr std::uint64_t kSignBit = 1ull << 63;
constexpr std::uint64_t kMantissaMask = (1ull << 52) - 1;
constexpr std::uint64_t kImplicitBit = 1ull << 52;

}  // namespace

void ExactSum::Add(double v) {
  const std::uint64_t bits = std::bit_cast<std::uint64_t>(v);
  const int exponent = static_cast<int>((bits >> 52) & 0x7FF);
  const std::uint64_t fraction = bits & kMantissaMask;
  if (exponent == 0x7FF) {
    if (fraction != 0) {
      ++nan_count_;
    } else if ((bits & kSignBit) != 0) {
      ++neg_inf_count_;
    } else {
      ++pos_inf_count_;
    }
    return;
  }
  if (exponent == 0 && fraction == 0) return;  // +-0.0
  // value = mantissa * 2^(pos - 1074): subnormals sit at pos 0, a
  // normal with biased exponent e at pos e-1 (its implicit bit set).
  const std::uint64_t mantissa =
      exponent == 0 ? fraction : (fraction | kImplicitBit);
  const std::size_t pos =
      exponent == 0 ? 0 : static_cast<std::size_t>(exponent - 1);
  if ((bits & kSignBit) != 0) {
    SubMagnitudeAt(pos, mantissa);
  } else {
    AddMagnitudeAt(pos, mantissa);
  }
}

void ExactSum::AddMagnitudeAt(std::size_t bit, std::uint64_t mantissa) {
  const std::size_t limb = bit >> 6;
  const std::size_t off = bit & 63;
  const std::uint64_t lo = mantissa << off;
  const std::uint64_t hi = off == 0 ? 0 : mantissa >> (64 - off);
  // Add lo, then hi one limb up, rippling the carry to the top (the
  // accumulator is two's complement, so overflow past the top limb
  // cannot happen within the documented headroom). The addend is
  // selected by index: lo may legitimately be 0 (the mantissa can
  // shift entirely into the upper limb), so sentinel comparisons
  // against it cannot tell "lo's turn" from "carry-only ripple".
  std::uint64_t carry = 0;
  for (std::size_t i = limb; i < kLimbs; ++i) {
    std::uint64_t add = 0;
    if (i == limb) {
      add = lo;
    } else if (i == limb + 1) {
      add = hi;
    } else if (carry == 0) {
      break;
    }
    const std::uint64_t before = limbs_[i];
    const std::uint64_t sum = before + add;
    std::uint64_t next_carry = sum < before ? 1u : 0u;
    const std::uint64_t with_carry = sum + carry;
    next_carry += with_carry < sum ? 1u : 0u;
    limbs_[i] = with_carry;
    carry = next_carry;
  }
}

void ExactSum::SubMagnitudeAt(std::size_t bit, std::uint64_t mantissa) {
  const std::size_t limb = bit >> 6;
  const std::size_t off = bit & 63;
  const std::uint64_t lo = mantissa << off;
  const std::uint64_t hi = off == 0 ? 0 : mantissa >> (64 - off);
  std::uint64_t borrow = 0;
  for (std::size_t i = limb; i < kLimbs; ++i) {
    std::uint64_t sub = 0;
    if (i == limb) {
      sub = lo;
    } else if (i == limb + 1) {
      sub = hi;
    } else if (borrow == 0) {
      break;
    }
    const std::uint64_t before = limbs_[i];
    const std::uint64_t total = sub + borrow;  // sub <= 2^64-1, borrow <= 1
    std::uint64_t next_borrow = total < sub ? 1u : 0u;  // sub+borrow wrapped
    next_borrow += before < total ? 1u : 0u;
    limbs_[i] = before - total;
    borrow = next_borrow;
  }
}

void ExactSum::Merge(const ExactSum& other) {
  std::uint64_t carry = 0;
  for (std::size_t i = 0; i < kLimbs; ++i) {
    const std::uint64_t a = limbs_[i];
    const std::uint64_t b = other.limbs_[i];
    const std::uint64_t sum = a + b;
    std::uint64_t next_carry = sum < a ? 1u : 0u;
    const std::uint64_t with_carry = sum + carry;
    next_carry += with_carry < sum ? 1u : 0u;
    limbs_[i] = with_carry;
    carry = next_carry;
  }
  nan_count_ += other.nan_count_;
  pos_inf_count_ += other.pos_inf_count_;
  neg_inf_count_ += other.neg_inf_count_;
}

double ExactSum::Value() const {
  if (nan_count_ != 0 || (pos_inf_count_ != 0 && neg_inf_count_ != 0)) {
    return std::numeric_limits<double>::quiet_NaN();
  }
  if (pos_inf_count_ != 0) return std::numeric_limits<double>::infinity();
  if (neg_inf_count_ != 0) return -std::numeric_limits<double>::infinity();

  std::array<std::uint64_t, kLimbs> magnitude = limbs_;
  const bool negative = (magnitude[kLimbs - 1] & kSignBit) != 0;
  if (negative) {  // two's-complement negate
    std::uint64_t carry = 1;
    for (std::size_t i = 0; i < kLimbs; ++i) {
      magnitude[i] = ~magnitude[i] + carry;
      carry = (carry != 0 && magnitude[i] == 0) ? 1u : 0u;
    }
  }

  std::size_t top = kLimbs;
  while (top > 0 && magnitude[top - 1] == 0) --top;
  if (top == 0) return 0.0;

  const std::size_t msb =
      (top - 1) * 64 +
      (63 - static_cast<std::size_t>(std::countl_zero(magnitude[top - 1])));

  auto bit_at = [&](std::size_t bit) -> bool {
    return (magnitude[bit >> 6] >> (bit & 63)) & 1u;
  };
  auto any_below = [&](std::size_t bit) -> bool {  // any set bit < `bit`
    const std::size_t limb = bit >> 6;
    const std::size_t off = bit & 63;
    for (std::size_t i = 0; i < limb; ++i) {
      if (magnitude[i] != 0) return true;
    }
    return off != 0 && (magnitude[limb] & ((1ull << off) - 1)) != 0;
  };

  std::uint64_t mantissa;
  std::size_t low_bit;  // result = mantissa * 2^(low_bit - 1074)
  if (msb <= 52) {
    mantissa = magnitude[0];
    low_bit = 0;
  } else {
    low_bit = msb - 52;
    const std::size_t limb = low_bit >> 6;
    const std::size_t off = low_bit & 63;
    mantissa = magnitude[limb] >> off;
    if (off != 0 && limb + 1 < kLimbs) {
      mantissa |= magnitude[limb + 1] << (64 - off);
    }
    mantissa &= (1ull << 53) - 1;
    const bool guard = bit_at(low_bit - 1);
    const bool sticky = any_below(low_bit - 1);
    if (guard && (sticky || (mantissa & 1) != 0)) {  // round half to even
      ++mantissa;
      if (mantissa == (1ull << 53)) {
        mantissa >>= 1;
        ++low_bit;
      }
    }
  }
  const double value = std::ldexp(static_cast<double>(mantissa),
                                  static_cast<int>(low_bit) - 1074);
  return negative ? -value : value;
}

// ---------------------------------------------------------------------
// Sketch
// ---------------------------------------------------------------------

namespace {

/// Bucket growth factor gamma = (1+alpha)/(1-alpha).
constexpr double kGamma =
    (1.0 + Sketch::kAccuracy) / (1.0 - Sketch::kAccuracy);

std::int32_t KeyFor(double magnitude) {
  // std::log is not constexpr, so 1/ln(gamma) is computed once.
  static const double inv_log_gamma = 1.0 / std::log(kGamma);
  return static_cast<std::int32_t>(
      std::ceil(std::log(magnitude) * inv_log_gamma));
}

double RepresentativeFor(std::int32_t key) {
  // Bucket (gamma^(k-1), gamma^k] is represented by the midpoint-ish
  // 2*gamma^k/(gamma+1), which bounds relative error by alpha.
  return 2.0 * std::pow(kGamma, static_cast<double>(key)) / (kGamma + 1.0);
}

}  // namespace

Sketch::Sketch(const Sketch& other) {
  const std::lock_guard<std::mutex> lock(other.mu_);
  positive_ = other.positive_;
  negative_ = other.negative_;
  zero_ = other.zero_;
  count_ = other.count_;
  min_ = other.min_;
  max_ = other.max_;
  sum_ = other.sum_;
}

Sketch& Sketch::operator=(const Sketch& other) {
  if (this == &other) return *this;
  const Sketch copy(other);  // locks `other` exactly once, no lock order
  const std::lock_guard<std::mutex> lock(mu_);
  positive_ = copy.positive_;
  negative_ = copy.negative_;
  zero_ = copy.zero_;
  count_ = copy.count_;
  min_ = copy.min_;
  max_ = copy.max_;
  sum_ = copy.sum_;
  return *this;
}

void Sketch::Observe(double v) {
  if (std::isnan(v)) return;  // NaN has no order statistic; drop it
  const std::lock_guard<std::mutex> lock(mu_);
  ++count_;
  if (v < min_) min_ = v;
  if (v > max_) max_ = v;
  sum_.Add(v);
  const double magnitude = std::fabs(v);
  if (magnitude < kMinTrackable) {
    ++zero_;
  } else if (v > 0.0) {
    ++positive_[KeyFor(magnitude)];
  } else {
    ++negative_[KeyFor(magnitude)];
  }
}

void Sketch::Merge(const Sketch& other) {
  if (this == &other) {
    throw std::invalid_argument("Sketch::Merge: cannot merge with self");
  }
  const Sketch snapshot(other);  // locks `other` exactly once
  const std::lock_guard<std::mutex> lock(mu_);
  for (const auto& [key, n] : snapshot.positive_) positive_[key] += n;
  for (const auto& [key, n] : snapshot.negative_) negative_[key] += n;
  zero_ += snapshot.zero_;
  count_ += snapshot.count_;
  if (snapshot.min_ < min_) min_ = snapshot.min_;
  if (snapshot.max_ > max_) max_ = snapshot.max_;
  sum_.Merge(snapshot.sum_);
}

double Sketch::QuantileLocked(double q) const {
  if (count_ == 0) return std::numeric_limits<double>::quiet_NaN();
  if (q < 0.0) q = 0.0;
  if (q > 1.0) q = 1.0;
  // 0-based rank of the order statistic we want.
  const std::uint64_t rank = static_cast<std::uint64_t>(
      q * static_cast<double>(count_ - 1));
  std::uint64_t cumulative = 0;
  auto hit = [&](std::uint64_t n) {
    cumulative += n;
    return cumulative > rank;
  };
  // Ascending value order: negatives from largest magnitude down, the
  // zero bucket, then positives from smallest magnitude up.
  for (auto it = negative_.rbegin(); it != negative_.rend(); ++it) {
    if (hit(it->second)) {
      const double v = -RepresentativeFor(it->first);
      return std::max(min_, std::min(max_, v));
    }
  }
  if (hit(zero_)) return std::max(min_, std::min(max_, 0.0));
  for (const auto& [key, n] : positive_) {
    if (hit(n)) {
      const double v = RepresentativeFor(key);
      return std::max(min_, std::min(max_, v));
    }
  }
  return max_;  // q == 1 rounding edge
}

double Sketch::Quantile(double q) const {
  const std::lock_guard<std::mutex> lock(mu_);
  return QuantileLocked(q);
}

void Sketch::WriteJson(std::ostream& os) const {
  const std::lock_guard<std::mutex> lock(mu_);
  os << "{\"a\":" << JsonNumber(kAccuracy)
     << ",\"count\":" << JsonNumber(static_cast<double>(count_))
     << ",\"zero\":" << JsonNumber(static_cast<double>(zero_))
     << ",\"sum\":" << JsonNumber(sum_.Value())
     << ",\"min\":" << JsonNumber(min_) << ",\"max\":" << JsonNumber(max_)
     << ",\"pos\":[";
  bool first = true;
  for (const auto& [key, n] : positive_) {
    os << (first ? "" : ",") << "[" << key << ","
       << JsonNumber(static_cast<double>(n)) << "]";
    first = false;
  }
  os << "],\"neg\":[";
  first = true;
  for (const auto& [key, n] : negative_) {
    os << (first ? "" : ",") << "[" << key << ","
       << JsonNumber(static_cast<double>(n)) << "]";
    first = false;
  }
  os << "]}";
}

std::optional<Sketch> Sketch::FromJson(const JsonValue& v,
                                       std::string* error) {
  auto fail = [&](const std::string& what) -> std::optional<Sketch> {
    if (error != nullptr) *error = what;
    return std::nullopt;
  };
  if (!v.is_object()) return fail("sketch: expected object");
  const JsonValue* a = v.Find("a");
  if (a == nullptr || !a->is_number() || a->number != kAccuracy) {
    return fail("sketch: relative accuracy must be " + JsonNumber(kAccuracy));
  }
  Sketch sketch;
  auto read_buckets = [&](const char* name,
                          std::map<std::int32_t, std::uint64_t>* out) {
    const JsonValue* buckets = v.Find(name);
    if (buckets == nullptr || !buckets->is_array()) return false;
    for (const JsonValue& entry : buckets->array) {
      if (!entry.is_array() || entry.array.size() != 2 ||
          !entry.array[0].is_number() || !entry.array[1].is_number()) {
        return false;
      }
      (*out)[static_cast<std::int32_t>(entry.array[0].number)] +=
          static_cast<std::uint64_t>(entry.array[1].number);
    }
    return true;
  };
  if (!read_buckets("pos", &sketch.positive_) ||
      !read_buckets("neg", &sketch.negative_)) {
    return fail("sketch: bad bucket array");
  }
  const JsonValue* count = v.Find("count");
  const JsonValue* zero = v.Find("zero");
  if (count == nullptr || !count->is_number() || zero == nullptr ||
      !zero->is_number()) {
    return fail("sketch: missing count/zero");
  }
  sketch.count_ = static_cast<std::uint64_t>(count->number);
  sketch.zero_ = static_cast<std::uint64_t>(zero->number);
  std::uint64_t bucketed = sketch.zero_;
  for (const auto& [key, n] : sketch.positive_) bucketed += n;
  for (const auto& [key, n] : sketch.negative_) bucketed += n;
  if (bucketed != sketch.count_) return fail("sketch: count/bucket mismatch");
  if (const JsonValue* min = v.Find("min"); min != nullptr) {
    sketch.min_ = min->is_number()
                      ? min->number
                      : std::numeric_limits<double>::infinity();
  }
  if (const JsonValue* max = v.Find("max"); max != nullptr) {
    sketch.max_ = max->is_number()
                      ? max->number
                      : -std::numeric_limits<double>::infinity();
  }
  if (const JsonValue* sum = v.Find("sum");
      sum != nullptr && sum->is_number()) {
    sketch.sum_.Add(sum->number);
  }
  return sketch;
}

}  // namespace wearlock::obs
