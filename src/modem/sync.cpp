#include "modem/sync.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <optional>

#include "dsp/simd.h"

namespace wearlock::modem {

namespace {

// Normalized CP correlation of one symbol at one candidate offset, or
// nullopt when the CP or the tail it copies falls outside the recording.
// lint: hot-path
std::optional<double> CpMetricAt(std::span<const double> recording,
                                 long cp_start, const FrameSpec& spec) {
  const std::size_t tg = spec.cyclic_prefix_samples;
  const std::size_t ts = spec.fft_size();
  if (cp_start < 0) return std::nullopt;
  const std::size_t s = static_cast<std::size_t>(cp_start);
  if (s + tg + ts > recording.size()) return std::nullopt;
  double dot = 0.0, e_head = 0.0, e_tail = 0.0;
  for (std::size_t t = 0; t < tg; ++t) {
    const double head = recording[s + t];
    const double tail = recording[s + t + ts];
    dot += head * tail;
    e_head += head * head;
    e_tail += tail * tail;
  }
  const double denom = std::sqrt(e_head * e_tail);
  return denom > 1e-30 ? dot / denom : 0.0;
}

// CpMetricAt at the four offsets from `head` (windows inside the
// recording) on two-lane vectors: each lane sums in CpMetricAt's order.
// lint: hot-path
std::array<double, 4> CpMetricsAt4(const double* head, const FrameSpec& spec) {
  dsp::F64x2 dot[2] = {}, e_head[2] = {}, e_tail[2] = {};
  for (std::size_t t = 0; t < spec.cyclic_prefix_samples; ++t) {
    for (std::size_t v = 0; v < 2; ++v) {
      const dsp::F64x2 h = dsp::Load2(head + t + 2 * v);
      const dsp::F64x2 tail = dsp::Load2(head + t + 2 * v + spec.fft_size());
      dot[v] += h * tail;
      e_head[v] += h * h;
      e_tail[v] += tail * tail;
    }
  }
  std::array<double, 4> metric;
  for (std::size_t i = 0; i < 4; ++i) {
    const double denom = std::sqrt(e_head[i / 2][i % 2] * e_tail[i / 2][i % 2]);
    metric[i] = denom > 1e-30 ? dot[i / 2][i % 2] / denom : 0.0;
  }
  return metric;
}

}  // namespace

FineSyncResult FineSyncJoint(std::span<const double> recording,
                             std::size_t symbols_start, std::size_t n_symbols,
                             const FrameSpec& spec, long search_range) {
  FineSyncResult best;
  if (n_symbols == 0) return best;
  bool found = false;
  const std::size_t span4 = spec.cyclic_prefix_samples + spec.fft_size() + 3;
  // Four adjacent offsets per pass; windows that leave the recording, and
  // a last pass of fewer offsets, take the scalar path.
  for (long tf = -search_range; tf <= search_range; tf += 4) {
    const long lanes = std::min(4L, search_range - tf + 1);
    std::array<double, 4> acc = {};
    for (std::size_t s = 0; s < n_symbols; ++s) {
      const long cp_start = static_cast<long>(symbols_start) + tf +
                            static_cast<long>(s * spec.symbol_samples());
      const bool inside = lanes == 4 && cp_start >= 0 &&
                          static_cast<std::size_t>(cp_start) + span4 <= recording.size();
      const std::array<double, 4> four =
          inside ? CpMetricsAt4(recording.data() + cp_start, spec)
                 : std::array<double, 4>{};
      for (long i = 0; i < lanes; ++i) {
        acc[i] += inside ? four[i]
                         : CpMetricAt(recording, cp_start + i, spec).value_or(0.0);
      }
    }
    for (long i = 0; i < lanes; ++i) {
      const double metric = acc[i] / static_cast<double>(n_symbols);
      if (!found || metric > best.metric) {
        best.offset = tf + i;
        best.metric = metric;
        found = true;
      }
    }
  }
  return best;
}

FineSyncResult FineSync(std::span<const double> recording, std::size_t cp_start,
                        const FrameSpec& spec, long search_range) {
  FineSyncResult best;
  bool found = false;
  for (long tf = -search_range; tf <= search_range; ++tf) {
    const std::optional<double> metric =
        CpMetricAt(recording, static_cast<long>(cp_start) + tf, spec);
    if (!metric) continue;
    if (!found || *metric > best.metric) {
      best.offset = tf;
      best.metric = *metric;
      found = true;
    }
  }
  return best;
}

}  // namespace wearlock::modem
