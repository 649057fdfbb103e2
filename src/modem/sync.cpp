#include "modem/sync.h"

#include <cmath>
#include <optional>

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

}  // namespace

FineSyncResult FineSyncJoint(std::span<const double> recording,
                             std::size_t symbols_start, std::size_t n_symbols,
                             const FrameSpec& spec, long search_range) {
  FineSyncResult best;
  if (n_symbols == 0) return best;
  bool found = false;
  for (long tf = -search_range; tf <= search_range; ++tf) {
    double acc = 0.0;
    for (std::size_t s = 0; s < n_symbols; ++s) {
      const long cp_start = static_cast<long>(symbols_start) + tf +
                            static_cast<long>(s * spec.symbol_samples());
      acc += CpMetricAt(recording, cp_start, spec).value_or(0.0);
    }
    const double metric = acc / static_cast<double>(n_symbols);
    if (!found || metric > best.metric) {
      best.offset = tf;
      best.metric = metric;
      found = true;
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
