#include "modem/subchannel.h"

#include <algorithm>
#include <cmath>
#include <set>
#include <stdexcept>

namespace wearlock::modem {
namespace {

SubchannelPlan MakeDefault(std::size_t shift) {
  SubchannelPlan plan;
  plan.data = {16, 17, 18, 20, 21, 22, 24, 25, 26, 28, 29, 30};
  plan.pilots = {7, 11, 15, 19, 23, 27, 31, 35};
  for (std::size_t& b : plan.data) b += shift;
  for (std::size_t& b : plan.pilots) b += shift;
  // Null set: every in-band bin (pilot span) not used for data or pilots.
  const std::size_t lo = plan.pilots.front();
  const std::size_t hi = plan.pilots.back();
  for (std::size_t b = lo; b <= hi; ++b) {
    if (!plan.IsData(b) && !plan.IsPilot(b)) plan.nulls.push_back(b);
  }
  plan.Validate();
  return plan;
}

}  // namespace

SubchannelPlan SubchannelPlan::Audible() { return MakeDefault(0); }

// +80 bins * 172.3 Hz = +13.8 kHz: pilots land on 15.0-19.8 kHz.
SubchannelPlan SubchannelPlan::NearUltrasound() { return MakeDefault(80); }

double SubchannelPlan::OccupiedBandwidthHz() const {
  std::size_t lo = fft_size, hi = 0;
  for (std::size_t b : data) {
    lo = std::min(lo, b);
    hi = std::max(hi, b);
  }
  for (std::size_t b : pilots) {
    lo = std::min(lo, b);
    hi = std::max(hi, b);
  }
  if (hi < lo) return 0.0;
  return static_cast<double>(hi - lo + 1) * bin_hz();
}

void SubchannelPlan::Validate() const {
  if (fft_size < 4) throw std::invalid_argument("SubchannelPlan: fft_size too small");
  if (data.empty()) throw std::invalid_argument("SubchannelPlan: no data bins");
  if (pilots.empty()) throw std::invalid_argument("SubchannelPlan: no pilot bins");
  std::set<std::size_t> seen;
  auto check = [&](const std::vector<std::size_t>& bins, const char* what) {
    for (std::size_t b : bins) {
      if (b == 0 || b >= fft_size / 2) {
        throw std::invalid_argument(std::string("SubchannelPlan: ") + what +
                                    " bin out of (0, N/2)");
      }
      if (!seen.insert(b).second) {
        throw std::invalid_argument(std::string("SubchannelPlan: ") + what +
                                    " bin reused across sets");
      }
    }
  };
  check(data, "data");
  check(pilots, "pilot");
  check(nulls, "null");
}

bool SubchannelPlan::IsData(std::size_t bin) const {
  return std::find(data.begin(), data.end(), bin) != data.end();
}
bool SubchannelPlan::IsPilot(std::size_t bin) const {
  return std::find(pilots.begin(), pilots.end(), bin) != pilots.end();
}
SubchannelPlan SelectSubchannels(const SubchannelPlan& plan,
                                 const std::vector<double>& noise_power,
                                 double quantize_db) {
  plan.Validate();
  if (noise_power.size() < plan.fft_size / 2) {
    throw std::invalid_argument("SelectSubchannels: noise vector too short");
  }
  if (quantize_db <= 0.0) {
    throw std::invalid_argument("SelectSubchannels: quantize_db must be > 0");
  }
  // Candidate pool: the whole in-band span minus pilots. Keeping the
  // span bounded by the pilot set means every chosen bin stays inside
  // pilot interpolation coverage.
  const std::size_t lo = plan.pilots.front();
  const std::size_t hi = plan.pilots.back();
  struct Candidate {
    std::size_t bin;
    long level;  // quantized noise (dB / quantize_db)
  };
  std::vector<Candidate> pool;
  for (std::size_t b = lo; b <= hi; ++b) {
    if (plan.IsPilot(b)) continue;
    const double p = std::max(noise_power[b], 1e-30);
    const long level = std::lround(10.0 * std::log10(p) / quantize_db);
    pool.push_back({b, level});
  }
  if (pool.size() < plan.data.size()) {
    throw std::invalid_argument("SelectSubchannels: pool smaller than |D|");
  }
  std::stable_sort(pool.begin(), pool.end(),
                   [](const Candidate& a, const Candidate& b) {
                     if (a.level != b.level) return a.level < b.level;
                     return a.bin < b.bin;  // prefer low frequency on ties
                   });
  SubchannelPlan out = plan;
  out.data.clear();
  out.nulls.clear();
  for (std::size_t i = 0; i < pool.size(); ++i) {
    if (i < plan.data.size()) {
      out.data.push_back(pool[i].bin);
    } else {
      out.nulls.push_back(pool[i].bin);
    }
  }
  std::sort(out.data.begin(), out.data.end());
  std::sort(out.nulls.begin(), out.nulls.end());
  out.Validate();
  return out;
}

}  // namespace wearlock::modem
