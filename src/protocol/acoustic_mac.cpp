#include "protocol/acoustic_mac.h"

#include <algorithm>
#include <cmath>

#include "modem/snr.h"

namespace wearlock::protocol {

CarrierSenseReport SenseChannel(const modem::FrameSpec& spec,
                                const audio::Samples& capture) {
  CarrierSenseReport report;
  report.bin_power = modem::NoisePowerFromAmbient(spec, capture);
  std::vector<double> data_db;
  data_db.reserve(spec.plan.data.size());
  for (std::size_t bin : spec.plan.data) {
    if (bin >= report.bin_power.size()) continue;
    data_db.push_back(10.0 *
                      std::log10(std::max(report.bin_power[bin], 1e-30)));
  }
  if (data_db.empty()) return report;
  std::sort(data_db.begin(), data_db.end());
  report.floor_db = data_db[data_db.size() / 4];
  report.inband_db = data_db.back();
  report.busy = report.inband_db > report.floor_db + kMacBusyOverFloorDb;
  return report;
}

}  // namespace wearlock::protocol
