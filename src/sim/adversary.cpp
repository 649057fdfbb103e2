#include "sim/adversary.h"

#include <stdexcept>
#include <utility>

#include "obs/instrument.h"
#include "obs/json.h"
#include "sim/spec_number.h"

namespace wearlock::sim {
namespace {

constexpr char kGrammar[] = "AttackSpec";

AttackKind KindFromName(const std::string& spec, const std::string& name) {
  if (name == "eavesdrop") return AttackKind::kEavesdrop;
  if (name == "replay") return AttackKind::kReplay;
  if (name == "relay") return AttackKind::kRelay;
  if (name == "probe") return AttackKind::kProbe;
  if (name == "overshadow") return AttackKind::kOvershadow;
  throw std::invalid_argument("AttackSpec: unknown attack '" + name +
                              "' in '" + spec + "'");
}

// Each kind's default geometry/electronics, so "relay" alone is a
// sensible attack and the grammar only names what it overrides.
void ApplyKindDefaults(AttackSpec& out) {
  switch (out.kind) {
    case AttackKind::kEavesdrop:
      out.distance_m = 2.0;
      break;
    case AttackKind::kReplay:
      out.distance_m = 0.5;
      out.handling_delay_ms = 250.0;
      break;
    case AttackKind::kRelay:
      out.distance_m = 3.0;
      out.handling_delay_ms = 4.0;
      out.gain_db = 40.0;
      break;
    case AttackKind::kProbe:
      out.distance_m = 1.0;
      break;
    case AttackKind::kOvershadow:
      out.distance_m = 1.5;
      out.level = 2.0;
      break;
  }
}

}  // namespace

std::string ToString(AttackKind kind) {
  switch (kind) {
    case AttackKind::kEavesdrop: return "eavesdrop";
    case AttackKind::kReplay: return "replay";
    case AttackKind::kRelay: return "relay";
    case AttackKind::kProbe: return "probe";
    case AttackKind::kOvershadow: return "overshadow";
  }
  return "?";
}

AttackSpec AttackSpec::Parse(const std::string& spec) {
  if (spec.empty()) {
    throw std::invalid_argument("AttackSpec: empty spec");
  }
  AttackSpec out;
  out.spec = spec;

  // KIND[@DISTANCE][:key=value]...
  std::size_t opts_pos = spec.find(':');
  const std::string head = spec.substr(0, std::min(opts_pos, spec.size()));
  const std::size_t at = head.find('@');
  out.kind = KindFromName(spec, head.substr(0, at));
  ApplyKindDefaults(out);
  if (at != std::string::npos) {
    out.distance_m = ParseSpecNumber(kGrammar, head, head.substr(at + 1));
    if (out.distance_m <= 0.0) {
      throw std::invalid_argument("AttackSpec: distance must be > 0 in '" +
                                  spec + "'");
    }
  }

  while (opts_pos != std::string::npos) {
    const std::size_t start = opts_pos + 1;
    opts_pos = spec.find(':', start);
    const std::string entry =
        spec.substr(start, std::min(opts_pos, spec.size()) - start);
    const std::size_t eq = entry.find('=');
    if (eq == std::string::npos || eq == 0) {
      throw std::invalid_argument("AttackSpec: expected key=value, got '" +
                                  entry + "' in '" + spec + "'");
    }
    const std::string key = entry.substr(0, eq);
    const std::string value = entry.substr(eq + 1);
    if (key == "gain") {
      out.gain_db = ParseSpecNumber(kGrammar, entry, value);
      if (out.gain_db < -40.0 || out.gain_db > 80.0) {
        throw std::invalid_argument(
            "AttackSpec: gain out of [-40,80] dB in '" + entry + "'");
      }
    } else if (key == "delay") {
      out.handling_delay_ms = ParseSpecNumber(kGrammar, entry, value);
      if (out.handling_delay_ms < 0.0) {
        throw std::invalid_argument("AttackSpec: negative delay in '" + entry +
                                    "'");
      }
    } else if (key == "level") {
      out.level = ParseSpecNumber(kGrammar, entry, value);
      if (out.level <= 0.0) {
        throw std::invalid_argument("AttackSpec: level must be > 0 in '" +
                                    entry + "'");
      }
    } else {
      throw std::invalid_argument("AttackSpec: unknown key '" + key +
                                  "' in '" + spec + "'");
    }
  }
  return out;
}

std::string AttackTraceJsonl(const std::vector<AttackEvent>& events) {
  std::string out;
  for (const AttackEvent& e : events) {
    out += "{\"at_ms\":" + obs::JsonNumber(e.at_ms) + ",\"attack\":\"" +
           obs::JsonEscape(ToString(e.kind)) + "\",\"stage\":\"" +
           obs::JsonEscape(e.stage) + "\",\"value\":" +
           obs::JsonNumber(e.value) + "}\n";
  }
  return out;
}

AdversaryDevice::AdversaryDevice(AttackSpec spec, Rng rng, VirtualClock* clock)
    : spec_(std::move(spec)), rng_(std::move(rng)), clock_(clock) {
  if (clock_ == nullptr) {
    throw std::invalid_argument("AdversaryDevice: null clock");
  }
}

void AdversaryDevice::Record(const std::string& stage, double value) {
  events_.push_back({spec_.kind, stage, clock_->now(), value});
  WL_COUNT("adversary.event." + ToString(spec_.kind));
}

void AdversaryDevice::StoreCapture(std::vector<double> samples) {
  Record("capture", static_cast<double>(samples.size()));
  tape_.push_back(std::move(samples));
}

}  // namespace wearlock::sim
