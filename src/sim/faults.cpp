#include "sim/faults.h"

#include <algorithm>
#include <stdexcept>

#include "obs/instrument.h"
#include "obs/json.h"
#include "sim/spec_number.h"

namespace wearlock::sim {
namespace {

constexpr char kGrammar[] = "FaultPlan";

double ParseProbability(const std::string& entry, const std::string& text) {
  const double p = ParseSpecNumber(kGrammar, entry, text);
  if (p < 0.0 || p > 1.0) {
    throw std::invalid_argument("FaultPlan: probability out of [0,1] in '" +
                                entry + "'");
  }
  return p;
}

}  // namespace

std::string ToString(FaultKind kind) {
  switch (kind) {
    case FaultKind::kMessageDrop: return "message-drop";
    case FaultKind::kMessageDuplicate: return "message-duplicate";
    case FaultKind::kDelaySpike: return "delay-spike";
    case FaultKind::kLinkFlap: return "link-flap";
    case FaultKind::kLinkRecover: return "link-recover";
    case FaultKind::kRecordingTruncate: return "recording-truncate";
    case FaultKind::kRecordingClip: return "recording-clip";
    case FaultKind::kRecordingDrop: return "recording-drop";
  }
  return "?";
}

bool FaultPlan::empty() const {
  return message_drop_p == 0.0 && message_dup_p == 0.0 &&
         delay_spike_p == 0.0 && flap_stage.empty() &&
         recording_truncate_keep >= 1.0 && recording_clip_level == 0.0 &&
         recording_drop_p == 0.0;
}

FaultPlan FaultPlan::Parse(const std::string& spec) {
  FaultPlan plan;
  plan.spec = spec;
  std::size_t pos = 0;
  while (pos <= spec.size()) {
    const std::size_t comma = std::min(spec.find(',', pos), spec.size());
    const std::string entry = spec.substr(pos, comma - pos);
    pos = comma + 1;
    if (entry.empty()) continue;

    if (entry.rfind("flap@", 0) == 0) {
      std::string stage = entry.substr(5);
      const std::size_t colon = stage.find(':');
      if (colon != std::string::npos) {
        plan.flap_down_ms =
            ParseSpecNumber(kGrammar, entry, stage.substr(colon + 1));
        if (plan.flap_down_ms < 0.0) {
          throw std::invalid_argument("FaultPlan: negative outage in '" +
                                      entry + "'");
        }
        stage = stage.substr(0, colon);
      }
      if (stage.empty()) {
        throw std::invalid_argument("FaultPlan: empty stage in '" + entry +
                                    "'");
      }
      plan.flap_stage = stage;
      continue;
    }

    const std::size_t eq = entry.find('=');
    if (eq == std::string::npos) {
      throw std::invalid_argument("FaultPlan: expected key=value or "
                                  "flap@stage, got '" + entry + "'");
    }
    const std::string key = entry.substr(0, eq);
    const std::string value = entry.substr(eq + 1);
    if (key == "drop") {
      plan.message_drop_p = ParseProbability(entry, value);
    } else if (key == "dup") {
      plan.message_dup_p = ParseProbability(entry, value);
    } else if (key == "spike") {
      const std::size_t x = value.find('x');
      if (x != std::string::npos) {
        plan.delay_spike_p = ParseProbability(entry, value.substr(0, x));
        plan.delay_spike_mult =
            ParseSpecNumber(kGrammar, entry, value.substr(x + 1));
        if (plan.delay_spike_mult < 1.0) {
          throw std::invalid_argument(
              "FaultPlan: spike multiplier must be >= 1 in '" + entry + "'");
        }
      } else {
        plan.delay_spike_p = ParseProbability(entry, value);
      }
    } else if (key == "trunc") {
      plan.recording_truncate_keep = ParseSpecNumber(kGrammar, entry, value);
      if (plan.recording_truncate_keep <= 0.0 ||
          plan.recording_truncate_keep > 1.0) {
        throw std::invalid_argument(
            "FaultPlan: trunc keep-fraction out of (0,1] in '" + entry + "'");
      }
    } else if (key == "clip") {
      plan.recording_clip_level = ParseSpecNumber(kGrammar, entry, value);
      if (plan.recording_clip_level <= 0.0) {
        throw std::invalid_argument("FaultPlan: clip level must be > 0 in '" +
                                    entry + "'");
      }
    } else if (key == "recdrop") {
      plan.recording_drop_p = ParseProbability(entry, value);
    } else {
      throw std::invalid_argument("FaultPlan: unknown key '" + key + "'");
    }
  }
  return plan;
}

std::string FaultTraceJsonl(const std::vector<FaultEvent>& events) {
  std::string out;
  for (const FaultEvent& e : events) {
    out += "{\"at_ms\":" + obs::JsonNumber(e.at_ms) + ",\"fault\":\"" +
           obs::JsonEscape(ToString(e.kind)) + "\",\"stage\":\"" +
           obs::JsonEscape(e.stage) + "\",\"value\":" +
           obs::JsonNumber(e.value) + "}\n";
  }
  return out;
}

FaultInjector::FaultInjector(FaultPlan plan, Rng rng, VirtualClock* clock)
    : plan_(std::move(plan)), rng_(std::move(rng)), clock_(clock) {
  if (clock_ == nullptr) {
    throw std::invalid_argument("FaultInjector: null clock");
  }
}

void FaultInjector::Record(FaultKind kind, const std::string& stage,
                           double value) {
  events_.push_back({kind, stage, clock_->now(), value});
  WL_COUNT("faults.injected." + ToString(kind));
}

bool FaultInjector::ShouldFlap(const std::string& stage) {
  if (flap_fired_ || plan_.flap_stage.empty()) return false;
  return plan_.flap_stage == "any" || plan_.flap_stage == stage;
}

void FaultInjector::MaybeReconnect(WirelessLink& link) {
  if (!flap_down_) return;
  if (clock_->now() + 1e-9 < reconnect_at_ms_) return;
  flap_down_ = false;
  link.set_connected(true);
  Record(FaultKind::kLinkRecover, "link", 0.0);
}

FaultInjector::SendResult FaultInjector::SendMessage(WirelessLink& link,
                                                     const std::string& stage) {
  MaybeReconnect(link);
  if (ShouldFlap(stage)) {
    flap_fired_ = true;
    flap_down_ = true;
    reconnect_at_ms_ = clock_->now() + plan_.flap_down_ms;
    link.set_connected(false);
    Record(FaultKind::kLinkFlap, stage, plan_.flap_down_ms);
    return {SendStatus::kLinkDown};
  }
  const auto delay = link.TrySendMessageDelay();
  if (!delay) return {SendStatus::kLinkDown};
  // Fixed draw order (drop, spike, dup) keeps the stream replayable.
  if (plan_.message_drop_p > 0.0 && rng_.Chance(plan_.message_drop_p)) {
    Record(FaultKind::kMessageDrop, stage, 0.0);
    return {SendStatus::kDropped};
  }
  SendResult result{SendStatus::kDelivered, *delay, false};
  if (plan_.delay_spike_p > 0.0 && rng_.Chance(plan_.delay_spike_p)) {
    result.delay_ms *= plan_.delay_spike_mult;
    Record(FaultKind::kDelaySpike, stage, result.delay_ms);
  }
  if (plan_.message_dup_p > 0.0 && rng_.Chance(plan_.message_dup_p)) {
    result.duplicated = true;
    Record(FaultKind::kMessageDuplicate, stage, 0.0);
  }
  return result;
}

FaultInjector::SendResult FaultInjector::SendFile(WirelessLink& link,
                                                  std::size_t bytes,
                                                  const std::string& stage) {
  MaybeReconnect(link);
  if (ShouldFlap(stage)) {
    flap_fired_ = true;
    flap_down_ = true;
    reconnect_at_ms_ = clock_->now() + plan_.flap_down_ms;
    link.set_connected(false);
    Record(FaultKind::kLinkFlap, stage, plan_.flap_down_ms);
    return {SendStatus::kLinkDown};
  }
  const auto delay = link.TrySendFileDelay(bytes);
  if (!delay) return {SendStatus::kLinkDown};
  if (plan_.message_drop_p > 0.0 && rng_.Chance(plan_.message_drop_p)) {
    Record(FaultKind::kMessageDrop, stage, 0.0);
    return {SendStatus::kDropped};
  }
  SendResult result{SendStatus::kDelivered, *delay, false};
  if (plan_.delay_spike_p > 0.0 && rng_.Chance(plan_.delay_spike_p)) {
    result.delay_ms *= plan_.delay_spike_mult;
    Record(FaultKind::kDelaySpike, stage, result.delay_ms);
  }
  if (plan_.message_dup_p > 0.0 && rng_.Chance(plan_.message_dup_p)) {
    result.duplicated = true;
    Record(FaultKind::kMessageDuplicate, stage, 0.0);
  }
  return result;
}

bool FaultInjector::MutateRecording(const std::string& stage,
                                    std::vector<double>* recording) {
  if (recording == nullptr || recording->empty()) return false;
  if (plan_.recording_drop_p > 0.0 && rng_.Chance(plan_.recording_drop_p)) {
    recording->clear();
    Record(FaultKind::kRecordingDrop, stage, 0.0);
    return true;
  }
  if (plan_.recording_truncate_keep < 1.0) {
    const std::size_t keep = static_cast<std::size_t>(
        static_cast<double>(recording->size()) * plan_.recording_truncate_keep);
    recording->resize(keep);
    Record(FaultKind::kRecordingTruncate, stage,
           static_cast<double>(keep));
    if (recording->empty()) return true;
  }
  if (plan_.recording_clip_level > 0.0) {
    const double limit = plan_.recording_clip_level;
    for (double& s : *recording) s = std::clamp(s, -limit, limit);
    Record(FaultKind::kRecordingClip, stage, limit);
  }
  return false;
}

}  // namespace wearlock::sim
