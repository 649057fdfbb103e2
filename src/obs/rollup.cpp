#include "obs/rollup.h"

#include <cmath>
#include <cstdio>
#include <sstream>
#include <utility>

namespace wearlock::obs {

WilsonInterval WilsonScore(std::uint64_t successes, std::uint64_t trials,
                           double z) {
  WilsonInterval interval;
  if (trials == 0) return interval;  // vacuous {0, 0, 1}
  const double n = static_cast<double>(trials);
  const double p = static_cast<double>(successes) / n;
  const double z2 = z * z;
  const double denom = 1.0 + z2 / n;
  const double center = (p + z2 / (2.0 * n)) / denom;
  const double half =
      z / denom * std::sqrt(p * (1.0 - p) / n + z2 / (4.0 * n * n));
  interval.rate = p;
  interval.low = std::max(0.0, center - half);
  interval.high = std::min(1.0, center + half);
  return interval;
}

std::string DefaultCohortKey(const SessionRecord& record) {
  constexpr double kBin = 0.25;
  const double lo =
      std::floor(std::max(0.0, record.distance_m) / kBin) * kBin;
  char dist[40];
  std::snprintf(dist, sizeof(dist), "%.2f-%.2f", lo, lo + kBin);
  std::string key = "config=" + record.config + ";dist=" + dist +
                    ";env=" + record.environment +
                    ";faults=" + record.fault_spec;
  // The attack axis only appears when armed, so unattacked cohorts keep
  // their historical keys (the committed golden rollup pins them).
  if (!record.attack_spec.empty()) key += ";attack=" + record.attack_spec;
  // Same contract for the channel axis: clean-channel cohorts keep
  // their historical keys, impaired cells get their own cohorts.
  if (!record.impairment_spec.empty()) {
    key += ";chan=" + record.impairment_spec;
  }
  return key;
}

void TelemetrySink::Cohort::Merge(const Cohort& other) {
  sessions += other.sessions;
  genuine += other.genuine;
  impostor += other.impostor;
  genuine_unlocked += other.genuine_unlocked;
  false_accepts += other.false_accepts;
  for (const auto& [name, count] : other.outcomes) outcomes[name] += count;
  retries += other.retries;
  chase_decisions += other.chase_decisions;
  degrades += other.degrades;
  fault_events += other.fault_events;
  for (const auto& [name, sketch] : other.stages) {
    auto it = stages.find(name);
    if (it == stages.end()) {
      stages.emplace(name, sketch);
    } else {
      it->second.Merge(sketch);
    }
  }
}

void TelemetrySink::Ingest(const SessionRecord& record) {
  Cohort& cohort = cohorts_[DefaultCohortKey(record)];
  cohort.sessions += 1;
  if (record.same_body) {
    cohort.genuine += 1;
    if (record.unlocked) cohort.genuine_unlocked += 1;
  } else {
    cohort.impostor += 1;
    if (record.unlocked || record.false_accept) cohort.false_accepts += 1;
  }
  cohort.outcomes[record.outcome] += 1;
  cohort.retries += record.retries;
  cohort.chase_decisions += record.chase_decisions;
  cohort.degrades += record.degrades;
  cohort.fault_events += record.fault_events;

  auto observe = [&cohort](const char* stage, double v) {
    auto it = cohort.stages.find(stage);
    if (it == cohort.stages.end()) {
      it = cohort.stages.emplace(stage, Sketch()).first;
    }
    it->second.Observe(v);
  };
  observe("total", record.total_ms);
  observe("phase1_audio", record.phase1_audio_ms);
  observe("phase1_comm", record.phase1_comm_ms);
  observe("phase1_compute", record.phase1_compute_ms);
  observe("phase2_audio", record.phase2_audio_ms);
  observe("phase2_comm", record.phase2_comm_ms);
  observe("phase2_compute", record.phase2_compute_ms);
  observe("pilot_snr_db", record.pilot_snr_db);
  observe("ebn0_db", record.ebn0_db);
  observe("token_ber", record.token_ber);
}

std::size_t TelemetrySink::IngestJsonl(const std::string& text,
                                       std::string* error) {
  std::size_t ingested = 0;
  std::size_t line_no = 0;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.find_first_not_of(" \t\r") == std::string::npos) continue;
    std::string reason;
    const std::optional<SessionRecord> record =
        SessionRecord::FromJsonl(line, &reason);
    if (!record.has_value()) {
      if (error != nullptr) {
        *error = "line " + std::to_string(line_no) + ": " + reason;
      }
      return ingested;
    }
    Ingest(*record);
    ++ingested;
  }
  return ingested;
}

void TelemetrySink::Merge(const TelemetrySink& other) {
  for (const auto& [key, cohort] : other.cohorts_) {
    auto it = cohorts_.find(key);
    if (it == cohorts_.end()) {
      cohorts_.emplace(key, cohort);
    } else {
      it->second.Merge(cohort);
    }
  }
}

void TelemetrySink::WriteJson(std::ostream& os) const {
  // Built piecewise: the `"\"" + JsonEscape(s) + "\""` chain trips
  // GCC 12's -Wrestrict false positive at -O2.
  auto str = [](const std::string& s) {
    std::string quoted(1, '"');
    quoted += JsonEscape(s);
    quoted += '"';
    return quoted;
  };
  auto interval = [&os](const char* name, const WilsonInterval& w) {
    os << "\"" << name << "\":{\"rate\":" << JsonNumber(w.rate)
       << ",\"low\":" << JsonNumber(w.low)
       << ",\"high\":" << JsonNumber(w.high) << "}";
  };
  os << "{\"schema\":" << str(kRollupSchema) << ",\"cohorts\":{";
  bool first_cohort = true;
  for (const auto& [key, cohort] : cohorts_) {
    os << (first_cohort ? "" : ",") << str(key) << ":{"
       << "\"sessions\":" << cohort.sessions
       << ",\"genuine\":" << cohort.genuine
       << ",\"impostor\":" << cohort.impostor
       << ",\"genuine_unlocked\":" << cohort.genuine_unlocked
       << ",\"false_accepts\":" << cohort.false_accepts << ",\"outcomes\":{";
    bool first = true;
    for (const auto& [name, count] : cohort.outcomes) {
      os << (first ? "" : ",") << str(name) << ":" << count;
      first = false;
    }
    os << "},\"retries\":" << cohort.retries
       << ",\"chase_decisions\":" << cohort.chase_decisions
       << ",\"degrades\":" << cohort.degrades
       << ",\"fault_events\":" << cohort.fault_events << ",";
    interval("unlock_rate", cohort.UnlockRate());
    os << ",";
    interval("false_accept_rate", cohort.FalseAcceptRate());
    os << ",\"stages\":{";
    first = true;
    for (const auto& [name, sketch] : cohort.stages) {
      os << (first ? "" : ",") << str(name) << ":{\"sketch\":";
      sketch.WriteJson(os);
      os << ",\"p50\":" << JsonNumber(sketch.Quantile(0.50))
         << ",\"p90\":" << JsonNumber(sketch.Quantile(0.90))
         << ",\"p99\":" << JsonNumber(sketch.Quantile(0.99)) << "}";
      first = false;
    }
    os << "}}";
    first_cohort = false;
  }
  os << "}}";
}

bool TelemetrySink::MergeJson(const JsonValue& v, std::string* error) {
  auto fail = [error](const std::string& what) {
    if (error != nullptr) *error = what;
    return false;
  };
  if (!v.is_object()) return fail("rollup is not a JSON object");
  if (const JsonValue* schema = v.Find("schema");
      schema == nullptr || schema->StringOr("") != kRollupSchema) {
    return fail("missing or unsupported rollup schema");
  }
  const JsonValue* cohorts = v.Find("cohorts");
  if (cohorts == nullptr || !cohorts->is_object()) {
    return fail("rollup has no cohorts object");
  }
  auto count = [](const JsonValue& c, const char* key) {
    const JsonValue* f = c.Find(key);
    return static_cast<std::uint64_t>(f != nullptr ? f->NumberOr(0.0) : 0.0);
  };
  for (const auto& [key, c] : cohorts->object) {
    if (!c.is_object()) return fail("cohort " + key + " is not an object");
    Cohort parsed;
    parsed.sessions = count(c, "sessions");
    parsed.genuine = count(c, "genuine");
    parsed.impostor = count(c, "impostor");
    parsed.genuine_unlocked = count(c, "genuine_unlocked");
    parsed.false_accepts = count(c, "false_accepts");
    if (const JsonValue* outcomes = c.Find("outcomes");
        outcomes != nullptr && outcomes->is_object()) {
      for (const auto& [name, n] : outcomes->object) {
        parsed.outcomes[name] +=
            static_cast<std::uint64_t>(n.NumberOr(0.0));
      }
    }
    parsed.retries = static_cast<std::int64_t>(count(c, "retries"));
    parsed.chase_decisions =
        static_cast<std::int64_t>(count(c, "chase_decisions"));
    parsed.degrades = static_cast<std::int64_t>(count(c, "degrades"));
    parsed.fault_events = static_cast<std::int64_t>(count(c, "fault_events"));
    if (const JsonValue* stages = c.Find("stages");
        stages != nullptr && stages->is_object()) {
      for (const auto& [name, stage] : stages->object) {
        const JsonValue* sk = stage.Find("sketch");
        if (sk == nullptr) {
          return fail("cohort " + key + " stage " + name + " has no sketch");
        }
        std::string reason;
        std::optional<Sketch> sketch = Sketch::FromJson(*sk, &reason);
        if (!sketch.has_value()) {
          return fail("cohort " + key + " stage " + name + ": " + reason);
        }
        parsed.stages.emplace(name, std::move(*sketch));
      }
    }
    auto it = cohorts_.find(key);
    if (it == cohorts_.end()) {
      cohorts_.emplace(key, std::move(parsed));
    } else {
      it->second.Merge(parsed);
    }
  }
  return true;
}

}  // namespace wearlock::obs
