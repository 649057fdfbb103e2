// Run a complete WearLock unlock session from the command line and print
// the protocol trace - the fastest way to explore how environment,
// distance, grip and configuration interact.
//
// Usage:
//   wearlock_unlock_cli [--env quiet|office|classroom|cafe|grocery]
//                       [--distance 0.3] [--same-hand] [--different-body]
//                       [--different-room] [--no-link] [--config 1|2|3]
//                       [--activity sitting|walking|running]
//                       [--attempts N] [--seed S] [--retries R]
//                       [--faults SPEC] [--attack SPEC]
//                       [--impairments SPEC]
//                       [--trace out.json] [--metrics out.json]
//                       [--fault-trace out.jsonl]
//                       [--attack-trace out.jsonl]
//                       [--channel-trace out.jsonl]
//                       [--session-log out.jsonl] [--verbose]
//
// The --attempts presses all run on one session, so OTP counters,
// keyguard state and the virtual clock carry from each attempt into the
// next. Campaigns of independent sessions belong to wearlock_fleet.
//
// --trace writes a Chrome trace_event JSON of every span the attempts
// produced (virtual-time timestamps; open in chrome://tracing or
// https://ui.perfetto.dev). --metrics dumps the session's metrics
// registry as JSON. --verbose routes library diagnostics to stderr.
//
// --faults injects deterministic faults (sim::FaultPlan::Parse grammar,
// e.g. "drop=0.3,flap@rts,trunc=0.5") and arms the resilience policy;
// with a fixed --seed this replays a CI fault-matrix cell exactly.
// --fault-trace writes the injected-fault event log as JSONL (the
// committed-golden format).
//
// --attack subjects the session to a channel-level attacker
// (sim::AttackSpec grammar: KIND[@DISTANCE][:key=value]..., KIND in
// eavesdrop|replay|relay|probe|overshadow, e.g.
// "relay@3.0:delay=3:gain=40") and arms the full defense suite
// including acoustic distance bounding. Each attempt runs one complete
// attack scenario (seeded --seed + attempt index); the exit code flips:
// 0 means the defense held every attempt (no false unlock), 1 means the
// attacker won one. --attack-trace writes the adversary's event log as
// JSONL (the committed-golden format in tests/golden/; the
// cli_golden_replay test replays it). See docs/security.md for the
// threat model.
//
// --impairments arms deterministic channel impairments on the scene
// (audio::ImpairmentPlan grammar, e.g. "sro=50,reverb=300,pairs=2") and
// lets the phone's channel hardening (drift tracking, acoustic MAC,
// robust degrade ladder) fight them; see docs/channels.md.
// --channel-trace writes the channel event log - impairment arming plus
// the receiver's drift/MAC/degrade decisions - as JSONL (the
// committed-golden format).
//
// --session-log writes one telemetry SessionRecord per attempt as JSONL
// (the wearlock_telemetry CLI's input format).
//
// Any malformed or out-of-range value - an unknown --env, --config or
// --activity name, a number with trailing junk, a --distance inside the
// propagation model's reference distance, fewer than one attempt - and
// any unknown flag exits 2 with a usage message.
#include <cmath>
#include <cstdio>
#include <fstream>
#include <stdexcept>
#include <string>

#include "audio/impairments.h"
#include "audio/propagation.h"
#include "cli_args.h"
#include "obs/log.h"
#include "protocol/attack_agents.h"
#include "protocol/session.h"
#include "sim/adversary.h"

namespace {
using namespace wearlock;
using namespace wearlock::protocol;

int Usage() {
  std::fprintf(
      stderr,
      "usage: wearlock_unlock_cli [--env quiet|office|classroom|cafe|grocery]\n"
      "                           [--distance M] [--same-hand]\n"
      "                           [--different-body] [--different-room]\n"
      "                           [--no-link] [--config 1|2|3]\n"
      "                           [--activity sitting|walking|running]\n"
      "                           [--attempts N] [--seed S] [--retries R]\n"
      "                           [--faults SPEC] [--attack SPEC]\n"
      "                           [--impairments SPEC]\n"
      "                           [--trace out.json] [--metrics out.json]\n"
      "                           [--fault-trace out.jsonl]\n"
      "                           [--attack-trace out.jsonl]\n"
      "                           [--channel-trace out.jsonl]\n"
      "                           [--session-log out.jsonl] [--verbose]\n");
  return 2;
}

bool ParseActivity(const std::string& s, sensors::Activity* out) {
  if (s == "sitting") { *out = sensors::Activity::kSitting; return true; }
  if (s == "walking") { *out = sensors::Activity::kWalking; return true; }
  if (s == "running") { *out = sensors::Activity::kRunning; return true; }
  return false;
}

std::string FormatReport(int attempt, const UnlockReport& report) {
  std::string out =
      "attempt " + std::to_string(attempt + 1) + ": " + ToString(report.outcome);
  if (report.mode) {
    char detail[96];
    std::snprintf(detail, sizeof(detail), " (%s, token BER %.3f, %.0f ms)",
                  ToString(*report.mode).c_str(), report.token_ber,
                  report.timings.total_ms());
    out += detail;
  }
  out += "\n";
  for (const auto& event : report.trace) {
    char line[256];
    std::snprintf(line, sizeof(line), "  [%7.0f ms] %-14s %s\n", event.at_ms,
                  event.step.c_str(), event.detail.c_str());
    out += line;
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  ScenarioConfig config = ScenarioConfig::Config1();
  config.scene.distance_m = 0.3;
  int attempts = 1;
  int retries = 0;
  std::string trace_path;
  std::string metrics_path;
  std::string fault_trace_path;
  std::string attack_trace_path;
  std::string channel_trace_path;
  std::string session_log_path;
  std::string attack_spec_str;
  std::string impairment_spec_str;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    std::string value;
    auto next = [&]() -> const std::string& {
      value = i + 1 < argc ? argv[++i] : "";
      return value;
    };
    auto bad_value = [&] {
      std::fprintf(stderr, "bad %s value: '%s'\n", arg.c_str(), value.c_str());
      return Usage();
    };
    if (arg == "--env") {
      if (!cli::ParseEnvironment(next(), &config.scene.environment)) {
        return bad_value();
      }
    } else if (arg == "--distance") {
      // Inside the reference distance the propagation model is undefined.
      double d = 0.0;
      if (!cli::ParseNumber(next(), &d) || !std::isfinite(d) ||
          d < audio::kReferenceDistanceM) {
        return bad_value();
      }
      config.scene.distance_m = d;
    } else if (arg == "--same-hand") {
      config.scene.distance_m = 0.15;
      config.scene.propagation = audio::PropagationSpec::BodyBlockedNlos();
    } else if (arg == "--different-body") {
      config.same_body = false;
    } else if (arg == "--different-room") {
      config.scene.co_located = false;
      config.same_body = false;
    } else if (arg == "--no-link") {
      config.wireless_connected = false;
    } else if (arg == "--config") {
      int n = 0;
      if (!cli::ParseNumber(next(), &n) || n < 1 || n > 3) return bad_value();
      if (n == 2) config = ScenarioConfig::Config2();
      if (n == 3) config = ScenarioConfig::Config3();
    } else if (arg == "--activity") {
      if (!ParseActivity(next(), &config.activity)) return bad_value();
    } else if (arg == "--attempts") {
      if (!cli::ParseNumber(next(), &attempts) || attempts < 1) {
        return bad_value();
      }
    } else if (arg == "--retries") {
      if (!cli::ParseNumber(next(), &retries) || retries < 0) {
        return bad_value();
      }
    } else if (arg == "--session-log") {
      session_log_path = next();
    } else if (arg == "--seed") {
      if (!cli::ParseNumber(next(), &config.seed)) return bad_value();
    } else if (arg == "--faults") {
      try {
        config.faults = sim::FaultPlan::Parse(next());
      } catch (const std::invalid_argument& error) {
        std::fprintf(stderr, "bad --faults spec: %s\n", error.what());
        return Usage();
      }
    } else if (arg == "--attack") {
      attack_spec_str = next();
      try {
        // Validate now for fast-fail flag feedback; the spec is applied
        // after the loop so a later --config reset cannot drop it.
        (void)sim::AttackSpec::Parse(attack_spec_str);
      } catch (const std::invalid_argument& error) {
        std::fprintf(stderr, "bad --attack spec: %s\n", error.what());
        return Usage();
      }
    } else if (arg == "--impairments") {
      impairment_spec_str = next();
      try {
        // Validate now for fast-fail flag feedback; the plan is applied
        // after the loop so a later --config reset cannot drop it.
        const audio::ImpairmentPlan parsed =
            audio::ImpairmentPlan::Parse(impairment_spec_str);
        (void)parsed;
      } catch (const std::invalid_argument& error) {
        std::fprintf(stderr, "bad --impairments spec: %s\n", error.what());
        return Usage();
      }
    } else if (arg == "--channel-trace") {
      channel_trace_path = next();
    } else if (arg == "--attack-trace") {
      attack_trace_path = next();
    } else if (arg == "--fault-trace") {
      fault_trace_path = next();
    } else if (arg == "--trace") {
      trace_path = next();
    } else if (arg == "--metrics") {
      metrics_path = next();
    } else if (arg == "--verbose") {
      obs::SetLogSink(obs::StderrLogSink());
      obs::SetLogThreshold(obs::LogLevel::kDebug);
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", arg.c_str());
      return Usage();
    }
  }

  if (attack_trace_path.empty() == false && attack_spec_str.empty()) {
    std::fprintf(stderr, "--attack-trace needs --attack\n");
    return 2;
  }
  if (channel_trace_path.empty() == false && impairment_spec_str.empty()) {
    std::fprintf(stderr, "--channel-trace needs --impairments\n");
    return 2;
  }
  if (!impairment_spec_str.empty()) {
    config.impairments = audio::ImpairmentPlan::Parse(impairment_spec_str);
  }

  int unlocked = 0;
  std::string session_log;
  if (!attack_spec_str.empty()) {
    // Attack mode: each attempt is one complete attack scenario run by
    // the agent for the spec (which orchestrates its own victim
    // sessions), with the full defense suite armed. The exit code
    // reports the DEFENSE's outcome, not the victim's.
    config.attack = sim::AttackSpec::Parse(attack_spec_str);
    config.phone.enable_distance_bounding = true;
    if (!trace_path.empty() || !metrics_path.empty() ||
        !fault_trace_path.empty() || !channel_trace_path.empty()) {
      std::fprintf(stderr,
                   "--trace/--metrics/--fault-trace/--channel-trace "
                   "are ignored in attack mode\n");
    }
    int breaches = 0;
    std::string attack_trace;
    for (int a = 0; a < attempts; ++a) {
      ScenarioConfig attempt_config = config;
      attempt_config.seed = config.seed + static_cast<std::uint64_t>(a);
      const AttackReport report =
          RunAttackScenario(attempt_config, attempt_config.attack);
      for (const obs::SessionRecord& record : report.records) {
        session_log += record.ToJsonl();
        session_log += '\n';
      }
      attack_trace += sim::AttackTraceJsonl(report.events);
      if (report.false_unlock) ++breaches;
      char ranging[32] = "-";
      if (report.ranging_distance_m) {
        std::snprintf(ranging, sizeof(ranging), "%.2fm",
                      *report.ranging_distance_m);
      }
      std::printf(
          "attempt %d: victim %s | attacker false_unlock=%d "
          "token_recovered=%d token_ber=%.3f ranging=%s\n",
          a + 1, ToString(report.victim_outcome).c_str(),
          report.false_unlock ? 1 : 0, report.token_recovered ? 1 : 0,
          report.attacker_token_ber, ranging);
    }
    if (!session_log_path.empty()) {
      std::ofstream os(session_log_path);
      if (!os) {
        std::fprintf(stderr, "cannot open %s\n", session_log_path.c_str());
        return 2;
      }
      os << session_log;
    }
    if (!attack_trace_path.empty()) {
      std::ofstream os(attack_trace_path);
      if (!os) {
        std::fprintf(stderr, "cannot open %s\n", attack_trace_path.c_str());
        return 2;
      }
      os << attack_trace;
    }
    std::printf("defense held %d/%d against %s\n", attempts - breaches,
                attempts, config.attack.spec.c_str());
    return breaches == 0 ? 0 : 1;
  }
  UnlockSession session(config);
  session.SetRecordSink([&session_log](const obs::SessionRecord& record) {
    session_log += record.ToJsonl();
    session_log += '\n';
  });
  for (int a = 0; a < attempts; ++a) {
    session.keyguard().Relock();
    if (!session.keyguard().CanAttemptWearlock()) {
      session.keyguard().UnlockWithCredential();
      session.keyguard().Relock();
    }
    const UnlockReport report = session.AttemptWithRetries(retries);
    if (report.unlocked) ++unlocked;
    std::fputs(FormatReport(a, report).c_str(), stdout);
  }
  if (!session_log_path.empty()) {
    std::ofstream os(session_log_path);
    if (!os) {
      std::fprintf(stderr, "cannot open %s\n", session_log_path.c_str());
      return 2;
    }
    os << session_log;
  }
  if (!trace_path.empty()) {
    std::ofstream os(trace_path);
    if (!os) {
      std::fprintf(stderr, "cannot open %s\n", trace_path.c_str());
      return 2;
    }
    session.tracer().WriteChromeTrace(os);
    std::printf("wrote %zu spans to %s\n", session.tracer().spans().size(),
                trace_path.c_str());
  }
  if (!metrics_path.empty()) {
    std::ofstream os(metrics_path);
    if (!os) {
      std::fprintf(stderr, "cannot open %s\n", metrics_path.c_str());
      return 2;
    }
    session.metrics().WriteJson(os);
    std::printf("wrote metrics to %s\n", metrics_path.c_str());
  }
  if (!fault_trace_path.empty()) {
    if (session.faults() == nullptr) {
      std::fprintf(stderr, "--fault-trace needs --faults\n");
      return 2;
    }
    std::ofstream os(fault_trace_path);
    if (!os) {
      std::fprintf(stderr, "cannot open %s\n", fault_trace_path.c_str());
      return 2;
    }
    os << sim::FaultTraceJsonl(session.faults()->events());
    std::printf("wrote %zu fault events to %s\n",
                session.faults()->events().size(), fault_trace_path.c_str());
  }
  if (!channel_trace_path.empty()) {
    // Guarded above: --channel-trace without --impairments already
    // exited, so the scene is armed here.
    const audio::ChannelImpairments* chan = session.scene().impairments();
    std::ofstream os(channel_trace_path);
    if (!os) {
      std::fprintf(stderr, "cannot open %s\n", channel_trace_path.c_str());
      return 2;
    }
    os << audio::ChannelTraceJsonl(chan->events());
    std::printf("wrote %zu channel events to %s\n", chan->events().size(),
                channel_trace_path.c_str());
  }
  std::printf("unlocked %d/%d\n", unlocked, attempts);
  return unlocked > 0 ? 0 : 1;
}
