// Fleet campaign CLI: sweep a population of unlock sessions over the
// cohort axes (config x environment x distance x faults x attacks) on
// the event-driven multiplexer and write the cohort rollup JSON
// (docs/architecture.md, "Fleet campaigns").
//
// Usage:
//   wearlock_fleet [--sessions N] [--seed S] [--threads T] [--retries R]
//                  [--configs 1,2,3] [--envs quiet,office]
//                  [--distances 0.3,0.6] [--impostor-every N]
//                  [--faults SPEC|SPEC...] [--attacks SPEC|SPEC...]
//                  [--impairments SPEC|SPEC...] [--shard-size N]
//                  [--out rollup.json] [--summary]
//
// Every session's scenario and seed derive from the global session
// index before sharding, so the rollup bytes are identical at any
// --threads and --shard-size - the property fleet_determinism_test pins
// against tests/golden/fleet_rollup.json. --faults/--attacks/
// --impairments take '|'-separated spec lists (specs contain commas);
// an empty element means "none", and cells cross-product over every
// element. Every element is validated up front, as is every distance
// (none inside the propagation model's reference distance): a malformed
// or out-of-range value exits 2 with a usage message. Contending
// WearLock pairs are an impairment, `pairs=N` (docs/channels.md).
//
// --out writes the rollup document ("-" or unset = stdout). --summary
// prints per-cohort unlock/false-accept Wilson CIs and campaign
// throughput (sessions/sec, wall-clock) to stderr; timing lives on
// stderr so stdout stays byte-stable for CI diffs.
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "audio/impairments.h"
#include "audio/propagation.h"
#include "cli_args.h"
#include "obs/instrument.h"
#include "protocol/fleet.h"
#include "sim/adversary.h"
#include "sim/executor.h"
#include "sim/faults.h"

namespace {
using namespace wearlock;
using protocol::CampaignResult;
using protocol::CampaignSpec;

int Usage() {
  std::fprintf(
      stderr,
      "usage: wearlock_fleet [--sessions N] [--seed S] [--threads T]\n"
      "                      [--retries R] [--configs 1,2,3]\n"
      "                      [--envs quiet,office] [--distances 0.3,0.6]\n"
      "                      [--impostor-every N] [--faults SPEC|SPEC...]\n"
      "                      [--attacks SPEC|SPEC...]\n"
      "                      [--impairments SPEC|SPEC...]\n"
      "                      [--shard-size N] [--out rollup.json]\n"
      "                      [--summary]\n");
  return 2;
}

std::vector<std::string> Split(const std::string& s, char sep) {
  std::vector<std::string> out;
  std::string item;
  std::istringstream in(s);
  while (std::getline(in, item, sep)) out.push_back(item);
  if (out.empty()) out.push_back("");
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  CampaignSpec spec;
  spec.sessions = 100000;
  std::size_t threads = 0;
  std::string out_path;
  bool summary = false;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> std::string {
      return i + 1 < argc ? std::string(argv[++i]) : std::string();
    };
    std::uint64_t u = 0;
    if (arg == "--sessions") {
      if (!cli::ParseNumber(next(), &u)) return Usage();
      spec.sessions = static_cast<std::size_t>(u);
    } else if (arg == "--seed") {
      if (!cli::ParseNumber(next(), &spec.seed)) return Usage();
    } else if (arg == "--threads") {
      if (!cli::ParseNumber(next(), &u) ||
          u > sim::ParallelExecutor::kMaxThreads) {
        return Usage();
      }
      threads = static_cast<std::size_t>(u);
    } else if (arg == "--retries") {
      if (!cli::ParseNumber(next(), &spec.max_retries) ||
          spec.max_retries < 0) {
        return Usage();
      }
    } else if (arg == "--impostor-every") {
      if (!cli::ParseNumber(next(), &u)) return Usage();
      spec.impostor_every = static_cast<std::size_t>(u);
    } else if (arg == "--shard-size") {
      if (!cli::ParseNumber(next(), &u) || u == 0) return Usage();
      spec.sessions_per_shard = static_cast<std::size_t>(u);
    } else if (arg == "--configs") {
      spec.configs.clear();
      for (const std::string& item : Split(next(), ',')) {
        if (!cli::ParseNumber(item, &u) || u < 1 || u > 3) return Usage();
        spec.configs.push_back(static_cast<int>(u));
      }
    } else if (arg == "--envs") {
      spec.environments.clear();
      for (const std::string& item : Split(next(), ',')) {
        audio::Environment env = audio::Environment::kQuietRoom;
        if (!cli::ParseEnvironment(item, &env)) return Usage();
        spec.environments.push_back(env);
      }
    } else if (arg == "--distances") {
      spec.distances_m.clear();
      for (const std::string& item : Split(next(), ',')) {
        // Inside the reference distance the propagation model is
        // undefined.
        double d = 0.0;
        if (!cli::ParseNumber(item, &d) || !std::isfinite(d) ||
            d < audio::kReferenceDistanceM) {
          return Usage();
        }
        spec.distances_m.push_back(d);
      }
    } else if (arg == "--faults") {
      spec.fault_specs = Split(next(), '|');
    } else if (arg == "--attacks") {
      spec.attack_specs = Split(next(), '|');
    } else if (arg == "--impairments") {
      spec.impairment_specs = Split(next(), '|');
    } else if (arg == "--out") {
      out_path = next();
    } else if (arg == "--summary") {
      summary = true;
    } else {
      return Usage();
    }
  }
  if (spec.sessions == 0 || spec.configs.empty() ||
      spec.environments.empty() || spec.distances_m.empty() ||
      spec.fault_specs.empty() || spec.attack_specs.empty() ||
      spec.impairment_specs.empty()) {
    return Usage();
  }
  // Validate every spec element eagerly: a malformed spec should be a
  // usage error at the shell, not an exception mid-campaign on a worker
  // thread. Each parser throws std::invalid_argument on a bad element.
  auto valid = [](const char* flag, const std::vector<std::string>& specs,
                  auto parse) {
    for (const std::string& item : specs) {
      if (item.empty()) continue;
      try {
        (void)parse(item);
      } catch (const std::invalid_argument& e) {
        std::fprintf(stderr, "bad %s element \"%s\": %s\n", flag,
                     item.c_str(), e.what());
        return false;
      }
    }
    return true;
  };
  if (!valid("--faults", spec.fault_specs, sim::FaultPlan::Parse) ||
      !valid("--attacks", spec.attack_specs, sim::AttackSpec::Parse) ||
      !valid("--impairments", spec.impairment_specs,
             audio::ImpairmentPlan::Parse)) {
    return Usage();
  }

  // Wall clock for the stderr throughput line only.
  const obs::HostTimer timer;
  const CampaignResult result = protocol::RunCampaign(spec, threads);
  const double wall_ms = timer.ElapsedMs();

  std::ostringstream rollup;
  result.sink.WriteJson(rollup);
  if (out_path.empty() || out_path == "-") {
    std::cout << rollup.str();
  } else {
    std::ofstream out(out_path);
    if (!out) {
      std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
      return 2;
    }
    out << rollup.str();
  }

  if (summary) {
    std::fprintf(stderr,
                 "fleet: %zu sessions, %zu shards, %zu queue events\n",
                 result.sessions, result.shards, result.queue_events);
    std::fprintf(stderr, "fleet: %.0f ms wall, %.0f sessions/sec\n", wall_ms,
                 wall_ms > 0.0 ? 1000.0 * static_cast<double>(result.sessions) /
                                     wall_ms
                               : 0.0);
    for (const auto& [key, cohort] : result.sink.cohorts()) {
      const obs::WilsonInterval unlock = cohort.UnlockRate();
      const obs::WilsonInterval fa = cohort.FalseAcceptRate();
      std::fprintf(stderr,
                   "  %s: n=%llu unlock %.3f [%.3f, %.3f]"
                   " fa %.3f [%.3f, %.3f]\n",
                   key.c_str(),
                   static_cast<unsigned long long>(cohort.sessions),
                   unlock.rate, unlock.low, unlock.high, fa.rate, fa.low,
                   fa.high);
    }
  }
  return 0;
}
