// Fleet campaign engine: sweep whole populations of unlock sessions
// through the event-driven protocol machine and roll the results up
// into cohort telemetry (docs/architecture.md, "Fleet campaigns").
//
// A CampaignSpec is a declarative cross-product over the cohort axes
// (delay config x environment x distance x fault plan x attack), plus a
// session count and seed. Every session's full scenario - including its
// private seed - is a pure function of (spec, global index), decided
// BEFORE any sharding, so the same spec rolls up byte-identically at
// any thread count, shard size, or shard merge order:
//
//   * plain sessions in a shard are multiplexed on one sim::EventQueue
//     via UnlockSession::StartAsync - one thread, sessions_per_shard
//     attempts in flight at interleaved protocol stages;
//   * attacked cells run RunAttackScenario synchronously inside the
//     shard (an agent orchestrates multi-session flows of its own);
//   * shards fan across sim::ParallelExecutor workers and their
//     TelemetrySinks merge in index order (order-insensitive anyway).
//
// The wearlock_fleet CLI and bench/fleet_throughput.cpp are thin
// wrappers over RunCampaign.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "audio/noise.h"
#include "obs/rollup.h"
#include "protocol/session.h"

namespace wearlock::protocol {

/// Declarative sweep description. Cells are the cross product of the
/// axis vectors; session i lands in cell (i mod cells) and runs with
/// seed TaskSeed(seed, i), so adding sessions extends every cohort
/// uniformly without re-rolling earlier ones.
struct CampaignSpec {
  std::size_t sessions = 100000;
  std::uint64_t seed = 20260808;
  /// Retry budget per session (UnlockSession::StartAsync ladder).
  int max_retries = 0;
  /// Paper delay configurations to sweep (1..3 -> ScenarioConfig::ConfigN).
  std::vector<int> configs = {1, 2, 3};
  std::vector<audio::Environment> environments = {
      audio::Environment::kQuietRoom, audio::Environment::kOffice};
  std::vector<double> distances_m = {0.3, 0.6};
  /// Fault-plan specs (sim::FaultPlan grammar); "" = no faults.
  std::vector<std::string> fault_specs = {""};
  /// Attack specs (sim::AttackSpec grammar); "" = no attack.
  std::vector<std::string> attack_specs = {""};
  /// Channel-impairment specs (audio::ImpairmentPlan grammar); "" = a
  /// clean channel. Non-empty cells arm the scene's impairment pack and
  /// the phone's channel hardening exercises against it.
  std::vector<std::string> impairment_specs = {""};
  /// Every Nth session runs cross-body (impostor population for the
  /// false-accept CI); 0 disables impostors.
  std::size_t impostor_every = 10;
  /// Sessions multiplexed per event queue. Bounds shard memory: every
  /// in-flight coroutine frame holds its recordings (~hundreds of KB
  /// worst case), and a shard starts all its sessions at queue time 0.
  std::size_t sessions_per_shard = 128;

  /// Number of distinct cells (product of the axis sizes).
  std::size_t CellCount() const;
};

/// The fully-derived plan for one global session index: a pure
/// function of (spec, index) - never of sharding.
struct SessionPlan {
  ScenarioConfig scenario;
  /// Non-empty when this index lands in an attacked cell; the session
  /// then runs through RunAttackScenario.
  sim::AttackSpec attack;
};
SessionPlan PlanSession(const CampaignSpec& spec, std::size_t index);

/// Contiguous global-index range handled by one event queue.
struct ShardRange {
  std::size_t begin = 0;
  std::size_t end = 0;
  std::size_t size() const { return end - begin; }
};
std::vector<ShardRange> MakeShards(std::size_t sessions,
                                   std::size_t sessions_per_shard);

/// One shard's aggregates plus multiplexer diagnostics.
struct ShardResult {
  obs::TelemetrySink sink;
  std::size_t sessions = 0;
  /// Events the shard's queue ran (protocol slices + retry backoffs):
  /// the multiplexing depth diagnostic.
  std::size_t queue_events = 0;
};

/// Run the shard's sessions to completion on one private event queue.
ShardResult RunShard(const CampaignSpec& spec, ShardRange range);

struct CampaignResult {
  obs::TelemetrySink sink;
  std::size_t sessions = 0;
  std::size_t shards = 0;
  std::size_t queue_events = 0;
};

/// Run the whole campaign: shards fanned across `threads` workers
/// (0 = ParallelExecutor default), sinks merged in shard order.
CampaignResult RunCampaign(const CampaignSpec& spec, std::size_t threads = 0);

}  // namespace wearlock::protocol
