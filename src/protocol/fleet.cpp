#include "protocol/fleet.h"

#include <memory>
#include <utility>

#include "protocol/attack_agents.h"
#include "sim/event_queue.h"
#include "sim/executor.h"

namespace wearlock::protocol {
namespace {

ScenarioConfig BaseConfig(int config_id) {
  switch (config_id) {
    case 2: return ScenarioConfig::Config2();
    case 3: return ScenarioConfig::Config3();
    default: return ScenarioConfig::Config1();
  }
}

}  // namespace

std::size_t CampaignSpec::CellCount() const {
  return configs.size() * environments.size() * distances_m.size() *
         fault_specs.size() * attack_specs.size() * impairment_specs.size();
}

SessionPlan PlanSession(const CampaignSpec& spec, std::size_t index) {
  // Cell axes unroll row-major with the attack axis fastest, so
  // consecutive indices cycle attacks before environments - every cell
  // fills at the same rate. The impairment axis sits between attack and
  // fault; its default size of 1 keeps the arithmetic (and therefore
  // every historical cell assignment) unchanged for clean campaigns.
  std::size_t cell = index % spec.CellCount();
  const std::size_t attack_i = cell % spec.attack_specs.size();
  cell /= spec.attack_specs.size();
  const std::size_t impair_i = cell % spec.impairment_specs.size();
  cell /= spec.impairment_specs.size();
  const std::size_t fault_i = cell % spec.fault_specs.size();
  cell /= spec.fault_specs.size();
  const std::size_t dist_i = cell % spec.distances_m.size();
  cell /= spec.distances_m.size();
  const std::size_t env_i = cell % spec.environments.size();
  cell /= spec.environments.size();
  const std::size_t config_i = cell;

  SessionPlan plan;
  plan.scenario = BaseConfig(spec.configs[config_i]);
  plan.scenario.scene.environment = spec.environments[env_i];
  plan.scenario.scene.distance_m = spec.distances_m[dist_i];
  plan.scenario.seed = sim::ParallelExecutor::TaskSeed(spec.seed, index);
  if (spec.impostor_every > 0 &&
      index % spec.impostor_every == spec.impostor_every - 1) {
    plan.scenario.same_body = false;
  }
  const std::string& fault_spec = spec.fault_specs[fault_i];
  if (!fault_spec.empty()) {
    plan.scenario.faults = sim::FaultPlan::Parse(fault_spec);
  }
  const std::string& attack_spec = spec.attack_specs[attack_i];
  if (!attack_spec.empty()) {
    plan.attack = sim::AttackSpec::Parse(attack_spec);
    plan.scenario.attack = plan.attack;
  }
  const std::string& impairment_spec = spec.impairment_specs[impair_i];
  if (!impairment_spec.empty()) {
    plan.scenario.impairments = audio::ImpairmentPlan::Parse(impairment_spec);
  }
  return plan;
}

std::vector<ShardRange> MakeShards(std::size_t sessions,
                                   std::size_t sessions_per_shard) {
  if (sessions_per_shard == 0) sessions_per_shard = 1;
  std::vector<ShardRange> shards;
  shards.reserve((sessions + sessions_per_shard - 1) / sessions_per_shard);
  for (std::size_t begin = 0; begin < sessions;
       begin += sessions_per_shard) {
    shards.push_back(
        {begin, std::min(sessions, begin + sessions_per_shard)});
  }
  return shards;
}

ShardResult RunShard(const CampaignSpec& spec, ShardRange range) {
  ShardResult result;
  sim::EventQueue queue;
  // Owns every multiplexed session until the queue drains: pending
  // events hold machine pointers, machines hold session references.
  std::vector<std::unique_ptr<UnlockSession>> in_flight;
  in_flight.reserve(range.size());
  for (std::size_t index = range.begin; index < range.end; ++index) {
    const SessionPlan plan = PlanSession(spec, index);
    if (!plan.attack.empty()) {
      // Attack agents orchestrate multi-session flows (record, relock,
      // replay...) of their own; they run as one synchronous unit and
      // contribute their attacker-scored telemetry rows.
      const AttackReport report = RunAttackScenario(plan.scenario, plan.attack);
      for (const obs::SessionRecord& record : report.records) {
        result.sink.Ingest(record);
      }
      ++result.sessions;
      continue;
    }
    auto session = std::make_unique<UnlockSession>(plan.scenario);
    session->SetRecordSink([&result](const obs::SessionRecord& record) {
      result.sink.Ingest(record);
    });
    session->StartAsync(queue, spec.max_retries);
    in_flight.push_back(std::move(session));
    ++result.sessions;
  }
  result.queue_events = queue.RunUntilIdle();
  return result;
}

CampaignResult RunCampaign(const CampaignSpec& spec, std::size_t threads) {
  const std::vector<ShardRange> shards =
      MakeShards(spec.sessions, spec.sessions_per_shard);
  sim::ParallelExecutor executor(threads);
  // Shard results are keyed by shard index; the task rng is unused
  // (every session seeds itself from the global index).
  std::vector<ShardResult> results = executor.Map(
      shards.size(), spec.seed,
      [&](sim::TaskContext& ctx) { return RunShard(spec, shards[ctx.index]); });
  CampaignResult campaign;
  campaign.shards = shards.size();
  for (ShardResult& shard : results) {
    campaign.sink.Merge(shard.sink);
    campaign.sessions += shard.sessions;
    campaign.queue_events += shard.queue_events;
  }
  return campaign;
}

}  // namespace wearlock::protocol
