// Security conformance matrix: the adversarial-scenario tentpole gate.
//
// Runs every channel-level attack agent (attack_agents.h) against the
// paper's three delay configurations with the full defense suite armed
// (timing window + acoustic distance bounding + HOTP freshness) and
// pins the security contract (docs/security.md):
//
//   * every attack x config cell terminates with a *defined, pinned*
//     outcome - the defense that answers each attack is named;
//   * ZERO false unlocks anywhere: no cell hands the attacker an
//     unlock or a live credential (token *recovery* at short range is
//     expected physics - audible sound carries - and is pinned too:
//     what protects the scheme is one-time semantics, not secrecy);
//   * the same seed replays every cell bit-identically, timeline
//     included, on 1, 2 and 8 executor threads;
//   * each defense layer demonstrably earns its keep: the relay that
//     wins with distance bounding off is caught with it on, replays
//     fall to whichever of the three layers they don't evade;
//   * attack traces serialize as well-formed JSONL and match the
//     committed goldens byte for byte, timestamps included
//     (golden_file.h says how to regenerate them).
#include <algorithm>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "audio/propagation.h"
#include "golden_file.h"
#include "json_check.h"
#include "modem/frame.h"
#include "modem/modem.h"
#include "obs/rollup.h"
#include "protocol/attack_agents.h"
#include "protocol/distance_bounding.h"
#include "protocol/fleet.h"
#include "protocol/session.h"
#include "sim/adversary.h"
#include "sim/executor.h"

namespace wearlock {
namespace {

using protocol::AttackReport;
using protocol::RunAttackScenario;
using protocol::ScenarioConfig;
using protocol::UnlockOutcome;
using sim::AttackKind;
using sim::AttackSpec;

// --- The matrix ------------------------------------------------------

const char* const kAttackSpecs[] = {
    "eavesdrop@2.0:gain=20",     // directional mic past the secure range
    "replay@0.5:delay=400",      // tape recorder, sluggish handling
    "relay@3.0:delay=3:gain=40", // live wormhole to an absent watch
    "probe@1.0:level=1.5",       // SonarSnoop co-channel chirp train
    "overshadow@1.5:level=6",    // AIC frame injection, dominant power
};

constexpr int kNumSpecs = 5;
constexpr int kNumConfigs = 3;
constexpr int kNumCells = kNumSpecs * kNumConfigs;

ScenarioConfig ConfigByIndex(int which) {
  switch (which) {
    case 0: return ScenarioConfig::Config1();
    case 1: return ScenarioConfig::Config2();
    default: return ScenarioConfig::Config3();
  }
}

/// One matrix cell: attack x config, full defense suite armed, seed
/// pinned per cell.
ScenarioConfig CellScenario(int cell) {
  const int config = cell % kNumConfigs;
  ScenarioConfig c = ConfigByIndex(config);
  c.scene.environment = audio::Environment::kQuietRoom;
  c.scene.distance_m = 0.4;
  c.phone.enable_distance_bounding = true;
  c.seed = 9000 + static_cast<std::uint64_t>(cell);
  return c;
}

AttackSpec CellSpec(int cell) {
  return AttackSpec::Parse(kAttackSpecs[cell / kNumConfigs]);
}

/// The defense each attack falls to - the matrix's pinned semantics.
UnlockOutcome ExpectedOutcome(AttackKind kind) {
  switch (kind) {
    case AttackKind::kEavesdrop:
      // The victim unlocks normally; the listener's haul is stale.
      return UnlockOutcome::kUnlocked;
    case AttackKind::kReplay:
    case AttackKind::kRelay:
      // The attacker's path latency lands in the ranging estimate.
      return UnlockOutcome::kDistanceBoundViolation;
    case AttackKind::kProbe:
    case AttackKind::kOvershadow:
      // Co-channel energy corrupts Phase 2; the token never validates.
      return UnlockOutcome::kTokenRejected;
  }
  return UnlockOutcome::kNoWirelessLink;  // unreachable
}

/// Everything about an attacked cell that must be deterministic under a
/// fixed seed: the decisions (attack events, victim outcome, security
/// verdicts, cohort key) and the victim's modeled timeline (step
/// stamps, phase timings).
std::string CellFingerprint(int cell) {
  const AttackReport r = RunAttackScenario(CellScenario(cell), CellSpec(cell));
  std::ostringstream fp;
  fp << std::hexfloat;
  fp << ToString(r.victim_outcome) << "|" << r.victim_unlocked << "|"
     << r.false_unlock << "|" << r.token_recovered << "|"
     << r.attacker_token_ber << "|"
     << (r.ranging_distance_m ? *r.ranging_distance_m : -1.0) << "|"
     << r.victim_report.token_ber << "|" << r.victim_report.pilot_snr_db
     << "|" << r.victim_report.timings.total_ms() << "|steps:";
  for (const auto& step : r.victim_report.trace) {
    fp << step.step << "@" << step.at_ms << ";";
  }
  fp << "|events:";
  for (const auto& e : r.events) {
    fp << ToString(e.kind) << "@" << e.stage << "=" << e.value << ";";
  }
  fp << "|cohorts:";
  for (const auto& rec : r.records) fp << obs::DefaultCohortKey(rec) << ";";
  return fp.str();
}

void ExpectWellFormedJsonl(const std::string& jsonl) {
  std::istringstream lines(jsonl);
  std::string line;
  testing::JsonChecker checker;
  while (std::getline(lines, line)) {
    EXPECT_TRUE(checker.Check(line)) << checker.error() << " in: " << line;
  }
}

// --- Pinned outcomes + the zero-false-unlock invariant ----------------

TEST(SecurityMatrixTest, EveryCellPinsItsOutcomeAndNeverFalselyUnlocks) {
  for (int cell = 0; cell < kNumCells; ++cell) {
    const AttackSpec spec = CellSpec(cell);
    SCOPED_TRACE("cell " + std::to_string(cell) + " attack " + spec.spec);
    const AttackReport r = RunAttackScenario(CellScenario(cell), spec);

    // The pinned defense answered.
    EXPECT_EQ(r.victim_outcome, ExpectedOutcome(spec.kind))
        << "got " << ToString(r.victim_outcome);

    // THE invariant: no cell hands the attacker anything.
    EXPECT_FALSE(r.false_unlock);

    // Short-range directional eavesdropping decodes the token - pinned
    // as expected physics (the scheme's answer is freshness, below).
    if (spec.kind == AttackKind::kEavesdrop) {
      EXPECT_TRUE(r.token_recovered);
      EXPECT_TRUE(r.victim_unlocked);
    } else {
      EXPECT_FALSE(r.victim_unlocked);
    }

    // Every agent leaves a non-empty, well-formed attack trace.
    EXPECT_FALSE(r.events.empty());
    ExpectWellFormedJsonl(sim::AttackTraceJsonl(r.events));

    // Telemetry rows score the attacker and carry the attack axis.
    ASSERT_FALSE(r.records.empty());
    for (const auto& rec : r.records) {
      EXPECT_FALSE(rec.same_body);
      EXPECT_EQ(rec.attack_spec, spec.spec);
      EXPECT_NE(obs::DefaultCohortKey(rec).find(";attack=" + spec.spec),
                std::string::npos);
      if (spec.kind != AttackKind::kEavesdrop) {
        EXPECT_FALSE(rec.false_accept);
      }
    }
  }
}

// --- Deterministic replay across thread counts ------------------------

TEST(SecurityMatrixTest, SameSeedReplaysBitIdentically) {
  for (int cell = 0; cell < kNumCells; ++cell) {
    SCOPED_TRACE("cell " + std::to_string(cell));
    const std::string first = CellFingerprint(cell);
    const std::string second = CellFingerprint(cell);
    EXPECT_EQ(first, second);
    EXPECT_FALSE(first.empty());
  }
}

TEST(SecurityMatrixTest, ByteIdenticalAcrossThreadCounts) {
  auto run_matrix = [](std::size_t n_threads) {
    sim::ParallelExecutor executor(n_threads);
    return executor.Map(kNumCells, /*base_seed=*/0, [](sim::TaskContext& ctx) {
      // Cell seeds are pinned by CellScenario; ctx.rng is deliberately
      // unused so the fingerprint is a pure function of the index.
      return CellFingerprint(static_cast<int>(ctx.index));
    });
  };
  const std::vector<std::string> serial = run_matrix(1);
  for (const std::size_t threads : {std::size_t{2}, std::size_t{8}}) {
    const std::vector<std::string> parallel = run_matrix(threads);
    ASSERT_EQ(serial.size(), parallel.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
      SCOPED_TRACE("cell " + std::to_string(i) + " threads " +
                   std::to_string(threads));
      EXPECT_EQ(serial[i], parallel[i]);
    }
  }
}

// --- Golden attack traces ---------------------------------------------

/// The whole matrix's attack traces, one cell-header line followed by
/// that cell's attack events - the seed-pinned record of what every
/// attacker did and when the defense cut it off.
TEST(SecurityMatrixTest, GoldenAttackTraces) {
  std::string all;
  for (int cell = 0; cell < kNumCells; ++cell) {
    const ScenarioConfig scenario = CellScenario(cell);
    const AttackSpec spec = CellSpec(cell);
    const AttackReport r = RunAttackScenario(scenario, spec);
    all += "{\"cell\":" + std::to_string(cell) + ",\"attack\":\"" + spec.spec +
           "\",\"config\":\"" + scenario.label + "\"}\n";
    all += sim::AttackTraceJsonl(r.events);
  }
  ExpectWellFormedJsonl(all);
  testing::ExpectMatchesGolden(all, "security_attack_traces.jsonl");
}

/// Exactly the scenario `wearlock_unlock_cli --attack <relay spec>`
/// builds (Config1, 0.3 m, quiet room, defense armed), so the
/// cli_golden_replay test can diff the CLI's --attack-trace output
/// against the same golden.
constexpr char kCliRelaySpec[] = "relay@3.0:delay=3:gain=40";
constexpr std::uint64_t kCliRelaySeed = 4242;

TEST(SecurityMatrixTest, GoldenRelayCliTrace) {
  ScenarioConfig c = ScenarioConfig::Config1();
  c.scene.distance_m = 0.3;
  c.seed = kCliRelaySeed;
  c.phone.enable_distance_bounding = true;
  c.attack = AttackSpec::Parse(kCliRelaySpec);
  const AttackReport r = RunAttackScenario(c, c.attack);
  EXPECT_EQ(r.victim_outcome, UnlockOutcome::kDistanceBoundViolation);
  EXPECT_FALSE(r.false_unlock);
  const std::string raw = sim::AttackTraceJsonl(r.events);
  EXPECT_FALSE(raw.empty());
  ExpectWellFormedJsonl(raw);
  testing::ExpectMatchesGolden(raw, "relay_attack_trace.jsonl");
}

// --- Each defense layer earns its keep --------------------------------

/// The relay that wins with distance bounding off is caught with it on:
/// fresh token, satisfied timing window - only the ranging sees the
/// wormhole.
TEST(RelayDefenseTest, DistanceBoundingBlocksTheRelayThatWinsWithoutIt) {
  const AttackSpec spec = AttackSpec::Parse(kCliRelaySpec);
  for (std::uint64_t seed : {9001ULL, 9002ULL, 9003ULL}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    ScenarioConfig undefended = ScenarioConfig::Config1();
    undefended.seed = seed;
    const AttackReport breach = RunAttackScenario(undefended, spec);
    EXPECT_EQ(breach.victim_outcome, UnlockOutcome::kUnlocked);
    EXPECT_TRUE(breach.false_unlock) << "relay must break the undefended "
                                        "protocol, or the defense proves "
                                        "nothing";

    ScenarioConfig defended = undefended;
    defended.phone.enable_distance_bounding = true;
    const AttackReport held = RunAttackScenario(defended, spec);
    EXPECT_EQ(held.victim_outcome, UnlockOutcome::kDistanceBoundViolation);
    EXPECT_FALSE(held.false_unlock);
    ASSERT_TRUE(held.ranging_distance_m.has_value());
    // Two short hops + 3 ms of electronics: well past the 1.3 m bound.
    EXPECT_GT(*held.ranging_distance_m, protocol::kMaxRangingDistanceM);
  }
}

/// Replay defense in depth: whichever layer the replay doesn't evade
/// catches it.
TEST(ReplayDefenseTest, EveryEvasionFallsToAnotherLayer) {
  auto run = [](const char* spec, bool distance_bounding) {
    ScenarioConfig c = ScenarioConfig::Config1();
    c.seed = 9020;
    c.phone.enable_distance_bounding = distance_bounding;
    return RunAttackScenario(c, AttackSpec::Parse(spec));
  };
  {
    // Instant replay, no ranging: evades timing and distance checks,
    // but the captured token's counter is already burned (HOTP
    // one-time semantics).
    const AttackReport r = run("replay@0.5:delay=0", false);
    EXPECT_EQ(r.victim_outcome, UnlockOutcome::kTokenRejected);
    EXPECT_FALSE(r.false_unlock);
  }
  {
    // Sluggish replay, no ranging: the 400 ms handling delay blows the
    // timing window before token validation even runs.
    const AttackReport r = run("replay@0.5:delay=400", false);
    EXPECT_EQ(r.victim_outcome, UnlockOutcome::kTimingViolation);
    EXPECT_FALSE(r.false_unlock);
  }
  {
    // Mid-speed replay inside the timing slack: acoustic ranging sees
    // the 100 ms of fake path (= 34 m of air) and fails closed.
    const AttackReport r = run("replay@0.5:delay=100", true);
    EXPECT_EQ(r.victim_outcome, UnlockOutcome::kDistanceBoundViolation);
    EXPECT_FALSE(r.false_unlock);
  }
}

/// A victim attempt that fails never burns its token, but the replay's
/// own attempt mints a new one, which retires it. Plan index 195 of this
/// campaign is such a session: a dropped-and-impaired victim attempt is
/// token-rejected, and the attacker holds a clean 0.5 m tape of it.
TEST(ReplayDefenseTest, TapeOfAFailedAttemptIsRetiredByTheNextMint) {
  protocol::CampaignSpec spec;
  spec.sessions = 256;
  spec.seed = 10;
  spec.max_retries = 2;
  spec.fault_specs = {"", "drop=0.3"};
  spec.impairment_specs = {"", "sro=50,reverb=400,pairs=2"};
  spec.attack_specs = {"", "replay@0.5"};
  const protocol::SessionPlan plan = protocol::PlanSession(spec, 195);
  ASSERT_EQ(plan.attack.kind, AttackKind::kReplay);
  const AttackReport r = RunAttackScenario(plan.scenario, plan.attack);
  bool replayed = false;
  for (const auto& e : r.events) replayed = replayed || e.stage == "replay";
  ASSERT_TRUE(replayed) << "the tap must capture the victim's attempt";
  EXPECT_EQ(r.victim_outcome, UnlockOutcome::kTokenRejected);
  EXPECT_FALSE(r.false_unlock);
}

/// What saves the eavesdropped token is freshness, not secrecy: the
/// directional mic decodes it clean, and the validator still shrugs.
TEST(EavesdropDefenseTest, RecoveredTokenIsStaleByConstruction) {
  ScenarioConfig c = ScenarioConfig::Config1();
  c.seed = 9100;
  const AttackReport r =
      RunAttackScenario(c, AttackSpec::Parse("eavesdrop@0.5:gain=20"));
  EXPECT_TRUE(r.victim_unlocked);
  EXPECT_TRUE(r.token_recovered) << "at 0.5 m the capture must decode";
  EXPECT_LE(r.attacker_token_ber, 0.10);
  EXPECT_FALSE(r.false_unlock) << "the victim's unlock burned the counter";
}

/// Overshadowing's dilemma: too weak and the legitimate frame wins, too
/// strong and the watch decodes the attacker's bits - which fail
/// validation because guessing a live HOTP token is the actual ask.
TEST(OvershadowDefenseTest, NeitherPowerRegimeYieldsAnAttackerUnlock) {
  auto run = [](const char* spec) {
    ScenarioConfig c = ScenarioConfig::Config1();
    c.seed = 9001;
    c.phone.enable_distance_bounding = true;
    return RunAttackScenario(c, AttackSpec::Parse(spec));
  };
  {
    const AttackReport r = run("overshadow@1.5:level=2");
    EXPECT_EQ(r.victim_outcome, UnlockOutcome::kUnlocked);
    EXPECT_FALSE(r.false_unlock) << "the accepted bits were the real token";
  }
  {
    const AttackReport r = run("overshadow@1.5:level=6");
    EXPECT_EQ(r.victim_outcome, UnlockOutcome::kTokenRejected);
    EXPECT_FALSE(r.false_unlock);
  }
}

/// In a noisy room the victim's probe volume is high, so the default
/// overshadow level asks for more than full scale: the attacker's drive
/// saturates instead of aborting the run.
TEST(OvershadowDefenseTest, DefaultLevelSaturatesInANoisyRoom) {
  const AttackSpec spec = AttackSpec::Parse("overshadow");
  ASSERT_GT(spec.level, 1.0);
  for (int config = 0; config < kNumConfigs; ++config) {
    SCOPED_TRACE("config " + std::to_string(config + 1));
    ScenarioConfig c = ConfigByIndex(config);
    c.scene.environment = audio::Environment::kOffice;
    c.seed = 9200 + static_cast<std::uint64_t>(config);
    c.phone.enable_distance_bounding = true;
    const AttackReport r = RunAttackScenario(c, spec);
    EXPECT_FALSE(r.false_unlock);
    EXPECT_FALSE(r.events.empty());
  }
}

// --- The probe calibrates inside the attempt --------------------------

/// The probe agent as it ran with a recon pass: a full unlock attempt
/// at the same seed learns the victim's probe volume, and the chirp
/// train is rendered before the attacked attempt starts.
AttackReport ProbeWithReconPass(const ScenarioConfig& base,
                                const AttackSpec& spec) {
  protocol::UnlockSession recon(base);
  const protocol::UnlockReport recon_rep = recon.Attempt();
  const double victim_volume =
      recon_rep.probe_volume > 0.0 ? recon_rep.probe_volume : 1.0;

  ScenarioConfig scenario = base;
  scenario.attack = spec;
  protocol::UnlockSession session(scenario);
  obs::SessionRecord record;
  session.SetRecordSink(
      [&record](const obs::SessionRecord& emitted) { record = emitted; });
  sim::AdversaryDevice dev(spec, sim::Rng(scenario.seed ^ 0xA77AC4E5D15ULL),
                           &session.clock());
  dev.Record("arm", spec.distance_m);
  const audio::Samples chirp = modem::MakePreamble(scenario.phone.frame);
  const std::size_t span = audio::kLeadInSamples + 16 * chirp.size() +
                           audio::kSceneLeadOutSamples;
  audio::Samples train;
  while (train.size() < span) audio::Append(train, chirp);
  const audio::Samples emitted = scenario.scene.phone_speaker.Emit(
      train, std::min(1.0, victim_volume * spec.level));
  const audio::Samples at_watch =
      audio::PropagationModel(scenario.scene.propagation)
          .Propagate(emitted, spec.distance_m);
  dev.Record("probe-emit", spec.level);

  protocol::AttackInjection inj;
  inj.phase2_interference = [at_watch](double) { return at_watch; };
  const protocol::UnlockReport rep = session.Attempt(inj);

  AttackReport out;
  out.spec = spec;
  out.victim_outcome = rep.outcome;
  out.victim_unlocked = rep.unlocked;
  out.ranging_distance_m = rep.ranging_distance_m;
  out.victim_report = rep;
  out.events = dev.events();
  record.same_body = false;
  record.unlocked = false;
  record.false_accept = false;
  out.records.push_back(record);
  return out;
}

/// Every field of an AttackReport, the victim's report and its step log
/// included, with doubles in hexfloat.
std::string ReportFingerprint(const AttackReport& r) {
  const protocol::UnlockReport& v = r.victim_report;
  std::ostringstream fp;
  fp << std::hexfloat << r.spec.spec << "|" << ToString(r.victim_outcome)
     << "|" << r.victim_unlocked << r.false_unlock << r.token_recovered << "|"
     << r.attacker_token_ber << "|" << r.ranging_distance_m.value_or(-1.0)
     << "|victim:" << ToString(v.outcome) << v.unlocked << "|"
     << v.probe_volume << "|" << v.ambient_spl_db << "|" << v.preamble_score
     << "|" << v.ambient_similarity << "|" << v.dtw_score.value_or(-1.0)
     << "|" << v.nlos << "|" << v.pilot_snr_db << "|"
     << (v.mode ? modem::ToString(*v.mode) : "-") << "|" << v.ebn0_db << "|"
     << v.required_ber << "|" << v.token_ber << "|"
     << v.eavesdropped_recording.has_value() << "|"
     << v.ranging_distance_m.value_or(-1.0) << "|"
     << v.timings.phase1_audio_ms << "," << v.timings.phase1_comm_ms << ","
     << v.timings.phase1_compute_ms << "," << v.timings.phase2_audio_ms << ","
     << v.timings.phase2_comm_ms << "," << v.timings.phase2_compute_ms << "|"
     << v.watch_energy_mj << "|" << v.phone_energy_mj << "|plan:";
  for (const std::size_t bin : v.plan.data) fp << bin << ",";
  fp << "|steps:";
  for (const auto& step : v.trace) {
    fp << step.step << "@" << step.at_ms << "=" << step.detail << ";";
  }
  fp << "|events:" << sim::AttackTraceJsonl(r.events) << "|records:";
  for (const auto& rec : r.records) fp << rec.ToJsonl();
  return fp.str();
}

TEST(ProbeAgentTest, MatchesTheAgentThatRanAReconPass) {
  std::vector<ScenarioConfig> cells;
  for (int config = 0; config < kNumConfigs; ++config) {
    cells.push_back(CellScenario(3 * kNumConfigs + config));  // matrix row
    ScenarioConfig faulted = ConfigByIndex(config);
    faulted.faults = sim::FaultPlan::Parse("drop=0.3");
    faulted.seed = 9400 + static_cast<std::uint64_t>(config);
    cells.push_back(faulted);
  }
  ScenarioConfig impaired = ScenarioConfig::Config1();
  impaired.impairments =
      audio::ImpairmentPlan::Parse("sro=50,reverb=400,pairs=2");
  impaired.seed = 9410;
  cells.push_back(impaired);

  // A quiet attacker (level 0.25) keeps its drive below full scale, so
  // the drive follows the victim's volume instead of saturating.
  int mixed = 0;
  for (const char* text :
       {"probe@1.0:level=1.5", "probe", "probe@0.8:level=0.25"}) {
    const AttackSpec spec = AttackSpec::Parse(text);
    for (const ScenarioConfig& cell : cells) {
      SCOPED_TRACE(std::string(text) + " seed " + std::to_string(cell.seed));
      const AttackReport got = RunAttackScenario(cell, spec);
      EXPECT_EQ(ReportFingerprint(got),
                ReportFingerprint(ProbeWithReconPass(cell, spec)));
      mixed += got.victim_report.timings.phase2_audio_ms > 0.0;
    }
  }
  EXPECT_GE(mixed, 15) << "most cells must reach the Phase-2 mix";
}

TEST(ProbeAgentTest, InterferenceRendersOncePerAttemptAcrossArqRounds) {
  ScenarioConfig c = ScenarioConfig::Config1();
  c.arm_resilience = true;  // ARQ without injected faults
  c.seed = 9420;
  protocol::UnlockSession session(c);
  sim::Rng noise(9421);
  int calls = 0;
  double volume_seen = 0.0;
  protocol::AttackInjection inj;
  inj.phase2_interference = [&](double volume) {
    ++calls;
    volume_seen = volume;
    return noise.GaussianVector(40000, 0.5);
  };
  const protocol::UnlockReport rep = session.Attempt(inj);
  int retransmits = 0;
  for (const auto& step : rep.trace) {
    retransmits += step.step == "phase2-retransmit";
  }
  EXPECT_EQ(rep.outcome, UnlockOutcome::kTokenRejected);
  EXPECT_GE(retransmits, 1) << "the attempt must run more than one round";
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(volume_seen, rep.probe_volume);
}

// --- Telemetry path ---------------------------------------------------

TEST(AttackTelemetryTest, RecordsAggregateAsAttackerSuccessRate) {
  obs::TelemetrySink sink;
  for (std::uint64_t seed = 9300; seed < 9305; ++seed) {
    ScenarioConfig c = ScenarioConfig::Config1();
    c.seed = seed;
    c.phone.enable_distance_bounding = true;
    const AttackReport r =
        RunAttackScenario(c, AttackSpec::Parse("replay@0.5:delay=400"));
    for (const auto& rec : r.records) sink.Ingest(rec);
  }
  ASSERT_EQ(sink.cohorts().size(), 1u);
  const auto& [key, cohort] = *sink.cohorts().begin();
  EXPECT_NE(key.find(";attack=replay@0.5:delay=400"), std::string::npos);
  EXPECT_EQ(cohort.impostor, 5u);
  EXPECT_EQ(cohort.genuine, 0u);
  const obs::WilsonInterval far = cohort.FalseAcceptRate();
  EXPECT_DOUBLE_EQ(far.rate, 0.0);
  EXPECT_LT(far.high, 0.6);  // 0/5 still carries real uncertainty
}

/// An attacker-scored row is the record its attempt emitted, rescored:
/// under injected faults it carries that attempt's fault and degrade
/// counts, not zeros. The replay row is the replay attempt's record.
TEST(AttackTelemetryTest, RowsCountTheirAttemptsFaults) {
  for (const char* text : {"probe@1.0:level=1.5", "replay@0.5:delay=400"}) {
    SCOPED_TRACE(text);
    ScenarioConfig c = ScenarioConfig::Config1();
    c.faults = sim::FaultPlan::Parse("drop=0.3");
    c.seed = 9500;
    const AttackReport r = RunAttackScenario(c, AttackSpec::Parse(text));
    ASSERT_EQ(r.records.size(), 1u);
    EXPECT_GT(r.records[0].fault_events, 0);
    EXPECT_GT(r.records[0].degrades, 0);
  }
}

// --- Distance-bounding properties -------------------------------------

audio::TwoMicScene RangingScene(std::uint64_t seed, double distance_m) {
  audio::SceneConfig sc;
  sc.distance_m = distance_m;
  sc.environment = audio::Environment::kQuietRoom;
  return audio::TwoMicScene(sc, sim::Rng(seed));
}

TEST(DistanceBoundingPropertyTest, EstimateIsMonotoneInRelayDelay) {
  for (std::uint64_t seed : {41ULL, 42ULL, 43ULL}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    audio::TwoMicScene scene = RangingScene(seed, 0.9);
    sim::Rng rng(seed * 77 + 1);
    double prev = -1.0;
    for (const double delay_ms : {0.0, 1.0, 2.0, 4.0, 8.0}) {
      const protocol::RangingResult res = protocol::AcousticRangeMedian(
          scene, modem::FrameSpec{}, /*volume=*/0.8, rng, /*rounds=*/5,
          delay_ms);
      ASSERT_TRUE(res.chirp_detected) << "delay " << delay_ms;
      EXPECT_GT(res.estimated_distance_m, prev) << "delay " << delay_ms;
      prev = res.estimated_distance_m;
    }
  }
}

/// Legitimate sessions at the secure perimeter's edge pass the bound
/// across seeds - the defense doesn't tax honest users.
TEST(DistanceBoundingPropertyTest, LegitimateSessionsPassAcrossSeeds) {
  for (std::uint64_t seed = 60; seed < 70; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    audio::TwoMicScene scene = RangingScene(seed, 0.9);
    sim::Rng rng(seed * 77 + 1);
    const protocol::RangingResult res = protocol::AcousticRangeMedian(
        scene, modem::FrameSpec{}, /*volume=*/0.8, rng, /*rounds=*/5);
    ASSERT_TRUE(res.chirp_detected);
    EXPECT_TRUE(res.within_bound);
    EXPECT_NEAR(res.estimated_distance_m, 0.9, 0.25);
  }
}

/// 1 ms of relay handling = 34 cm of fake air: any relay >= 2 ms is
/// past the bound even from the perimeter's edge, across seeds.
TEST(DistanceBoundingPropertyTest, RelayDelaysOfTwoMsOrMoreAreRejected) {
  for (std::uint64_t seed = 60; seed < 66; ++seed) {
    for (const double delay_ms : {2.0, 3.0, 5.0, 10.0, 50.0}) {
      SCOPED_TRACE("seed " + std::to_string(seed) + " delay " +
                   std::to_string(delay_ms));
      audio::TwoMicScene scene = RangingScene(seed, 0.9);
      sim::Rng rng(seed * 77 + 1);
      const protocol::RangingResult res = protocol::AcousticRangeMedian(
          scene, modem::FrameSpec{}, /*volume=*/0.8, rng, /*rounds=*/5,
          delay_ms);
      ASSERT_TRUE(res.chirp_detected);
      EXPECT_FALSE(res.within_bound);
    }
  }
}

// --- AttackSpec grammar -----------------------------------------------

TEST(AttackSpecTest, ParsesFullSpecs) {
  const AttackSpec relay = AttackSpec::Parse("relay@3.0:delay=3:gain=40");
  EXPECT_EQ(relay.kind, AttackKind::kRelay);
  EXPECT_DOUBLE_EQ(relay.distance_m, 3.0);
  EXPECT_DOUBLE_EQ(relay.handling_delay_ms, 3.0);
  EXPECT_DOUBLE_EQ(relay.gain_db, 40.0);
  EXPECT_EQ(relay.spec, "relay@3.0:delay=3:gain=40");
  EXPECT_FALSE(relay.empty());

  const AttackSpec probe = AttackSpec::Parse("probe@1.0:level=1.5");
  EXPECT_EQ(probe.kind, AttackKind::kProbe);
  EXPECT_DOUBLE_EQ(probe.level, 1.5);
}

TEST(AttackSpecTest, BareKindsGetSensibleDefaults) {
  const AttackSpec eaves = AttackSpec::Parse("eavesdrop");
  EXPECT_EQ(eaves.kind, AttackKind::kEavesdrop);
  EXPECT_DOUBLE_EQ(eaves.distance_m, 2.0);

  const AttackSpec relay = AttackSpec::Parse("relay");
  EXPECT_DOUBLE_EQ(relay.distance_m, 3.0);
  EXPECT_DOUBLE_EQ(relay.handling_delay_ms, 4.0);
  EXPECT_DOUBLE_EQ(relay.gain_db, 40.0);

  const AttackSpec replay = AttackSpec::Parse("replay");
  EXPECT_DOUBLE_EQ(replay.handling_delay_ms, 250.0);

  EXPECT_TRUE(AttackSpec{}.empty());
}

TEST(AttackSpecTest, EveryKindStringifies) {
  for (const AttackKind kind :
       {AttackKind::kEavesdrop, AttackKind::kReplay, AttackKind::kRelay,
        AttackKind::kProbe, AttackKind::kOvershadow}) {
    EXPECT_NE(ToString(kind), "?");
    // Round trip: the name parses back to the same kind.
    EXPECT_EQ(AttackSpec::Parse(ToString(kind)).kind, kind);
  }
}

TEST(AttackSpecTest, RejectsMalformedSpecs) {
  EXPECT_THROW(AttackSpec::Parse(""), std::invalid_argument);
  EXPECT_THROW(AttackSpec::Parse("bogus"), std::invalid_argument);
  EXPECT_THROW(AttackSpec::Parse("eavesdrop@"), std::invalid_argument);
  EXPECT_THROW(AttackSpec::Parse("eavesdrop@-1"), std::invalid_argument);
  EXPECT_THROW(AttackSpec::Parse("eavesdrop@0"), std::invalid_argument);
  EXPECT_THROW(AttackSpec::Parse("eavesdrop@2x"), std::invalid_argument);
  EXPECT_THROW(AttackSpec::Parse("relay:delay=-2"), std::invalid_argument);
  EXPECT_THROW(AttackSpec::Parse("relay:delay=abc"), std::invalid_argument);
  EXPECT_THROW(AttackSpec::Parse("probe:level=0"), std::invalid_argument);
  EXPECT_THROW(AttackSpec::Parse("eavesdrop:gain=999"), std::invalid_argument);
  EXPECT_THROW(AttackSpec::Parse("eavesdrop:wat=1"), std::invalid_argument);
  EXPECT_THROW(AttackSpec::Parse("eavesdrop:"), std::invalid_argument);
  EXPECT_THROW(AttackSpec::Parse("eavesdrop:gain"), std::invalid_argument);
  // Non-finite values would slip past every range check.
  EXPECT_THROW(AttackSpec::Parse("relay@nan"), std::invalid_argument);
  EXPECT_THROW(AttackSpec::Parse("eavesdrop@inf"), std::invalid_argument);
  EXPECT_THROW(AttackSpec::Parse("relay:delay=inf"), std::invalid_argument);
  EXPECT_THROW(AttackSpec::Parse("probe:level=nan"), std::invalid_argument);
  EXPECT_THROW(AttackSpec::Parse("eavesdrop:gain=nan"), std::invalid_argument);
}

}  // namespace
}  // namespace wearlock
