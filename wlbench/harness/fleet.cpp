// Fleet workloads: fleet_clean and fleet_hostile.
//
// Untraced run: set-up (spec construction plus a warm-up campaign),
// then protocol::RunCampaign repeated back to back for the run's
// seconds. Traced run: RunCampaign repeats alternate with repeats of a
// traced runner that runs the same campaign shard by shard from public
// calls, with spans around each call, and must roll up byte-identically.
#include <array>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "audio/scene.h"
#include "audio/signal.h"
#include "harness.h"
#include "modem/modem.h"
#include "obs/rollup.h"
#include "protocol/attack_agents.h"
#include "protocol/fleet.h"
#include "sim/event_queue.h"
#include "sim/executor.h"

namespace wlbench {
namespace {

using namespace wearlock;

// Campaign sizes: whole shards, large enough that a campaign's unlock
// rate and modeled delay vary little from seed to seed.
constexpr std::size_t kCleanSessions = 256;
constexpr std::size_t kHostileSessions = 256;
// Planned sessions replayed through the scene per traced run.
constexpr std::size_t kReplays = 16;
constexpr double kReplayVolume = 0.5;
// The warm-up campaign's seed: fixed, so set-up does the same work for
// every benchmark seed.
constexpr std::uint64_t kWarmSeed = 1;

struct FleetWorkload {
  protocol::CampaignSpec spec;
  /// The warm-up campaign: `spec`'s cells, a few sessions, kWarmSeed.
  protocol::CampaignSpec warm;
  std::size_t threads = 1;
};

FleetWorkload MakeWorkload(const std::string& name, std::uint64_t seed) {
  FleetWorkload w;
  w.spec.seed = seed;
  if (name == "fleet_clean") {
    w.spec.sessions = kCleanSessions;
    w.spec.sessions_per_shard = 128;
    w.threads = 1;
  } else {
    w.spec.sessions = kHostileSessions;
    w.spec.sessions_per_shard = 32;
    w.spec.max_retries = 2;
    w.spec.fault_specs = {"", "drop=0.3"};
    w.spec.impairment_specs = {"", "sro=50,reverb=400,pairs=2"};
    w.spec.attack_specs = {"", "probe"};
    w.threads = 2;
  }
  w.warm = w.spec;
  w.warm.sessions = 24;
  w.warm.seed = kWarmSeed;
  return w;
}

bool Attacked(const std::string& cohort_key) {
  return cohort_key.find(";attack=") != std::string::npos;
}

std::string RollupBytes(const obs::TelemetrySink& sink) {
  std::ostringstream os;
  sink.WriteJson(os);
  return os.str();
}

/// Cohort rows for the analysis: counts only.
std::string CohortRows(const obs::TelemetrySink& sink) {
  std::vector<std::string> rows;
  for (const auto& [key, c] : sink.cohorts()) {
    rows.push_back(JsonObject()
                       .Str("key", key)
                       .Bool("attacked", Attacked(key))
                       .Int("sessions", c.sessions)
                       .Int("genuine", c.genuine)
                       .Int("genuine_unlocked", c.genuine_unlocked)
                       .Int("impostor", c.impostor)
                       .Int("false_accepts", c.false_accepts)
                       .Int("retries", static_cast<std::uint64_t>(c.retries))
                       .str());
  }
  return JsonArray(rows);
}

/// One timed protocol::RunCampaign.
struct CampaignRun {
  double wall_s = 0.0;
  double cpu_s = 0.0;
  std::size_t sessions = 0;
  std::size_t queue_events = 0;
  WorkCounters counters;
  std::string rollup;
  /// CohortRows of the result.
  std::string cohorts;
  std::string error;
};

CampaignRun TimeCampaign(const FleetWorkload& w) {
  CampaignRun run;
  const WorkCounters before = WorkCounters::Now();
  const double cpu0 = ProcessCpuS();
  const double t0 = NowMs();
  try {
    const protocol::CampaignResult result =
        protocol::RunCampaign(w.spec, w.threads);
    run.wall_s = (NowMs() - t0) / 1000.0;
    run.cpu_s = ProcessCpuS() - cpu0;
    run.counters = WorkCounters::Now() - before;
    run.sessions = result.sessions;
    run.queue_events = result.queue_events;
    run.rollup = RollupBytes(result.sink);
    run.cohorts = CohortRows(result.sink);
  } catch (const std::exception& e) {
    run.wall_s = (NowMs() - t0) / 1000.0;
    run.error = e.what();
  }
  return run;
}

std::string RunJson(const CampaignRun& run) {
  return JsonObject()
      .Num("wall_s", run.wall_s)
      .Num("cpu_s", run.cpu_s)
      .Int("sessions", run.sessions)
      .Int("queue_events", run.queue_events)
      .Counters("counters", run.counters)
      .Str("digest", Digest(run.rollup))
      .Int("rollup_bytes", run.rollup.size())
      .Str("error", run.error)
      .str();
}

/// Set-up: spec construction plus the warm-up campaign that fills the
/// FFT plan cache and the workspaces. Returns seconds.
double SetUp(const Options& options, FleetWorkload* w) {
  const double t0 = NowMs();
  *w = MakeWorkload(options.workload, options.seed);
  (void)protocol::RunCampaign(w->warm, w->threads);
  return (NowMs() - t0) / 1000.0;
}

/// How many planned sessions land in attacked cells.
std::size_t PlannedAttacked(const protocol::CampaignSpec& spec) {
  std::size_t attacked = 0;
  for (std::size_t i = 0; i < spec.sessions; ++i) {
    if (!protocol::PlanSession(spec, i).attack.empty()) ++attacked;
  }
  return attacked;
}

// ---------------------------------------------------------------------
// Traced runner.

/// The modem calls that record a host_ms series, by the name of the
/// span the session's own tracer opens for them.
struct ModemKind {
  const char* tracer_span;
  const char* series;
  const char* name;
};
constexpr std::array<ModemKind, 4> kModemKinds = {{
    {"modem.sync.detect", "modem.sync.host_ms", "modem.sync"},
    {"modem.probe_analysis", "modem.probe_analysis.host_ms", "modem.probe"},
    {"modem.demod", "modem.demod.host_ms", "modem.demod"},
    {"modem.demod_soft", "modem.demod_soft.host_ms", "modem.demod_soft"},
}};

int ModemKindOf(const std::string& span_name) {
  for (std::size_t k = 0; k < kModemKinds.size(); ++k) {
    if (span_name == kModemKinds[k].tracer_span) return static_cast<int>(k);
  }
  return -1;
}

/// Rebuild one session's modem calls as spans under its shard's drain.
/// Durations are the session's host_ms series; the session's tracer
/// (virtual clock) gives their order and nesting. Positions are not
/// measured: top-level calls are laid end to end from *cursor, nested
/// calls from their parent's start. Returns false when the tracer and
/// the series disagree on the number of calls.
bool AddModemSpans(protocol::UnlockSession& session, long drain,
                   double* cursor, SpanLog* log) {
  const std::vector<obs::SpanRecord>& spans = session.tracer().spans();
  std::array<std::vector<double>, kModemKinds.size()> series;
  std::array<std::size_t, kModemKinds.size()> used{};
  for (std::size_t k = 0; k < kModemKinds.size(); ++k) {
    series[k] = session.metrics().SeriesValues(kModemKinds[k].series);
  }
  std::vector<long> placed(spans.size(), -1);
  std::vector<double> child_cursor(spans.size(), 0.0);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const int k = ModemKindOf(spans[i].name);
    if (k < 0) continue;
    if (used[k] >= series[k].size()) return false;
    const double duration = series[k][used[k]++];
    std::size_t ancestor = spans[i].parent;
    while (ancestor != obs::SpanRecord::kNoParent &&
           ModemKindOf(spans[ancestor].name) < 0) {
      ancestor = spans[ancestor].parent;
    }
    long parent = drain;
    double* at = cursor;
    if (ancestor != obs::SpanRecord::kNoParent && placed[ancestor] >= 0) {
      parent = placed[ancestor];
      at = &child_cursor[ancestor];
    }
    const double start = *at;
    *at += duration;
    placed[i] = static_cast<long>(
        log->Add(kModemKinds[k].name, start, start + duration, parent));
    child_cursor[i] = start;
  }
  for (std::size_t k = 0; k < kModemKinds.size(); ++k) {
    if (used[k] != series[k].size()) return false;
  }
  return true;
}

/// How many modem calls a session has recorded so far.
std::size_t ModemCallsSoFar(protocol::UnlockSession& session) {
  std::size_t calls = 0;
  for (const ModemKind& kind : kModemKinds) {
    calls += session.metrics().SeriesValues(kind.series).size();
  }
  return calls;
}

struct ShardTrace {
  obs::TelemetrySink sink;
  SpanLog log;
  std::size_t sessions = 0;
  std::size_t queue_events = 0;
  /// Unattacked sessions that did not emit exactly one record.
  std::size_t missing_records = 0;
  /// Sessions whose modem calls could not be rebuilt.
  std::size_t modem_mismatches = 0;
  std::uint64_t demod_calls = 0;
  std::uint64_t demod_found = 0;
  /// Modeled total unlock delay of every unattacked record (Fig. 12).
  std::vector<double> unlock_ms;
  std::string error;
};

void TraceShardInto(const protocol::CampaignSpec& spec,
                    protocol::ShardRange range, ShardTrace* out) {
  SpanLog& log = out->log;
  const long shard = static_cast<long>(log.Begin("sim.shard"));
  sim::EventQueue queue;
  std::vector<std::unique_ptr<protocol::UnlockSession>> in_flight;
  std::vector<std::size_t> records(range.size(), 0);
  for (std::size_t index = range.begin; index < range.end; ++index) {
    const std::size_t plan_span = log.Begin("protocol.plan", shard);
    const protocol::SessionPlan plan = protocol::PlanSession(spec, index);
    log.End(plan_span);
    ++out->sessions;
    if (!plan.attack.empty()) {
      const std::size_t attack_span = log.Begin("protocol.attack", shard);
      const protocol::AttackReport report =
          protocol::RunAttackScenario(plan.scenario, plan.attack);
      log.End(attack_span);
      for (const obs::SessionRecord& record : report.records) {
        const std::size_t ingest = log.Begin("obs.ingest", shard);
        out->sink.Ingest(record);
        log.End(ingest);
      }
      continue;
    }
    const std::size_t build_span = log.Begin("protocol.session_build", shard);
    auto session = std::make_unique<protocol::UnlockSession>(plan.scenario);
    const std::size_t slot = in_flight.size();
    // Ingest spans are real siblings of the drain they happen in; the
    // drain's own children are the rebuilt modem calls, so the drain's
    // self time stays "drain minus modem host time".
    session->SetRecordSink(
        [out, &log, &records, slot, shard](const obs::SessionRecord& record) {
          const std::size_t ingest = log.Begin("obs.ingest", shard);
          out->sink.Ingest(record);
          log.End(ingest);
          out->unlock_ms.push_back(record.total_ms);
          ++records[slot];
        });
    session->StartAsync(queue, spec.max_retries);
    log.End(build_span);
    // Modem calls are charged to the drain below, so none may have run
    // while the session was built.
    if (ModemCallsSoFar(*session) != 0) ++out->modem_mismatches;
    in_flight.push_back(std::move(session));
  }
  const std::size_t drain = log.Begin("protocol.drain", shard);
  out->queue_events = queue.RunUntilIdle();
  log.End(drain);
  double cursor = log[drain].start_ms;
  for (std::size_t i = 0; i < in_flight.size(); ++i) {
    if (records[i] != 1) ++out->missing_records;
    if (!AddModemSpans(*in_flight[i], static_cast<long>(drain), &cursor,
                       &log)) {
      ++out->modem_mismatches;
    }
    // Hard demods only, as on the sweep: a frame is found when Demodulate
    // returns one, i.e. neither no preamble nor truncated.
    const obs::MetricsRegistry& metrics = in_flight[i]->metrics();
    const std::uint64_t calls = metrics.CounterValue("modem.demod.calls");
    out->demod_calls += calls;
    out->demod_found += calls -
                        metrics.CounterValue("modem.demod.no_preamble") -
                        metrics.CounterValue("modem.demod.truncated");
  }
  log.End(static_cast<std::size_t>(shard));
}

ShardTrace TraceShard(const protocol::CampaignSpec& spec,
                      protocol::ShardRange range) {
  ShardTrace out;
  out.log.set_track(ThreadTrack());
  try {
    TraceShardInto(spec, range, &out);
  } catch (const std::exception& e) {
    out.error = e.what();
  }
  return out;
}

struct TracedRun {
  CampaignRun run;
  std::size_t missing_records = 0;
  std::size_t modem_mismatches = 0;
  std::uint64_t demod_calls = 0;
  std::uint64_t demod_found = 0;
  std::vector<double> unlock_ms;
};

/// The campaign RunCampaign runs, driven shard by shard with spans.
TracedRun TraceCampaign(const FleetWorkload& w, SpanLog* log) {
  TracedRun traced;
  CampaignRun& run = traced.run;
  const WorkCounters before = WorkCounters::Now();
  log->set_track(ThreadTrack());
  const std::size_t campaign = log->Begin("fleet.campaign");
  const std::size_t shard_span = log->Begin("protocol.make_shards", campaign);
  const std::vector<protocol::ShardRange> shards =
      protocol::MakeShards(w.spec.sessions, w.spec.sessions_per_shard);
  log->End(shard_span);
  sim::ParallelExecutor executor(w.threads);
  const std::size_t map = log->Begin("sim.executor.map", campaign);
  std::vector<ShardTrace> results = executor.Map(
      shards.size(), w.spec.seed, [&](sim::TaskContext& ctx) {
        return TraceShard(w.spec, shards[ctx.index]);
      });
  log->End(map);
  obs::TelemetrySink sink;
  for (ShardTrace& shard : results) {
    log->Append(shard.log, static_cast<long>(map));
    const std::size_t merge = log->Begin("obs.merge", campaign);
    sink.Merge(shard.sink);
    log->End(merge);
    run.sessions += shard.sessions;
    run.queue_events += shard.queue_events;
    traced.missing_records += shard.missing_records;
    traced.modem_mismatches += shard.modem_mismatches;
    traced.demod_calls += shard.demod_calls;
    traced.demod_found += shard.demod_found;
    traced.unlock_ms.insert(traced.unlock_ms.end(), shard.unlock_ms.begin(),
                            shard.unlock_ms.end());
    if (!shard.error.empty() && run.error.empty()) run.error = shard.error;
  }
  const std::size_t write = log->Begin("obs.write", campaign);
  run.rollup = RollupBytes(sink);
  log->End(write);
  log->End(campaign);
  run.wall_s = ((*log)[campaign].end_ms - (*log)[campaign].start_ms) / 1000.0;
  run.counters = WorkCounters::Now() - before;
  return traced;
}

/// The span under `parent` around a call.
template <typename Fn>
auto Timed(const char* name, std::size_t parent, SpanLog* log, Fn&& fn) {
  const std::size_t span = log->Begin(name, static_cast<long>(parent));
  auto result = fn();
  log->End(span);
  return result;
}

/// Replay a sample of a campaign's planned unattacked sessions: the
/// scene and modem calls a session makes but cannot be timed inside it.
/// Probe analysis runs untimed (its time comes from the sessions).
/// Returns the samples the scene rendered.
std::uint64_t ReplayScenes(const protocol::CampaignSpec& spec, SpanLog* log) {
  std::uint64_t samples = 0;
  const std::size_t step = std::max<std::size_t>(1, spec.sessions / kReplays);
  std::size_t replays = 0;
  for (std::size_t i = 0; i < spec.sessions && replays < kReplays; i += step) {
    const protocol::SessionPlan plan = protocol::PlanSession(spec, i);
    if (!plan.attack.empty()) continue;
    ++replays;
    const std::size_t replay = log->Begin("replay");
    obs::MetricsRegistry registry;
    const obs::ScopedMetricsRegistry install(&registry);
    sim::Rng rng(plan.scenario.seed);
    audio::TwoMicScene scene(plan.scenario.scene, rng.Fork());

    const auto ambient = Timed("audio.scene_ambient", replay, log, [&] {
      return scene.RecordAmbientPair(
          audio::SamplesFromSeconds(plan.scenario.phone.ambient_window_s));
    });
    samples += ambient.first.size() + ambient.second.size();

    const modem::AcousticModem prober;
    const modem::TxFrame probe = prober.MakeProbeFrame();
    const audio::SceneReception probe_rx =
        Timed("audio.scene_transmit", replay, log,
              [&] { return scene.TransmitFromPhone(probe.samples, kReplayVolume); });
    samples += probe_rx.phone_recording.size() + probe_rx.watch_recording.size();
    const auto analysis = prober.AnalyzeProbe(probe_rx.watch_recording);

    const modem::AcousticModem tuned = Timed("modem.setup", replay, log, [&] {
      const modem::AcousticModem fresh;
      return analysis ? fresh.WithSelectedSubchannels(analysis->noise_power)
                      : fresh.WithPlan(fresh.spec().plan);
    });
    const modem::TxFrame token = Timed("modem.modulate", replay, log, [&] {
      return tuned.Modulate(
          modem::Modulation::kQpsk,
          modem::BitsFromWord(static_cast<std::uint32_t>(plan.scenario.seed)));
    });
    const audio::SceneReception token_rx =
        Timed("audio.scene_transmit", replay, log,
              [&] { return scene.TransmitFromPhone(token.samples, kReplayVolume); });
    samples += token_rx.phone_recording.size() + token_rx.watch_recording.size();
    log->End(replay);
  }
  return samples;
}

std::string TracedJson(const TracedRun& t) {
  return JsonObject()
      .Raw("run", RunJson(t.run))
      .Int("missing_records", t.missing_records)
      .Int("modem_mismatches", t.modem_mismatches)
      .Int("demod_calls", t.demod_calls)
      .Int("demod_found", t.demod_found)
      .str();
}

}  // namespace

int RunFleet(const Options& options, std::ostream& out) {
  FleetWorkload w;
  JsonObject raw;
  raw.Str("workload", options.workload).Int("seed", options.seed);
  // Set-up runs once before the first repeat and, on an untraced run,
  // again after every repeat: its median then samples the whole run, as
  // the repeats do, rather than the machine's speed in its first second.
  std::vector<double> setup_s = {SetUp(options, &w)};
  raw.Int("threads", w.threads)
      .Int("planned_sessions", w.spec.sessions)
      .Int("planned_attacked", PlannedAttacked(w.spec));

  std::vector<std::string> untraced;
  std::vector<std::string> traced;
  std::string cohorts = "[]";
  std::vector<double> unlock_ms;
  SpanLog log;
  const double start = NowMs();
  // An untraced run makes at least two RunCampaign repeats, so rollups
  // can be compared; a traced run alternates them with traced repeats.
  for (int repeat = 0;; ++repeat) {
    const CampaignRun run = TimeCampaign(w);
    if (repeat == 0) cohorts = run.cohorts;
    untraced.push_back(RunJson(run));
    if (options.trace) {
      log.set_repeat(repeat);
      const TracedRun t = TraceCampaign(w, &log);
      if (repeat == 0) unlock_ms = t.unlock_ms;
      traced.push_back(TracedJson(t));
    } else {
      setup_s.push_back(SetUp(options, &w));
    }
    const std::size_t min_repeats = options.trace ? 1 : 2;
    if (untraced.size() >= min_repeats &&
        NowMs() - start >= 1000.0 * options.seconds) {
      break;
    }
  }
  if (!options.trace) {
    // Untimed: the traced runner once, for the exact per-record modeled
    // delays the rollup only keeps as sketches. Its rollup is checked
    // against RunCampaign's like a traced repeat's.
    SpanLog discard;
    const TracedRun t = TraceCampaign(w, &discard);
    unlock_ms = t.unlock_ms;
    traced.push_back(TracedJson(t));
  }
  raw.Nums("setup_s", setup_s)
      .Raw("repeats", JsonArray(untraced))
      .Raw("traced", JsonArray(traced))
      .Raw("cohorts", cohorts)
      .Nums("unlock_ms", unlock_ms);
  if (options.trace) {
    // The scene and modem set-up calls inside sessions cannot be timed
    // from outside: replay them.
    raw.Int("samples_rendered", ReplayScenes(w.spec, &log));
    WriteSpans(options, log);
  }
  raw.Num("peak_rss_mb", PeakRssMb());
  out << raw.str() << "\n";
  return 0;
}

}  // namespace wlbench
