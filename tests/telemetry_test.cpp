// Fleet-telemetry pipeline units: the JSON parser, SessionRecord JSONL
// round trips, Wilson intervals, cohort keying, and the TelemetrySink
// merge-order invariance the campaign gate depends on
// (docs/observability.md, "Fleet telemetry").
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "obs/record.h"
#include "obs/rollup.h"
#include "sketch_fields.h"

namespace wearlock::obs {
namespace {

std::string SinkJson(const TelemetrySink& sink) {
  std::ostringstream os;
  sink.WriteJson(os);
  return os.str();
}

SessionRecord MakeRecord(std::uint64_t seed, bool same_body, bool unlocked,
                         double total_ms) {
  SessionRecord record;
  record.seed = seed;
  record.config = "config1";
  record.environment = "Office";
  record.distance_m = 0.3;
  record.fault_spec = "drop=0.2,flap@rts";
  record.activity = "Sitting";
  record.same_body = same_body;
  record.outcome = unlocked ? "unlocked" : "rejected";
  record.unlocked = unlocked;
  record.false_accept = unlocked && !same_body;
  record.total_ms = total_ms;
  record.phase1_audio_ms = total_ms * 0.4;
  record.phase2_compute_ms = total_ms * 0.1;
  record.retries = 1;
  record.chase_decisions = 2;
  record.fault_events = 3;
  record.pilot_snr_db = 18.5;
  record.token_ber = 0.0125;
  record.mode = "QPSK";
  return record;
}

// ---------------------------------------------------------------------
// JsonParse

TEST(JsonParseTest, ParsesNestedDocument) {
  const std::string text =
      R"({"a":1.5,"b":[true,null,"x\"y"],"c":{"d":-2e3},"e":"é"})";
  std::string error;
  const auto v = JsonParse(text, &error);
  ASSERT_TRUE(v.has_value()) << error;
  ASSERT_TRUE(v->is_object());
  EXPECT_DOUBLE_EQ(v->Find("a")->NumberOr(0), 1.5);
  ASSERT_TRUE(v->Find("b")->is_array());
  EXPECT_EQ(v->Find("b")->array.size(), 3u);
  EXPECT_TRUE(v->Find("b")->array[0].boolean);
  EXPECT_EQ(v->Find("b")->array[1].kind, obs::JsonValue::Kind::kNull);
  EXPECT_EQ(v->Find("b")->array[2].string, "x\"y");
  EXPECT_DOUBLE_EQ(v->Find("c")->Find("d")->NumberOr(0), -2000.0);
  EXPECT_EQ(v->Find("e")->string, "\xc3\xa9");  // é as UTF-8
}

TEST(JsonParseTest, RejectsMalformedInput) {
  for (const std::string bad :
       {"{", "[1,]", "{\"a\":}", "tru", "\"unterminated", "1 2", ""}) {
    std::string error;
    EXPECT_FALSE(JsonParse(bad, &error).has_value()) << bad;
    EXPECT_FALSE(error.empty()) << bad;
  }
}

TEST(JsonParseTest, FindOnNonObjectIsNull) {
  const auto v = JsonParse("[1,2]");
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(v->Find("x"), nullptr);
}

// ---------------------------------------------------------------------
// SessionRecord

TEST(SessionRecordTest, JsonlRoundTripIsByteStable) {
  const SessionRecord record = MakeRecord(42, true, true, 812.375);
  const std::string line = record.ToJsonl();
  EXPECT_EQ(line.find('\n'), std::string::npos);
  EXPECT_NE(line.find("\"schema\":\"wearlock.session.v1\""),
            std::string::npos);

  std::string error;
  const auto back = SessionRecord::FromJsonl(line, &error);
  ASSERT_TRUE(back.has_value()) << error;
  EXPECT_EQ(back->ToJsonl(), line);
  EXPECT_EQ(back->seed, 42u);
  EXPECT_EQ(back->fault_spec, "drop=0.2,flap@rts");
  EXPECT_DOUBLE_EQ(back->total_ms, 812.375);
  EXPECT_EQ(back->retries, 1);
  EXPECT_EQ(back->mode, "QPSK");
}

TEST(SessionRecordTest, RejectsForeignSchema) {
  std::string line = MakeRecord(1, true, true, 100).ToJsonl();
  const std::string from = "wearlock.session.v1";
  line.replace(line.find(from), from.size(), "wearlock.session.v999");
  std::string error;
  EXPECT_FALSE(SessionRecord::FromJsonl(line, &error).has_value());
  EXPECT_NE(error.find("schema"), std::string::npos);
}

// ---------------------------------------------------------------------
// Wilson intervals

TEST(WilsonScoreTest, MatchesPublishedValues) {
  // 8/10 at 95%: the textbook Wilson interval [0.490, 0.943].
  const WilsonInterval w = WilsonScore(8, 10);
  EXPECT_DOUBLE_EQ(w.rate, 0.8);
  EXPECT_NEAR(w.low, 0.4902, 5e-4);
  EXPECT_NEAR(w.high, 0.9433, 5e-4);
}

TEST(WilsonScoreTest, PerfectScoreStaysInsideTheUnitInterval) {
  const WilsonInterval w = WilsonScore(50, 50);
  EXPECT_DOUBLE_EQ(w.rate, 1.0);
  EXPECT_GT(w.low, 0.9);   // a normal approximation would claim [1,1]
  EXPECT_LT(w.low, 1.0);
  EXPECT_LE(w.high, 1.0);
}

TEST(WilsonScoreTest, ZeroTrialsAreVacuous) {
  const WilsonInterval w = WilsonScore(0, 0);
  EXPECT_DOUBLE_EQ(w.rate, 0.0);
  EXPECT_DOUBLE_EQ(w.low, 0.0);
  EXPECT_DOUBLE_EQ(w.high, 1.0);
}

// ---------------------------------------------------------------------
// Cohort keys

TEST(DefaultCohortKeyTest, FollowsTheDocumentedGrammar) {
  const SessionRecord record = MakeRecord(7, true, true, 500);
  EXPECT_EQ(DefaultCohortKey(record),
            "config=config1;dist=0.25-0.50;env=Office;"
            "faults=drop=0.2,flap@rts");
}

TEST(DefaultCohortKeyTest, DistanceBinsAtQuarterMeters) {
  SessionRecord record = MakeRecord(7, true, true, 500);
  record.fault_spec.clear();
  record.distance_m = 0.249;
  EXPECT_NE(DefaultCohortKey(record).find("dist=0.00-0.25"),
            std::string::npos);
  record.distance_m = 0.25;  // half-open bins: 0.25 starts the next one
  EXPECT_NE(DefaultCohortKey(record).find("dist=0.25-0.50"),
            std::string::npos);
  record.distance_m = 1.9;
  EXPECT_NE(DefaultCohortKey(record).find("dist=1.75-2.00"),
            std::string::npos);
}

// ---------------------------------------------------------------------
// TelemetrySink

std::vector<SessionRecord> MixedRecords() {
  std::vector<SessionRecord> records;
  for (int i = 0; i < 40; ++i) {
    const bool genuine = i % 4 != 3;
    const bool unlocked = genuine ? i % 5 != 0 : i % 8 == 7;
    records.push_back(MakeRecord(static_cast<std::uint64_t>(i), genuine,
                                 unlocked, 400.0 + 13.0 * i));
  }
  return records;
}

TEST(TelemetrySinkTest, SplitsGenuineAndImpostorPopulations) {
  TelemetrySink sink;
  for (const SessionRecord& record : MixedRecords()) sink.Ingest(record);
  ASSERT_EQ(sink.cohorts().size(), 1u);
  const auto& cohort = sink.cohorts().begin()->second;
  EXPECT_EQ(cohort.sessions, 40u);
  EXPECT_EQ(cohort.genuine + cohort.impostor, cohort.sessions);
  // Unlock rate is over genuine attempts only; false accepts over
  // impostor attempts only.
  EXPECT_EQ(cohort.UnlockRate().rate,
            static_cast<double>(cohort.genuine_unlocked) /
                static_cast<double>(cohort.genuine));
  EXPECT_EQ(cohort.FalseAcceptRate().rate,
            static_cast<double>(cohort.false_accepts) /
                static_cast<double>(cohort.impostor));
  EXPECT_EQ(testing::SketchCount(cohort.stages.at("total")), 40u);
}

TEST(TelemetrySinkTest, IngestOrderAndShardingNeverChangeTheBytes) {
  const std::vector<SessionRecord> records = MixedRecords();
  TelemetrySink forward;
  for (const SessionRecord& record : records) forward.Ingest(record);
  const std::string expected = SinkJson(forward);

  TelemetrySink reversed;
  for (auto it = records.rbegin(); it != records.rend(); ++it) {
    reversed.Ingest(*it);
  }
  EXPECT_EQ(SinkJson(reversed), expected);

  // Shard across three sinks, merge in a different order.
  TelemetrySink s0, s1, s2;
  TelemetrySink* shards[] = {&s0, &s1, &s2};
  for (std::size_t i = 0; i < records.size(); ++i) {
    shards[i % 3]->Ingest(records[i]);
  }
  TelemetrySink merged;
  merged.Merge(s2);
  merged.Merge(s0);
  merged.Merge(s1);
  EXPECT_EQ(SinkJson(merged), expected);
}

TEST(TelemetrySinkTest, JsonlAndRollupMergeRoundTrip) {
  const std::vector<SessionRecord> records = MixedRecords();
  std::string jsonl;
  for (const SessionRecord& record : records) {
    jsonl += record.ToJsonl();
    jsonl += '\n';
  }
  TelemetrySink from_jsonl;
  std::string error;
  EXPECT_EQ(from_jsonl.IngestJsonl(jsonl, &error), records.size()) << error;

  // Rollup JSON -> parse -> MergeJson must reproduce the same bytes.
  const std::string doc = SinkJson(from_jsonl);
  const auto parsed = JsonParse(doc, &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  TelemetrySink reloaded;
  ASSERT_TRUE(reloaded.MergeJson(*parsed, &error)) << error;
  EXPECT_EQ(SinkJson(reloaded), doc);
}

TEST(TelemetrySinkTest, MalformedJsonlReportsTheLine) {
  TelemetrySink sink;
  std::string error;
  const std::string text =
      MakeRecord(1, true, true, 100).ToJsonl() + "\n{broken\n";
  EXPECT_EQ(sink.IngestJsonl(text, &error), 1u);
  EXPECT_NE(error.find("line 2"), std::string::npos) << error;
}

}  // namespace
}  // namespace wearlock::obs
