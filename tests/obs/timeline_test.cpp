// timeline_test.cpp — TimelineRecorder event capture and Chrome trace-event
// serialization.
//
// The export contract downstream of here: the runner writes
// to_chrome_json_text() verbatim (--timeline), the golden test pins those
// bytes, and --check-obs re-parses them with trace::JsonValue.  So these
// tests pin the event/metadata shape and the determinism-relevant details
// (insertion order, µs conversion, dump/parse round trip) at the unit level.
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "obs/timeline.hpp"
#include "trace/json.hpp"

namespace sss::obs {
namespace {

TEST(Timeline, TracksAndEventCounts) {
  TimelineRecorder rec;
  const int a = rec.add_track("alpha");
  const int b = rec.add_track("beta");
  EXPECT_EQ(a, 0);
  EXPECT_EQ(b, 1);
  EXPECT_EQ(rec.track_count(), 2u);

  rec.begin_span(a, "phase", 1'000);
  rec.end_span(a, 2'000);
  rec.complete_span(b, "copy", 0, 5'000);
  rec.instant(b, "drop", 2'500);
  rec.counter(b, "queue_bytes", 3'000, 42.0);
  EXPECT_EQ(rec.event_count(), 5u);
}

TEST(Timeline, ChromeJsonShape) {
  TimelineRecorder rec;
  const int t = rec.add_track("flow 1");
  rec.complete_span(t, "steady", 1'000, 4'000);
  rec.instant(t, "rto", 2'000);
  rec.counter(t, "utilization", 3'000, 0.5);

  const trace::JsonValue doc = rec.to_chrome_json();
  EXPECT_EQ(doc.at("displayTimeUnit").as_string(), "ms");
  const auto& events = doc.at("traceEvents").as_array();
  // 2 metadata events (thread_name, thread_sort_index) + 3 recorded.
  ASSERT_EQ(events.size(), 5u);

  EXPECT_EQ(events[0].at("ph").as_string(), "M");
  EXPECT_EQ(events[0].at("name").as_string(), "thread_name");
  EXPECT_EQ(events[0].at("args").at("name").as_string(), "flow 1");
  EXPECT_EQ(events[1].at("name").as_string(), "thread_sort_index");

  const trace::JsonValue& span = events[2];
  EXPECT_EQ(span.at("ph").as_string(), "X");
  EXPECT_EQ(span.at("name").as_string(), "steady");
  EXPECT_EQ(span.at("pid").as_double(), 1.0);
  EXPECT_EQ(span.at("tid").as_double(), 0.0);
  EXPECT_EQ(span.at("ts").as_double(), 1.0);   // 1000 ns = 1 µs
  EXPECT_EQ(span.at("dur").as_double(), 3.0);  // 3000 ns

  const trace::JsonValue& instant = events[3];
  EXPECT_EQ(instant.at("ph").as_string(), "i");
  EXPECT_EQ(instant.at("s").as_string(), "t");

  const trace::JsonValue& counter = events[4];
  EXPECT_EQ(counter.at("ph").as_string(), "C");
  // Counters are keyed by (pid, name), so the series carries the track name.
  EXPECT_EQ(counter.at("name").as_string(), "flow 1:utilization");
  EXPECT_EQ(counter.at("args").at("value").as_double(), 0.5);
}

TEST(Timeline, SubMicrosecondTimestampsSurviveConversion) {
  TimelineRecorder rec;
  const int t = rec.add_track("t");
  // 1500 ns → 1.5 µs: division by 1000 must not truncate.
  rec.instant(t, "mid", 1'500);
  const trace::JsonValue json = rec.to_chrome_json();
  const auto& events = json.at("traceEvents").as_array();
  EXPECT_EQ(events.back().at("ts").as_double(), 1.5);
}

TEST(Timeline, TextExportRoundTripsThroughParser) {
  TimelineRecorder rec;
  const int t = rec.add_track("hop0 edge-nic");
  rec.counter(t, "queue_bytes", 0, 0.0);
  rec.counter(t, "queue_bytes", 100'000'000, 123456.0);
  const std::string text = rec.to_chrome_json_text();
  ASSERT_FALSE(text.empty());
  EXPECT_EQ(text.back(), '\n');
  // dump → parse → dump must be byte-stable (the property the golden test
  // and --check-obs both lean on).
  const trace::JsonValue reparsed = trace::JsonValue::parse(text);
  EXPECT_EQ(reparsed.dump(1) + "\n", text);
}

TEST(Timeline, CompleteSpanRejectsNegativeDuration) {
  TimelineRecorder rec;
  const int t = rec.add_track("t");
  EXPECT_THROW(rec.complete_span(t, "bad", 2'000, 1'000), std::invalid_argument);
}

TEST(Timeline, EmptyRecorderStillSerializes) {
  TimelineRecorder rec;
  const trace::JsonValue doc = rec.to_chrome_json();
  EXPECT_TRUE(doc.at("traceEvents").as_array().empty());
}

}  // namespace
}  // namespace sss::obs
