// Flight-recorder tests (obs/recorder.hpp): glob matching, exact
// delta-ring reconstruction across wrap, the differential guarantee that
// /history reproduces an independently scraped /metrics sequence, series
// retirement, window trimming, CSV shape against a golden, the on-disk
// journal and its failure counter, and the owned-thread sampling mode. The suite name is part of
// the ThreadSanitizer CI filter -- keep it `MetricsRecorder`.
#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "obs/metrics.hpp"
#include "obs/recorder.hpp"

namespace lockdown::obs {
namespace {

RecorderConfig manual_config(std::size_t capacity = 64) {
  RecorderConfig cfg;
  // A huge interval so maybe_sample() never fires on its own: every test
  // below drives sample() explicitly for determinism.
  cfg.interval = std::chrono::hours(1);
  cfg.capacity = capacity;
  return cfg;
}

const HistorySeries* find_series(const std::vector<HistorySeries>& all,
                                 std::string_view id) {
  for (const auto& s : all) {
    if (s.id == id) return &s;
  }
  return nullptr;
}

TEST(MetricsRecorder, GlobMatch) {
  EXPECT_TRUE(glob_match("*", ""));
  EXPECT_TRUE(glob_match("*", "anything_at_all{x=\"1\"}"));
  EXPECT_TRUE(glob_match("pipeline_*", "pipeline_stage_latency_ms_bucket"));
  EXPECT_FALSE(glob_match("pipeline_*", "collector_records_total"));
  EXPECT_TRUE(glob_match("a?c", "abc"));
  EXPECT_FALSE(glob_match("a?c", "ac"));
  EXPECT_TRUE(glob_match("*latency*le=\"256\"*",
                         "pipeline_stage_latency_ms_bucket{stage=\"decode\","
                         "le=\"256\"}"));
  EXPECT_TRUE(glob_match("exact", "exact"));
  EXPECT_FALSE(glob_match("exact", "exactly"));
  EXPECT_TRUE(glob_match("a*b*c", "a__b___bc"));
  EXPECT_FALSE(glob_match("a*b*c", "a__b___b"));
}

TEST(MetricsRecorder, RingWrapKeepsCounterReconstructionExact) {
  Registry registry;
  Counter& c = registry.counter("wrap_total", {}, "help");
  MetricsRecorder recorder(registry, manual_config(/*capacity=*/4));

  // 11 samples through a 4-slot ring: the anchor rolls forward 7 times.
  std::vector<std::uint64_t> absolutes;
  std::uint64_t bump = 1;
  for (int i = 0; i < 11; ++i) {
    c.add(bump);
    bump = bump * 3 + 1;  // irregular increments, not a simple ramp
    absolutes.push_back(registry.snapshot().counter_value("wrap_total"));
    recorder.sample();
  }

  const auto history = recorder.query("wrap_total", 0);
  const HistorySeries* s = find_series(history, "wrap_total");
  ASSERT_NE(s, nullptr);
  EXPECT_EQ(s->type, "counter");
  ASSERT_EQ(s->points.size(), 4u);  // the ring retains the newest 4
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(static_cast<std::uint64_t>(s->points[i].second),
              absolutes[absolutes.size() - 4 + i])
        << "point " << i;
  }
  EXPECT_DOUBLE_EQ(recorder.ring_occupancy(), 1.0);
  EXPECT_EQ(recorder.samples(), 11u);
}

// The acceptance property: reconstruction from the delta rings must equal
// the sequence of registry snapshots an external scraper would have seen,
// for every kind of series (counter, gauge, histogram buckets/count/sum).
TEST(MetricsRecorder, DifferentialReconstructionMatchesScrapedSequence) {
  Registry registry;
  Counter& a = registry.counter("diff_total", "kind=\"a\"", "help");
  Counter& b = registry.counter("diff_total", "kind=\"b\"", "help");
  Gauge& g = registry.gauge("diff_gauge", {}, "help");
  Histogram& h = registry.histogram("diff_lat", {1.0, 10.0, 100.0},
                                    "stage=\"x\"", "help");
  MetricsRecorder recorder(registry, manual_config(/*capacity=*/64));

  std::vector<RegistrySnapshot> scraped;
  double x = 0.37;
  for (int round = 0; round < 20; ++round) {
    a.add(static_cast<std::uint64_t>(round) * 7 + 1);
    if (round % 3 == 0) b.add(1'000'000'000ULL + round);
    x = 4.0 * x * (1.0 - x);  // chaotic but deterministic gauge values
    g.set(x * 1e6);
    h.observe(x * 150.0);
    h.observe(0.5);
    // The independent scrape: exactly the data /metrics renders.
    scraped.push_back(registry.snapshot());
    recorder.sample();
  }

  const auto history = recorder.query("diff_*", 0);
  const std::string text = registry.expose_text();
  ASSERT_EQ(history.size(), 2u + 1u + (4u + 1u + 1u));  // 2 ctr, gauge, histo
  for (const auto& series : history) {
    // Ids use the text-exposition spelling: every one must appear
    // verbatim in a /metrics scrape.
    EXPECT_NE(text.find(series.id + " "), std::string::npos) << series.id;
    ASSERT_EQ(series.points.size(), scraped.size()) << series.id;
  }

  for (std::size_t t = 0; t < scraped.size(); ++t) {
    const RegistrySnapshot& snap = scraped[t];
    const auto expect_point = [&](const std::string& id, double expected,
                                  bool exact_integer) {
      const HistorySeries* s = find_series(history, id);
      ASSERT_NE(s, nullptr) << id;
      if (exact_integer) {
        EXPECT_EQ(static_cast<std::uint64_t>(s->points[t].second),
                  static_cast<std::uint64_t>(expected))
            << id << " tick " << t;
      } else {
        EXPECT_DOUBLE_EQ(s->points[t].second, expected) << id << " tick " << t;
      }
    };
    expect_point("diff_total{kind=\"a\"}",
                 static_cast<double>(snap.counter_value("diff_total",
                                                        "kind=\"a\"")),
                 true);
    expect_point("diff_total{kind=\"b\"}",
                 static_cast<double>(snap.counter_value("diff_total",
                                                        "kind=\"b\"")),
                 true);
    for (const GaugeSnapshot& gs : snap.gauges) {
      if (gs.name == "diff_gauge") expect_point("diff_gauge", gs.value, false);
    }
    for (const HistogramSnapshot& hs : snap.histograms) {
      if (hs.name != "diff_lat") continue;
      const char* le[] = {"1", "10", "100", "+Inf"};
      for (std::size_t i = 0; i < hs.cumulative.size(); ++i) {
        expect_point("diff_lat_bucket{stage=\"x\",le=\"" +
                         std::string(le[i]) + "\"}",
                     static_cast<double>(hs.cumulative[i]), true);
      }
      expect_point("diff_lat_count{stage=\"x\"}",
                   static_cast<double>(hs.count), true);
      expect_point("diff_lat_sum{stage=\"x\"}", hs.sum, false);
    }
  }
}

TEST(MetricsRecorder, RetiredSeriesDropAndReregisterStartsFresh) {
  Registry registry;
  registry.counter("retire_total", {}, "help").add(41);
  MetricsRecorder recorder(registry, manual_config());
  recorder.sample();
  ASSERT_NE(find_series(recorder.query("retire_total", 0), "retire_total"),
            nullptr);

  ASSERT_TRUE(registry.remove_counter("retire_total"));
  recorder.sample();
  EXPECT_EQ(find_series(recorder.query("retire_total", 0), "retire_total"),
            nullptr);

  // Re-registration must not inherit the old ring: the first point is the
  // fresh absolute value, not a delta against the retired series.
  registry.counter("retire_total", {}, "help").add(5);
  recorder.sample();
  const auto history = recorder.query("retire_total", 0);
  const HistorySeries* s = find_series(history, "retire_total");
  ASSERT_NE(s, nullptr);
  ASSERT_EQ(s->points.size(), 1u);
  EXPECT_EQ(static_cast<std::uint64_t>(s->points[0].second), 5u);
}

TEST(MetricsRecorder, WindowParameterTrimsOldSamples) {
  Registry registry;
  Counter& c = registry.counter("window_total", {}, "help");
  MetricsRecorder recorder(registry, manual_config());
  c.add(1);
  recorder.sample();
  std::this_thread::sleep_for(std::chrono::milliseconds(1100));
  c.add(1);
  recorder.sample();

  const auto all = recorder.query("window_total", 0);
  ASSERT_NE(find_series(all, "window_total"), nullptr);
  EXPECT_EQ(find_series(all, "window_total")->points.size(), 2u);
  // A 1-second window measured from the newest stamp excludes the first.
  const auto recent = recorder.query("window_total", 1);
  ASSERT_NE(find_series(recent, "window_total"), nullptr);
  ASSERT_EQ(find_series(recent, "window_total")->points.size(), 1u);
  EXPECT_EQ(
      static_cast<std::uint64_t>(
          find_series(recent, "window_total")->points[0].second),
      2u);
}

TEST(MetricsRecorder, CsvMatchesGolden) {
  Registry registry;
  registry.counter("golden_total", "q=\"a,b\"", "help").add(3);
  registry.gauge("golden_gauge", {}, "help").set(1.5);
  MetricsRecorder recorder(registry, manual_config());
  recorder.sample();
  registry.counter("golden_total", "q=\"a,b\"", "help").add(4);
  registry.gauge("golden_gauge", {}, "help").set(-2.0);
  // Stamps are wall-clock milliseconds; keep the two samples in distinct
  // milliseconds so the T0/T1 normalization below can tell them apart.
  std::this_thread::sleep_for(std::chrono::milliseconds(3));
  recorder.sample();

  // Normalize the wall-clock stamp column (T0, T1, ... in first-seen
  // order); everything else must match the golden byte for byte. The
  // counter id carries a comma and quotes, so the golden also pins the
  // RFC 4180 quoting (interior quotes doubled).
  std::string csv = recorder.to_csv("golden_*", 0);
  std::map<std::string, std::string> stamp_names;
  std::string normalized;
  std::size_t pos = 0;
  while (pos < csv.size()) {
    const std::size_t eol = std::min(csv.find('\n', pos), csv.size());
    std::string line = csv.substr(pos, eol - pos);
    pos = eol + 1;
    const std::size_t comma = line.find(',');
    const std::string first = line.substr(0, comma);
    if (!first.empty() && first != "unix_ms") {
      const auto it = stamp_names
                          .try_emplace(first,
                                       "T" + std::to_string(stamp_names.size()))
                          .first;
      line = it->second + line.substr(comma);
    }
    normalized += line;
    normalized += '\n';
  }
  const std::string golden =
      "unix_ms,series,type,value\n"
      "T0,\"golden_gauge\",gauge,1.5\n"
      "T1,\"golden_gauge\",gauge,-2\n"
      "T0,\"golden_total{q=\"\"a,b\"\"}\",counter,3\n"
      "T1,\"golden_total{q=\"\"a,b\"\"}\",counter,7\n";
  EXPECT_EQ(normalized, golden);
}

TEST(MetricsRecorder, JournalRotatesOnDisk) {
  const auto dir = std::filesystem::temp_directory_path() /
                   ("recorder_journal_" + std::to_string(::getpid()));
  std::filesystem::create_directories(dir);
  {
    Registry registry;
    Counter& c = registry.counter("journal_total", {}, "help");
    RecorderConfig cfg = manual_config();
    cfg.journal_path = (dir / "hist.csv").string();
    cfg.journal_rotate_samples = 2;
    MetricsRecorder recorder(registry, cfg);
    for (int i = 0; i < 5; ++i) {
      c.add(1);
      recorder.sample();
      // Journal files are named by the sample's unix_ms; keep rotations in
      // distinct milliseconds so files cannot collide.
      std::this_thread::sleep_for(std::chrono::milliseconds(3));
    }
  }
  std::size_t journals = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind("hist.csv.", 0) != 0) continue;
    ++journals;
    std::FILE* f = std::fopen(entry.path().c_str(), "rb");
    ASSERT_NE(f, nullptr);
    char head[32] = {};
    const std::size_t n = std::fread(head, 1, sizeof(head) - 1, f);
    std::fclose(f);
    EXPECT_EQ(std::string(head, n).rfind("unix_ms,series,type,value", 0), 0u);
  }
  // 5 samples at 2 per file: at least two rotated journals hit the disk.
  EXPECT_GE(journals, 2u);
  std::filesystem::remove_all(dir);
}

TEST(MetricsRecorder, JournalWriteErrorsAreCountedAndSamplingContinues) {
  const auto missing = std::filesystem::temp_directory_path() /
                       ("recorder_missing_" + std::to_string(::getpid())) /
                       "no_such_dir";
  ASSERT_FALSE(std::filesystem::exists(missing));
  Registry registry;
  Counter& c = registry.counter("journal_total", {}, "help");
  RecorderConfig cfg = manual_config();
  cfg.journal_path = (missing / "hist.csv").string();
  MetricsRecorder recorder(registry, cfg);
  const Counter& errors = registry.counter("recorder_journal_write_errors_total");
  std::uint64_t last_errors = 0;
  for (int i = 1; i <= 3; ++i) {
    c.add(1);
    recorder.sample();
    EXPECT_EQ(recorder.samples(), static_cast<std::uint64_t>(i));
    EXPECT_GT(errors.value(), last_errors) << "sample " << i;
    last_errors = errors.value();
  }
  // The ring kept recording while the journal failed.
  const auto all = recorder.query("journal_total", 0);
  const HistorySeries* s = find_series(all, "journal_total");
  ASSERT_NE(s, nullptr);
  ASSERT_EQ(s->points.size(), 3u);
  EXPECT_EQ(s->points.back().second, 3.0);
  EXPECT_FALSE(std::filesystem::exists(missing));
}

TEST(MetricsRecorder, OwnedThreadSamplesOnItsOwn) {
  Registry registry;
  registry.counter("threaded_total", {}, "help").add(1);
  RecorderConfig cfg;
  cfg.interval = std::chrono::milliseconds(5);
  cfg.capacity = 16;
  MetricsRecorder recorder(registry, cfg);
  recorder.start();
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (recorder.samples() < 3 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  recorder.stop();
  EXPECT_GE(recorder.samples(), 3u);
  const std::uint64_t settled = recorder.samples();
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_EQ(recorder.samples(), settled);  // stop() really stopped it
}

}  // namespace
}  // namespace lockdown::obs
