#pragma once

// Structured result reporting for the figure/table binaries. A Reporter
// collects (sweep label, scheme) cells and emits them three ways:
//   - human-readable pivot tables (always, matching the paper's layout),
//   - CSV rows on stdout when ROBUSTORE_CSV is set (plotting pipelines),
//   - a BENCH_<id>.json trajectory file when ROBUSTORE_JSON is set
//     (ROBUSTORE_JSON=1 writes to the working directory; any other value
//     is used as the target directory).

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "core/run_env.hpp"
#include "metrics/metrics.hpp"
#include "telemetry/host_profiler.hpp"

namespace robustore::bench {

/// `, "key": v` — the number formats of every BENCH_*.json.
inline void appendNum(std::string& out, const char* key, double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), ", \"%s\": %.6g", key, v);
  out += buf;
}
inline void appendCount(std::string& out, const char* key, std::uint64_t v) {
  out += ", \"";
  out += key;
  out += "\": " + std::to_string(v);
}

/// Writes `text` as <dir>/BENCH_<id>.json and prints `note` plus the path,
/// or complains on stderr as "<who>: cannot write <path>".
inline void writeArtifact(const std::string& dir, const std::string& id,
                          const std::string& text, const char* who,
                          const char* note = "\njson trajectory written to ") {
  const std::string path = dir + "/BENCH_" + id + ".json";
  std::FILE* f = std::fopen(path.c_str(), "w");
  const bool ok = f != nullptr &&
                  std::fwrite(text.data(), 1, text.size(), f) == text.size();
  if (f != nullptr && std::fclose(f) == 0 && ok) {
    std::printf("%s%s\n", note, path.c_str());
  } else {
    std::fprintf(stderr, "%s: cannot write %s\n", who, path.c_str());
  }
}

/// One (sweep label, scheme) cell: the three §6.2.3 paper metrics plus
/// the latency tail the stddev only summarises.
struct ReportRow {
  std::string label;
  std::string scheme;
  double bandwidth_mbps = 0.0;
  double latency_mean_s = 0.0;
  double latency_stddev_s = 0.0;
  double latency_p50_s = 0.0;
  double latency_p95_s = 0.0;
  double io_overhead = 0.0;
  double reception_overhead = 0.0;
  // Filer-cache hits per completed access (zero when caches are off).
  double cache_hits_mean = 0.0;
  // Degraded-mode telemetry (zero when the run saw no faults).
  double failures_survived_mean = 0.0;
  double reissued_requests_mean = 0.0;
  double time_lost_s = 0.0;
  // Per-stage latency decomposition, mean seconds per completed access
  // (all zero unless the run traced; see ExperimentConfig::trace).
  double stage_mean_s[trace::kNumStages] = {};
  // Tail quantiles (end-to-end exact via SampleSet; per-stage via the
  // mergeable QuantileHistogram, <1% relative error). Populated only
  // when the aggregate carried stage histograms — i.e. the run traced or
  // flight-recorded — so untraced reports stay byte-identical.
  bool stage_quantiles = false;
  double latency_p99_s = 0.0;
  double latency_p999_s = 0.0;
  double stage_p50_s[trace::kNumStages] = {};
  double stage_p99_s[trace::kNumStages] = {};
  double stage_p999_s[trace::kNumStages] = {};
  std::size_t trials = 0;
  std::size_t incomplete = 0;
};

class Reporter {
 public:
  /// `id` names the emitted artifact (e.g. "fig_6_5"); `xlabel` is the
  /// swept parameter shown as the first table column.
  Reporter(std::string id, std::string xlabel)
      : id_(std::move(id)), xlabel_(std::move(xlabel)) {}

  void add(const std::string& label, const std::string& scheme,
           const metrics::AccessAggregate& agg) {
    ReportRow row;
    row.label = label;
    row.scheme = scheme;
    row.bandwidth_mbps = agg.meanBandwidthMBps();
    row.latency_mean_s = agg.meanLatency();
    row.latency_stddev_s = agg.latencyStdDev();
    row.latency_p50_s = agg.latencyPercentile(50.0);
    row.latency_p95_s = agg.latencyPercentile(95.0);
    row.io_overhead = agg.meanIoOverhead();
    row.reception_overhead = agg.meanReceptionOverhead();
    row.cache_hits_mean = agg.meanCacheHits();
    row.failures_survived_mean = agg.meanFailuresSurvived();
    row.reissued_requests_mean = agg.meanReissuedRequests();
    row.time_lost_s = agg.meanTimeLostToFailures();
    for (std::uint8_t s = 0; s < trace::kNumStages; ++s) {
      row.stage_mean_s[s] =
          agg.meanStageSeconds(static_cast<trace::Stage>(s));
    }
    if (agg.stageQuantilesRecorded()) {
      row.stage_quantiles = true;
      row.latency_p99_s = agg.latencyPercentile(99.0);
      row.latency_p999_s = agg.latencyPercentile(99.9);
      for (std::uint8_t s = 0; s < trace::kNumStages; ++s) {
        const auto stage = static_cast<trace::Stage>(s);
        row.stage_p50_s[s] = agg.stageQuantile(stage, 50.0);
        row.stage_p99_s[s] = agg.stageQuantile(stage, 99.0);
        row.stage_p999_s[s] = agg.stageQuantile(stage, 99.9);
      }
    }
    row.trials = agg.trials();
    row.incomplete = agg.incompleteCount();
    add(std::move(row));
  }

  void add(ReportRow row) {
    noteUnique(labels_, row.label);
    noteUnique(schemes_, row.scheme);
    rows_.push_back(std::move(row));
  }

  [[nodiscard]] const std::vector<ReportRow>& rows() const { return rows_; }

  /// Human tables, plus the CSV / JSON side channels when their
  /// environment knobs are set.
  void emit(bool include_reception = false) const {
    printTable("Average bandwidth (MBps)", " %12.1f",
               [](const ReportRow& r) { return r.bandwidth_mbps; });
    printTable("Std deviation of access latency (s)", " %12.3f",
               [](const ReportRow& r) { return r.latency_stddev_s; });
    printTable("I/O overhead (fraction of data size)", " %12.2f",
               [](const ReportRow& r) { return r.io_overhead; });
    if (include_reception) {
      printTable("Reception overhead (blocks received / K - 1)", " %12.2f",
                 [](const ReportRow& r) { return r.reception_overhead; });
    }
    if (cacheUsed()) {
      printTable("Filer cache hits (mean per access)", " %12.1f",
                 [](const ReportRow& r) { return r.cache_hits_mean; });
    }
    bool degraded = false;
    for (const auto& r : rows_) {
      degraded |= r.failures_survived_mean > 0.0 ||
                  r.reissued_requests_mean > 0.0;
    }
    if (degraded) {
      printTable("Failures survived (mean per access)", " %12.2f",
                 [](const ReportRow& r) { return r.failures_survived_mean; });
      printTable("Re-issued requests (mean per access)", " %12.2f",
                 [](const ReportRow& r) { return r.reissued_requests_mean; });
      printTable("Time lost to failures (s, mean)", " %12.3f",
                 [](const ReportRow& r) { return r.time_lost_s; });
    }
    for (std::uint8_t s = 0; s < trace::kNumStages; ++s) {
      if (!stageUsed(s)) continue;
      char title[80];
      std::snprintf(title, sizeof(title), "Mean %s per access (s)",
                    trace::stageName(static_cast<trace::Stage>(s)));
      printTable(title, " %12.4f",
                 [s](const ReportRow& r) { return r.stage_mean_s[s]; });
    }
    if (quantilesUsed()) {
      printTable("Access latency p99 (s)", " %12.3f",
                 [](const ReportRow& r) { return r.latency_p99_s; });
      for (std::uint8_t s = 0; s < trace::kNumStages; ++s) {
        if (!stageUsed(s)) continue;
        char title[80];
        std::snprintf(title, sizeof(title), "p99 %s per access (s)",
                      trace::stageName(static_cast<trace::Stage>(s)));
        printTable(title, " %12.4f",
                   [s](const ReportRow& r) { return r.stage_p99_s[s]; });
      }
    }
    printIncompleteNote();
    if (core::RunEnv::csv()) emitCsv(stdout);
    if (const auto dir = core::RunEnv::jsonDir()) {
      writeArtifact(*dir, id_, json(), "reporter",
                    "json trajectory written to ");
    }
    std::printf("\n");
  }

  /// CSV rows (stable format: plotting pipelines depend on the columns;
  /// the cache_hits_mean column appears only when some access hit a
  /// cache, keeping cache-free pipelines unchanged).
  void emitCsv(std::FILE* out) const {
    const bool cache = cacheUsed();
    // Quantile columns appear only in traced/flight-recorded runs, like
    // the cache column: untraced CSV pipelines see unchanged rows.
    const bool quant = quantilesUsed();
    std::fprintf(out,
                 "\ncsv,%s,scheme,bandwidth_mbps,latency_stddev_s,"
                 "io_overhead,reception_overhead%s%s\n",
                 xlabel_.c_str(), cache ? ",cache_hits_mean" : "",
                 quant ? ",latency_p99_s,latency_p999_s" : "");
    for (const auto& r : rows_) {
      std::fprintf(out, "csv,%s,%s,%.3f,%.4f,%.4f,%.4f", r.label.c_str(),
                   r.scheme.c_str(), r.bandwidth_mbps, r.latency_stddev_s,
                   r.io_overhead, r.reception_overhead);
      if (cache) std::fprintf(out, ",%.2f", r.cache_hits_mean);
      if (quant) {
        std::fprintf(out, ",%.4f,%.4f", r.latency_p99_s, r.latency_p999_s);
      }
      std::fprintf(out, "\n");
    }
  }

  [[nodiscard]] std::string json() const {
    std::string out = "{\n  \"id\": \"" + escape(id_) + "\",\n  \"xlabel\": \"" +
                      escape(xlabel_) + "\",\n  \"rows\": [\n";
    for (std::size_t i = 0; i < rows_.size(); ++i) {
      const auto& r = rows_[i];
      out += "    {\"label\": \"" + escape(r.label) + "\", \"scheme\": \"" +
             escape(r.scheme) + "\"";
      appendNum(out, "bandwidth_mbps", r.bandwidth_mbps);
      appendNum(out, "latency_mean_s", r.latency_mean_s);
      appendNum(out, "latency_stddev_s", r.latency_stddev_s);
      appendNum(out, "latency_p50_s", r.latency_p50_s);
      appendNum(out, "latency_p95_s", r.latency_p95_s);
      appendNum(out, "io_overhead", r.io_overhead);
      appendNum(out, "reception_overhead", r.reception_overhead);
      // Like the stage fields below: emitted only when observed, so
      // cache-free reports stay byte-identical to earlier versions.
      if (cacheUsed()) {
        appendNum(out, "cache_hits_mean", r.cache_hits_mean);
      }
      appendNum(out, "failures_survived_mean", r.failures_survived_mean);
      appendNum(out, "reissued_requests_mean", r.reissued_requests_mean);
      appendNum(out, "time_lost_s", r.time_lost_s);
      // Stage fields appear only in traced runs, keeping untraced output
      // byte-identical to pre-tracing reports.
      for (std::uint8_t s = 0; s < trace::kNumStages; ++s) {
        if (!stageUsed(s)) continue;
        appendNum(out, stageKey(s).c_str(), r.stage_mean_s[s]);
      }
      // Quantile fields follow the same conditional-emission pattern.
      if (quantilesUsed()) {
        appendNum(out, "latency_p99_s", r.latency_p99_s);
        appendNum(out, "latency_p999_s", r.latency_p999_s);
        for (std::uint8_t s = 0; s < trace::kNumStages; ++s) {
          if (!stageUsed(s)) continue;
          appendNum(out, stageKey(s, "_p50_s").c_str(),
                       r.stage_p50_s[s]);
          appendNum(out, stageKey(s, "_p99_s").c_str(),
                       r.stage_p99_s[s]);
          appendNum(out, stageKey(s, "_p999_s").c_str(),
                       r.stage_p999_s[s]);
        }
      }
      out += ", \"trials\": " + std::to_string(r.trials);
      out += ", \"incomplete\": " + std::to_string(r.incomplete);
      out += i + 1 < rows_.size() ? "},\n" : "}\n";
    }
    out += "  ]";
    // Simulator self-profile: present only when trials ran with
    // ROBUSTORE_HOST_PROFILE, so default reports stay byte-identical.
    const telemetry::HostProfile hp = telemetry::HostProfiler::globalSnapshot();
    if (!hp.empty()) {
      out += ",\n  \"host_profile\": {";
      out += "\"trials\": " + std::to_string(hp.trials);
      appendNum(out, "wall_s", hp.wall_seconds);
      out += ", \"scopes\": {";
      for (std::size_t s = 0; s < telemetry::kNumHostScopes; ++s) {
        if (s > 0) out += ", ";
        out += "\"";
        out += telemetry::hostScopeName(static_cast<telemetry::HostScope>(s));
        out += "\": {\"seconds\": ";
        char buf[32];
        std::snprintf(buf, sizeof(buf), "%.6g", hp.seconds[s]);
        out += buf;
        out += ", \"calls\": " + std::to_string(hp.calls[s]) + "}";
      }
      out += "}}";
    }
    out += "\n}\n";
    return out;
  }

 private:
  /// Cache hits are reported once any row observed one.
  [[nodiscard]] bool cacheUsed() const {
    for (const auto& r : rows_) {
      if (r.cache_hits_mean > 0.0) return true;
    }
    return false;
  }

  /// A stage is reported once any row observed time in it.
  [[nodiscard]] bool stageUsed(std::uint8_t s) const {
    for (const auto& r : rows_) {
      if (r.stage_mean_s[s] > 0.0) return true;
    }
    return false;
  }

  /// Quantiles are reported once any row's aggregate recorded stage
  /// histograms (traced or flight-recorded runs).
  [[nodiscard]] bool quantilesUsed() const {
    for (const auto& r : rows_) {
      if (r.stage_quantiles) return true;
    }
    return false;
  }

  /// JSON key for a stage: "disk.queue_wait" + "_s" ->
  /// "stage_disk_queue_wait_s" (suffix "_p99_s" for the quantile keys).
  [[nodiscard]] static std::string stageKey(std::uint8_t s,
                                            const char* suffix = "_s") {
    std::string key = "stage_";
    for (const char* p = trace::stageName(static_cast<trace::Stage>(s));
         *p != '\0'; ++p) {
      key.push_back(*p == '.' ? '_' : *p);
    }
    key += suffix;
    return key;
  }

  static void noteUnique(std::vector<std::string>& seen,
                         const std::string& value) {
    for (const auto& s : seen) {
      if (s == value) return;
    }
    seen.push_back(value);
  }

  [[nodiscard]] const ReportRow* find(const std::string& label,
                                      const std::string& scheme) const {
    for (const auto& r : rows_) {
      if (r.label == label && r.scheme == scheme) return &r;
    }
    return nullptr;
  }

  template <typename Fn>
  void printTable(const char* title, const char* fmt, Fn value) const {
    std::printf("\n%s\n", title);
    std::printf("%-12s", xlabel_.c_str());
    for (const auto& s : schemes_) std::printf(" %12s", s.c_str());
    std::printf("\n");
    for (const auto& label : labels_) {
      std::printf("%-12s", label.c_str());
      for (const auto& s : schemes_) {
        const ReportRow* r = find(label, s);
        if (r != nullptr) {
          std::printf(fmt, value(*r));
        } else {
          std::printf(" %12s", "-");
        }
      }
      std::printf("\n");
    }
  }

  void printIncompleteNote() const {
    bool any = false;
    for (const auto& r : rows_) any |= r.incomplete > 0;
    if (!any) return;
    std::printf("\nNote: some accesses hit the simulation timeout:\n");
    for (const auto& r : rows_) {
      if (r.incomplete > 0) {
        std::printf("  %s @ %s: %zu incomplete\n", r.scheme.c_str(),
                    r.label.c_str(), r.incomplete);
      }
    }
  }

  static std::string escape(const std::string& s) {
    std::string out;
    out.reserve(s.size());
    for (const char c : s) {
      if (c == '"' || c == '\\') out.push_back('\\');
      if (c == '\n') {
        out += "\\n";
      } else {
        out.push_back(c);
      }
    }
    return out;
  }

  std::string id_;
  std::string xlabel_;
  std::vector<std::string> labels_;   // insertion order
  std::vector<std::string> schemes_;  // insertion order
  std::vector<ReportRow> rows_;
};

}  // namespace robustore::bench
