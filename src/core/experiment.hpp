#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "client/cluster.hpp"
#include "client/scheme.hpp"
#include "client/stored_file.hpp"
#include "coding/lt_graph.hpp"
#include "fault/fault.hpp"
#include "metrics/metrics.hpp"
#include "telemetry/telemetry.hpp"
#include "trace/flight_recorder.hpp"
#include "trace/trace.hpp"

namespace robustore::core {

/// Full description of one evaluation experiment: the simulated testbed
/// (§6.2.5 baseline unless overridden) plus the access pattern and the
/// source of performance variation under study.
struct ExperimentConfig {
  // --- testbed -----------------------------------------------------------
  std::uint32_t num_servers = 16;
  std::uint32_t disks_per_server = 8;
  SimTime round_trip = 1.0 * kMilliseconds;
  double nic_bandwidth = mbps(250.0);
  /// Client downlink cap in bytes/s; 0 = plentiful (paper assumption).
  double client_bandwidth = 0.0;
  disk::DiskParams disk_params;
  server::FilerCacheConfig cache;  // disabled unless the experiment says so

  // --- access ------------------------------------------------------------
  client::AccessConfig access;  // 1 GB = 1024 x 1 MB, 3x redundancy
  std::uint32_t disks_per_access = 64;
  coding::LtParams lt;  // C=1, delta=0.5 per §6.2.5
  /// Rateless codec backing RobuSTore (LT per the paper; Raptor per the
  /// §7.3 future-work extension).
  client::CodecKind codec = client::CodecKind::kLt;

  // --- variation sources -------------------------------------------------
  client::LayoutPolicy layout;  // heterogeneous by default (§6.3.1)
  /// kHeterogeneous redraws per-disk intervals before every access
  /// (§6.3.2); kHeterogeneousStatic draws them once for the whole
  /// experiment — a stable hot/cold split that metadata-guided disk
  /// selection (§5.3.1) can learn and avoid.
  enum class Background : std::uint8_t {
    kNone,
    kHomogeneous,
    kHeterogeneous,
    kHeterogeneousStatic,
  };
  Background background = Background::kNone;
  /// Fault schedule applied to every trial: scripted specs index the
  /// trial's selected access disks (spec.disk = i targets the i-th disk
  /// of the access); the stochastic model draws per (seed, trial), so
  /// parallel runs stay bit-identical. Fault times are relative to the
  /// trial start. Coupled experiments (reuse_file /
  /// metadata_disk_selection) ignore the plan: their long-lived cluster
  /// cannot absorb permanent failures meaningfully.
  fault::FaultPlan faults;
  /// Homogeneous: every disk uses this mean interval.
  SimTime bg_interval = 6.0 * kMilliseconds;
  /// Heterogeneous: per-disk mean interval re-drawn uniformly in
  /// [bg_interval_min, bg_interval_max] before every access (§6.3.2).
  SimTime bg_interval_min = 6.0 * kMilliseconds;
  SimTime bg_interval_max = 200.0 * kMilliseconds;

  // --- operation ---------------------------------------------------------
  enum class Op : std::uint8_t { kRead, kWrite, kReadAfterWrite };
  Op op = Op::kRead;
  /// Read-after-write: redraw in-disk layouts between the write and the
  /// read, per the paper's assumption that read-time disk performance is
  /// statistically independent of write-time performance (§6.3.1).
  bool redraw_layout_after_write = true;
  /// Reuse one file across all trials (the §6.3.3 cache experiments rely
  /// on earlier trials having warmed the filer caches). Couples trials
  /// through shared cluster state, so such experiments run sequentially —
  /// see ExperimentRunner::trialsAreCoupled().
  bool reuse_file = false;

  /// Select disks through the metadata server's §5.3.1 policy (load,
  /// free space, site diversity, availability mixing) instead of the
  /// paper's uniform random choice. The policy learns from load reports
  /// of earlier trials, so it also couples trials (sequential execution).
  bool metadata_disk_selection = false;

  // --- observability -----------------------------------------------------
  // Observers attach through core::Stack: no engine events, no rng draws,
  // so simulated results are bit-identical with any of them on or off.
  /// Flight recorder per trial (ROBUSTORE_FLIGHT): per-access stage sums
  /// of reads and writes land in AccessMetrics::stages and the reports;
  /// recorders surface through RunOptions::on_flight in trial order.
  bool flight = false;
  trace::FlightRecorderConfig flight_config;

  // --- trials ------------------------------------------------------------
  std::uint32_t trials = 20;
  std::uint64_t seed = 42;
};

/// Execution knobs for ExperimentRunner::run / runAll — how trials are
/// scheduled, never what they compute. Results are bit-identical for
/// every `threads` value (see the determinism contract in DESIGN.md).
struct RunOptions {
  /// Worker threads for the trial fan-out. 0 = auto: ROBUSTORE_THREADS if
  /// set, else std::thread::hardware_concurrency(). Clamped to the number
  /// of outstanding trials; coupled experiments (reuse_file /
  /// metadata_disk_selection) ignore it and run sequentially.
  unsigned threads = 0;
  /// Progress hook, invoked on the calling thread during the ordered
  /// reduction — trial indices arrive strictly increasing per scheme
  /// regardless of which worker ran the trial.
  std::function<void(client::SchemeKind, std::uint32_t,
                     const metrics::AccessMetrics&)>
      on_trial;
  /// Flight-recorder reduction hook (requires config.flight): invoked on
  /// the calling thread, in strictly increasing trial order per scheme,
  /// with the trial's recorder — absorb() it into a per-scheme recorder
  /// for deterministic slowest-K aggregation. Coupled experiments share
  /// one recorder across trials and never invoke this.
  std::function<void(client::SchemeKind, std::uint32_t,
                     trace::FlightRecorder&)>
      on_flight;
};

/// Runs one experiment configuration for one or all schemes. Each scheme
/// gets a fresh simulated cluster but identical per-trial random streams,
/// so disk selections and layout draws are comparable across schemes.
///
/// Independent trials (the default) fan out across a TrialPool: every
/// trial builds its own engine, cluster, and scheme, and derives all
/// randomness from (config.seed, trial_index) alone, so the aggregate is
/// bit-identical to a serial run no matter the thread count.
class ExperimentRunner {
 public:
  explicit ExperimentRunner(ExperimentConfig config);

  [[nodiscard]] const ExperimentConfig& config() const { return config_; }

  /// Runs all trials for one scheme and aggregates the three paper
  /// metrics. Reduction is in trial order: bit-identical across thread
  /// counts.
  [[nodiscard]] metrics::AccessAggregate run(
      client::SchemeKind kind, const RunOptions& options = {});

  struct SchemeResult {
    client::SchemeKind kind;
    metrics::AccessAggregate aggregate;
  };
  /// Runs the four §6.2.1 schemes in order, fanning the whole
  /// scheme x trial grid out across the pool.
  [[nodiscard]] std::vector<SchemeResult> runAll(
      const RunOptions& options = {});

  /// One independent trial, pure in (config, kind, trial_index): builds a
  /// fresh core::Stack and scheme, derives every random stream from
  /// config.seed and trial_index, and returns the trial's metrics. This
  /// is the unit of work the pool executes; it is also the serial
  /// semantics, which is why parallel runs reproduce serial runs exactly.
  /// Requires !trialsAreCoupled(config).
  ///
  /// `trace_out` (optional) receives the trial's full trace: a recording
  /// tracer is attached for the trial and its records appended to
  /// `trace_out` when the trial ends. Callers merging several trials into
  /// one tracer must append in trial order to keep the
  /// byte-identical-across-thread-counts guarantee.
  ///
  /// `telemetry_out` (optional) receives the time series sampled every
  /// `telemetry_out->sample_dt` and the registry snapshot derived from
  /// them; with `trace_out` the samples also become counter tracks.
  /// `flight_out` (optional, requires config.flight) receives the trial's
  /// flight-recorder state via absorb().
  [[nodiscard]] static metrics::AccessMetrics runTrial(
      const ExperimentConfig& config, client::SchemeKind kind,
      std::uint32_t trial_index, trace::Tracer* trace_out = nullptr,
      telemetry::TrialTelemetry* telemetry_out = nullptr,
      trace::FlightRecorder* flight_out = nullptr);

  /// True when trials share cluster state by design (warm filer caches
  /// via reuse_file, or load learning via metadata_disk_selection) and
  /// must therefore run sequentially against one long-lived cluster.
  [[nodiscard]] static bool trialsAreCoupled(const ExperimentConfig& config) {
    return config.reuse_file || config.metadata_disk_selection;
  }

  /// Runs every trial of a coupled experiment for `kind`, in trial order,
  /// against `cluster`: one long-lived cluster whose state (filer caches,
  /// the metadata server's load records) carries from trial to trial.
  /// run() and runAll() build it, like runTrial's, on a core::Stack that
  /// also attaches the flight recorder when config.flight is set; a caller
  /// passing its own cluster owns its observers. Returns the per-trial metrics.
  /// After each access the client reports the background load it saw on
  /// the access disks to the metadata server (§4.2), except after a
  /// read-after-write whose write failed. The caller owns the cluster, so
  /// it can inspect that state afterwards.
  [[nodiscard]] static std::vector<metrics::AccessMetrics> runCoupled(
      const ExperimentConfig& config, client::SchemeKind kind,
      client::Cluster& cluster);

 private:
  /// The scheme x trial grid behind run() and runAll(): independent trials
  /// fan out across the pool, coupled ones run per scheme in trial order,
  /// and one ordered reduction feeds the hooks and the aggregates.
  [[nodiscard]] std::vector<SchemeResult> runGrid(
      std::span<const client::SchemeKind> kinds, const RunOptions& options);

  ExperimentConfig config_;
};

}  // namespace robustore::core
