// Shared scaffolding of the end-to-end benchmark: run options, the round
// loop, per-operation timing, layer spans and the result document.
//
// Every workload is a fixed list of operations (one "round") that the run
// repeats until --seconds have passed, each operation timed from outside
// the library. Timings are the fast decile (10th percentile) of identical
// operations: on a shared machine the same operation runs up to 1.5x
// slower in phases lasting seconds to a minute, which moved per-operation
// medians two to three times as much as the fast decile between runs.
#pragma once

#include <cstdint>
#include <exception>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "fusion/transformer.hpp"
#include "gpu/device_spec.hpp"
#include "ir/program.hpp"
#include "search/hgga.hpp"
#include "telemetry/span_tracer.hpp"
#include "telemetry/telemetry.hpp"
#include "util/stopwatch.hpp"

namespace kf::perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Holds the run's stores and traces. Defaults to a directory of this
  /// process's own, .bench_out/<workload>-<pid>.
  std::string out_dir;
};

/// Seconds since this process started (static initialisation).
double process_elapsed_s();

// ---- statistics ---------------------------------------------------------

double median(std::vector<double> values);
/// Linear-interpolation percentile, p in [0, 100]; 0 for an empty sample.
double percentile(std::vector<double> values, double p);
double geomean(const std::vector<double>& values);

/// The percentile timings report: the fast decile.
inline constexpr double kFastPercentile = 10.0;

/// Wall times of each operation across rounds.
class OpTimes {
 public:
  void add(std::size_t op, double seconds);
  /// One round's wall time: the sum over operations of each operation's
  /// fast-decile time across the run's rounds.
  double round_s() const;

 private:
  std::vector<std::vector<double>> times_;
};

/// Samples split by key (a program/device pair). A mixture's median jumps
/// between keys as their shares shift, so a key-mixed latency is reported
/// as the geometric mean over keys of each key's own percentile.
class KeyedSamples {
 public:
  void add(std::size_t key, double value);
  double geomean_of(double percentile_p, double scale) const;

 private:
  std::vector<std::vector<double>> samples_;
};

// ---- layer tracing ------------------------------------------------------

/// The traced half of a --trace 1 run: one span tracer per traced round,
/// shared with the library (its own spans land there too), plus one
/// duration sample per layer call the benchmark makes, filed under the
/// call's key. Each call is also a span, so the library's spans nest under
/// the benchmark's in the trace.
class Layers {
 public:
  Layers();

  class Call {
   public:
    Call(Layers* layers, const char* name, std::size_t key);
    Call(const Call&) = delete;
    Call& operator=(const Call&) = delete;
    ~Call();

   private:
    Layers* layers_;
    const char* name_;
    std::size_t key_;
    SpanTracer::Scope span_;
    Stopwatch watch_;
  };

  /// Telemetry carrying only the current round's span tracer.
  const Telemetry* telemetry() const noexcept { return &telemetry_; }
  /// Starts a fresh tracer for the next traced round. Spans recorded before
  /// the first call belong to set-up and count in no round.
  void next_round();

  const KeyedSamples& samples(const std::string& name) const;
  /// Self time of the spans named `names` in each round (seconds).
  std::vector<double> self_per_round(const std::vector<std::string>& names) const;
  long dropped() const;
  /// Writes set-up's and the first traced round's spans as Chrome traces
  /// `<prefix>-setup.json` and `<prefix>-round.json`.
  void write_chrome_traces(const std::string& prefix) const;

 private:
  std::vector<std::unique_ptr<SpanTracer>> tracers_;
  Telemetry telemetry_;
  std::map<std::string, KeyedSamples> samples_;
};

/// The HGGA's evaluation layer: the pass span and its three sub-stages.
inline const std::vector<std::string> kEvaluateSpans = {
    "hgga.evaluate", "hgga.resolve", "hgga.eval_misses", "hgga.score"};

/// Times one layer call when `layers` is non-null; inert otherwise. `key`
/// names the program/device pair the call works on.
inline Layers::Call layer(Layers* layers, const char* name, std::size_t key = 0) {
  return Layers::Call(layers, name, key);
}

/// Runs one warm-up round, then repeats whole rounds until
/// `options.seconds` have passed (at least one). Untraced runs pass a null
/// Layers to every round; traced runs alternate an untraced and a traced
/// round, so both halves see the same machine and the run ends on a whole
/// pair. `round(index, layers)` returns nothing. Returns set-up time: the
/// seconds from process start to the end of the warm-up round, which fills
/// caches and allocator pools and makes set-up long enough to time.
template <typename Round>
double run_rounds(const Options& options, Layers* layers, Round&& round) {
  int rounds = 0;
  round(rounds++, nullptr);
  const double setup_s = process_elapsed_s();
  Stopwatch watch;
  do {
    round(rounds++, nullptr);
    if (layers != nullptr) {
      layers->next_round();
      round(rounds++, layers);
    }
  } while (watch.elapsed_s() < options.seconds);
  return setup_s;
}

// ---- result document ----------------------------------------------------

struct Result {
  bool correct = true;
  long attempted = 0;
  long failed = 0;
  struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
  };
  std::vector<Metric> metrics;
  std::vector<std::string> errors;  ///< failed output checks and operations

  void set(const std::string& name, double value, const std::string& unit);
  /// Records a failed output check (the run reports correct=false).
  void fail(const std::string& what);
  std::string to_json() const;

  /// Runs one operation and counts it attempted. It counts as failed when
  /// an output check inside it fails or it throws; a throw is recorded and
  /// the run goes on with the next operation.
  template <typename Body>
  void operation(Body&& body) {
    ++attempted;
    const std::size_t errors_before = errors.size();
    try {
      body();
    } catch (const std::exception& e) {
      errors.push_back(std::string("operation threw: ") + e.what());
    }
    if (errors.size() > errors_before) ++failed;
  }
};

/// Sets every end-to-end metric: set-up time, one round's fast-decile wall
/// time, peak RSS, the geometric-mean plan and simulated speedups, and the
/// hit and miss latencies.
void report_end_to_end(Result& result, double setup_s, const OpTimes& untraced,
                       const std::vector<double>& plan_speedups,
                       const std::vector<double>& sim_speedups, double hit_p10_us,
                       double miss_p10_ms);

/// Sets the per-layer metrics every workload shares (expansion, checker
/// build, the HGGA and its span self times, tracing overhead), fails the
/// run if a span buffer overflowed, and writes the Chrome traces.
void report_common_layers(Result& result, const Layers& layers, const OpTimes& traced,
                          const OpTimes& untraced, const Options& options);

/// Every per-layer metric, in BENCHMARK.json order, with its unit; a
/// workload that never calls a layer reports it as 0.
const std::vector<std::pair<std::string, std::string>>& per_layer_metrics();

/// Fills every per-layer metric that `result` does not set yet with 0.
void complete_per_layer(Result& result);

/// A layer's per-call median: the geometric mean over keys of each key's
/// median, scaled to the metric's unit.
double layer_median(const Layers& layers, const std::string& name, double scale);

/// Simulated run time of `program` over that of its fused launches.
double simulated_speedup(const Program& program, const FusedProgram& fused,
                         const DeviceSpec& device);

// ---- inputs -------------------------------------------------------------

/// A program with the fixed HGGA budget the benchmark searches it under:
/// searches stop on population, generation and stall limits only, never on
/// a clock, so the plan is a function of the HGGA seed alone.
struct Subject {
  std::string name;
  Program program;
  HggaConfig hgga;  ///< seed left for the caller
};

/// rk18 (18 kernels, with bodies), HOMME (43), SCALE-LES (142) and, with
/// `with_suite_256`, the 256-kernel Table V program.
std::vector<Subject> subjects(bool with_suite_256);

/// Deterministic seed for the (a, b)-th search of a run seeded `seed`.
std::uint64_t sub_seed(std::uint64_t seed, int a, int b);

// ---- workloads ----------------------------------------------------------

void run_cold_fuse(const Options& options, Result& result);
void run_warm_hits(const Options& options, Result& result);
void run_serve_mixed(const Options& options, Result& result);

/// Fresh, empty directory `name` under the run's output directory. Throws
/// if it already exists and this process did not make it.
std::string fresh_dir(const Options& options, const std::string& name);

/// Removes every directory fresh_dir made, and nothing else.
void remove_fresh_dirs();

}  // namespace kf::perfbench
