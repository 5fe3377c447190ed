#include "bench.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>

#include "apps/homme.hpp"
#include "apps/scale_les.hpp"
#include "apps/testsuite.hpp"
#include "gpu/timing_simulator.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace kf::perfbench {

namespace {
const std::chrono::steady_clock::time_point g_process_start =
    std::chrono::steady_clock::now();
}  // namespace

double process_elapsed_s() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       g_process_start)
      .count();
}

double median(std::vector<double> values) { return percentile(std::move(values), 50.0); }

double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = p / 100.0 * static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + frac * (values[hi] - values[lo]);
}

double geomean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double log_sum = 0.0;
  for (double v : values) log_sum += std::log(v);
  return std::exp(log_sum / static_cast<double>(values.size()));
}

void OpTimes::add(std::size_t op, double seconds) {
  if (op >= times_.size()) times_.resize(op + 1);
  times_[op].push_back(seconds);
}

double OpTimes::round_s() const {
  double total = 0.0;
  for (const std::vector<double>& t : times_) total += percentile(t, kFastPercentile);
  return total;
}

void KeyedSamples::add(std::size_t key, double value) {
  if (key >= samples_.size()) samples_.resize(key + 1);
  samples_[key].push_back(value);
}

double KeyedSamples::geomean_of(double percentile_p, double scale) const {
  std::vector<double> per_key;
  for (const std::vector<double>& s : samples_)
    if (!s.empty()) per_key.push_back(percentile(s, percentile_p) * scale);
  return geomean(per_key);
}

// ---- Layers ---------------------------------------------------------------

namespace {
// Ample for one traced round of any workload; a full buffer drops spans,
// which the run reports as a failed check rather than as wrong self times.
constexpr std::size_t kSpansPerRound = std::size_t{1} << 18;
}  // namespace

Layers::Layers() {
  tracers_.push_back(std::make_unique<SpanTracer>(kSpansPerRound));
  telemetry_.spans = tracers_.back().get();
}

void Layers::next_round() {
  tracers_.push_back(std::make_unique<SpanTracer>(kSpansPerRound));
  telemetry_.spans = tracers_.back().get();
}

Layers::Call::Call(Layers* layers, const char* name, std::size_t key)
    : layers_(layers),
      name_(name),
      key_(key),
      span_(scoped_span(layers != nullptr ? &layers->telemetry_ : nullptr, name, "bench")) {}

Layers::Call::~Call() {
  if (layers_ == nullptr) return;
  const double seconds = watch_.elapsed_s();
  span_.end();
  layers_->samples_[name_].add(key_, seconds);
}

const KeyedSamples& Layers::samples(const std::string& name) const {
  static const KeyedSamples kNone;
  const auto it = samples_.find(name);
  return it == samples_.end() ? kNone : it->second;
}

std::vector<double> Layers::self_per_round(const std::vector<std::string>& names) const {
  std::vector<double> out;
  for (std::size_t i = 1; i < tracers_.size(); ++i) {
    const auto& tracer = tracers_[i];
    double self = 0.0;
    for (const SpanTracer::FlameRow& row : tracer->flame_table())
      if (std::find(names.begin(), names.end(), row.name) != names.end()) self += row.self_s;
    out.push_back(self);
  }
  return out;
}

long Layers::dropped() const {
  long total = 0;
  for (const auto& tracer : tracers_) total += tracer->dropped();
  return total;
}

void Layers::write_chrome_traces(const std::string& prefix) const {
  for (std::size_t i = 0; i < 2 && i < tracers_.size(); ++i) {
    const std::string path = prefix + (i == 0 ? "-setup.json" : "-round.json");
    std::ofstream out(path);
    KF_REQUIRE(static_cast<bool>(out), "cannot write trace file " + path);
    out << tracers_[i]->to_chrome_trace_json();
  }
}

double layer_median(const Layers& layers, const std::string& name, double scale) {
  return layers.samples(name).geomean_of(50.0, scale);
}

double simulated_speedup(const Program& program, const FusedProgram& fused,
                         const DeviceSpec& device) {
  const TimingSimulator sim(device);
  double after = 0.0;
  for (const LaunchDescriptor& d : fused.launches) after += sim.run(program, d).time_s;
  return sim.program_time(program) / after;
}

// ---- Result ---------------------------------------------------------------

void Result::set(const std::string& name, double value, const std::string& unit) {
  for (Metric& m : metrics) {
    if (m.name == name) {
      m.value = value;
      m.unit = unit;
      return;
    }
  }
  metrics.push_back({name, value, unit});
}

void Result::fail(const std::string& what) {
  correct = false;
  errors.push_back(what);
}

std::string Result::to_json() const {
  auto number = [](double v) {
    if (!std::isfinite(v)) return std::string("null");
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return std::string(buf);
  };
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += "\"" + metrics[i].name + "\": {\"value\": " + number(metrics[i].value) +
           ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  out += "}}";
  return out;
}

namespace {
/// Peak resident set of this process image (VmHWM), in MiB. getrusage's
/// ru_maxrss survives execve, so under a launcher it reports the
/// launcher's footprint whenever that is the larger.
double peak_rss_mib() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line))
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
  KF_REQUIRE(false, "no VmHWM line in /proc/self/status");
  return 0.0;
}
}  // namespace

void report_end_to_end(Result& result, double setup_s, const OpTimes& untraced,
                       const std::vector<double>& plan_speedups,
                       const std::vector<double>& sim_speedups, double hit_p10_us,
                       double miss_p10_ms) {
  result.set("setup_s", setup_s, "s");
  result.set("run_s", untraced.round_s(), "s");
  result.set("peak_rss_mb", peak_rss_mib(), "MB");
  result.set("plan_speedup", geomean(plan_speedups), "x");
  result.set("sim_speedup", geomean(sim_speedups), "x");
  result.set("hit_p10_us", hit_p10_us, "us");
  result.set("miss_p10_ms", miss_p10_ms, "ms");
}

void report_common_layers(Result& result, const Layers& layers, const OpTimes& traced,
                          const OpTimes& untraced, const Options& options) {
  result.set("graph.expand_ms", layer_median(layers, "graph.expand", 1e3), "ms");
  result.set("fusion.checker_build_ms", layer_median(layers, "fusion.checker_build", 1e3),
             "ms");
  result.set("search.hgga_s", layer_median(layers, "search.hgga", 1.0), "s");
  result.set("search.init_self_s", median(layers.self_per_round({"hgga.init"})), "s");
  result.set("search.breed_self_s", median(layers.self_per_round({"hgga.breed"})), "s");
  result.set("search.evaluate_self_s", median(layers.self_per_round(kEvaluateSpans)), "s");
  result.set("search.polish_self_s", median(layers.self_per_round({"local_polish"})), "s");
  result.set("telemetry.trace_overhead_pct",
             100.0 * (traced.round_s() / untraced.round_s() - 1.0), "%");
  if (layers.dropped() > 0) result.fail("span buffer overflowed");
  layers.write_chrome_traces(options.out_dir + "/trace-" + options.workload);
}

const std::vector<std::pair<std::string, std::string>>& per_layer_metrics() {
  static const std::vector<std::pair<std::string, std::string>> kMetrics = {
      {"graph.expand_ms", "ms"},
      {"fusion.checker_build_ms", "ms"},
      {"search.hgga_s", "s"},
      {"search.init_self_s", "s"},
      {"search.breed_self_s", "s"},
      {"search.evaluate_self_s", "s"},
      {"search.polish_self_s", "s"},
      {"search.evaluations", "count"},
      {"search.model_evaluations", "count"},
      {"search.cache_hit_ratio", "ratio"},
      {"fusion.apply_ms", "ms"},
      {"fusion.plan_is_legal_us", "us"},
      {"store.fingerprint_us", "us"},
      {"store.get_us", "us"},
      {"store.put_ms", "ms"},
      {"store.journal_bytes", "bytes"},
      {"serve.stage.store_get_us", "us"},
      {"serve.stage.polish_us", "us"},
      {"serve.stage.search_us", "us"},
      {"serve.stage.write_back_us", "us"},
      {"serve.rung.store_hit", "count"},
      {"serve.rung.polished_stored", "count"},
      {"serve.rung.full_search", "count"},
      {"serve.rung.trivial_floor", "count"},
      {"stencil.verify_s", "s"},
      {"stencil.gmem_bytes_original", "bytes"},
      {"stencil.gmem_bytes_fused", "bytes"},
      {"codegen.emit_ms", "ms"},
      {"codegen.source_bytes", "bytes"},
      {"telemetry.trace_overhead_pct", "%"},
  };
  return kMetrics;
}

void complete_per_layer(Result& result) {
  std::vector<Result::Metric> ordered;
  for (const auto& [name, unit] : per_layer_metrics()) {
    double value = 0.0;
    for (const Result::Metric& m : result.metrics)
      if (m.name == name) value = m.value;
    ordered.push_back({name, value, unit});
  }
  result.metrics = std::move(ordered);
}

namespace {
std::vector<std::string>& made_dirs() {
  static std::vector<std::string> dirs;
  return dirs;
}
}  // namespace

std::string fresh_dir(const Options& options, const std::string& name) {
  const std::string dir = options.out_dir + "/" + name;
  std::vector<std::string>& made = made_dirs();
  const bool ours = std::find(made.begin(), made.end(), dir) != made.end();
  KF_REQUIRE(ours || !std::filesystem::exists(dir),
             dir + " exists already; the benchmark only replaces directories it made");
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  if (!ours) made.push_back(dir);
  return dir;
}

void remove_fresh_dirs() {
  std::error_code ec;
  for (const std::string& dir : made_dirs()) std::filesystem::remove_all(dir, ec);
  made_dirs().clear();
}

// ---- inputs ---------------------------------------------------------------

std::vector<Subject> subjects(bool with_suite_256) {
  auto budget = [](int population, int generations, int stall, bool polish) {
    HggaConfig cfg;
    cfg.population = population;
    cfg.max_generations = generations;
    cfg.stall_generations = stall;
    cfg.local_polish = polish;
    return cfg;
  };
  // The final steepest-descent polish has no budget of its own: on
  // SCALE-LES it adds 0.2-1.6 s depending on the seed, and on the
  // 256-kernel program minutes, so those two search without it.
  std::vector<Subject> out;
  out.push_back({"rk18", scale_les_rk18(), budget(24, 40, 20, true)});
  out.push_back({"homme", homme(), budget(24, 40, 20, true)});
  out.push_back({"scale-les", scale_les(), budget(24, 30, 30, false)});
  if (with_suite_256) {
    TestSuiteConfig suite;
    suite.kernels = 256;
    suite.arrays = 512;
    suite.seed = 7;
    out.push_back({"suite-256", make_testsuite_program(suite), budget(16, 10, 10, false)});
  }
  return out;
}

std::uint64_t sub_seed(std::uint64_t seed, int a, int b) {
  return mix64(mix64(seed) ^ (static_cast<std::uint64_t>(a) << 32 |
                              static_cast<std::uint64_t>(b)));
}

}  // namespace kf::perfbench
