// Request-tracing overhead smoke: serving throughput with the full
// observability stack attached (trace scope + wide events + spans + metrics
// with exemplars + SLO samples) vs. a bare PlanServer.
//
// The tracing PR's contract is that per-request observability stays out of
// the serving hot path: the trace id is a 16-byte thread-local install, the
// wide event is one JSONL line per request, and metrics/SLO recording is a
// handful of counter bumps — so a fully-instrumented server must stay
// within a few percent of a bare one on the steady-state (store-hit) path.
// This bench warms the store, replays a request stream through both
// configurations interleaved, and fails when the overhead exceeds the
// budget (--max-overhead PCT, default 3%). Both streams must also serve the
// exact same plans — tracing that changed a response would be a far worse
// bug than a slow one.
//
// The JSON mirror (BENCH_trace_overhead.json) feeds the CI perf-smoke job.
#include <cstring>
#include <filesystem>
#include <sstream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "serve/plan_server.hpp"
#include "store/plan_store.hpp"

namespace kf::bench {
namespace {

std::string fresh_dir(const std::string& name) {
  const std::string dir = std::filesystem::temp_directory_path().string() +
                          "/kf_bench_trace_" + name;
  std::filesystem::remove_all(dir);
  return dir;
}

struct Stream {
  double best_s = 1e300;  ///< best-of-N wall time for the request loop
  std::vector<std::string> plans;
  long wide_events = 0;
  long spans = 0;
};

int run(int argc, char** argv) {
  double max_overhead_pct = 3.0;
  for (int i = 1; i < argc - 1; ++i) {
    if (std::strcmp(argv[i], "--max-overhead") == 0)
      max_overhead_pct = std::atof(argv[i + 1]);
  }

  print_header("Request-tracing overhead on the serving path",
               "the observability layer's <3% tracing-overhead budget");

  // A 256-kernel test-suite program: a store hit fingerprints the program
  // and serves its validated plan from the context's memo, so the
  // per-request floor the overhead is measured against is the serving
  // steady state on an application-scale program (the paper's apps run
  // 418-654 kernels), not an empty loop on a toy one.
  TestSuiteConfig suite;
  suite.kernels = 256;
  suite.arrays = 512;
  suite.seed = 7;
  const Program program = make_testsuite_program(suite);
  const std::vector<DeviceSpec> devices = {DeviceSpec::k20x(),
                                           DeviceSpec::k40()};
  const long requests = small_scale() ? 200 : 1000;
  const int reps = small_scale() ? 3 : 5;

  // One SHARED store, warmed once: the first serve's search is
  // deadline-bounded (anytime), so two independent warmups could legally
  // store different plans and the bit-identical check would compare search
  // nondeterminism instead of tracing. Sharing the store means both timed
  // loops replay hits on the exact same stored plans.
  PlanStore store({.dir = fresh_dir("shared"), .durable = false});
  PlanServer bare(store, PlanServerConfig{});

  std::ostringstream events;
  TraceLog trace(events);
  SpanTracer spans(std::size_t{1} << 20);
  MetricsRegistry metrics;
  SloTracker slo;
  Telemetry telemetry;
  telemetry.trace = &trace;
  telemetry.spans = &spans;
  telemetry.metrics = &metrics;
  telemetry.slo = &slo;
  PlanServerConfig traced_cfg;
  traced_cfg.telemetry = &telemetry;
  PlanServer traced(store, traced_cfg);

  // Warm through the bare server (one search per device, written back),
  // then touch the traced server once per device so both start on the
  // steady-state store-hit path.
  for (const DeviceSpec& d : devices) {
    bare.serve(program, d);
    traced.serve(program, d);
  }

  Stream off;
  Stream on;
  for (int rep = 0; rep < reps; ++rep) {
    // Interleave the configurations so drift (thermal, noisy neighbours)
    // hits both evenly.
    {
      off.plans.clear();
      Stopwatch watch;
      for (long i = 0; i < requests; ++i) {
        const ServeResult r =
            bare.serve(program, devices[static_cast<std::size_t>(i) %
                                        devices.size()]);
        off.plans.push_back(r.plan.to_string());
      }
      const double secs = watch.elapsed_s();
      if (secs < off.best_s) off.best_s = secs;
    }
    {
      on.plans.clear();
      Stopwatch watch;
      for (long i = 0; i < requests; ++i) {
        const ServeResult r =
            traced.serve(program, devices[static_cast<std::size_t>(i) %
                                          devices.size()]);
        on.plans.push_back(r.plan.to_string());
      }
      const double secs = watch.elapsed_s();
      if (secs < on.best_s) on.best_s = secs;
    }
  }
  on.wide_events = trace.events();
  on.spans = spans.recorded() + spans.dropped();

  const double overhead_pct = 100.0 * (on.best_s / off.best_s - 1.0);
  const bool identical = off.plans == on.plans;
  const double per_request_us =
      1e6 * (on.best_s - off.best_s) / static_cast<double>(requests);

  TextTable table({"telemetry", "best-of-" + std::to_string(reps),
                   "req/s", "overhead"});
  table.add("disabled", human_time(off.best_s),
            fixed(static_cast<double>(requests) / off.best_s, 0), "--");
  table.add("full tracing", human_time(on.best_s),
            fixed(static_cast<double>(requests) / on.best_s, 0),
            fixed(overhead_pct, 2) + "%");
  std::cout << table;
  std::cout << "\nserved plans bit-identical with tracing attached: "
            << (identical ? "yes" : "NO — BUG") << "\n"
            << "wide events: " << on.wide_events << ", spans: " << on.spans
            << ", tracing cost " << fixed(per_request_us, 2)
            << " us/request\noverhead budget: " << fixed(max_overhead_pct, 1)
            << "%\n";

  JsonValue doc = JsonValue::object();
  doc.set("schema", "kf-bench-metrics/v1");
  doc.set("bench", "trace_overhead");
  doc.set("program", testsuite_id(suite));
  doc.set("requests", requests);
  doc.set("reps", static_cast<long>(reps));
  doc.set("disabled_best_s", off.best_s);
  doc.set("traced_best_s", on.best_s);
  doc.set("overhead_pct", overhead_pct);
  doc.set("per_request_us", per_request_us);
  doc.set("wide_events", on.wide_events);
  doc.set("spans_recorded", on.spans);
  doc.set("identical_outcome", identical);
  write_bench_metrics("trace_overhead", doc);

  if (!identical) {
    std::cerr << "FAIL: served plans changed with tracing attached\n";
    return 1;
  }
  if (max_overhead_pct > 0.0 && overhead_pct > max_overhead_pct) {
    std::cerr << "FAIL: tracing overhead " << fixed(overhead_pct, 2)
              << "% exceeds budget " << fixed(max_overhead_pct, 1) << "%\n";
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace kf::bench

int main(int argc, char** argv) { return kf::bench::run(argc, argv); }
