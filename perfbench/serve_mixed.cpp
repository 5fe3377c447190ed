// serve-mixed: misses and writes beside reads. A seeded stream of requests
// over a pool of Table V programs (20-60 kernels) on K20X and K40 goes
// serially through one PlanServer with a durable store and the telemetry
// `kfc serve-batch` always attaches. Each key's first request is a miss —
// a greedy full search on K20X, then on K40 a polish of the stored K20X
// plan — followed by an fsync'd write-back; its later requests are hits
// served beside those writes.
// Every round starts from an empty store and a fresh server.
#include <algorithm>

#include "bench.hpp"
#include "checks.hpp"
#include "kf.hpp"

namespace kf::perfbench {
namespace {

/// The pool. Fixed Table V generator seeds keep the programs, and so the
/// amount of search work, the same in every run; --seed draws the stream.
/// Programs stop at 60 kernels so a round takes under a second and each
/// miss is timed in some 30 rounds: with 80 and 100 kernels a round took
/// 3 s (a 100-kernel polish alone ~1 s) and miss medians over ~6 rounds
/// spread 19-25% between runs. The 256-kernel program stays out: a polish
/// there runs for minutes.
constexpr int kPoolKernels[] = {20, 30, 40, 50, 60};
/// Hits per key and round, after the key's miss.
constexpr int kHitsPerKey = 20;

struct Key {
  std::string name;
  const Program* program = nullptr;
  DeviceSpec device;
  ExpansionResult expansion;
  std::unique_ptr<LegalityChecker> checker;
  std::unique_ptr<TimingSimulator> simulator;
  std::unique_ptr<ProposedModel> model;
  std::unique_ptr<Objective> objective;  ///< the benchmark's own, for cost checks
  std::vector<std::pair<KernelId, KernelId>> pairs;
  PlanKey key;
};

}  // namespace

void run_serve_mixed(const Options& options, Result& result) {
  std::unique_ptr<Layers> layers = options.trace ? std::make_unique<Layers>() : nullptr;
  Layers* sl = layers.get();

  std::vector<Program> programs;
  for (int kernels : kPoolKernels) {
    TestSuiteConfig suite;
    suite.kernels = kernels;
    suite.arrays = 2 * kernels;
    suite.seed = static_cast<std::uint64_t>(kernels);
    programs.push_back(make_testsuite_program(suite));
  }
  // Filled in place: each key's checker and objective refer to its own
  // expansion.
  std::vector<Key> keys;
  keys.reserve(2 * programs.size());
  for (const Program& program : programs) {
    for (const DeviceSpec& device : {DeviceSpec::k20x(), DeviceSpec::k40()}) {
      const std::size_t ki = keys.size();
      Key& k = keys.emplace_back();
      k.name = strprintf("k%d/%s", program.num_kernels(), device.name.c_str());
      k.program = &program;
      k.device = device;
      {
        auto call = layer(sl, "graph.expand", ki);
        k.expansion = expand_arrays(program, -1.0);
      }
      {
        auto call = layer(sl, "fusion.checker_build", ki);
        k.checker = std::make_unique<LegalityChecker>(k.expansion.program, device);
      }
      k.simulator = std::make_unique<TimingSimulator>(device);
      k.model = std::make_unique<ProposedModel>(device);
      k.objective = std::make_unique<Objective>(*k.checker, *k.model, *k.simulator);
      k.pairs = dependence_pairs(k.expansion.program);
      {
        auto call = layer(sl, "store.fingerprint", ki);
        k.key = PlanKey{program_fingerprint(k.expansion.program), device_fingerprint(device)};
      }
    }
  }
  std::vector<std::size_t> stream;
  for (std::size_t k = 0; k < keys.size(); ++k)
    for (int i = 0; i <= kHitsPerKey; ++i) stream.push_back(k);
  Rng rng(sub_seed(options.seed, 99, 0));
  rng.shuffle(stream);
  // Each program's K20X key (even index) misses first, so its K40 key's
  // miss is always the cross-device polish: which rung a miss takes would
  // otherwise depend on the seed, and the two polishes of one program can
  // differ several-fold in cost.
  for (std::size_t k = 0; k < keys.size(); k += 2) {
    const auto first_k20x = std::find(stream.begin(), stream.end(), k);
    const auto first_k40 = std::find(stream.begin(), stream.end(), k + 1);
    if (first_k40 < first_k20x) std::iter_swap(first_k20x, first_k40);
  }

  OpTimes untraced, traced;
  KeyedSamples hit_s, miss_s, stage_get_s, stage_polish_s, stage_search_s, stage_write_s;
  std::vector<std::string> first_plans(keys.size());  // round 0's answer per key
  std::vector<double> projected, simulated;
  struct RoundCounts {
    long rungs[4] = {};
    long model_evaluations = 0;
    long journal_bytes = 0;
  };
  std::vector<RoundCounts> counts_by_round;
  const double setup_s = run_rounds(options, layers.get(), [&](int round, Layers* tl) {
    const std::string store_dir = fresh_dir(options, "mixed-store");
    RoundCounts counts;
    std::vector<std::pair<PlanKey, std::string>> served(keys.size());
    {
      MetricsRegistry metrics;
      SloTracker slo;
      Telemetry telemetry{.metrics = &metrics, .slo = &slo};
      if (tl != nullptr) telemetry.spans = tl->telemetry()->spans;
      PlanStore store(PlanStore::Config{.dir = store_dir, .telemetry = &telemetry});
      PlanServerConfig cfg;
      // Fixed work: no deadline or evaluation budget may cut a search short
      // (the slowest miss here takes under half a second).
      cfg.default_deadline_s = 60.0;
      cfg.default_max_evaluations = 1L << 50;
      cfg.telemetry = &telemetry;
      PlanServer server(store, cfg);
      std::vector<bool> seen(keys.size(), false);
      for (std::size_t op = 0; op < stream.size(); ++op) {
        const std::size_t ki = stream[op];
        Key& k = keys[ki];
        result.operation([&] {
          Stopwatch watch;
          const ServeResult r = server.serve(*k.program, k.device);
          const double seconds = watch.elapsed_s();
          (tl != nullptr ? traced : untraced).add(op, seconds);
          ++counts.rungs[static_cast<int>(r.rung)];
          auto check = [&](const std::string& verdict) {
            if (!verdict.empty()) result.fail(k.name + ": " + verdict);
          };
          check(check_served(r));
          if (!(r.key == k.key)) check("served under another key");
          const bool miss = !seen[ki];
          seen[ki] = true;
          if (!miss) {
            if (r.rung != ServeRung::StoreHit) check("repeat request missed the store");
            else if (r.plan.to_string() != served[ki].second) check("hit served another plan");
            (tl != nullptr ? stage_get_s : hit_s)
                .add(ki, tl != nullptr ? r.stage_s[RequestContext::kStoreGet] : seconds);
            return;
          }
          if (r.rung != ServeRung::FullSearch && r.rung != ServeRung::PolishedStored)
            check(std::string("first request answered on rung ") + to_string(r.rung));
          served[ki] = {k.key, r.plan.to_string()};
          if (tl == nullptr) {
            miss_s.add(ki, seconds);
          } else {
            stage_write_s.add(ki, r.stage_s[RequestContext::kWriteBack]);
            if (r.rung == ServeRung::PolishedStored)
              stage_polish_s.add(ki, r.stage_s[RequestContext::kPolish]);
            else
              stage_search_s.add(ki, r.stage_s[RequestContext::kSearch]);
          }
          // Independent checks of the miss answer, against the benchmark's
          // own checker and objective.
          const int n = k.expansion.program.num_kernels();
          check(check_partition(r.plan.groups(), n));
          {
            auto call = layer(tl, "fusion.plan_is_legal", ki);
            if (!k.checker->plan_is_legal(r.plan)) {
              check("served plan is illegal");
              return;
            }
          }
          const FusedProgram fused = apply_fusion(*k.checker, r.plan);
          check(check_fused(fused, n, k.pairs));
          check(check_cost_bound(k.objective->plan_cost(r.plan), k.objective->baseline_cost()));
          if (round == 0) {
            first_plans[ki] = served[ki].second;
            projected.push_back(r.speedup());
            simulated.push_back(simulated_speedup(k.expansion.program, fused, k.device));
          } else if (served[ki].second != first_plans[ki]) {
            check("miss answer differs from the first round's");
          }
        });
      }
      if (std::string e = check_no_budget_stop(metrics); !e.empty()) result.fail(e);
      for (const char* kind : {"singleton", "projection"})
        counts.model_evaluations +=
            static_cast<long>(metrics.histogram("objective.eval_s", {{"kind", kind}}).count);
      counts.journal_bytes = store.stats().journal_bytes;
    }
    if (std::string e = check_store_on_disk(store_dir, served); !e.empty())
      result.fail("mixed store: " + e);
    // Same stream, same work: rung and model-evaluation counts repeat.
    if (!counts_by_round.empty()) {
      const RoundCounts& first = counts_by_round.front();
      if (!std::equal(std::begin(first.rungs), std::end(first.rungs), std::begin(counts.rungs)) ||
          first.model_evaluations != counts.model_evaluations)
        result.fail("rung or model-evaluation counts changed between rounds");
    }
    counts_by_round.push_back(counts);
  });

  if (!options.trace) {
    report_end_to_end(result, setup_s, untraced, projected, simulated,
                      hit_s.geomean_of(kFastPercentile, 1e6),
                      miss_s.geomean_of(kFastPercentile, 1e3));
    return;
  }
  const Layers& L = *layers;
  const RoundCounts& c = counts_by_round.back();
  report_common_layers(result, L, traced, untraced, options);
  result.set("search.model_evaluations", static_cast<double>(c.model_evaluations), "count");
  result.set("fusion.plan_is_legal_us", layer_median(L, "fusion.plan_is_legal", 1e6), "us");
  result.set("store.fingerprint_us", layer_median(L, "store.fingerprint", 1e6), "us");
  result.set("store.journal_bytes", static_cast<double>(c.journal_bytes), "bytes");
  result.set("serve.stage.store_get_us", stage_get_s.geomean_of(50.0, 1e6), "us");
  result.set("serve.stage.polish_us", stage_polish_s.geomean_of(50.0, 1e6), "us");
  result.set("serve.stage.search_us", stage_search_s.geomean_of(50.0, 1e6), "us");
  result.set("serve.stage.write_back_us", stage_write_s.geomean_of(50.0, 1e6), "us");
  for (ServeRung rung : {ServeRung::StoreHit, ServeRung::PolishedStored, ServeRung::FullSearch,
                         ServeRung::TrivialFloor})
    result.set(std::string("serve.rung.") + to_string(rung),
               static_cast<double>(c.rungs[static_cast<int>(rung)]), "count");
}

}  // namespace kf::perfbench
