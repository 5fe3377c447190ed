// cold-fuse: the offline cold path on K20X. Each operation takes one
// program from scratch to a stored plan: expand -> LegalityChecker ->
// fixed-budget HGGA -> apply_fusion -> fingerprint -> durable put; rk18
// also goes through verify_fusion on a reduced grid and CUDA emission.
// That operation is this workload's "miss"; reading the plan back through
// the warm path (fingerprint -> store get -> parse -> plan_is_legal) is its
// "hit".
// The HGGA seeds are fixed, so every run does the same search work:
// SCALE-LES search time varies ~15% from seed to seed, which alone spread
// run_s by ~8% between runs. --seed shuffles the order of the operations.
#include "bench.hpp"
#include "checks.hpp"
#include "kf.hpp"

namespace kf::perfbench {
namespace {

/// Searches per program and round (HGGA seeds 0..n-1 of sub_seed).
int seeds_for(const std::string& name) { return name == "scale-les" ? 3 : 2; }

/// rk18 is verified on this grid: 4096 sites keep the reference and block
/// executors at milliseconds while every stencil halo still crosses blocks.
const GridDims kVerifyGrid{64, 16, 4};

struct Prepared {
  Subject subject;
  std::vector<std::pair<KernelId, KernelId>> pairs;  ///< of the expanded program
  std::optional<Program> small;  ///< reduced-grid twin for verify_fusion (rk18)
};

}  // namespace

void run_cold_fuse(const Options& options, Result& result) {
  const DeviceSpec device = DeviceSpec::k20x();
  std::vector<Prepared> cases;
  for (Subject& s : subjects(false)) {
    Prepared p;
    p.pairs = dependence_pairs(expand_arrays(s.program, -1.0).program);
    if (s.name == "rk18") p.small = scale_les_rk18(kVerifyGrid);
    p.subject = std::move(s);
    cases.push_back(std::move(p));
  }
  std::unique_ptr<Layers> layers = options.trace ? std::make_unique<Layers>() : nullptr;

  OpTimes untraced, traced;
  KeyedSamples hit_s, miss_s;  // per program
  std::vector<double> plan_speedups, sim_speedups;
  struct RoundCounts {
    long evaluations = 0, model_evaluations = 0, hits = 0, misses = 0, journal_bytes = 0;
  };
  std::vector<RoundCounts> traced_counts;
  std::vector<double> gmem_original, gmem_fused, source_bytes;

  // The round's operations: (program, search) pairs in a seeded order.
  std::vector<std::pair<std::size_t, int>> ops;
  for (std::size_t c = 0; c < cases.size(); ++c)
    for (int j = 0; j < seeds_for(cases[c].subject.name); ++j) ops.emplace_back(c, j);
  Rng rng(sub_seed(options.seed, 99, 0));
  rng.shuffle(ops);
  std::vector<long> evaluations_by_op(ops.size());  // first round's counts

  const double setup_s = run_rounds(options, layers.get(), [&](int round, Layers* tl) {
    const Telemetry* telemetry = tl != nullptr ? tl->telemetry() : nullptr;
    const std::string store_dir = fresh_dir(options, "cold-store");
    PlanStore store(PlanStore::Config{.dir = store_dir});
    std::vector<std::pair<PlanKey, std::string>> last_put;
    RoundCounts counts;
    for (std::size_t op = 0; op < ops.size(); ++op) {
      const auto [c, j] = ops[op];
      result.operation([&, c = c, j = j] {
        const Prepared& pc = cases[c];
        const Program& program = pc.subject.program;
        HggaConfig cfg = pc.subject.hgga;
        cfg.seed = sub_seed(0, static_cast<int>(c), j);

        // ---- the timed operation: one program's cold path ----
        Stopwatch watch;
        std::optional<ExpansionResult> ex;
        {
          auto call = layer(tl, "graph.expand", c);
          ex.emplace(expand_arrays(program, -1.0));
        }
        std::optional<LegalityChecker> checker;
        {
          auto call = layer(tl, "fusion.checker_build", c);
          checker.emplace(ex->program, device);
        }
        const TimingSimulator simulator(device);
        const ProposedModel model(device);
        Objective objective(*checker, model, simulator);
        objective.set_telemetry(telemetry);
        SearchResult search;
        {
          auto call = layer(tl, "search.hgga", c);
          search = Hgga(objective, cfg).run(nullptr, nullptr, telemetry);
        }
        std::optional<FusedProgram> fused;
        {
          auto call = layer(tl, "fusion.apply", c);
          fused.emplace(apply_fusion(*checker, search.best));
        }
        StoredPlan stored;
        {
          auto call = layer(tl, "store.fingerprint", c);
          stored.key = PlanKey{program_fingerprint(ex->program), device_fingerprint(device)};
        }
        stored.num_kernels = program.num_kernels();
        stored.plan_text = search.best.to_string();
        stored.best_cost_s = search.best_cost_s;
        stored.baseline_cost_s = search.baseline_cost_s;
        {
          auto call = layer(tl, "store.put", c);
          store.put(stored);
        }
        std::optional<EquivalenceReport> report;
        std::string source;
        if (pc.small) {
          {
            // The plan, applied to the reduced-grid program, then executed.
            auto call = layer(tl, "stencil.verify", c);
            const ExpansionResult small_ex = expand_arrays(*pc.small, -1.0);
            const LegalityChecker small_checker(small_ex.program, device);
            const FusedProgram small_fused = apply_fusion(small_checker, search.best);
            report.emplace(verify_fusion(*pc.small, small_fused, &small_ex, 1e-9));
          }
          auto call = layer(tl, "codegen.emit", c);
          source = CudaEmitter(ex->program).emit_program(*fused);
        }
        const double cold_s = watch.elapsed_s();
        (tl != nullptr ? traced : untraced).add(op, cold_s);

        // ---- the warm path on the plan just stored (a "hit") ----
        watch.reset();
        std::optional<StoredPlan> back;
        {
          auto call = layer(tl, "store.fingerprint", c);
          const PlanKey key{program_fingerprint(ex->program), device_fingerprint(device)};
          auto get_call = layer(tl, "store.get", c);
          back = store.get(key);
        }
        bool legal = false;
        if (back) {
          const FusionPlan plan = FusionPlan::parse(program.num_kernels(), back->plan_text);
          auto call = layer(tl, "fusion.plan_is_legal", c);
          legal = checker->plan_is_legal(plan);
        }
        if (tl == nullptr) {
          hit_s.add(c, watch.elapsed_s());
          miss_s.add(c, cold_s);
        }

        // ---- output checks (untimed) ----
        auto check = [&](const std::string& verdict) {
          if (!verdict.empty()) result.fail(pc.subject.name + ": " + verdict);
        };
        check(check_partition(search.best.groups(), program.num_kernels()));
        check(check_fused(*fused, program.num_kernels(), pc.pairs));
        check(check_cost_bound(search.best_cost_s, search.baseline_cost_s));
        if (!back || back->plan_text != stored.plan_text) check("store read-back differs");
        if (!legal) check("stored plan is illegal");
        if (report) {
          check(check_equivalence(*report));
          if (source.find("__global__") == std::string::npos) check("emitted no CUDA kernel");
        }
        // Same seed, same work: every round repeats the first one's counts,
        // traced or not.
        const Objective::CacheStats stats = objective.cache_stats();
        if (round == 0) {
          evaluations_by_op[op] = stats.evaluations;
          plan_speedups.push_back(search.projected_speedup());
          sim_speedups.push_back(simulated_speedup(ex->program, *fused, device));
        } else if (evaluations_by_op[op] != stats.evaluations) {
          check("search evaluation count changed between rounds");
        }
        counts.evaluations += stats.evaluations;
        counts.model_evaluations += stats.misses;
        counts.hits += stats.hits;
        counts.misses += stats.misses;
        if (tl != nullptr && report) {
          gmem_original.push_back(report->original_counters.gmem_ops() * sizeof(double));
          gmem_fused.push_back(report->fused_counters.gmem_ops() * sizeof(double));
          source_bytes.push_back(static_cast<double>(source.size()));
        }
        last_put.erase(std::remove_if(last_put.begin(), last_put.end(),
                                      [&](const auto& e) { return e.first == stored.key; }),
                       last_put.end());
        last_put.emplace_back(stored.key, stored.plan_text);
      });
    }
    counts.journal_bytes = store.stats().journal_bytes;
    if (std::string e = check_store_on_disk(store_dir, last_put); !e.empty())
      result.fail("cold store: " + e);
    if (tl != nullptr) traced_counts.push_back(counts);
  });

  if (!options.trace) {
    report_end_to_end(result, setup_s, untraced, plan_speedups, sim_speedups,
                      hit_s.geomean_of(kFastPercentile, 1e6),
                      miss_s.geomean_of(kFastPercentile, 1e3));
    return;
  }
  const Layers& L = *layers;
  report_common_layers(result, L, traced, untraced, options);
  std::vector<double> evals, model_evals, hit_ratio, journal;
  for (const RoundCounts& c : traced_counts) {
    evals.push_back(static_cast<double>(c.evaluations));
    model_evals.push_back(static_cast<double>(c.model_evaluations));
    hit_ratio.push_back(static_cast<double>(c.hits) / static_cast<double>(c.hits + c.misses));
    journal.push_back(static_cast<double>(c.journal_bytes));
  }
  result.set("search.evaluations", median(evals), "count");
  result.set("search.model_evaluations", median(model_evals), "count");
  result.set("search.cache_hit_ratio", median(hit_ratio), "ratio");
  result.set("fusion.apply_ms", layer_median(L, "fusion.apply", 1e3), "ms");
  result.set("fusion.plan_is_legal_us", layer_median(L, "fusion.plan_is_legal", 1e6), "us");
  result.set("store.fingerprint_us", layer_median(L, "store.fingerprint", 1e6), "us");
  result.set("store.get_us", layer_median(L, "store.get", 1e6), "us");
  result.set("store.put_ms", layer_median(L, "store.put", 1e3), "ms");
  result.set("store.journal_bytes", median(journal), "bytes");
  result.set("stencil.verify_s", layer_median(L, "stencil.verify", 1.0), "s");
  result.set("stencil.gmem_bytes_original", median(gmem_original), "bytes");
  result.set("stencil.gmem_bytes_fused", median(gmem_fused), "bytes");
  result.set("codegen.emit_ms", layer_median(L, "codegen.emit", 1e3), "ms");
  result.set("codegen.source_bytes", median(source_bytes), "bytes");
}

}  // namespace kf::perfbench
