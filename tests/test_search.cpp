// Unit tests for kf_search: the objective (memoisation, constraint 1.1),
// random plan generation, repair and the try_merge/try_move legality gate,
// the HGGA (legality preservation, improvement, determinism), exhaustive
// ground truth and baselines.
#include <gtest/gtest.h>

#include <algorithm>

#include "apps/motivating_example.hpp"
#include "apps/testsuite.hpp"
#include "model/proposed_model.hpp"
#include "search/exhaustive.hpp"
#include "search/greedy.hpp"
#include "search/hgga.hpp"
#include "search/population.hpp"
#include "search/random_search.hpp"

namespace kf {
namespace {

struct SearchRig {
  Program program;
  DeviceSpec device = DeviceSpec::k20x();
  TimingSimulator sim{device};
  LegalityChecker checker;
  ProposedModel model{device};
  Objective objective;

  explicit SearchRig(Program p)
      : program(std::move(p)), checker(program, device), objective(checker, model, sim) {}
};

SearchRig motivating_rig() {
  return SearchRig(motivating_example(GridDims{256, 128, 16}));
}

SearchRig suite_rig(int kernels, std::uint64_t seed = 3) {
  TestSuiteConfig cfg;
  cfg.kernels = kernels;
  cfg.arrays = kernels * 2;
  cfg.seed = seed;
  cfg.grid = GridDims{256, 128, 16};
  return SearchRig(make_testsuite_program(cfg));
}

// ---------- Objective ----------

TEST(Objective, SingletonCostEqualsMeasuredTime) {
  SearchRig rig = motivating_rig();
  for (KernelId k = 0; k < rig.program.num_kernels(); ++k) {
    const std::vector<KernelId> solo{k};
    EXPECT_DOUBLE_EQ(rig.objective.group_cost(solo).cost_s,
                     rig.sim.run_original(rig.program, k).time_s);
  }
}

TEST(Objective, BaselineIsIdentityPlanCost) {
  SearchRig rig = motivating_rig();
  const FusionPlan identity(rig.program.num_kernels());
  EXPECT_NEAR(rig.objective.plan_cost(identity), rig.objective.baseline_cost(), 1e-15);
}

TEST(Objective, CacheAvoidsRecomputation) {
  SearchRig rig = motivating_rig();
  rig.objective.reset_counters();
  const std::vector<KernelId> group{rig.program.find_kernel("Kern_C"),
                                    rig.program.find_kernel("Kern_E")};
  (void)rig.objective.group_cost(group);
  (void)rig.objective.group_cost(group);
  (void)rig.objective.group_cost(group);
  EXPECT_EQ(rig.objective.evaluations(), 3);
  EXPECT_EQ(rig.objective.model_evaluations(), 1);
}

TEST(Objective, UnprofitableGroupPenalised) {
  // Kernel Y = {C, D, E} under the *literal* paper model projects worse
  // than the original sum (the paper's motivating discovery): the
  // objective must penalise it past the original sum.
  const Program program = motivating_example(GridDims{256, 128, 16});
  const DeviceSpec device = DeviceSpec::k20x();
  const TimingSimulator sim(device);
  const LegalityChecker checker(program, device);
  const ProposedModel literal(device,
                              {.formulation = ProposedModel::Formulation::PaperLiteral});
  const Objective objective(checker, literal, sim);
  const std::vector<KernelId> y{program.find_kernel("Kern_C"),
                                program.find_kernel("Kern_D"),
                                program.find_kernel("Kern_E")};
  const auto cost = objective.group_cost(y);
  double original_sum = 0;
  for (KernelId k : y) original_sum += objective.original_time(k);
  EXPECT_FALSE(cost.profitable);
  EXPECT_GT(cost.cost_s, original_sum);
}

// ---------- population helpers ----------

TEST(Population, RandomPlansAreLegal) {
  SearchRig rig = suite_rig(20);
  Rng rng(7);
  for (int i = 0; i < 25; ++i) {
    const FusionPlan plan = random_legal_plan(rig.checker, rng, 0.9);
    EXPECT_TRUE(rig.checker.plan_is_legal(plan)) << plan.to_string();
    EXPECT_EQ(plan.num_kernels(), rig.program.num_kernels());
  }
}

TEST(Population, AggressivenessControlsFusionAmount) {
  SearchRig rig = suite_rig(30);
  Rng rng1(11);
  Rng rng2(11);
  int fused_low = 0;
  int fused_high = 0;
  for (int i = 0; i < 10; ++i) {
    fused_low += random_legal_plan(rig.checker, rng1, 0.05).fused_kernel_count();
    fused_high += random_legal_plan(rig.checker, rng2, 0.95).fused_kernel_count();
  }
  EXPECT_LT(fused_low, fused_high);
}

TEST(Population, RepairSplitsIllegalGroups) {
  SearchRig rig = motivating_rig();
  // Force an illegal plan: disconnected {A, C}.
  FusionPlan bad = FusionPlan::from_groups(
      rig.program.num_kernels(),
      {{rig.program.find_kernel("Kern_A"), rig.program.find_kernel("Kern_C")},
       {rig.program.find_kernel("Kern_B")},
       {rig.program.find_kernel("Kern_D")},
       {rig.program.find_kernel("Kern_E")}});
  EXPECT_FALSE(rig.checker.plan_is_legal(bad));
  const int repaired = repair_plan(rig.checker, bad);
  EXPECT_GE(repaired, 1);
  EXPECT_TRUE(rig.checker.plan_is_legal(bad));
}

/// The repair loop as first written: rescan from group 0 after every
/// split. The one-pass repair_plan must split the same groups in the same
/// order, so both leave bit-identical plans.
int restarting_repair(const LegalityChecker& checker, FusionPlan& plan) {
  int repaired = 0;
  bool changed = true;
  while (changed) {
    changed = false;
    for (int g = 0; g < plan.num_groups(); ++g) {
      if (plan.group(g).size() >= 2 && !checker.group_is_legal(plan.group(g))) {
        plan.split_group(g);
        ++repaired;
        changed = true;
        break;
      }
    }
  }
  for (;;) {
    const std::vector<int> stuck = checker.cyclic_groups(plan);
    if (stuck.empty()) break;
    int victim = -1;
    std::size_t victim_size = 1;
    for (int g : stuck) {
      if (plan.group(g).size() > victim_size) {
        victim_size = plan.group(g).size();
        victim = g;
      }
    }
    plan.split_group(victim);
    ++repaired;
  }
  return repaired;
}

bool same_layout(const FusionPlan& a, const FusionPlan& b) {
  return std::ranges::equal(a.flat_members(), b.flat_members()) &&
         std::ranges::equal(a.flat_offsets(), b.flat_offsets());
}

TEST(Population, OnePassRepairMatchesRestartingRepair) {
  SearchRig rig = suite_rig(16, 5);
  Rng rng(0x4e9a);
  int total_splits = 0;
  for (int trial = 0; trial < 40; ++trial) {
    // Random partitions: most groups violate something, some plans cycle.
    const int buckets = 2 + static_cast<int>(rng.next_below(6));
    std::vector<std::vector<KernelId>> groups(static_cast<std::size_t>(buckets));
    for (KernelId k = 0; k < 16; ++k) groups[rng.next_below(groups.size())].push_back(k);
    std::erase_if(groups, [](const auto& g) { return g.empty(); });
    FusionPlan one_pass = FusionPlan::from_groups(16, groups);
    FusionPlan restarting = one_pass;
    const int splits = repair_plan(rig.checker, one_pass);
    EXPECT_EQ(splits, restarting_repair(rig.checker, restarting)) << trial;
    EXPECT_TRUE(same_layout(one_pass, restarting)) << one_pass.to_string();
    EXPECT_TRUE(rig.checker.plan_is_legal(one_pass)) << one_pass.to_string();
    total_splits += splits;
  }
  EXPECT_GT(total_splits, 40) << "the sweep must exercise repeated splits";
}

TEST(Population, TryMergeIsTheMergeLegalityGate) {
  SearchRig rig = suite_rig(16, 5);
  Rng rng(0x3e7);
  FusionPlan out;
  std::vector<KernelId> group;
  int accepted = 0;
  int rejected = 0;
  for (int trial = 0; trial < 4; ++trial) {
    const FusionPlan plan = random_legal_plan(rig.checker, rng, 0.3);
    const FusionPlan before = plan;
    EXPECT_FALSE(try_merge(rig.checker, plan, 0, 0, out, group));
    for (int a = 0; a < plan.num_groups(); ++a) {
      for (int b = a + 1; b < plan.num_groups(); ++b) {
        FusionPlan merged = plan;
        merged.merge_groups(a, b);
        std::vector<KernelId> unite(plan.group(a).begin(), plan.group(a).end());
        unite.insert(unite.end(), plan.group(b).begin(), plan.group(b).end());
        std::sort(unite.begin(), unite.end());
        const bool expect = rig.checker.group_is_legal(unite) &&
                            rig.checker.plan_is_schedulable(merged);
        const bool ok = try_merge(rig.checker, plan, a, b, out, group);
        EXPECT_EQ(ok, expect) << a << "," << b;
        EXPECT_EQ(group, unite);
        if (ok) {
          EXPECT_TRUE(same_layout(out, merged));
          EXPECT_TRUE(rig.checker.plan_is_legal(out));
        }
        ok ? ++accepted : ++rejected;
      }
    }
    EXPECT_TRUE(same_layout(plan, before)) << "try_merge must not touch its input";
  }
  EXPECT_GT(accepted, 0);
  EXPECT_GT(rejected, 0);
}

TEST(Population, TryMoveAcceptsExactlyTheLegalTargets) {
  SearchRig rig = suite_rig(16, 5);
  Rng rng(0x3e8);
  FusionPlan out;
  std::vector<KernelId> group;
  int accepted = 0;
  int rejected = 0;
  for (int trial = 0; trial < 4; ++trial) {
    const FusionPlan plan = random_legal_plan(rig.checker, rng, 0.6);
    const FusionPlan before = plan;
    for (KernelId k = 0; k < plan.num_kernels(); ++k) {
      EXPECT_FALSE(try_move(rig.checker, plan, k, plan.group_of(k), out, group));
      for (KernelId n : rig.checker.sharing().neighbours(k)) {
        const int to = plan.group_of(n);
        if (to == plan.group_of(k)) continue;
        std::vector<KernelId> target(plan.group(to).begin(), plan.group(to).end());
        target.push_back(k);
        std::sort(target.begin(), target.end());
        const bool ok = try_move(rig.checker, plan, k, to, out, group);
        EXPECT_EQ(ok, rig.checker.group_is_legal(target)) << k << "->" << to;
        EXPECT_EQ(group, target);
        // Whatever the move broke is split-repaired: the result is legal.
        if (ok) EXPECT_TRUE(rig.checker.plan_is_legal(out)) << out.to_string();
        ok ? ++accepted : ++rejected;
      }
    }
    EXPECT_TRUE(same_layout(plan, before)) << "try_move must not touch its input";
  }
  EXPECT_GT(accepted, 0);
  EXPECT_GT(rejected, 0);
}

// ---------- HGGA ----------

HggaConfig small_config(std::uint64_t seed = 1) {
  HggaConfig cfg;
  cfg.population = 24;
  cfg.max_generations = 60;
  cfg.stall_generations = 25;
  cfg.seed = seed;
  return cfg;
}

TEST(Hgga, ImprovesOverBaseline) {
  SearchRig rig = suite_rig(20);
  Hgga search(rig.objective, small_config());
  const SearchResult result = search.run();
  EXPECT_LT(result.best_cost_s, result.baseline_cost_s);
  EXPECT_GT(result.projected_speedup(), 1.0);
  EXPECT_TRUE(rig.checker.plan_is_legal(result.best));
  EXPECT_GT(result.generations, 0);
  EXPECT_GT(result.evaluations, 0);
}

TEST(Hgga, DeterministicForSeed) {
  SearchRig rig1 = suite_rig(15);
  SearchRig rig2 = suite_rig(15);
  const SearchResult a = Hgga(rig1.objective, small_config(5)).run();
  const SearchResult b = Hgga(rig2.objective, small_config(5)).run();
  EXPECT_EQ(a.best, b.best);
  EXPECT_DOUBLE_EQ(a.best_cost_s, b.best_cost_s);
}

TEST(Hgga, HistoryMonotonicallyNonIncreasing) {
  SearchRig rig = suite_rig(20);
  const SearchResult result = Hgga(rig.objective, small_config()).run();
  for (std::size_t g = 1; g < result.history.size(); ++g) {
    EXPECT_LE(result.history[g], result.history[g - 1] + 1e-15);
  }
}

TEST(Hgga, StopsOnStall) {
  SearchRig rig = motivating_rig();  // tiny problem: converges instantly
  HggaConfig cfg = small_config();
  cfg.max_generations = 500;
  cfg.stall_generations = 10;
  const SearchResult result = Hgga(rig.objective, cfg).run();
  EXPECT_LT(result.generations, 500);
}

TEST(Hgga, AllPlansLegalThroughoutSearch) {
  // Indirect but strong: the final best of several seeds is legal, and
  // cost never goes below the exhaustive optimum (checked elsewhere).
  for (std::uint64_t seed : {1ULL, 2ULL, 3ULL}) {
    SearchRig rig = suite_rig(12, seed);
    const SearchResult result = Hgga(rig.objective, small_config(seed)).run();
    EXPECT_TRUE(rig.checker.plan_is_legal(result.best));
  }
}


TEST(Hgga, ConvergenceTraceRecorded) {
  SearchRig rig = suite_rig(15);
  const SearchResult result = Hgga(rig.objective, small_config()).run();
  ASSERT_EQ(result.trace.size(), static_cast<std::size_t>(result.generations));
  for (std::size_t g = 1; g < result.trace.size(); ++g) {
    EXPECT_LE(result.trace[g].best_cost_s, result.trace[g - 1].best_cost_s + 1e-15);
    EXPECT_GE(result.trace[g].mean_cost_s, result.trace[g].best_cost_s - 1e-15);
    EXPECT_GE(result.trace[g].distinct_plans, 1);
    EXPECT_GT(result.trace[g].mean_groups, 0.0);
  }
  const std::string csv = result.trace_csv();
  EXPECT_NE(csv.find("generation,best_cost_s"), std::string::npos);
  // Header + one line per generation.
  EXPECT_EQ(static_cast<int>(std::count(csv.begin(), csv.end(), '\n')),
            result.generations + 1);
}

TEST(Hgga, LocalPolishConfigurable) {
  SearchRig rig1 = suite_rig(15, 77);
  SearchRig rig2 = suite_rig(15, 77);
  HggaConfig with = small_config(3);
  HggaConfig without = small_config(3);
  without.local_polish = false;
  const SearchResult a = Hgga(rig1.objective, with).run();
  const SearchResult b = Hgga(rig2.objective, without).run();
  EXPECT_LE(a.best_cost_s, b.best_cost_s + 1e-15);
}

// ---------- exhaustive ----------

TEST(Exhaustive, FindsOptimumOnMotivatingExample) {
  SearchRig rig = motivating_rig();
  const SearchResult result = exhaustive_search(rig.objective);
  EXPECT_TRUE(rig.checker.plan_is_legal(result.best));
  EXPECT_LE(result.best_cost_s, result.baseline_cost_s);
  EXPECT_GT(result.evaluations, 0);
}

TEST(Exhaustive, RefusesLargeProblems) {
  SearchRig rig = suite_rig(20);
  EXPECT_THROW(exhaustive_search(rig.objective), PreconditionError);
}

TEST(Exhaustive, HggaMatchesExhaustiveOnSmallSuite) {
  // Fig. 5a's claim: the heuristic finds the optimum on small benchmarks.
  int hits = 0;
  const int trials = 3;
  for (int t = 0; t < trials; ++t) {
    SearchRig rig_ex = suite_rig(9, 100 + t);
    const SearchResult truth = exhaustive_search(rig_ex.objective);
    SearchRig rig_ga = suite_rig(9, 100 + t);
    HggaConfig cfg = small_config(77 + t);
    cfg.population = 40;
    cfg.max_generations = 120;
    const SearchResult found = Hgga(rig_ga.objective, cfg).run();
    if (std::abs(found.best_cost_s - truth.best_cost_s) < 1e-12) ++hits;
    EXPECT_GE(found.best_cost_s, truth.best_cost_s - 1e-12);
  }
  EXPECT_GE(hits, 2) << "HGGA should find the optimum on most small benchmarks";
}

// ---------- baselines ----------

TEST(Greedy, LegalAndAtLeastBaseline) {
  SearchRig rig = suite_rig(20);
  const SearchResult result = greedy_search(rig.objective);
  EXPECT_TRUE(rig.checker.plan_is_legal(result.best));
  EXPECT_LE(result.best_cost_s, result.baseline_cost_s + 1e-15);
}

TEST(RandomSearch, FindsSomethingLegal) {
  SearchRig rig = suite_rig(15);
  RandomSearchConfig cfg;
  cfg.samples = 200;
  const SearchResult result = random_search(rig.objective, cfg);
  EXPECT_TRUE(rig.checker.plan_is_legal(result.best));
  EXPECT_LE(result.best_cost_s, result.baseline_cost_s + 1e-15);
}

TEST(SearchComparison, HggaAtLeastAsGoodAsRandom) {
  SearchRig rig_ga = suite_rig(20, 9);
  SearchRig rig_rnd = suite_rig(20, 9);
  const SearchResult ga = Hgga(rig_ga.objective, small_config(13)).run();
  RandomSearchConfig rcfg;
  rcfg.samples = 300;
  rcfg.seed = 13;
  const SearchResult rnd = random_search(rig_rnd.objective, rcfg);
  EXPECT_LE(ga.best_cost_s, rnd.best_cost_s + 1e-12);
}

}  // namespace
}  // namespace kf
