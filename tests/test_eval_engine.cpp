// The evaluation engine (see DESIGN.md "Evaluation engine"): commutative
// allocation-free fingerprints, the sharded group-cost cache with
// quarantine folded into entries, the peek/force counter contract,
// batched deduplicated population scoring (plan_costs), and the HGGA's
// incremental costing — including the bit-identity guarantees across
// thread counts and the golden pins every search method must reproduce.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <span>
#include <thread>
#include <vector>

#ifdef _OPENMP
#include <omp.h>
#endif

#include "apps/motivating_example.hpp"
#include "apps/testsuite.hpp"
#include "model/proposed_model.hpp"
#include "search/annealing.hpp"
#include "search/exhaustive.hpp"
#include "search/greedy.hpp"
#include "search/group_cache.hpp"
#include "search/hgga.hpp"
#include "search/population.hpp"
#include "search/random_search.hpp"
#include "util/fault_injection.hpp"

// ---- global allocation counter (for the arena zero-alloc test) ----
namespace {
std::atomic<long> g_allocations{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace kf {
namespace {

struct EngineRig {
  Program program;
  DeviceSpec device = DeviceSpec::k20x();
  TimingSimulator sim{device};
  LegalityChecker checker;
  ProposedModel model{device};
  Objective objective;

  explicit EngineRig(Program p, Objective::Options options = {})
      : program(std::move(p)),
        checker(program, device),
        objective(checker, model, sim, options) {}
};

EngineRig motivating_rig(Objective::Options options = {}) {
  return EngineRig(motivating_example(GridDims{256, 128, 16}), options);
}

EngineRig suite_rig(int kernels, std::uint64_t seed = 3) {
  TestSuiteConfig cfg;
  cfg.kernels = kernels;
  cfg.arrays = kernels * 2;
  cfg.seed = seed;
  cfg.grid = GridDims{256, 128, 16};
  return EngineRig(make_testsuite_program(cfg));
}

// ---------- fingerprints ----------

TEST(GroupFingerprint, OrderInsensitive) {
  const std::vector<KernelId> abc{0, 1, 2};
  const std::vector<KernelId> cab{2, 0, 1};
  const std::vector<KernelId> bca{1, 2, 0};
  const std::uint64_t fp = Objective::group_fingerprint(abc);
  EXPECT_EQ(Objective::group_fingerprint(cab), fp);
  EXPECT_EQ(Objective::group_fingerprint(bca), fp);
}

TEST(GroupFingerprint, DistinguishesDistinctSets) {
  // All 2- and 3-subsets of 64 kernels plus all singletons: no collisions.
  std::vector<std::uint64_t> fps;
  for (KernelId a = 0; a < 64; ++a) {
    fps.push_back(Objective::group_fingerprint(std::vector<KernelId>{a}));
    for (KernelId b = a + 1; b < 64; ++b) {
      fps.push_back(Objective::group_fingerprint(std::vector<KernelId>{a, b}));
      for (KernelId c = b + 1; c < 64; ++c) {
        fps.push_back(
            Objective::group_fingerprint(std::vector<KernelId>{a, b, c}));
      }
    }
  }
  std::sort(fps.begin(), fps.end());
  EXPECT_TRUE(std::adjacent_find(fps.begin(), fps.end()) == fps.end());
}

TEST(GroupFingerprint, SizeBreaksSubsetAliasing) {
  // {k} vs {k, k} style aliasing is impossible for legal groups (member
  // sets), but the size fold must still separate e.g. {} prefix sums.
  const std::vector<KernelId> one{5};
  const std::vector<KernelId> two{5, 9};
  EXPECT_NE(Objective::group_fingerprint(one), Objective::group_fingerprint(two));
}

// ---------- GroupCostCache ----------

TEST(GroupCostCache, InsertFindRoundTrip) {
  GroupCostCache cache(8);
  EXPECT_EQ(cache.shards(), 8);
  GroupCostCache::Entry entry;
  EXPECT_FALSE(cache.find(42, &entry));
  EXPECT_TRUE(cache.insert(42, {GroupCost{1.5, true}, false}));
  ASSERT_TRUE(cache.find(42, &entry));
  EXPECT_DOUBLE_EQ(entry.cost.cost_s, 1.5);
  EXPECT_FALSE(entry.quarantined);
  EXPECT_EQ(cache.size(), 1u);
}

TEST(GroupCostCache, DuplicateInsertKeepsFirstValue) {
  GroupCostCache cache(4);
  EXPECT_TRUE(cache.insert(7, {GroupCost{1.0, true}, false}));
  EXPECT_FALSE(cache.insert(7, {GroupCost{2.0, true}, false}));
  GroupCostCache::Entry entry;
  ASSERT_TRUE(cache.find(7, &entry));
  EXPECT_DOUBLE_EQ(entry.cost.cost_s, 1.0);
  EXPECT_EQ(cache.size(), 1u);
}

TEST(GroupCostCache, ShardCountRoundsUpToPowerOfTwo) {
  GroupCostCache cache(5);
  EXPECT_EQ(cache.shards(), 8);
  GroupCostCache one(1);
  EXPECT_EQ(one.shards(), 1);
}

TEST(GroupCostCache, QuarantinedKeysAreSorted) {
  GroupCostCache cache(4);
  cache.insert(99, {GroupCost{1.0, false}, true});
  cache.insert(3, {GroupCost{1.0, false}, true});
  cache.insert(50, {GroupCost{1.0, true}, false});
  EXPECT_EQ(cache.quarantined_count(), 2);
  const std::vector<std::uint64_t> keys = cache.quarantined_keys();
  ASSERT_EQ(keys.size(), 2u);
  EXPECT_EQ(keys[0], 3u);
  EXPECT_EQ(keys[1], 99u);
}

TEST(GroupCostCache, ConcurrentInsertFindIsCoherent) {
  GroupCostCache cache(16);
  constexpr int kThreads = 4;
  constexpr std::uint64_t kKeys = 2000;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&cache, t] {
      for (std::uint64_t k = 1; k <= kKeys; ++k) {
        cache.insert(k, {GroupCost{static_cast<double>(k), true}, false});
        GroupCostCache::Entry entry;
        if (cache.find(k + static_cast<std::uint64_t>(t), &entry)) {
          // Entries are immutable: any visible value is the first insert's.
          EXPECT_DOUBLE_EQ(entry.cost.cost_s,
                           static_cast<double>(k + static_cast<std::uint64_t>(t)));
        }
      }
    });
  }
  for (std::thread& w : workers) w.join();
  EXPECT_EQ(cache.size(), static_cast<std::size_t>(kKeys));
  for (std::uint64_t k = 1; k <= kKeys; ++k) {
    GroupCostCache::Entry entry;
    ASSERT_TRUE(cache.find(k, &entry));
    EXPECT_DOUBLE_EQ(entry.cost.cost_s, static_cast<double>(k));
  }
}

// ---------- peek / force counter contract ----------

TEST(EvalEngine, PeekForceCounterContract) {
  EngineRig rig = motivating_rig();
  rig.objective.reset_counters();
  const std::vector<KernelId> group{rig.program.find_kernel("Kern_C"),
                                    rig.program.find_kernel("Kern_E")};
  const std::uint64_t fp = Objective::group_fingerprint(group);

  Objective::GroupCost cost;
  EXPECT_FALSE(rig.objective.peek_group_cost(fp, &cost));  // miss: no eval run
  EXPECT_EQ(rig.objective.evaluations(), 1);
  EXPECT_EQ(rig.objective.model_evaluations(), 0);

  const Objective::GroupCost forced = rig.objective.force_group_cost(fp, group);
  EXPECT_EQ(rig.objective.model_evaluations(), 1);

  ASSERT_TRUE(rig.objective.peek_group_cost(fp, &cost));
  EXPECT_DOUBLE_EQ(cost.cost_s, forced.cost_s);
  EXPECT_EQ(cost.profitable, forced.profitable);
  const Objective::CacheStats stats = rig.objective.cache_stats();
  EXPECT_EQ(stats.evaluations, 2);
  EXPECT_EQ(stats.hits, 1);
  EXPECT_EQ(stats.misses, 1);
  EXPECT_EQ(stats.duplicate_misses, 0);

  rig.objective.note_incremental_hits(5);
  const Objective::CacheStats after = rig.objective.cache_stats();
  EXPECT_EQ(after.evaluations, 7);
  EXPECT_EQ(after.hits, 6);
  EXPECT_EQ(after.incremental_hits, 5);
  EXPECT_NEAR(after.hit_rate(), 6.0 / 7.0, 1e-12);
}

TEST(EvalEngine, QuarantinedEntriesHitTheCache) {
  // A faulting group is evaluated exactly once; repeats are cache hits that
  // return the same penalty cost (quarantine folded into the entry).
  EngineRig rig = motivating_rig();
  ScopedFaultInjection arm(FaultPlan{FaultSite::Objective, 1.0, 11});
  const std::vector<KernelId> group{rig.program.find_kernel("Kern_C"),
                                    rig.program.find_kernel("Kern_E")};
  rig.objective.reset_counters();
  const Objective::GroupCost first = rig.objective.group_cost(group);
  EXPECT_FALSE(first.profitable);
  EXPECT_EQ(rig.objective.faults(), 1);
  EXPECT_EQ(rig.objective.model_evaluations(), 1);

  const Objective::GroupCost again = rig.objective.group_cost(group);
  EXPECT_DOUBLE_EQ(again.cost_s, first.cost_s);
  EXPECT_EQ(rig.objective.faults(), 1);             // not re-evaluated
  EXPECT_EQ(rig.objective.model_evaluations(), 1);  // hit, not a miss
  const Objective::CacheStats stats = rig.objective.cache_stats();
  EXPECT_EQ(stats.quarantined, 1);
  EXPECT_EQ(stats.hits, 1);
}

TEST(EvalEngine, QuarantineIsCachedEvenWithCachingDisabled) {
  Objective::Options options;
  options.enable_cache = false;
  EngineRig rig = motivating_rig(options);
  ScopedFaultInjection arm(FaultPlan{FaultSite::Objective, 1.0, 11});
  const std::vector<KernelId> group{rig.program.find_kernel("Kern_C"),
                                    rig.program.find_kernel("Kern_E")};
  (void)rig.objective.group_cost(group);
  (void)rig.objective.group_cost(group);
  EXPECT_EQ(rig.objective.faults(), 1);  // quarantine contract holds
  EXPECT_EQ(rig.objective.quarantined_fingerprints().size(), 1u);
}

// ---------- batched population scoring ----------

TEST(EvalEngine, PlanCostsMatchesPerPlanBitForBit) {
  EngineRig rig = suite_rig(24);
  Rng rng(0xfeed);
  std::vector<FusionPlan> plans;
  for (int i = 0; i < 32; ++i) {
    plans.push_back(random_legal_plan(rig.checker, rng, 0.2 + 0.02 * i));
  }
  const std::vector<double> batched = rig.objective.plan_costs(plans);
  ASSERT_EQ(batched.size(), plans.size());
  for (std::size_t i = 0; i < plans.size(); ++i) {
    EXPECT_DOUBLE_EQ(batched[i], rig.objective.plan_cost(plans[i])) << i;
  }
  // A second batched pass over a warm cache must agree too (pure reads).
  EXPECT_EQ(rig.objective.plan_costs(plans), batched);
}

TEST(EvalEngine, PlanCostsCountersMatchPerPlanSemantics) {
  EngineRig batched_rig = suite_rig(16);
  EngineRig serial_rig = suite_rig(16);
  Rng rng_a(0xabcd);
  Rng rng_b(0xabcd);
  std::vector<FusionPlan> plans_a, plans_b;
  for (int i = 0; i < 16; ++i) {
    plans_a.push_back(random_legal_plan(batched_rig.checker, rng_a, 0.5));
    plans_b.push_back(random_legal_plan(serial_rig.checker, rng_b, 0.5));
  }
  batched_rig.objective.reset_counters();
  serial_rig.objective.reset_counters();
  (void)batched_rig.objective.plan_costs(plans_a);
  for (const FusionPlan& plan : plans_b) (void)serial_rig.objective.plan_cost(plan);

  const Objective::CacheStats batched = batched_rig.objective.cache_stats();
  const Objective::CacheStats serial = serial_rig.objective.cache_stats();
  EXPECT_EQ(batched.evaluations, serial.evaluations);
  EXPECT_EQ(batched.hits, serial.hits);
  EXPECT_EQ(batched.misses, serial.misses);
  EXPECT_EQ(batched.entries, serial.entries);
}

// ---------- HGGA determinism across modes and thread counts ----------

HggaConfig small_hgga(std::uint64_t seed = 0x5eed) {
  HggaConfig config;
  config.population = 24;
  config.max_generations = 30;
  config.stall_generations = 30;
  config.seed = seed;
  return config;
}

void expect_same_result(const SearchResult& a, const SearchResult& b) {
  EXPECT_EQ(a.best.groups(), b.best.groups());
  EXPECT_EQ(a.best_cost_s, b.best_cost_s);  // bit-identical, not just close
  EXPECT_EQ(a.generations, b.generations);
  ASSERT_EQ(a.history.size(), b.history.size());
  for (std::size_t i = 0; i < a.history.size(); ++i) {
    EXPECT_EQ(a.history[i], b.history[i]) << "generation " << i;
  }
}

TEST(EvalEngine, HggaDeterministicAcrossThreadCounts) {
#ifdef _OPENMP
  const int saved = omp_get_max_threads();
  omp_set_num_threads(1);
  EngineRig rig_single = suite_rig(16, 9);
  const SearchResult single = Hgga(rig_single.objective, small_hgga()).run();

  omp_set_num_threads(8);
  EngineRig rig_many = suite_rig(16, 9);
  const SearchResult many = Hgga(rig_many.objective, small_hgga()).run();
  omp_set_num_threads(saved);

  expect_same_result(single, many);
#else
  GTEST_SKIP() << "OpenMP not enabled";
#endif
}

TEST(EvalEngine, HggaCountersBalanceAcrossModes) {
  // evaluations == hits + misses with the per-individual memos answering
  // part of the queries, and the memo never answers more queries than
  // there were hits.
  EngineRig rig = suite_rig(16, 5);
  (void)Hgga(rig.objective, small_hgga()).run();
  const Objective::CacheStats stats = rig.objective.cache_stats();
  EXPECT_EQ(stats.evaluations, stats.hits + stats.misses);
  EXPECT_GT(stats.incremental_hits, 0);
  EXPECT_LE(stats.incremental_hits, stats.hits);
  EXPECT_GT(stats.hit_rate(), 0.5);
  EXPECT_EQ(stats.delta_mismatches, 0);
}

// ---------- delta costing (DESIGN.md item 18) ----------

EngineRig suite_rig_with(int kernels, std::uint64_t seed, Objective::Options options) {
  TestSuiteConfig cfg;
  cfg.kernels = kernels;
  cfg.arrays = kernels * 2;
  cfg.seed = seed;
  cfg.grid = GridDims{256, 128, 16};
  return EngineRig(make_testsuite_program(cfg), options);
}

Objective::Options cross_checked_options() {
  Objective::Options options;
  options.cross_check_deltas = true;  // explicit: Release defaults it off
  return options;
}

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

TEST(DeltaCosting, MergeDeltaMatchesFullRecostBitForBit) {
  // For random plans and every merge pair (gi, gj): re-summing the plan's
  // per-group costs with the union cost substituted at gi and gj's row
  // skipped must equal plan_cost of the actually-merged plan bit for bit,
  // and delta_s must be exactly (merged - rows[gi]) - rows[gj].
  EngineRig rig = suite_rig_with(14, 11, cross_checked_options());
  Rng rng(0x77);
  for (int trial = 0; trial < 6; ++trial) {
    const FusionPlan plan = random_legal_plan(rig.checker, rng, 0.15 + 0.1 * trial);
    const int n = plan.num_groups();
    if (n < 2) continue;
    std::vector<double> rows(static_cast<std::size_t>(n));
    for (int g = 0; g < n; ++g) rows[g] = rig.objective.group_cost(plan.group(g)).cost_s;
    for (int gi = 0; gi < n; ++gi) {
      for (int gj = gi + 1; gj < n; ++gj) {
        const Objective::MergeDelta d = rig.objective.merge_delta(plan, gi, gj);
        EXPECT_EQ(bits(d.delta_s), bits((d.merged.cost_s - rows[gi]) - rows[gj]));
        // Supplying the rows must not change the priced union.
        const Objective::MergeDelta d2 = rig.objective.merge_delta(plan, gi, gj, rows);
        EXPECT_EQ(bits(d2.merged.cost_s), bits(d.merged.cost_s));
        FusionPlan merged = plan;
        merged.merge_groups(gi, gj);
        double replay = 0.0;
        for (int g = 0; g < n; ++g) {
          if (g == gj) continue;
          replay += g == gi ? d.merged.cost_s : rows[g];
        }
        EXPECT_EQ(bits(replay), bits(rig.objective.plan_cost(merged)))
            << "trial " << trial << " merge (" << gi << "," << gj << ")";
      }
    }
  }
  EXPECT_EQ(rig.objective.cache_stats().delta_mismatches, 0);
}

TEST(DeltaCosting, PlanCostWithMemoMatchesPlanCost) {
  EngineRig rig = suite_rig_with(16, 13, cross_checked_options());
  Rng rng(0x99);
  Objective::GroupCostMemo memo, scratch;
  FusionPlan plan = random_legal_plan(rig.checker, rng, 0.5);
  // Cold start (empty memo) is a counted full recost, still bit-identical.
  const double cold = rig.objective.plan_cost_with_memo(plan, {}, &memo);
  EXPECT_EQ(bits(cold), bits(rig.objective.plan_cost(plan)));
  EXPECT_GE(rig.objective.cache_stats().delta_full_recosts, 1);
  // A chain of merge moves, each scored through the carried memo.
  for (int step = 0; step < 8 && plan.num_groups() >= 2; ++step) {
    const int gi = static_cast<int>(rng.next_below(static_cast<std::uint64_t>(
        plan.num_groups() - 1)));
    plan.merge_groups(gi, gi + 1);
    const double warm = rig.objective.plan_cost_with_memo(plan, memo, &scratch);
    EXPECT_EQ(bits(warm), bits(rig.objective.plan_cost(plan))) << step;
    std::swap(memo, scratch);
  }
  const Objective::CacheStats stats = rig.objective.cache_stats();
  EXPECT_GT(stats.delta_hits, 0);  // the memo actually answered queries
  EXPECT_EQ(stats.delta_mismatches, 0);
}

enum class Method { Greedy, Hgga, Annealing, Exhaustive, Random };

SearchResult run_method(Method method, EngineRig& rig) {
  switch (method) {
    case Method::Greedy:
      return greedy_search(rig.objective);
    case Method::Hgga: {
      HggaConfig config = small_hgga();
      config.max_generations = 12;
      config.stall_generations = 12;
      return Hgga(rig.objective, config).run();
    }
    case Method::Annealing: {
      AnnealingConfig config;
      config.iterations = 3000;
      return annealing_search(rig.objective, config);
    }
    case Method::Exhaustive:
      return exhaustive_search(rig.objective);
    case Method::Random: {
      RandomSearchConfig config;
      config.samples = 400;
      return random_search(rig.objective, config);
    }
  }
  std::abort();
}

// Golden pins: the best plan, generation count, fault count, best cost and
// (for HGGA) per-generation best-cost history each search method returned on
// the full-recost, per-plan-evaluation reference paths these engines
// replaced (recorded before those paths were deleted). The delta and batched
// paths must keep reproducing them bit for bit at every thread count with
// the cross-check armed. Costs are written with 17 significant digits, which
// round-trip a double exactly; history entries are the raw double bits.
struct GoldenPin {
  Method method;
  const char* plan;
  int generations;
  long faults;
  double cost_s;
  std::span<const std::uint64_t> history = {};  // empty: history not pinned
};

constexpr std::uint64_t kHggaMethodHistory[] = {
    0x3f4cf3e3221f1669, 0x3f4c7ef9cb57757d, 0x3f4c5134d1e9c0c6, 0x3f49ae4c7899aaab,
    0x3f49ae4c7899aaab, 0x3f493db919d067d5, 0x3f493db919d067d5, 0x3f493db919d067d5,
    0x3f493db919d067d5, 0x3f493db919d067d5, 0x3f48d523b2194dc7, 0x3f48d523b2194dc7,
};

constexpr GoldenPin kMethodPins[] = {
    {Method::Greedy, "{0,1,2,3,4} {5,6,7,8,9,10,11} {12,13,14,15}", 0, 0,
     0.00079098296337174693},
    {Method::Hgga, "{0,1,2,3,6,7,12} {4,5} {8,9,10,11,13,14,15}", 12, 0,
     0.00074634811553473844, kHggaMethodHistory},
    {Method::Annealing, "{0,1,2,3,4,5,6,8,9,14} {7,10,11,12,13,15}", 0, 0,
     0.00085195918298934796},
    {Method::Exhaustive, "{0,1,2,3,4,5,6,7}", 0, 0, 0.00025727174766119717},
    {Method::Random, "{0} {1,2,3} {4,5,6,7,8,9,10} {11,12,13,14,15}", 0, 0,
     0.00085781192337703064},
};

// Under FaultPlan{Objective, 0.3, seed 21}: quarantined groups cost the
// penalty, and both paths must see (and quarantine) the same groups.
constexpr GoldenPin kFaultPins[] = {
    {Method::Greedy, "{0,1,2,3} {4} {5,6,7,8,9,10,11} {12,13,14,15}", 0, 26,
     0.00081060497705435575},
    {Method::Annealing, "{0,1,2,3,4,5,6} {7,8,9,10,11} {12,13,14,15}", 0, 23,
     0.00076996328202750012},
};

// small_hgga() on suite_rig(16, 5), the configuration the batched/per-plan
// equivalence test ran.
constexpr std::uint64_t kHggaHistory[] = {
    0x3f4d160e3dcb8440, 0x3f4b0de0a6d6c1bd, 0x3f4b0de0a6d6c1bd, 0x3f48e06237957cf4,
    0x3f48e06237957cf4, 0x3f48e06237957cf4, 0x3f48e06237957cf4, 0x3f48e06237957cf4,
    0x3f48e06237957cf4, 0x3f48e06237957cf4, 0x3f48e06237957cf4, 0x3f48e06237957cf4,
    0x3f48e06237957cf4, 0x3f48e06237957cf4, 0x3f48e06237957cf4, 0x3f48e06237957cf4,
    0x3f48e06237957cf4, 0x3f48e06237957cf4, 0x3f48e06237957cf4, 0x3f48e06237957cf4,
    0x3f48e06237957cf4, 0x3f48e06237957cf4, 0x3f48e06237957cf4, 0x3f48e06237957cf4,
    0x3f48e06237957cf4, 0x3f48e06237957cf4, 0x3f48e06237957cf4, 0x3f48e06237957cf4,
    0x3f48e06237957cf4, 0x3f48e06237957cf4,
};

constexpr GoldenPin kHggaPin = {Method::Hgga, "{0,1,2,3,4,5,6,7,12} {8} {9,10,11,13,14,15}",
                                30, 0, 0.00075917049177212518, kHggaHistory};

#ifdef _OPENMP
constexpr int kPinThreadCounts[] = {1, 4, 8};
#else
constexpr int kPinThreadCounts[] = {1};
#endif

/// Runs `run` once per pinned thread count and checks each result against
/// `pin` bit for bit; later runs must also match the first run's
/// per-generation history bit for bit. `run` returns the result and its
/// rig's stats, and checks the best cost against its rig's full recost.
template <typename Run>
void expect_pinned(const GoldenPin& pin, Run run) {
#ifdef _OPENMP
  const int saved = omp_get_max_threads();
#endif
  SearchResult first;
  for (const int threads : kPinThreadCounts) {
#ifdef _OPENMP
    omp_set_num_threads(threads);
#endif
    Objective::CacheStats stats;
    const SearchResult got = run(&stats);
    const int label = static_cast<int>(pin.method) * 100 + threads;
    EXPECT_EQ(got.best.to_string(), pin.plan) << label;
    EXPECT_EQ(got.generations, pin.generations) << label;
    EXPECT_EQ(got.fault_report.faults, pin.faults) << label;
    EXPECT_EQ(bits(got.best_cost_s), bits(pin.cost_s)) << label;
    EXPECT_EQ(stats.delta_mismatches, 0) << label;
    if (!pin.history.empty()) {
      ASSERT_EQ(got.history.size(), pin.history.size()) << label;
      for (std::size_t i = 0; i < got.history.size(); ++i) {
        EXPECT_EQ(bits(got.history[i]), pin.history[i]) << label << " gen " << i;
      }
    }
    if (threads == kPinThreadCounts[0]) {
      first = got;
    } else {
      ASSERT_EQ(got.history.size(), first.history.size()) << label;
      for (std::size_t i = 0; i < got.history.size(); ++i) {
        EXPECT_EQ(bits(got.history[i]), bits(first.history[i])) << label << " gen " << i;
      }
    }
  }
#ifdef _OPENMP
  omp_set_num_threads(saved);
#endif
}

TEST(DeltaCosting, AllMethodsMatchGoldenPinsAcrossThreadCounts) {
  // Every search method returns its pinned plan at any thread count, with
  // the debug cross-check armed the whole time, and the best cost agrees
  // with the full-recost oracle.
  for (const GoldenPin& pin : kMethodPins) {
    expect_pinned(pin, [&](Objective::CacheStats* stats) {
      const int kernels = pin.method == Method::Exhaustive ? 8 : 16;
      EngineRig rig = suite_rig_with(kernels, 7, cross_checked_options());
      SearchResult got = run_method(pin.method, rig);
      EXPECT_EQ(bits(rig.objective.plan_cost(got.best)), bits(got.best_cost_s));
      *stats = rig.objective.cache_stats();
      if (pin.method == Method::Greedy || pin.method == Method::Hgga ||
          pin.method == Method::Annealing) {
        EXPECT_GT(stats->delta_hits, 0);  // the delta engine engaged
      }
      return got;
    });
  }
}

TEST(DeltaCosting, BitIdenticalUnderFaultQuarantine) {
  // Injected evaluation faults quarantine groups at a penalty cost; the
  // delta path resolves quarantined entries from the cache exactly like a
  // full recost, so the pinned plans and fault counts hold. FaultInjector
  // decisions are pure in (seed, site, key), so every run sees the same
  // groups fault.
  for (const GoldenPin& pin : kFaultPins) {
    expect_pinned(pin, [&](Objective::CacheStats* stats) {
      ScopedFaultInjection arm(FaultPlan{FaultSite::Objective, 0.3, 21});
      EngineRig rig = suite_rig_with(16, 7, cross_checked_options());
      SearchResult got = run_method(pin.method, rig);
      EXPECT_EQ(rig.objective.faults(), pin.faults);
      EXPECT_EQ(bits(rig.objective.plan_cost(got.best)), bits(got.best_cost_s));
      *stats = rig.objective.cache_stats();
      return got;
    });
  }
}

TEST(EvalEngine, HggaMatchesGoldenPinAcrossThreadCounts) {
  // Batched, memo-inheriting evaluation reproduces the per-plan reference
  // run: same best plan, generation count and history at any thread count.
  expect_pinned(kHggaPin, [](Objective::CacheStats* stats) {
    EngineRig rig = suite_rig_with(16, 5, cross_checked_options());
    SearchResult got = Hgga(rig.objective, small_hgga()).run();
    EXPECT_EQ(bits(rig.objective.plan_cost(got.best)), bits(got.best_cost_s));
    *stats = rig.objective.cache_stats();
    return got;
  });
}

// ---------- population arena ----------

TEST(PopulationArena, SteadyStateGenerationsAllocateNothing) {
  // After warm-up, a generation of elite-style copies into recycled
  // offspring slots plus a promote must perform zero heap allocations:
  // FusionPlan's SoA vectors and the per-Individual memos copy-assign into
  // retained capacity, and promote_offspring only swaps the pools.
  EngineRig rig = suite_rig_with(16, 13, cross_checked_options());
  Rng rng(0x51);
  constexpr int kPop = 12;
  Population arena;
  std::vector<Individual>& population = arena.individuals();
  for (int i = 0; i < kPop; ++i) {
    Individual& slot = arena.next_offspring();
    slot.plan = random_legal_plan(rig.checker, rng, 0.5);
    slot.cost = rig.objective.plan_cost(slot.plan);
    slot.group_costs.clear();
    for (int g = 0; g < slot.plan.num_groups(); ++g) {
      const std::span<const KernelId> group = slot.plan.group(g);
      slot.group_costs.emplace_back(Objective::group_fingerprint(group),
                                    rig.objective.group_cost(group).cost_s);
    }
    std::sort(slot.group_costs.begin(), slot.group_costs.end());
  }
  arena.promote_offspring();
  ASSERT_EQ(population.size(), static_cast<std::size_t>(kPop));
  // Two warm-up generations grow both pool buffers to capacity.
  for (int gen = 0; gen < 2; ++gen) {
    for (int i = 0; i < kPop; ++i) arena.next_offspring() = population[i];
    arena.promote_offspring();
  }
  const long before = g_allocations.load(std::memory_order_relaxed);
  for (int gen = 0; gen < 4; ++gen) {
    for (int i = 0; i < kPop; ++i) arena.next_offspring() = population[i];
    arena.promote_offspring();
  }
  EXPECT_EQ(g_allocations.load(std::memory_order_relaxed), before);
  // The population reference stayed valid and intact across all promotes.
  EXPECT_EQ(population.size(), static_cast<std::size_t>(kPop));
}

}  // namespace
}  // namespace kf
