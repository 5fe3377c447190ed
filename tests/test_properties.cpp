// Property-based tests: invariants swept over seeds and configurations
// with parameterized gtest suites.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <set>

#include "apps/testsuite.hpp"
#include "graph/dag.hpp"
#include "gpu/bank_conflicts.hpp"
#include "ir/program_io.hpp"
#include "graph/sharing.hpp"
#include "fusion/transformer.hpp"
#include "graph/array_expansion.hpp"
#include "model/proposed_model.hpp"
#include "model/roofline_model.hpp"
#include "search/hgga.hpp"
#include "search/population.hpp"
#include "stencil/equivalence.hpp"

namespace kf {
namespace {

// ============================================================ seeds sweep

class SeedSweep : public ::testing::TestWithParam<std::uint64_t> {
 protected:
  Program make_program(int kernels = 16, bool with_bodies = false) const {
    TestSuiteConfig cfg;
    cfg.kernels = kernels;
    cfg.arrays = 2 * kernels;
    cfg.seed = GetParam();
    cfg.with_bodies = with_bodies;
    cfg.grid = with_bodies ? GridDims{32, 16, 4} : GridDims{256, 128, 16};
    return make_testsuite_program(cfg);
  }
};

TEST_P(SeedSweep, GeneratedProgramsValidate) {
  const Program p = make_program();
  EXPECT_NO_THROW(p.validate());
  EXPECT_EQ(p.num_kernels(), 16);
}

TEST_P(SeedSweep, RandomPlansAreFullyLegal) {
  const Program p = make_program();
  const ExpansionResult expansion = expand_arrays(p);
  const LegalityChecker checker(expansion.program, DeviceSpec::k20x());
  Rng rng(GetParam() * 31 + 7);
  for (double aggressiveness : {0.2, 0.6, 0.95}) {
    const FusionPlan plan = random_legal_plan(checker, rng, aggressiveness);
    EXPECT_TRUE(checker.plan_is_legal(plan)) << plan.to_string();
    EXPECT_TRUE(checker.plan_is_schedulable(plan));
    // Partition invariant: every kernel in exactly one group.
    int total = 0;
    for (int g = 0; g < plan.num_groups(); ++g) {
      total += static_cast<int>(plan.group(g).size());
    }
    EXPECT_EQ(total, plan.num_kernels());
  }
}

TEST_P(SeedSweep, CheckGroupVerdictIgnoresMemberOrder) {
  // try_merge / try_move sort the group they check, while some callers
  // hand check_group unsorted unions: the verdict — and each constraint
  // predicate behind it — must depend on the member set only.
  const Program p = make_program();
  // Tight SMEM so resource verdicts occur alongside kinship/convexity ones.
  const LegalityChecker checker(p, DeviceSpec::k20x().with_smem_capacity(8 * 1024));
  Rng rng(GetParam() * 13 + 5);
  std::set<LegalityVerdict> seen;
  for (int trial = 0; trial < 60; ++trial) {
    // Grow a group by random sharing-neighbour steps, with an occasional
    // random kernel so disconnected groups show up too.
    std::vector<KernelId> group{static_cast<KernelId>(rng.next_below(16))};
    const int size = 2 + static_cast<int>(rng.next_below(6));
    while (static_cast<int>(group.size()) < size) {
      const KernelId from = group[rng.next_below(group.size())];
      const auto& neighbours = checker.sharing().neighbours(from);
      const KernelId k = neighbours.empty() || rng.next_bool(0.2)
                             ? static_cast<KernelId>(rng.next_below(16))
                             : neighbours[rng.next_below(neighbours.size())];
      if (std::find(group.begin(), group.end(), k) == group.end()) group.push_back(k);
    }
    std::vector<KernelId> sorted = group;
    std::sort(sorted.begin(), sorted.end());
    const LegalityVerdict verdict = checker.check_group(sorted);
    const bool connected = checker.sharing().group_connected(sorted);
    const bool convex = checker.execution_order().group_is_convex(sorted);
    seen.insert(verdict);
    for (int order = 0; order < 4; ++order) {
      rng.shuffle(group);
      EXPECT_EQ(checker.check_group(group), verdict) << to_string(verdict);
      EXPECT_EQ(checker.sharing().group_connected(group), connected);
      EXPECT_EQ(checker.execution_order().group_is_convex(group), convex);
    }
  }
  EXPECT_GE(seen.size(), 2u) << "the sweep must reach more than one verdict";
}

TEST_P(SeedSweep, ExpansionRemovesAllWarWaw) {
  const Program p = make_program();
  const ExpansionResult expansion = expand_arrays(p);
  const DependencyGraph deps = DependencyGraph::build(expansion.program);
  for (const DependencyEdge& e : deps.edges()) {
    // RAW always persists; WAR/WAW may only survive through accumulating
    // (ReadWrite) accesses, which expansion must not split.
    if (e.kind != DepKind::RAW) {
      const KernelInfo& to = expansion.program.kernel(e.to);
      const ArrayAccess* acc = to.find_access(e.array);
      ASSERT_NE(acc, nullptr);
      EXPECT_EQ(acc->mode, AccessMode::ReadWrite)
          << to_string(e.kind) << " edge on pure-write access survived expansion";
    }
  }
}

TEST_P(SeedSweep, FusedTrafficNeverExceedsOriginalSum) {
  const Program p = make_program();
  const ExpansionResult ex = expand_arrays(p);
  const LegalityChecker checker(ex.program, DeviceSpec::k20x());
  Rng rng(GetParam() * 17 + 3);
  const FusionPlan plan = random_legal_plan(checker, rng, 0.9);
  for (int g = 0; g < plan.num_groups(); ++g) {
    if (plan.group(g).size() < 2) continue;
    const LaunchDescriptor d = checker.builder().build(plan.group(g));
    double original = 0;
    for (KernelId k : plan.group(g)) {
      original += compute_traffic(ex.program, descriptor_for_original(ex.program, k))
                      .gmem_total();
    }
    EXPECT_LE(compute_traffic(ex.program, d).gmem_total(), original * (1 + 1e-9))
        << d.name;
  }
}

TEST_P(SeedSweep, RooflineLowerBoundsProposed) {
  const Program p = make_program();
  const ExpansionResult ex = expand_arrays(p);
  const DeviceSpec device = DeviceSpec::k20x();
  const LegalityChecker checker(ex.program, device);
  const RooflineModel roofline(device);
  const ProposedModel proposed(device);
  Rng rng(GetParam() * 13 + 5);
  const FusionPlan plan = random_legal_plan(checker, rng, 0.8);
  for (int g = 0; g < plan.num_groups(); ++g) {
    if (plan.group(g).size() < 2) continue;
    const LaunchDescriptor d = checker.builder().build(plan.group(g));
    const Projection pr = roofline.project(ex.program, d);
    const Projection pp = proposed.project(ex.program, d);
    if (pp.feasible) {
      EXPECT_LE(pr.time_s, pp.time_s * (1 + 1e-9)) << d.name;
    }
  }
}

TEST_P(SeedSweep, TransformedProgramsAreValidAndComplete) {
  const Program p = make_program();
  const ExpansionResult ex = expand_arrays(p);
  const LegalityChecker checker(ex.program, DeviceSpec::k20x());
  Rng rng(GetParam() * 7 + 1);
  const FusionPlan plan = random_legal_plan(checker, rng, 0.85);
  const FusedProgram fused = apply_fusion(checker, plan);
  EXPECT_NO_THROW(fused.program.validate());
  EXPECT_EQ(fused.num_new_kernels(), plan.num_groups());
  // All original kernels covered exactly once.
  std::vector<int> seen(static_cast<std::size_t>(ex.program.num_kernels()), 0);
  for (const auto& members : fused.members) {
    for (KernelId k : members) ++seen[static_cast<std::size_t>(k)];
  }
  for (int count : seen) EXPECT_EQ(count, 1);
}

TEST_P(SeedSweep, FunctionalEquivalenceOfRandomFusions) {
  const Program p = make_program(8, /*with_bodies=*/true);
  const ExpansionResult ex = expand_arrays(p);
  const LegalityChecker checker(ex.program, DeviceSpec::k20x());
  Rng rng(GetParam() * 19 + 11);
  const FusionPlan plan = random_legal_plan(checker, rng, 0.9);
  const FusedProgram fused = apply_fusion(checker, plan);
  const EquivalenceReport report = verify_fusion(p, fused, &ex);
  EXPECT_TRUE(report.equivalent)
      << "seed " << GetParam() << " plan " << plan.to_string() << " diff "
      << report.max_abs_diff;
}

TEST_P(SeedSweep, GmemOpsDropUnderFusion) {
  const Program p = make_program(8, /*with_bodies=*/true);
  const ExpansionResult ex = expand_arrays(p);
  const LegalityChecker checker(ex.program, DeviceSpec::k20x());
  Rng rng(GetParam() * 23 + 29);
  const FusionPlan plan = random_legal_plan(checker, rng, 0.9);
  if (plan.fused_group_count() == 0) GTEST_SKIP() << "no fusion drawn";
  const FusedProgram fused = apply_fusion(checker, plan);
  GridSet before(ex.program);
  const ExecCounters b = BlockExecutor(ex.program).run(before);
  GridSet after(fused.program);
  const ExecCounters a = BlockExecutor(fused.program).run(after);
  EXPECT_LE(a.gmem_ops(), b.gmem_ops() * (1 + 1e-9));
  EXPECT_DOUBLE_EQ(a.gmem_stores, b.gmem_stores);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SeedSweep,
                         ::testing::Values(1u, 2u, 3u, 5u, 8u, 13u, 21u, 34u, 55u,
                                           89u));

// ==================================================== attribute grid sweep

struct SuiteAttr {
  int kernels;
  int sharing;
  int load;
};

class AttributeSweep : public ::testing::TestWithParam<SuiteAttr> {};

TEST_P(AttributeSweep, GeneratorHonoursAttributes) {
  const SuiteAttr attr = GetParam();
  TestSuiteConfig cfg;
  cfg.kernels = attr.kernels;
  cfg.arrays = 2 * attr.kernels;
  cfg.sharing_set_size = attr.sharing;
  cfg.thread_load = attr.load;
  cfg.grid = GridDims{256, 128, 16};
  const Program p = make_testsuite_program(cfg);
  EXPECT_EQ(p.num_kernels(), attr.kernels);
  EXPECT_EQ(p.num_arrays(), 2 * attr.kernels);
  EXPECT_NO_THROW(p.validate());

  // Thread load of non-center reads lands within +-1 of the attribute.
  for (const KernelInfo& k : p.kernels()) {
    for (const ArrayAccess& acc : k.accesses) {
      if (acc.is_read() && acc.pattern.thread_load() > 1) {
        EXPECT_GE(acc.pattern.thread_load(), std::max(2, attr.load - 1));
        EXPECT_LE(acc.pattern.thread_load(), attr.load + 1);
      }
    }
  }
}

TEST_P(AttributeSweep, SearchAlwaysLegalAndNeverWorseThanBaseline) {
  const SuiteAttr attr = GetParam();
  TestSuiteConfig cfg;
  cfg.kernels = attr.kernels;
  cfg.arrays = 2 * attr.kernels;
  cfg.sharing_set_size = attr.sharing;
  cfg.thread_load = attr.load;
  cfg.grid = GridDims{256, 128, 16};
  const Program p = make_testsuite_program(cfg);
  const ExpansionResult ex = expand_arrays(p);
  const DeviceSpec device = DeviceSpec::k20x();
  const TimingSimulator sim(device);
  const LegalityChecker checker(ex.program, device);
  const ProposedModel model(device);
  const Objective objective(checker, model, sim);
  HggaConfig hcfg;
  hcfg.population = 20;
  hcfg.max_generations = 40;
  hcfg.stall_generations = 15;
  hcfg.seed = static_cast<std::uint64_t>(attr.kernels * 100 + attr.load);
  const SearchResult result = Hgga(objective, hcfg).run();
  EXPECT_TRUE(checker.plan_is_legal(result.best));
  EXPECT_LE(result.best_cost_s, result.baseline_cost_s * (1 + 1e-9));
}

INSTANTIATE_TEST_SUITE_P(
    TableV, AttributeSweep,
    ::testing::Values(SuiteAttr{10, 2, 4}, SuiteAttr{10, 4, 8}, SuiteAttr{10, 8, 12},
                      SuiteAttr{20, 2, 12}, SuiteAttr{20, 6, 4}, SuiteAttr{30, 4, 8},
                      SuiteAttr{30, 8, 4}),
    [](const ::testing::TestParamInfo<SuiteAttr>& info) {
      return "k" + std::to_string(info.param.kernels) + "_s" +
             std::to_string(info.param.sharing) + "_t" +
             std::to_string(info.param.load);
    });

// ======================================================= occupancy sweep

struct OccCase {
  int threads;
  int regs;
  long smem;
};

class OccupancySweep : public ::testing::TestWithParam<OccCase> {};

TEST_P(OccupancySweep, MatchesBruteForceReference) {
  const OccCase c = GetParam();
  const DeviceSpec d = DeviceSpec::k20x();
  const Occupancy occ = compute_occupancy(d, c.threads, c.regs, c.smem);
  if (c.threads > d.max_threads_per_block || c.regs > d.max_regs_per_thread ||
      c.smem > d.smem_per_smx) {
    EXPECT_EQ(occ.limiter, OccupancyLimiter::Infeasible);
    return;
  }
  // Brute force: the largest b such that all resources fit.
  int expected = 0;
  for (int b = d.max_blocks_per_smx; b >= 1; --b) {
    const long regs_rounded = (c.regs + 7) / 8 * 8;
    const bool fits = b * c.threads <= d.max_threads_per_smx &&
                      b * regs_rounded * c.threads <= d.regs_per_smx &&
                      b * c.smem <= d.smem_per_smx;
    if (fits) {
      expected = b;
      break;
    }
  }
  EXPECT_EQ(occ.blocks_per_smx, expected);
  EXPECT_EQ(occ.feasible(), expected > 0);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, OccupancySweep,
    ::testing::Values(OccCase{64, 16, 0}, OccCase{128, 32, 2048},
                      OccCase{128, 64, 16 * 1024}, OccCase{256, 128, 0},
                      OccCase{256, 255, 24 * 1024}, OccCase{512, 48, 12 * 1024},
                      OccCase{1024, 32, 47 * 1024}, OccCase{1024, 255, 0},
                      OccCase{128, 300, 0}, OccCase{128, 40, 64 * 1024}),
    [](const ::testing::TestParamInfo<OccCase>& info) {
      return "t" + std::to_string(info.param.threads) + "_r" +
             std::to_string(info.param.regs) + "_s" +
             std::to_string(info.param.smem / 1024) + "k";
    });

// ====================================================== pattern sweep

class PatternSweep : public ::testing::TestWithParam<int> {};

TEST_P(PatternSweep, ThreadLoadConstructionExact) {
  const int load = GetParam();
  const StencilPattern p = StencilPattern::with_thread_load(load);
  EXPECT_EQ(p.thread_load(), load);
  EXPECT_EQ(p.size(), load);  // all offsets horizontal
  // Radius grows like ceil((sqrt(load) - 1) / 2).
  const int expected_radius =
      static_cast<int>(std::ceil((std::sqrt(static_cast<double>(load)) - 1.0) / 2.0));
  EXPECT_EQ(p.horizontal_radius(), expected_radius);
}

TEST_P(PatternSweep, MergeWithSelfIsIdentity) {
  const StencilPattern p = StencilPattern::with_thread_load(GetParam());
  EXPECT_EQ(p.merged_with(p), p);
}

INSTANTIATE_TEST_SUITE_P(Loads, PatternSweep,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 8, 9, 12, 16, 25));

// ==================================================== precision sweep

class PrecisionSweep : public ::testing::TestWithParam<int> {};

TEST_P(PrecisionSweep, WithPrecisionScalesTraffic) {
  TestSuiteConfig cfg;
  cfg.kernels = 10;
  cfg.arrays = 20;
  cfg.seed = 77;
  cfg.grid = GridDims{128, 64, 8};
  const Program dp = make_testsuite_program(cfg);
  const Program converted = dp.with_precision(GetParam());
  for (ArrayId a = 0; a < converted.num_arrays(); ++a) {
    EXPECT_EQ(converted.array(a).elem_bytes, GetParam());
  }
  const double t_dp = program_traffic(dp).gmem_total();
  const double t_conv = program_traffic(converted).gmem_total();
  EXPECT_NEAR(t_conv / t_dp, GetParam() / 8.0, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Widths, PrecisionSweep, ::testing::Values(4, 8));


// ======================================================= random DAG sweep

class DagSweep : public ::testing::TestWithParam<std::uint64_t> {
 protected:
  Dag random_dag(int n, double density) const {
    Rng rng(GetParam() * 101 + 13);
    Dag d(n);
    for (int u = 0; u < n; ++u) {
      for (int v = u + 1; v < n; ++v) {
        if (rng.next_bool(density)) d.add_edge(u, v);  // u < v: acyclic
      }
    }
    return d;
  }
};

TEST_P(DagSweep, TransitiveReductionPreservesReachability) {
  const Dag d = random_dag(24, 0.15);
  const Dag reduced = d.transitive_reduction();
  const BitMatrix before = d.reachability();
  const BitMatrix after = reduced.reachability();
  for (int u = 0; u < d.size(); ++u) {
    for (int v = 0; v < d.size(); ++v) {
      EXPECT_EQ(before.get(u, v), after.get(u, v)) << u << "->" << v;
    }
  }
  EXPECT_LE(reduced.num_edges(), d.num_edges());
}

TEST_P(DagSweep, TopologicalOrderConsistentWithReachability) {
  const Dag d = random_dag(30, 0.1);
  const auto order = d.topological_order();
  std::vector<int> position(static_cast<std::size_t>(d.size()));
  for (std::size_t i = 0; i < order.size(); ++i) {
    position[static_cast<std::size_t>(order[i])] = static_cast<int>(i);
  }
  const BitMatrix reach = d.reachability();
  for (int u = 0; u < d.size(); ++u) {
    for (int v = 0; v < d.size(); ++v) {
      if (reach.get(u, v)) {
        EXPECT_LT(position[static_cast<std::size_t>(u)],
                  position[static_cast<std::size_t>(v)]);
      }
    }
  }
}

TEST_P(DagSweep, ReverseReachabilityIsExactTranspose) {
  const Dag d = random_dag(20, 0.2);
  const BitMatrix fwd = d.reachability();
  const BitMatrix rev = d.reverse_reachability();
  for (int u = 0; u < d.size(); ++u) {
    for (int v = 0; v < d.size(); ++v) {
      EXPECT_EQ(fwd.get(u, v), rev.get(v, u));
    }
  }
}

TEST_P(DagSweep, KinshipIsSymmetricAndTriangular) {
  TestSuiteConfig cfg;
  cfg.kernels = 14;
  cfg.arrays = 28;
  cfg.seed = GetParam();
  cfg.grid = GridDims{64, 32, 4};
  const Program p = make_testsuite_program(cfg);
  const SharingGraph g = SharingGraph::build(p);
  for (KernelId a = 0; a < p.num_kernels(); ++a) {
    for (KernelId b = a + 1; b < p.num_kernels(); ++b) {
      const int ab = g.kinship(a, b);
      EXPECT_EQ(ab, g.kinship(b, a));
      // Triangle inequality on positive chains.
      for (KernelId c = 0; c < p.num_kernels(); ++c) {
        const int ac = g.kinship(a, c);
        const int cb = g.kinship(c, b);
        if (ac > 0 && cb > 0 && ab > 0) {
          EXPECT_LE(ab, ac + cb);
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Random, DagSweep, ::testing::Values(3u, 7u, 19u, 43u));


// ================================================= IR round-trip fuzzing

class IoRoundTrip : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(IoRoundTrip, TextSerialisationIsLossless) {
  TestSuiteConfig cfg;
  cfg.kernels = 12 + static_cast<int>(GetParam() % 7);
  cfg.arrays = 2 * cfg.kernels;
  cfg.seed = GetParam();
  cfg.grid = GridDims{128, 64, 8};
  const Program p = make_testsuite_program(cfg);
  const Program q = parse_program(to_text(p));
  ASSERT_EQ(q.num_kernels(), p.num_kernels());
  ASSERT_EQ(q.num_arrays(), p.num_arrays());
  for (KernelId k = 0; k < p.num_kernels(); ++k) {
    const KernelInfo& a = p.kernel(k);
    const KernelInfo& b = q.kernel(k);
    EXPECT_EQ(a.name, b.name);
    EXPECT_EQ(a.regs_per_thread, b.regs_per_thread);
    EXPECT_EQ(a.phase, b.phase);
    ASSERT_EQ(a.accesses.size(), b.accesses.size());
    for (std::size_t i = 0; i < a.accesses.size(); ++i) {
      EXPECT_EQ(a.accesses[i].array, b.accesses[i].array);
      EXPECT_EQ(a.accesses[i].mode, b.accesses[i].mode);
      EXPECT_EQ(a.accesses[i].pattern, b.accesses[i].pattern);
      EXPECT_EQ(a.accesses[i].reads_own_product, b.accesses[i].reads_own_product);
    }
  }
  // Serialisation is a fixpoint.
  EXPECT_EQ(to_text(q), to_text(p));
}

TEST_P(IoRoundTrip, DownstreamAnalysesAgreeAfterRoundTrip) {
  TestSuiteConfig cfg;
  cfg.kernels = 14;
  cfg.arrays = 28;
  cfg.seed = GetParam();
  cfg.grid = GridDims{128, 64, 8};
  const Program p = make_testsuite_program(cfg);
  const Program q = parse_program(to_text(p));
  // Same dependency structure and same projected costs.
  const DependencyGraph dp = DependencyGraph::build(p);
  const DependencyGraph dq = DependencyGraph::build(q);
  EXPECT_EQ(dp.edges().size(), dq.edges().size());
  const DeviceSpec device = DeviceSpec::k20x();
  const TimingSimulator sim(device);
  for (KernelId k = 0; k < p.num_kernels(); ++k) {
    EXPECT_DOUBLE_EQ(sim.run_original(p, k).time_s, sim.run_original(q, k).time_s);
  }
}

INSTANTIATE_TEST_SUITE_P(Fuzz, IoRoundTrip,
                         ::testing::Values(101u, 202u, 303u, 404u, 505u, 606u));

// ========================================== bank-conflict reference sweep

struct BankCase {
  int tile_width;
  int block_x;
  int elem_bytes;
};

class BankSweep : public ::testing::TestWithParam<BankCase> {};

TEST_P(BankSweep, RowDegreeMatchesBruteForce) {
  const BankCase c = GetParam();
  const DeviceSpec d = DeviceSpec::k20x();
  const BankConflictAnalysis a =
      analyze_bank_conflicts(d, c.tile_width, 8, c.elem_bytes, c.block_x);
  // Brute-force reference for the row-access degree.
  auto degree = [&](int width) {
    std::map<int, int> bank_hits;
    const int wpe = std::max(1, c.elem_bytes / d.bank_width_bytes);
    for (int lane = 0; lane < d.warp_size; ++lane) {
      const int tx = lane % c.block_x;
      const int ty = lane / c.block_x;
      const long word = (static_cast<long>(ty) * width + tx) * wpe;
      ++bank_hits[static_cast<int>(word % d.smem_banks)];
    }
    int worst = 0;
    for (const auto& [bank, hits] : bank_hits) worst = std::max(worst, hits);
    return worst;
  };
  // The analysis reports max(row, column) degree, so it must dominate the
  // row-only reference.
  EXPECT_GE(a.degree_unpadded, degree(c.tile_width));
  EXPECT_GE(a.degree_padded, degree(c.tile_width + 1));
  EXPECT_GE(a.degree_unpadded, 1);
  EXPECT_GT(a.padding_bytes, 0);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, BankSweep,
    ::testing::Values(BankCase{32, 32, 8}, BankCase{34, 32, 8}, BankCase{32, 16, 8},
                      BankCase{33, 16, 4}, BankCase{64, 32, 4}, BankCase{40, 8, 8},
                      BankCase{36, 4, 8}),
    [](const ::testing::TestParamInfo<BankCase>& info) {
      return "w" + std::to_string(info.param.tile_width) + "_b" +
             std::to_string(info.param.block_x) + "_e" +
             std::to_string(info.param.elem_bytes);
    });

// ================================== traffic model vs functional executor

class TrafficCrossCheck : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(TrafficCrossCheck, AnalyticAndFunctionalCountsCorrelate) {
  // The traffic model's byte counts (analytic) and the block executor's
  // element-exact first-touch counts measure the same thing with different
  // halo accounting; per whole program they must agree within 25%.
  TestSuiteConfig cfg;
  cfg.kernels = 8;
  cfg.arrays = 14;
  cfg.seed = GetParam();
  cfg.with_bodies = true;
  cfg.grid = GridDims{64, 32, 4};
  const Program p = make_testsuite_program(cfg);
  const double analytic_elems = program_traffic(p).gmem_total() / 8.0;
  GridSet grids(p);
  const ExecCounters functional = BlockExecutor(p).run(grids);
  const double ratio = analytic_elems / functional.gmem_ops();
  EXPECT_GT(ratio, 0.75) << analytic_elems << " vs " << functional.gmem_ops();
  EXPECT_LT(ratio, 1.34) << analytic_elems << " vs " << functional.gmem_ops();
}

INSTANTIATE_TEST_SUITE_P(Seeds, TrafficCrossCheck,
                         ::testing::Values(11u, 22u, 33u, 44u, 55u));

}  // namespace
}  // namespace kf
