#include "checks.hpp"

#include <algorithm>
#include <cmath>
#include <set>
#include <sstream>
#include <stdexcept>

#include "apps/scale_les.hpp"
#include "bench.hpp"
#include "fusion/legality.hpp"
#include "graph/array_expansion.hpp"
#include "gpu/device_spec.hpp"

namespace kf::perfbench {

std::vector<std::pair<KernelId, KernelId>> dependence_pairs(const Program& program) {
  const int arrays = program.num_arrays();
  std::vector<KernelId> last_writer(static_cast<std::size_t>(arrays), -1);
  std::vector<std::vector<KernelId>> readers(static_cast<std::size_t>(arrays));
  std::set<std::pair<KernelId, KernelId>> pairs;
  for (KernelId k = 0; k < program.num_kernels(); ++k) {
    const KernelInfo& kernel = program.kernel(k);
    for (const ArrayAccess& a : kernel.accesses) {
      const auto x = static_cast<std::size_t>(a.array);
      // Read after write and write after write: the last writer first.
      if (last_writer[x] >= 0 && last_writer[x] != k) pairs.insert({last_writer[x], k});
      // Write after read: every reader since that write first.
      if (a.is_write())
        for (KernelId r : readers[x])
          if (r != k) pairs.insert({r, k});
    }
    for (const ArrayAccess& a : kernel.accesses) {
      const auto x = static_cast<std::size_t>(a.array);
      if (a.is_write()) {
        last_writer[x] = k;
        readers[x].clear();
      } else {
        readers[x].push_back(k);
      }
    }
  }
  return {pairs.begin(), pairs.end()};
}

std::string check_partition(const Groups& groups, int num_kernels) {
  std::vector<int> seen(static_cast<std::size_t>(num_kernels), 0);
  for (const auto& group : groups) {
    for (KernelId k : group) {
      if (k < 0 || k >= num_kernels)
        return "kernel " + std::to_string(k) + " out of range";
      if (++seen[static_cast<std::size_t>(k)] > 1)
        return "kernel " + std::to_string(k) + " in two groups";
    }
  }
  for (int k = 0; k < num_kernels; ++k)
    if (seen[static_cast<std::size_t>(k)] == 0)
      return "kernel " + std::to_string(k) + " in no group";
  return {};
}

std::string check_launch_order(const Groups& launches,
                               const std::vector<std::pair<KernelId, KernelId>>& pairs) {
  // (launch, position inside the launch) of every kernel.
  std::vector<std::pair<int, int>> where;
  for (std::size_t j = 0; j < launches.size(); ++j) {
    for (std::size_t i = 0; i < launches[j].size(); ++i) {
      const auto k = static_cast<std::size_t>(launches[j][i]);
      if (k >= where.size()) where.resize(k + 1, {-1, -1});
      where[k] = {static_cast<int>(j), static_cast<int>(i)};
    }
  }
  for (const auto& [p, c] : pairs) {
    const auto wp = static_cast<std::size_t>(p);
    const auto wc = static_cast<std::size_t>(c);
    if (wp >= where.size() || wc >= where.size() || where[wp].first < 0 ||
        where[wc].first < 0)
      return "dependence " + std::to_string(p) + "->" + std::to_string(c) +
             " names an unlaunched kernel";
    if (where[wp] > where[wc])
      return "kernel " + std::to_string(c) + " runs before its producer " +
             std::to_string(p);
  }
  return {};
}

std::string check_fused(const FusedProgram& fused, int num_kernels,
                        const std::vector<std::pair<KernelId, KernelId>>& pairs) {
  if (std::string e = check_partition(fused.members, num_kernels); !e.empty())
    return "partition: " + e;
  if (std::string e = check_launch_order(fused.members, pairs); !e.empty())
    return "launch order: " + e;
  return {};
}

std::string check_cost_bound(double cost_s, double baseline_cost_s) {
  if (!(cost_s > 0.0) || !(cost_s <= baseline_cost_s)) {
    std::ostringstream os;
    os << "plan cost " << cost_s << " s exceeds the identity plan's " << baseline_cost_s
       << " s";
    return os.str();
  }
  return {};
}

std::string check_equivalence(const EquivalenceReport& report) {
  if (!report.equivalent || !(report.max_abs_diff <= 1e-9)) {
    std::ostringstream os;
    os << "fused program differs from the original: max |diff| " << report.max_abs_diff;
    return os.str();
  }
  return {};
}

std::string check_warm_hit(const ServeResult& result, const std::string& stored_plan) {
  if (result.rung != ServeRung::StoreHit)
    return std::string("warm request answered on rung ") + to_string(result.rung);
  if (result.plan.to_string() != stored_plan)
    return "warm request served a plan other than the pre-loaded one";
  return {};
}

std::string check_served(const ServeResult& result) {
  if (!result.deadline_met) return "request missed its deadline";
  if (result.rung == ServeRung::TrivialFloor) return "request answered from the floor rung";
  if (result.admission != AdmissionOutcome::Admitted)
    return std::string("request admission ") + to_string(result.admission);
  return {};
}

std::string check_no_budget_stop(const MetricsRegistry& metrics) {
  for (StopReason reason :
       {StopReason::Deadline, StopReason::EvaluationBudget, StopReason::FaultStorm}) {
    const long stops =
        metrics.counter_value("search.budget_stops", {{"reason", to_string(reason)}});
    if (stops != 0)
      return std::to_string(stops) + " search(es) stopped on " + to_string(reason);
  }
  return {};
}

std::string check_store_on_disk(
    const std::string& dir,
    const std::vector<std::pair<PlanKey, std::string>>& expected) {
  PlanStore store(PlanStore::Config{.dir = dir});
  if (!store.recovery().clean()) return "store recovery not clean";
  if (store.size() != expected.size())
    return "store holds " + std::to_string(store.size()) + " plans for " +
           std::to_string(expected.size()) + " keys";
  for (const auto& [key, plan] : expected) {
    const std::optional<StoredPlan> stored = store.get(key);
    if (!stored) return "store lost a key";
    if (stored->plan_text != plan) return "stored plan differs from the plan served";
  }
  return {};
}

std::vector<std::string> self_test(const std::string& scratch_dir) {
  std::vector<std::string> missed;
  auto expect_reject = [&](const std::string& verdict, const char* what) {
    if (verdict.empty()) missed.push_back(what);
  };

  const Program program = scale_les_rk18(GridDims{64, 16, 4});
  const ExpansionResult expanded = expand_arrays(program, -1.0);
  const Program& p = expanded.program;
  const int n = p.num_kernels();
  const LegalityChecker checker(p, DeviceSpec::k20x());
  const auto pairs = dependence_pairs(p);
  const FusedProgram identity = apply_fusion(checker, FusionPlan(n));
  if (!check_fused(identity, n, pairs).empty())
    missed.push_back("identity plan rejected by the fused-program check");

  // A plan missing a kernel, and one listing a kernel twice.
  Groups missing = identity.members;
  missing.erase(missing.begin());
  expect_reject(check_partition(missing, n), "partition: plan missing a kernel");
  Groups twice = identity.members;
  twice.back().push_back(twice.front().front());
  expect_reject(check_partition(twice, n), "partition: kernel in two groups");

  // A launch order that runs a consumer before its producer.
  if (pairs.empty()) {
    missed.push_back("launch order: no dependence pairs found");
  } else {
    Groups swapped = identity.members;
    const auto [producer, consumer] = pairs.front();
    auto launch_of = [&](KernelId k) {
      return std::find_if(swapped.begin(), swapped.end(), [k](const auto& launch) {
        return std::find(launch.begin(), launch.end(), k) != launch.end();
      });
    };
    std::iter_swap(launch_of(producer), launch_of(consumer));
    expect_reject(check_launch_order(swapped, pairs), "launch order: broken dependence");
  }

  expect_reject(check_cost_bound(1.01, 1.0), "cost bound: plan dearer than identity");

  EquivalenceReport report;
  report.equivalent = true;
  report.max_abs_diff = 1e-6;
  expect_reject(check_equivalence(report), "equivalence: difference above 1e-9");

  // A tampered served plan: two kernels merged behind the store's back.
  ServeResult served;
  served.rung = ServeRung::StoreHit;
  served.plan = FusionPlan(n);
  const std::string stored_text = served.plan.to_string();
  served.plan.merge_groups(0, 1);
  expect_reject(check_warm_hit(served, stored_text), "warm hit: tampered served plan");
  served.plan = FusionPlan(n);
  served.rung = ServeRung::PolishedStored;
  expect_reject(check_warm_hit(served, stored_text), "warm hit: answered below the hit rung");

  served.rung = ServeRung::FullSearch;
  served.deadline_met = false;
  expect_reject(check_served(served), "serve: missed deadline");
  served.deadline_met = true;
  served.rung = ServeRung::TrivialFloor;
  expect_reject(check_served(served), "serve: floor rung");

  // A server whose searches may evaluate a single plan.
  {
    MetricsRegistry metrics;
    Telemetry telemetry{.metrics = &metrics};
    PlanStore store(PlanStore::Config{.dir = scratch_dir + "/budget", .durable = false});
    PlanServerConfig cfg;
    cfg.default_deadline_s = 60.0;
    cfg.default_max_evaluations = 1;
    cfg.telemetry = &telemetry;
    PlanServer server(store, cfg);
    server.serve(program, DeviceSpec::k20x());
    expect_reject(check_no_budget_stop(metrics), "budget: search cut short");
  }
  if (!check_no_budget_stop(MetricsRegistry()).empty())
    missed.push_back("budget: no search rejected");

  // An operation fails when a check inside it fails or it throws.
  {
    Result counted;
    counted.operation([] {});
    counted.operation([&] { counted.fail("broken answer"); });
    counted.operation([] { throw std::runtime_error("broken operation"); });
    if (counted.attempted != 3 || counted.failed != 2)
      missed.push_back("failed count: " + std::to_string(counted.failed) + " of " +
                       std::to_string(counted.attempted) + " operations, expected 2 of 3");
  }

  // A store whose plan differs from the one served, and one missing a key.
  const std::string store_dir = scratch_dir + "/tampered";
  {
    PlanStore store(PlanStore::Config{.dir = store_dir, .durable = false});
    StoredPlan plan;
    plan.key = PlanKey{1, 2};
    plan.num_kernels = n;
    plan.plan_text = stored_text;
    plan.best_cost_s = 1.0;
    plan.baseline_cost_s = 1.0;
    store.put(plan);
  }
  FusionPlan other(n);
  other.merge_groups(0, 1);
  expect_reject(check_store_on_disk(store_dir, {{PlanKey{1, 2}, other.to_string()}}),
                "store: plan differs from the served one");
  expect_reject(check_store_on_disk(store_dir, {{PlanKey{1, 2}, stored_text},
                                                  {PlanKey{3, 4}, stored_text}}),
                "store: key missing");
  if (!check_store_on_disk(store_dir, {{PlanKey{1, 2}, stored_text}}).empty())
    missed.push_back("store: intact store rejected");
  return missed;
}

}  // namespace kf::perfbench
