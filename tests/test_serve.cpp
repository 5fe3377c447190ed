// Serving-lifecycle tests: token-bucket admission, the degradation ladder
// (store hit → polished stored plan → full search → trivial floor), fault-
// storm retries with exponential backoff, store write-fault survival, and
// the invariant the whole layer exists for — every request, under any mix
// of faults and overload, gets a legal plan within its deadline. Time and
// sleep are injected, so every admission/deadline/backoff decision here is
// driven by a fake clock.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <filesystem>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "apps/motivating_example.hpp"
#include "apps/scale_les.hpp"
#include "apps/testsuite.hpp"
#include "fusion/legality.hpp"
#include "gpu/device_spec.hpp"
#include "graph/array_expansion.hpp"
#include "serve/admission.hpp"
#include "serve/plan_server.hpp"
#include "serve/request_queue.hpp"
#include "serve/serve_engine.hpp"
#include "store/fingerprint.hpp"
#include "store/plan_store.hpp"
#include "telemetry/json.hpp"
#include "telemetry/prometheus.hpp"
#include "telemetry/telemetry.hpp"
#include "util/error.hpp"
#include "util/fault_injection.hpp"

namespace kf {
namespace {

namespace fs = std::filesystem;

// ---------------------------------------------------------- TokenBucket

TEST(TokenBucket, RateZeroMeansUnlimited) {
  TokenBucket bucket({.rate_per_s = 0.0, .burst = 1.0});
  for (int i = 0; i < 100; ++i) {
    const auto d = bucket.admit(0.0, 0);
    EXPECT_TRUE(d.admitted);
    EXPECT_EQ(d.wait_s, 0.0);
  }
}

TEST(TokenBucket, BurstThenQueueThenReject) {
  TokenBucket bucket({.rate_per_s = 1.0, .burst = 2.0});
  // Two instant admits out of the burst.
  EXPECT_TRUE(bucket.admit(0.0, 2).admitted);
  auto d = bucket.admit(0.0, 2);
  EXPECT_TRUE(d.admitted);
  EXPECT_EQ(d.wait_s, 0.0);
  // Third and fourth go into token debt — the virtual queue.
  d = bucket.admit(0.0, 2);
  EXPECT_TRUE(d.admitted);
  EXPECT_DOUBLE_EQ(d.wait_s, 1.0);
  EXPECT_EQ(d.queue_depth, 0.0);
  d = bucket.admit(0.0, 2);
  EXPECT_TRUE(d.admitted);
  EXPECT_DOUBLE_EQ(d.wait_s, 2.0);
  EXPECT_DOUBLE_EQ(d.queue_depth, 1.0);
  // Fifth would push the debt past the bound: rejected, state untouched.
  d = bucket.admit(0.0, 2);
  EXPECT_FALSE(d.admitted);
  EXPECT_DOUBLE_EQ(d.queue_depth, 2.0);
  EXPECT_DOUBLE_EQ(bucket.level(0.0), -2.0);
  // Time refills the bucket; the same request admits later with less wait.
  d = bucket.admit(2.5, 2);
  EXPECT_TRUE(d.admitted);
  EXPECT_DOUBLE_EQ(d.wait_s, 0.5);
}

TEST(TokenBucket, RejectsBurstBelowOneWhenRateLimiting) {
  EXPECT_THROW(TokenBucket({.rate_per_s = 1.0, .burst = 0.5}), PreconditionError);
}

// ------------------------------------------------------------ PlanServer

/// Injectable monotone time shared between the server's clock and sleep.
struct FakeTime {
  double now = 0.0;
  std::vector<double> sleeps;
};

std::string fresh_dir(const std::string& name) {
  const std::string dir = testing::TempDir() + "kf_serve_" + name;
  fs::remove_all(dir);
  return dir;
}

PlanStore::Config store_config(const std::string& dir) {
  PlanStore::Config c;
  c.dir = dir;
  c.durable = false;
  return c;
}

PlanServerConfig server_config(FakeTime& time) {
  PlanServerConfig cfg;
  cfg.clock = [&time] { return time.now; };
  cfg.sleep = [&time](double s) {
    time.sleeps.push_back(s);
    time.now += s;
  };
  return cfg;
}

/// Independent legality stack (mirrors `kfc serve-batch`): the served plan
/// is checked by an expansion + checker the server did not build.
struct Validator {
  ExpansionResult expansion;
  LegalityChecker checker;

  Validator(const Program& program, const DeviceSpec& device)
      : expansion(expand_arrays(program, -1.0)),
        checker(expansion.program, device) {}

  bool legal(const FusionPlan& plan) const { return checker.plan_is_legal(plan); }
};

TEST(PlanServer, MissSearchesThenHitsTheStore) {
  const std::string dir = fresh_dir("miss_hit");
  PlanStore store(store_config(dir));
  FakeTime time;
  PlanServer server(store, server_config(time));
  const Program program = motivating_example();
  const DeviceSpec device = DeviceSpec::k20x();
  Validator validator(program, device);

  const ServeResult miss = server.serve(program, device);
  EXPECT_EQ(miss.rung, ServeRung::FullSearch);
  EXPECT_FALSE(miss.degraded);
  EXPECT_TRUE(miss.deadline_met);
  EXPECT_TRUE(validator.legal(miss.plan));
  EXPECT_GT(miss.baseline_cost_s, 0.0);
  EXPECT_LE(miss.cost_s, miss.baseline_cost_s) << "search must not lose to identity";

  const ServeResult hit = server.serve(program, device);
  EXPECT_EQ(hit.rung, ServeRung::StoreHit);
  EXPECT_FALSE(hit.degraded);
  EXPECT_TRUE(validator.legal(hit.plan));
  EXPECT_EQ(hit.plan.to_string(), miss.plan.to_string());
  EXPECT_EQ(hit.key.program_fp, miss.key.program_fp);

  const auto stats = server.stats();
  EXPECT_EQ(stats.requests, 2);
  EXPECT_EQ(stats.full_searches, 1);
  EXPECT_EQ(stats.store_hits, 1);
  EXPECT_EQ(stats.writebacks, 1);
  EXPECT_EQ(stats.degraded, 0);
}

TEST(PlanServer, CrossDeviceRequestPolishesTheStoredPlan) {
  const std::string dir = fresh_dir("polish");
  PlanStore store(store_config(dir));
  FakeTime time;
  PlanServer server(store, server_config(time));
  const Program program = scale_les_rk18();

  ASSERT_EQ(server.serve(program, DeviceSpec::k20x()).rung, ServeRung::FullSearch);

  // Same program, different device: the k20x plan is the warm start.
  const ServeResult polished = server.serve(program, DeviceSpec::k40());
  EXPECT_EQ(polished.rung, ServeRung::PolishedStored);
  EXPECT_TRUE(polished.degraded) << "served below the natural rung";
  Validator validator(program, DeviceSpec::k40());
  EXPECT_TRUE(validator.legal(polished.plan));
  EXPECT_LE(polished.cost_s, polished.baseline_cost_s);

  // The polished result was written back: the pair now hits exactly.
  EXPECT_EQ(server.serve(program, DeviceSpec::k40()).rung, ServeRung::StoreHit);
  EXPECT_EQ(server.stats().polished, 1);
  EXPECT_EQ(server.stats().writebacks, 2);
}

TEST(PlanServer, StoredGroupOverTheDeviceSmemIsRepairedThenPolished) {
  const std::string dir = fresh_dir("repair_smem");
  PlanStore store(store_config(dir));
  FakeTime time;
  PlanServer server(store, server_config(time));
  const Program program = scale_les_rk18();

  const ServeResult k20x = server.serve(program, DeviceSpec::k20x());
  ASSERT_EQ(k20x.rung, ServeRung::FullSearch);
  // Shrink SMEM just below the stored plan's largest fused footprint: that
  // group is illegal on the new device, so the plan cannot be served as is.
  const Validator on_k20x(program, DeviceSpec::k20x());
  long largest = 0;
  for (int g = 0; g < k20x.plan.num_groups(); ++g) {
    if (k20x.plan.group(g).size() < 2) continue;
    largest = std::max(
        largest, on_k20x.checker.builder().build(k20x.plan.group(g)).smem_per_block_bytes);
  }
  ASSERT_GT(largest, 0);
  const DeviceSpec small = DeviceSpec::k20x().with_smem_capacity(largest - 1);
  const Validator validator(program, small);
  ASSERT_FALSE(validator.legal(k20x.plan));

  const ServeResult r = server.serve(program, small);
  EXPECT_EQ(r.rung, ServeRung::PolishedStored);
  EXPECT_TRUE(validator.legal(r.plan));
  EXPECT_LE(r.cost_s, r.baseline_cost_s);
}

/// k0 -> k3 and k1 -> k2 through written arrays, while k0/k2 and k1/k3 only
/// read a common array: {k0,k2} and {k1,k3} are each legal groups, but a
/// plan holding both orders them both ways — every group legal, yet
/// unschedulable.
Program crossed_pairs_program() {
  Program p("crossed_pairs", GridDims{32, 16, 4});
  const ArrayId x = p.add_array("x");
  const ArrayId y = p.add_array("y");
  const ArrayId a = p.add_array("a");
  const ArrayId b = p.add_array("b");
  const ArrayId c = p.add_array("c");
  const ArrayId d = p.add_array("d");
  const auto make = [&](const char* name, std::vector<ArrayId> ins, ArrayId out) {
    KernelInfo k;
    k.name = name;
    Expr e = Expr::constant(0);
    for (ArrayId in : ins) e = e + Expr::load(in, {0, 0, 0}) + Expr::load(in, {-1, 0, 0});
    k.body.push_back({out, e});
    k.derive_metadata_from_body();
    p.add_kernel(std::move(k));
  };
  make("k0", {x}, a);
  make("k1", {y}, b);
  make("k2", {x, b}, c);
  make("k3", {y, a}, d);
  return p;
}

TEST(PlanServer, UnschedulableStoredPlanIsRepairedThenPolished) {
  const std::string dir = fresh_dir("repair_cycle");
  PlanStore store(store_config(dir));
  FakeTime time;
  PlanServerConfig cfg = server_config(time);
  cfg.expand = false;  // keys computed on the raw program below must match
  PlanServer server(store, cfg);
  const Program program = crossed_pairs_program();
  const FusionPlan crossed = FusionPlan::parse(4, "{0,2} {1,3}");
  const Validator validator(program, DeviceSpec::k20x());
  ASSERT_TRUE(validator.checker.group_is_legal(crossed.group(0)));
  ASSERT_TRUE(validator.checker.group_is_legal(crossed.group(1)));
  ASSERT_EQ(validator.checker.check_plan(crossed), LegalityVerdict::Unschedulable);

  // Stored for another device, so the K20X request reaches the polish rung.
  StoredPlan stored;
  stored.key = {program_fingerprint(program), device_fingerprint(DeviceSpec::k40())};
  stored.num_kernels = 4;
  stored.plan_text = crossed.to_string();
  stored.best_cost_s = 1e-3;
  stored.baseline_cost_s = 2e-3;
  store.put(stored);

  const ServeResult r = server.serve(program, DeviceSpec::k20x());
  EXPECT_EQ(r.rung, ServeRung::PolishedStored);
  EXPECT_TRUE(validator.legal(r.plan)) << r.plan.to_string();
  EXPECT_LE(r.cost_s, r.baseline_cost_s);
}

TEST(PlanServer, TinyDeadlineOnAnEmptyStoreFallsToTheFloor) {
  const std::string dir = fresh_dir("floor");
  PlanStore store(store_config(dir));
  FakeTime time;
  PlanServer server(store, server_config(time));
  const Program program = motivating_example();

  ServeRequest request;
  request.deadline_s = 0.001;  // below min_search_budget_s: search is skipped
  const ServeResult r = server.serve(program, DeviceSpec::k20x(), request);
  EXPECT_EQ(r.rung, ServeRung::TrivialFloor);
  EXPECT_TRUE(r.degraded);
  EXPECT_TRUE(r.deadline_met) << "the floor answers instantly";
  EXPECT_EQ(static_cast<int>(r.plan.groups().size()), r.num_kernels)
      << "the floor is the identity plan";
  EXPECT_DOUBLE_EQ(r.cost_s, r.baseline_cost_s);
  EXPECT_EQ(server.stats().trivial, 1);
}

TEST(PlanServer, RejectedRequestStillGetsALegalPlan) {
  const std::string dir = fresh_dir("reject");
  PlanStore store(store_config(dir));
  FakeTime time;
  PlanServerConfig cfg = server_config(time);
  cfg.admission = {.rate_per_s = 1.0, .burst = 1.0};
  cfg.max_queue_depth = 0;  // no queue: second request at t=0 must shed
  PlanServer server(store, cfg);
  const Program program = motivating_example();
  Validator validator(program, DeviceSpec::k20x());

  EXPECT_TRUE(server.serve(program, DeviceSpec::k20x()).admission ==
              AdmissionOutcome::Admitted);
  const ServeResult shed = server.serve(program, DeviceSpec::k20x());
  EXPECT_EQ(shed.admission, AdmissionOutcome::Rejected);
  EXPECT_EQ(shed.rung, ServeRung::TrivialFloor);
  EXPECT_TRUE(shed.degraded);
  EXPECT_TRUE(validator.legal(shed.plan));
  EXPECT_EQ(static_cast<int>(shed.plan.groups().size()), shed.num_kernels);
  EXPECT_EQ(server.stats().rejected, 1);
}

TEST(PlanServer, QueuedRequestSleepsOutItsReservation) {
  const std::string dir = fresh_dir("queued");
  PlanStore store(store_config(dir));
  FakeTime time;
  PlanServerConfig cfg = server_config(time);
  cfg.admission = {.rate_per_s = 100.0, .burst = 1.0};
  PlanServer server(store, cfg);
  const Program program = motivating_example();

  ASSERT_EQ(server.serve(program, DeviceSpec::k20x()).admission,
            AdmissionOutcome::Admitted);
  const ServeResult queued = server.serve(program, DeviceSpec::k20x());
  EXPECT_EQ(queued.admission, AdmissionOutcome::Queued);
  EXPECT_DOUBLE_EQ(queued.queue_wait_s, 0.01);  // one token at 100/s
  EXPECT_GE(queued.latency_s, 0.01) << "the wait is part of the latency";
  EXPECT_TRUE(queued.deadline_met);
  ASSERT_FALSE(time.sleeps.empty());
  EXPECT_DOUBLE_EQ(time.sleeps.front(), 0.01);
  EXPECT_EQ(server.stats().queued, 1);
}

TEST(PlanServer, QueuedWaitPastTheDeadlineIsShedUpFront) {
  const std::string dir = fresh_dir("shed");
  PlanStore store(store_config(dir));
  FakeTime time;
  PlanServerConfig cfg = server_config(time);
  cfg.admission = {.rate_per_s = 0.1, .burst = 1.0};  // 10 s per token
  PlanServer server(store, cfg);
  const Program program = motivating_example();

  ASSERT_EQ(server.serve(program, DeviceSpec::k20x()).admission,
            AdmissionOutcome::Admitted);
  ServeRequest request;
  request.deadline_s = 1.0;  // the 10 s token wait alone would blow it
  const ServeResult shed = server.serve(program, DeviceSpec::k20x(), request);
  EXPECT_EQ(shed.admission, AdmissionOutcome::Rejected);
  EXPECT_TRUE(shed.deadline_met) << "shedding answers instantly";
  EXPECT_TRUE(time.sleeps.empty()) << "a shed request must not sleep";
}

TEST(PlanServer, FaultStormRetriesWithExponentialBackoffThenFloors) {
  const std::string dir = fresh_dir("storm");
  PlanStore store(store_config(dir));
  FakeTime time;
  PlanServerConfig cfg = server_config(time);
  cfg.fault_storm_evals = 1;  // the first fault aborts the attempt
  cfg.max_retries = 2;
  cfg.backoff_base_s = 0.25;
  PlanServer server(store, cfg);
  const Program program = motivating_example();
  Validator validator(program, DeviceSpec::k20x());

  ScopedFaultInjection inject(FaultPlan{FaultSite::Objective, 1.0, 42});
  const ServeResult r = server.serve(program, DeviceSpec::k20x());
  // Every attempt storms (rate 1.0 faults each new group), so the ladder
  // retries max_retries times and lands on the floor — still legal.
  EXPECT_EQ(r.retries, 2);
  EXPECT_EQ(r.rung, ServeRung::TrivialFloor);
  EXPECT_TRUE(r.degraded);
  EXPECT_TRUE(validator.legal(r.plan));
  ASSERT_EQ(time.sleeps.size(), 2u);
  EXPECT_DOUBLE_EQ(time.sleeps[0], 0.25);
  EXPECT_DOUBLE_EQ(time.sleeps[1], 0.5) << "backoff doubles per attempt";
  EXPECT_TRUE(r.deadline_met) << "0.75 s of backoff fits the 2 s default";
  EXPECT_EQ(server.stats().retries, 2);
}

TEST(PlanServer, QuarantinePersistsAcrossAttemptsSoRetriesConverge) {
  const std::string dir = fresh_dir("converge");
  PlanStore store(store_config(dir));
  FakeTime time;
  PlanServerConfig cfg = server_config(time);
  cfg.fault_storm_evals = 1000;  // faults quarantine but never storm
  PlanServer server(store, cfg);
  const Program program = motivating_example();
  Validator validator(program, DeviceSpec::k20x());

  ScopedFaultInjection inject(FaultPlan{FaultSite::Objective, 1.0, 42});
  const ServeResult r = server.serve(program, DeviceSpec::k20x());
  // With every fused evaluation quarantined, the search completes and falls
  // back to the (legal) identity — a FullSearch answer, zero retries.
  EXPECT_EQ(r.rung, ServeRung::FullSearch);
  EXPECT_EQ(r.retries, 0);
  EXPECT_TRUE(validator.legal(r.plan));
}

TEST(PlanServer, StoreWriteFaultDegradesDurabilityNotTheResponse) {
  const std::string dir = fresh_dir("writeback");
  PlanStore store(store_config(dir));
  FakeTime time;
  PlanServer server(store, server_config(time));
  const Program program = motivating_example();
  Validator validator(program, DeviceSpec::k20x());

  {
    ScopedFaultInjection inject(FaultPlan{FaultSite::Store, 1.0, 7});
    const ServeResult r = server.serve(program, DeviceSpec::k20x());
    EXPECT_EQ(r.rung, ServeRung::FullSearch) << "the search result still serves";
    EXPECT_FALSE(r.degraded);
    EXPECT_TRUE(validator.legal(r.plan));
  }
  EXPECT_EQ(server.stats().writeback_failures, 1);
  EXPECT_EQ(server.stats().writebacks, 0);
  EXPECT_EQ(store.size(), 0u) << "the torn write-back never reached the index";
  EXPECT_EQ(store.stats().write_faults, 1);

  // With faults disarmed the next request misses, searches and writes back.
  const ServeResult retry = server.serve(program, DeviceSpec::k20x());
  EXPECT_EQ(retry.rung, ServeRung::FullSearch);
  EXPECT_EQ(server.stats().writebacks, 1);
  EXPECT_EQ(store.size(), 1u);
}

TEST(PlanServer, InvalidStoredPlanIsEvictedNeverServed) {
  const std::string dir = fresh_dir("evict");
  PlanStore store(store_config(dir));
  FakeTime time;
  PlanServerConfig cfg = server_config(time);
  cfg.expand = false;  // keys computed on the raw program below must match
  PlanServer server(store, cfg);
  const Program program = motivating_example();
  ASSERT_NE(program.num_kernels(), 2);

  // Poison the exact key with a plan whose kernel count cannot parse
  // against this program — "stored but no longer legal".
  StoredPlan poison;
  poison.key = {program_fingerprint(program),
                device_fingerprint(DeviceSpec::k20x())};
  poison.num_kernels = 2;
  poison.plan_text = "{0} {1}";
  poison.best_cost_s = 1e-3;
  poison.baseline_cost_s = 2e-3;
  store.put(poison);

  const ServeResult r = server.serve(program, DeviceSpec::k20x());
  EXPECT_EQ(r.rung, ServeRung::FullSearch) << "the poisoned hit fell through";
  EXPECT_EQ(server.stats().invalid_stored, 1);
  // The eviction and the write-back both committed: the key now holds the
  // fresh result, and it round-trips as a hit.
  const auto now_stored = store.get(poison.key);
  ASSERT_TRUE(now_stored.has_value());
  EXPECT_EQ(now_stored->num_kernels, program.num_kernels());
  const ServeResult hit = server.serve(program, DeviceSpec::k20x());
  EXPECT_EQ(hit.rung, ServeRung::StoreHit);

  // The hit above left its plan in the context's validated memo. Poison put
  // over it has different text, so it is validated, evicted and never
  // served — the memo must not vouch for a text it did not validate.
  store.put(poison);
  const ServeResult after = server.serve(program, DeviceSpec::k20x());
  EXPECT_EQ(after.rung, ServeRung::FullSearch)
      << "the poisoned hit fell through";
  EXPECT_EQ(server.stats().invalid_stored, 2) << "one more eviction";
  EXPECT_EQ(server.serve(program, DeviceSpec::k20x()).rung, ServeRung::StoreHit);
}

TEST(PlanServer, RePutOfADifferentLegalPlanIsServedOnTheNextHit) {
  const std::string dir = fresh_dir("reput");
  PlanStore store(store_config(dir));
  FakeTime time;
  PlanServer server(store, server_config(time));
  const Program program = motivating_example();
  const DeviceSpec device = DeviceSpec::k20x();

  const ServeResult miss = server.serve(program, device);
  ASSERT_EQ(miss.rung, ServeRung::FullSearch);
  const ServeResult searched = server.serve(program, device);  // memoised
  ASSERT_EQ(searched.rung, ServeRung::StoreHit);
  ASSERT_NE(searched.plan.num_groups(), searched.num_kernels)
      << "the searched plan must differ from the identity re-put below";

  const auto put_plan = [&](const FusionPlan& plan, double cost_s) {
    StoredPlan stored;
    stored.key = searched.key;
    stored.num_kernels = searched.num_kernels;
    stored.plan_text = plan.to_string();
    stored.best_cost_s = cost_s;
    stored.baseline_cost_s = searched.baseline_cost_s;
    store.put(std::move(stored));
  };

  // Another legal plan under the same key replaces the memo on the next hit.
  put_plan(FusionPlan(searched.num_kernels), searched.baseline_cost_s);
  const ServeResult identity = server.serve(program, device);
  EXPECT_EQ(identity.rung, ServeRung::StoreHit);
  EXPECT_EQ(identity.plan.num_groups(), identity.num_kernels);
  EXPECT_DOUBLE_EQ(identity.cost_s, identity.baseline_cost_s);

  // And the original text comes back with its original, bit-identical cost.
  put_plan(searched.plan, searched.cost_s);
  const ServeResult again = server.serve(program, device);
  EXPECT_EQ(again.rung, ServeRung::StoreHit);
  EXPECT_EQ(again.plan.to_string(), searched.plan.to_string());
  EXPECT_EQ(again.cost_s, searched.cost_s);
  EXPECT_EQ(server.stats().invalid_stored, 0);
}

TEST(PlanServer, ServeLogIsABoundedRing) {
  const std::string dir = fresh_dir("log");
  PlanStore store(store_config(dir));
  FakeTime time;
  PlanServerConfig cfg = server_config(time);
  cfg.log_capacity = 4;
  PlanServer server(store, cfg);
  const Program program = motivating_example();

  for (int i = 0; i < 6; ++i) server.serve(program, DeviceSpec::k20x());
  EXPECT_EQ(server.log().recorded(), 6);
  EXPECT_EQ(server.log().size(), 4u);
  const auto entries = server.log().entries();
  ASSERT_EQ(entries.size(), 4u);
  EXPECT_EQ(entries.front().seq, 3) << "oldest surviving request";
  EXPECT_EQ(entries.back().seq, 6);
  EXPECT_EQ(entries.front().rung, ServeRung::StoreHit);
}

TEST(PlanServer, EmptyProgramIsAPreconditionViolation) {
  const std::string dir = fresh_dir("precondition");
  PlanStore store(store_config(dir));
  FakeTime time;
  PlanServer server(store, server_config(time));
  EXPECT_THROW(server.serve(Program{}, DeviceSpec::k20x()), PreconditionError);
}

/// The acceptance invariant, in miniature: a mixed hit/miss/cross-device
/// stream under elevated objective + simulator + store faults must return a
/// legal plan for every request within its deadline.
TEST(PlanServer, MixedFaultyStreamAlwaysReturnsLegalPlansOnTime) {
  const std::string dir = fresh_dir("mixed");
  PlanStore store(store_config(dir));
  FakeTime time;
  PlanServer server(store, server_config(time));

  const std::vector<Program> programs = {motivating_example(), scale_les_rk18()};
  const std::vector<DeviceSpec> devices = {DeviceSpec::k20x(), DeviceSpec::k40()};
  std::vector<std::unique_ptr<Validator>> validators;
  for (const Program& p : programs)
    for (const DeviceSpec& d : devices)
      validators.push_back(std::make_unique<Validator>(p, d));

  ScopedFaultInjection inject(std::vector<FaultPlan>{
      {FaultSite::Objective, 0.3, 42},
      {FaultSite::Simulator, 0.1, 7},
      {FaultSite::Store, 0.2, 11},
  });
  int served = 0;
  for (int round = 0; round < 5; ++round) {
    for (std::size_t p = 0; p < programs.size(); ++p) {
      for (std::size_t d = 0; d < devices.size(); ++d) {
        ServeRequest request;
        if (round == 3) request.deadline_s = 0.001;  // force some floors
        const ServeResult r =
            server.serve(programs[p], devices[d], request);
        ++served;
        EXPECT_TRUE(validators[p * devices.size() + d]->legal(r.plan))
            << "request " << served << " served an illegal plan";
        EXPECT_TRUE(r.deadline_met) << "request " << served << " missed";
        EXPECT_GT(r.cost_s, 0.0);
      }
    }
  }
  const auto stats = server.stats();
  EXPECT_EQ(stats.requests, served);
  EXPECT_EQ(stats.deadline_missed, 0);
  EXPECT_EQ(stats.store_hits + stats.polished + stats.full_searches +
                stats.trivial,
            served);
  EXPECT_GT(stats.store_hits, 0) << "repeat requests must hit";
}

// The polished_stored rung runs under the request's deadline: on a
// 100-kernel program the steepest-descent polish of a lightly fused stored
// plan takes seconds unbounded, and a 0.25 s request must still be answered
// on time with the polish's legal best-so-far. Real clock: the polish polls
// a wall-clock SearchControl.
TEST(PlanServer, PolishOfALargeStoredPlanStopsAtTheRequestDeadline) {
  const std::string dir = fresh_dir("polish_deadline");
  PlanStore store(store_config(dir));
  MetricsRegistry metrics;
  Telemetry telemetry{.metrics = &metrics};
  PlanServerConfig cfg;
  cfg.telemetry = &telemetry;
  PlanServer server(store, cfg);
  TestSuiteConfig suite;
  suite.kernels = 100;
  suite.arrays = 200;
  suite.seed = 100;
  const Program program = make_testsuite_program(suite);

  // Build both contexts up front (instant floor answers) so the requests
  // below spend their budgets on the ladder, then store a K20X plan from a
  // short search: little fused, so plenty is left to polish.
  ServeRequest instant;
  instant.deadline_s = 0.001;
  for (const DeviceSpec& device : {DeviceSpec::k40(), DeviceSpec::k20x()})
    ASSERT_EQ(server.serve(program, device, instant).rung,
              ServeRung::TrivialFloor);
  ServeRequest quick;
  quick.deadline_s = 0.05;
  ASSERT_EQ(server.serve(program, DeviceSpec::k20x(), quick).rung,
            ServeRung::FullSearch);

  const MetricLabels deadline_stop{{"reason", "deadline"}};
  const long stops_before =
      metrics.counter_value("search.budget_stops", deadline_stop);
  ServeRequest request;
  request.deadline_s = 0.25;
  const ServeResult r = server.serve(program, DeviceSpec::k40(), request);
  EXPECT_EQ(r.rung, ServeRung::PolishedStored);
  EXPECT_TRUE(r.deadline_met) << "latency " << r.latency_s << " s";
  EXPECT_LE(r.stage_s[RequestContext::kPolish], request.deadline_s);
  EXPECT_TRUE(Validator(program, DeviceSpec::k40()).legal(r.plan));
  EXPECT_LE(r.cost_s, r.baseline_cost_s);
  EXPECT_EQ(metrics.counter_value("search.budget_stops", deadline_stop),
            stops_before + 1)
      << "the polish must have been cut by its deadline, not converged";
}

// ------------------------------------------- request-scoped observability

/// The full sink stack one server carries under `kfc serve-batch --events
/// --spans`: wide-event JSONL, spans, decision provenance, metrics with
/// latency buckets, and the SLO tracker.
struct ServeSinks {
  std::ostringstream events;
  TraceLog trace{events};
  SpanTracer spans;
  DecisionLog decisions{std::size_t{1} << 16};
  MetricsRegistry metrics;
  SloTracker slo;
  Telemetry telemetry;

  ServeSinks() {
    telemetry.trace = &trace;
    telemetry.spans = &spans;
    telemetry.decisions = &decisions;
    telemetry.metrics = &metrics;
    telemetry.slo = &slo;
  }
};

/// Parses the JSONL buffer and keeps the events of one type.
std::vector<JsonValue> events_of_type(const std::string& text,
                                      const std::string& type) {
  std::vector<JsonValue> out;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    JsonValue event = JsonValue::parse(line);
    if (event.string_or("type", "") == type) out.push_back(std::move(event));
  }
  return out;
}

// The acceptance invariant of the tracing PR: replaying a faulty mixed
// stream emits exactly one wide event per request, and each wide event's
// trace id links at least one lifecycle span — plus, on search rungs, at
// least one fusion-decision provenance entry recorded under that trace.
TEST(ServeObservability, FaultyStreamEmitsOneLinkedWideEventPerRequest) {
  const std::string dir = fresh_dir("wide_events");
  PlanStore store(store_config(dir));
  ServeSinks sinks;
  FakeTime time;
  PlanServerConfig cfg = server_config(time);
  cfg.telemetry = &sinks.telemetry;
  PlanServer server(store, cfg);

  const std::vector<Program> programs = {motivating_example(), scale_les_rk18()};
  const std::vector<DeviceSpec> devices = {DeviceSpec::k20x(), DeviceSpec::k40()};
  std::vector<std::unique_ptr<Validator>> validators;
  for (const Program& p : programs)
    for (const DeviceSpec& d : devices)
      validators.push_back(std::make_unique<Validator>(p, d));

  ScopedFaultInjection inject(std::vector<FaultPlan>{
      {FaultSite::Objective, 0.3, 42},
      {FaultSite::Simulator, 0.1, 7},
      {FaultSite::Store, 0.2, 11},
  });
  int served = 0;
  std::set<std::string> result_traces;
  for (int round = 0; round < 3; ++round) {
    for (std::size_t p = 0; p < programs.size(); ++p) {
      for (std::size_t d = 0; d < devices.size(); ++d) {
        ServeRequest request;
        if (round == 2) request.deadline_s = 0.001;  // force some floors
        const ServeResult r = server.serve(programs[p], devices[d], request);
        ++served;
        EXPECT_TRUE(validators[p * devices.size() + d]->legal(r.plan));
        EXPECT_TRUE(r.trace_id.valid());
        result_traces.insert(r.trace_id.to_hex());
      }
    }
  }
  // Trace ids are unique per request.
  EXPECT_EQ(static_cast<int>(result_traces.size()), served);

  const std::vector<JsonValue> wide =
      events_of_type(sinks.events.str(), "serve_request");
  ASSERT_EQ(static_cast<int>(wide.size()), served);
  // One admission-side marker per request too (`kfc top` pairs the two).
  EXPECT_EQ(static_cast<int>(
                events_of_type(sinks.events.str(), "serve_start").size()),
            served);

  std::set<std::string> decision_traces;
  for (const auto& d : sinks.decisions.snapshot()) {
    if (d.trace.valid()) decision_traces.insert(d.trace.to_hex());
  }

  bool saw_full_search = false;
  for (const JsonValue& event : wide) {
    const std::string hex = event.string_or("trace", "");
    ASSERT_EQ(hex.size(), 32u);
    const TraceId id = TraceId::from_hex(hex);
    ASSERT_TRUE(id.valid());
    EXPECT_TRUE(result_traces.count(hex))
        << "wide event names a trace no ServeResult carries";
    EXPECT_GE(sinks.spans.spans_with_trace(id), 1)
        << "no lifecycle spans recorded under trace " << hex;
    if (event.string_or("rung", "") == "full_search") {
      saw_full_search = true;
      EXPECT_TRUE(decision_traces.count(hex))
          << "search-rung request left no decision provenance, trace " << hex;
    }
  }
  EXPECT_TRUE(saw_full_search) << "the stream never exercised the search rung";
}

TEST(ServeObservability, SloAndMetricsReconcileExactlyWithServerStats) {
  const std::string dir = fresh_dir("slo_stats");
  PlanStore store(store_config(dir));
  ServeSinks sinks;
  FakeTime time;
  PlanServerConfig cfg = server_config(time);
  cfg.telemetry = &sinks.telemetry;
  PlanServer server(store, cfg);

  const Program program = motivating_example();
  const std::vector<DeviceSpec> devices = {DeviceSpec::k20x(), DeviceSpec::k40()};
  for (int round = 0; round < 3; ++round) {
    for (const DeviceSpec& d : devices) {
      ServeRequest request;
      if (round == 1) request.deadline_s = 0.001;  // trivial floors
      server.serve(program, d, request);
    }
  }

  const PlanServer::Stats stats = server.stats();
  const SloTracker::Report rep = sinks.slo.report(time.now);
  EXPECT_EQ(rep.total_requests, stats.requests);
  EXPECT_EQ(rep.total_deadline_misses, stats.deadline_missed);
  EXPECT_EQ(rep.total_degraded, stats.degraded);
  // SLO rung ordinals mirror the ServeRung ladder order.
  EXPECT_EQ(rep.rung_count[0], stats.store_hits);
  EXPECT_EQ(rep.rung_count[1], stats.polished);
  EXPECT_EQ(rep.rung_count[2], stats.full_searches);
  EXPECT_EQ(rep.rung_count[3], stats.trivial);

  EXPECT_EQ(sinks.metrics.counter_value("serve.requests_total"), stats.requests);
  EXPECT_EQ(sinks.metrics.counter_value("serve.deadline_missed_total"),
            stats.deadline_missed);
  EXPECT_EQ(sinks.metrics.counter_value("serve.degraded_total"), stats.degraded);
  const MetricsRegistry::HistogramSnapshot latency =
      sinks.metrics.histogram("serve.latency_seconds");
  EXPECT_EQ(static_cast<long>(latency.count), stats.requests);
  ASSERT_FALSE(latency.buckets.empty());  // the server declares the buckets
}

TEST(ServeObservability, ServingIsBitIdenticalWithTelemetryAttached) {
  struct Observation {
    std::string plan;
    double cost_s = 0.0;
    ServeRung rung = ServeRung::TrivialFloor;
  };
  const Program program = motivating_example();
  const std::vector<DeviceSpec> devices = {DeviceSpec::k20x(), DeviceSpec::k40()};

  const auto run_stream = [&](const std::string& dir, const Telemetry* telemetry) {
    PlanStore store(store_config(dir));
    FakeTime time;
    PlanServerConfig cfg = server_config(time);
    cfg.telemetry = telemetry;
    PlanServer server(store, cfg);
    std::vector<Observation> out;
    for (int round = 0; round < 2; ++round) {
      for (const DeviceSpec& d : devices) {
        const ServeResult r = server.serve(program, d);
        out.push_back({r.plan.to_string(), r.cost_s, r.rung});
      }
    }
    return out;
  };

  const std::vector<Observation> plain =
      run_stream(fresh_dir("ident_plain"), nullptr);
  ServeSinks sinks;
  const std::vector<Observation> traced =
      run_stream(fresh_dir("ident_traced"), &sinks.telemetry);

  ASSERT_EQ(plain.size(), traced.size());
  for (std::size_t i = 0; i < plain.size(); ++i) {
    EXPECT_EQ(traced[i].plan, plain[i].plan) << "request " << i;
    EXPECT_DOUBLE_EQ(traced[i].cost_s, plain[i].cost_s) << "request " << i;
    EXPECT_EQ(traced[i].rung, plain[i].rung) << "request " << i;
  }
  // ...and the sinks actually observed the traced stream.
  EXPECT_GT(sinks.spans.recorded(), 0);
  EXPECT_GT(sinks.slo.recorded(), 0);
}

/// Closed spans named `name` in the tracer's flame table.
long span_count(const SpanTracer& spans, const std::string& name) {
  long count = 0;
  for (const SpanTracer::FlameRow& row : spans.flame_table())
    if (row.name == name) count += row.count;
  return count;
}

TEST(ServeObservability, RepeatHitsOnOneStoredPlanValidateItOnce) {
  const std::string dir = fresh_dir("validate_once");
  PlanStore store(store_config(dir));
  ServeSinks sinks;
  FakeTime time;
  PlanServerConfig cfg = server_config(time);
  cfg.telemetry = &sinks.telemetry;
  PlanServer server(store, cfg);
  const Program program = motivating_example();
  const DeviceSpec device = DeviceSpec::k20x();

  ASSERT_EQ(server.serve(program, device).rung, ServeRung::FullSearch);
  EXPECT_EQ(span_count(sinks.spans, "serve.validate"), 0)
      << "a miss finds nothing stored to validate";
  const int hits = 12;
  std::vector<ServeResult> results;
  for (int i = 0; i < hits; ++i)
    results.push_back(server.serve(program, device));
  for (const ServeResult& r : results) {
    EXPECT_EQ(r.rung, ServeRung::StoreHit);
    EXPECT_EQ(r.plan.to_string(), results[0].plan.to_string());
    EXPECT_EQ(r.cost_s, results[0].cost_s) << "memoised cost is bit-identical";
  }
  EXPECT_EQ(span_count(sinks.spans, "serve.store_get"), hits + 1);
  EXPECT_EQ(span_count(sinks.spans, "serve.validate"), 1)
      << "the first hit validates; the rest are served from the memo";
}

TEST(ServeObservability, TraceIdsAreReplayStableAndStageLedgerIsBounded) {
  const Program program = motivating_example();
  const DeviceSpec device = DeviceSpec::k20x();

  const auto run_stream = [&](const std::string& dir, std::uint64_t salt) {
    PlanStore store(store_config(dir));
    FakeTime time;
    PlanServerConfig cfg = server_config(time);
    cfg.trace_salt = salt;
    PlanServer server(store, cfg);
    std::vector<ServeResult> out;
    for (int i = 0; i < 3; ++i) out.push_back(server.serve(program, device));
    return out;
  };

  const std::vector<ServeResult> first = run_stream(fresh_dir("replay_a"), 0);
  const std::vector<ServeResult> second = run_stream(fresh_dir("replay_b"), 0);
  const std::vector<ServeResult> salted = run_stream(fresh_dir("replay_c"), 99);
  ASSERT_EQ(first.size(), second.size());
  for (std::size_t i = 0; i < first.size(); ++i) {
    EXPECT_TRUE(first[i].trace_id.valid());
    // Same batch, same ordinal -> same trace id; a salt tells servers apart.
    EXPECT_EQ(first[i].trace_id, second[i].trace_id) << "request " << i;
    EXPECT_NE(first[i].trace_id, salted[i].trace_id) << "request " << i;
    // The stage ledger never claims more than the measured latency.
    double consumed = 0.0;
    for (double s : first[i].stage_s) {
      EXPECT_GE(s, 0.0);
      consumed += s;
    }
    EXPECT_LE(consumed, first[i].latency_s + 1e-9);
  }
}

TEST(ServeObservability, PrometheusExportCoversServeFamiliesWithExemplars) {
  const std::string dir = fresh_dir("prom");
  PlanStore store(store_config(dir));
  ServeSinks sinks;
  FakeTime time;
  PlanServerConfig cfg = server_config(time);
  cfg.telemetry = &sinks.telemetry;
  PlanServer server(store, cfg);

  const Program program = motivating_example();
  for (int i = 0; i < 4; ++i) server.serve(program, DeviceSpec::k20x());

  const std::string text = prometheus_render(sinks.metrics);
  EXPECT_NE(text.find("# TYPE kf_serve_requests_total counter\n"),
            std::string::npos);
  EXPECT_NE(text.find("kf_serve_requests_total 4\n"), std::string::npos);
  EXPECT_NE(text.find("# TYPE kf_serve_latency_seconds histogram\n"),
            std::string::npos);
  EXPECT_NE(text.find("kf_serve_latency_seconds_count 4\n"), std::string::npos);
  // At least one latency bucket carries a request trace as its exemplar.
  EXPECT_NE(text.find(" # {trace_id=\""), std::string::npos);
  ASSERT_GE(text.size(), 6u);
  EXPECT_EQ(text.substr(text.size() - 6), "# EOF\n");
}

// ------------------------------------------------------------ ServeEngine
//
// Worker-pool tests run on the real clock: condition-variable rendezvous
// (queue handoff, coalescing) needs real concurrency, which the fake clock
// cannot drive. Determinism comes from structure instead — the
// test_coalesce_hold hook parks a coalescing leader until the test has
// observed (via stats) exactly the interleaving it wants to assert about.

/// Spins (real time) until `pred` holds; false on timeout — tests assert
/// the result so a broken interleaving fails loudly instead of hanging.
bool spin_until(const std::function<bool()>& pred, double timeout_s = 30.0) {
  const auto start = std::chrono::steady_clock::now();
  while (!pred()) {
    if (std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
            .count() > timeout_s)
      return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return true;
}

TEST(BoundedQueue, TryPushShedsWhenFullAndCloseStillDrains) {
  BoundedQueue<int> q(2);
  int a = 1, b = 2, c = 3;
  EXPECT_TRUE(q.try_push(std::move(a)));
  EXPECT_TRUE(q.try_push(std::move(b)));
  EXPECT_FALSE(q.try_push(std::move(c))) << "capacity 2 must shed the third";
  EXPECT_EQ(q.size(), 2u);
  EXPECT_EQ(q.pop(), std::optional<int>(1));
  EXPECT_TRUE(q.try_push(std::move(c)));
  EXPECT_EQ(q.peak_size(), 2u);
  q.close();
  int d = 4;
  EXPECT_FALSE(q.try_push(std::move(d))) << "closed queue refuses producers";
  EXPECT_FALSE(q.push(std::move(d))) << "blocking push also refuses after close";
  // close() never drops queued work: both survivors drain, then end-of-stream.
  EXPECT_EQ(q.pop(), std::optional<int>(2));
  EXPECT_EQ(q.pop(), std::optional<int>(3));
  EXPECT_EQ(q.pop(), std::nullopt);
}

TEST(ServeEngine, WorkerPoolIsBitIdenticalToSerialOnStoreHits) {
  const std::string dir = fresh_dir("engine_identical");
  PlanStore store(store_config(dir));
  PlanServer server(store, PlanServerConfig{});
  const Program program = motivating_example();
  const std::vector<DeviceSpec> devices = {DeviceSpec::k20x(),
                                           DeviceSpec::k40()};
  // Warm both keys once so the replayed stream is the steady-state
  // store-hit workload the replay-stability contract covers.
  for (const DeviceSpec& d : devices) server.serve(program, d);

  const int requests = 40;
  std::vector<std::string> serial;
  for (int i = 0; i < requests; ++i) {
    const ServeResult r =
        server.serve(program, devices[static_cast<std::size_t>(i) % 2]);
    EXPECT_EQ(r.rung, ServeRung::StoreHit);
    EXPECT_EQ(r.worker_id, -1) << "direct calls carry no worker id";
    serial.push_back(r.plan.to_string() + "|" + to_string(r.rung));
  }

  ServeEngine engine(server, ServeEngineConfig{.workers = 4,
                                               .queue_capacity = 16,
                                               .shed_on_full = false});
  std::vector<std::future<ServeResult>> futures;
  for (int i = 0; i < requests; ++i)
    futures.push_back(
        engine.submit(program, devices[static_cast<std::size_t>(i) % 2]));
  for (int i = 0; i < requests; ++i) {
    const ServeResult r = futures[static_cast<std::size_t>(i)].get();
    EXPECT_EQ(serial[static_cast<std::size_t>(i)],
              r.plan.to_string() + "|" + to_string(r.rung))
        << "request " << i << " diverged from the serial replay";
    EXPECT_GE(r.worker_id, 0);
    EXPECT_LT(r.worker_id, 4);
    EXPECT_GE(r.queue_wait_s, 0.0);
  }
  engine.drain();
  const ServeEngine::Stats es = engine.stats();
  EXPECT_EQ(es.submitted, requests);
  EXPECT_EQ(es.completed, requests);
  EXPECT_EQ(es.rejected_overload, 0);
}

TEST(ServeEngine, QueueFullShedsToRejectedOverloadFloor) {
  const std::string dir = fresh_dir("engine_overload");
  PlanStore store(store_config(dir));
  ServeSinks sinks;
  std::atomic<bool> held{false};
  std::atomic<bool> release{false};
  PlanServerConfig cfg;
  cfg.telemetry = &sinks.telemetry;
  cfg.test_coalesce_hold = [&] {
    held = true;
    while (!release) std::this_thread::sleep_for(std::chrono::milliseconds(1));
  };
  PlanServer server(store, cfg);
  const Program program = motivating_example();
  const DeviceSpec device = DeviceSpec::k20x();
  Validator validator(program, device);

  ServeEngine engine(server, ServeEngineConfig{.workers = 1,
                                               .queue_capacity = 1,
                                               .shed_on_full = true});
  // A: a miss — its leader parks in the hold with the queue empty again.
  std::future<ServeResult> fa = engine.submit(program, device);
  ASSERT_TRUE(spin_until([&] { return held.load(); }));
  // B fills the one-slot queue; C finds it full and is shed inline.
  std::future<ServeResult> fb = engine.submit(program, device);
  std::future<ServeResult> fc = engine.submit(program, device);
  ASSERT_EQ(fc.wait_for(std::chrono::seconds(0)), std::future_status::ready)
      << "a shed request must be answered inline, not queued";
  const ServeResult rejected = fc.get();
  EXPECT_EQ(rejected.admission, AdmissionOutcome::RejectedOverload);
  EXPECT_EQ(rejected.rung, ServeRung::TrivialFloor);
  EXPECT_TRUE(rejected.degraded);
  EXPECT_TRUE(validator.legal(rejected.plan))
      << "overload sheds work, never correctness";
  EXPECT_EQ(rejected.plan.num_groups(), rejected.num_kernels)
      << "the overload floor is the identity plan";

  release = true;
  EXPECT_TRUE(validator.legal(fa.get().plan));
  EXPECT_TRUE(validator.legal(fb.get().plan));
  engine.drain();

  EXPECT_EQ(engine.stats().rejected_overload, 1);
  EXPECT_EQ(server.stats().rejected_overload, 1);
  EXPECT_EQ(sinks.metrics.counter_value("serve.queue_rejected_total"), 1);
  EXPECT_EQ(sinks.metrics.counter_value("serve.requests_total"), 3);
}

TEST(ServeEngine, CoalescedMissFansOutBitIdenticalPlansToAllWaiters) {
  const std::string dir = fresh_dir("engine_coalesce");
  PlanStore store(store_config(dir));
  ServeSinks sinks;
  PlanServerConfig cfg;
  cfg.telemetry = &sinks.telemetry;
  PlanServer* server_ptr = nullptr;
  // The leader parks until both followers are provably waiting on its
  // flight, so the fan-out below is structural, not a timing accident.
  cfg.test_coalesce_hold = [&] {
    ASSERT_TRUE(spin_until(
        [&] { return server_ptr->stats().coalesce_waiting >= 2; }));
  };
  PlanServer server(store, cfg);
  server_ptr = &server;
  const Program program = motivating_example();
  const DeviceSpec device = DeviceSpec::k20x();
  Validator validator(program, device);

  ServeEngine engine(server, ServeEngineConfig{.workers = 4,
                                               .queue_capacity = 16,
                                               .shed_on_full = false});
  ServeRequest req;
  req.deadline_s = 60.0;  // followers must not time out under CI load
  std::vector<std::future<ServeResult>> futures;
  for (int i = 0; i < 3; ++i)
    futures.push_back(engine.submit(program, device, req));
  std::vector<ServeResult> results;
  for (auto& f : futures) results.push_back(f.get());
  engine.drain();

  int coalesced = 0;
  for (const ServeResult& r : results) {
    EXPECT_EQ(r.rung, ServeRung::FullSearch);
    EXPECT_FALSE(r.degraded);
    EXPECT_TRUE(validator.legal(r.plan));
    EXPECT_EQ(r.plan.to_string(), results[0].plan.to_string())
        << "every waiter must receive the leader's exact plan";
    EXPECT_DOUBLE_EQ(r.cost_s, results[0].cost_s);
    if (r.coalesced) {
      ++coalesced;
      EXPECT_GT(r.stage_s[RequestContext::kCoalesceWait], 0.0)
          << "a coalesced request charges its wait to the stage ledger";
    }
  }
  EXPECT_EQ(coalesced, 2) << "one leader, two coalesced followers";
  EXPECT_EQ(server.stats().coalesced, 2);
  EXPECT_EQ(server.stats().coalesce_timeouts, 0);
  EXPECT_EQ(sinks.metrics.counter_value("serve.coalesced_total"), 2);
  // The collapse is real: one search, one write-back, for three requests.
  EXPECT_EQ(store.stats().puts, 1);
  EXPECT_EQ(server.stats().writebacks, 1);
}

TEST(ServeEngine, DrainCompletesInFlightWorkThenRefusesNewRequests) {
  const std::string dir = fresh_dir("engine_drain");
  PlanStore store(store_config(dir));
  std::atomic<bool> armed{false};
  std::atomic<bool> held{false};
  std::atomic<bool> release{false};
  PlanServerConfig cfg;
  // The warm-up serve below is itself a miss (and so a leader); the hold
  // only engages once armed, i.e. for the engine-submitted miss.
  cfg.test_coalesce_hold = [&] {
    if (!armed.load()) return;
    held = true;
    while (!release) std::this_thread::sleep_for(std::chrono::milliseconds(1));
  };
  PlanServer server(store, cfg);
  const Program program = motivating_example();
  const DeviceSpec miss_device = DeviceSpec::k20x();
  const DeviceSpec hit_device = DeviceSpec::k40();
  server.serve(program, hit_device);  // warm one key for store hits
  armed = true;

  ServeEngine engine(server, ServeEngineConfig{.workers = 2,
                                               .queue_capacity = 8,
                                               .shed_on_full = false});
  // One in-flight miss (parked in the hold) plus queued store hits.
  std::future<ServeResult> miss = engine.submit(program, miss_device);
  ASSERT_TRUE(spin_until([&] { return held.load(); }));
  std::vector<std::future<ServeResult>> hits;
  for (int i = 0; i < 4; ++i) hits.push_back(engine.submit(program, hit_device));

  std::thread drainer([&] { engine.drain(); });
  release = true;  // let the in-flight miss finish; drain must wait for it
  drainer.join();

  // The k40 warm-up shares the program fingerprint, so the k20x miss
  // polishes that stored plan rather than searching from scratch — the
  // point here is only that drain completed it instead of dropping it.
  EXPECT_EQ(miss.get().rung, ServeRung::PolishedStored)
      << "drain completes in-flight work instead of dropping it";
  for (auto& f : hits) EXPECT_EQ(f.get().rung, ServeRung::StoreHit);
  EXPECT_EQ(engine.stats().completed, 5);

  // The drained engine still answers — with the overload floor.
  const ServeResult after = engine.submit(program, hit_device).get();
  EXPECT_EQ(after.admission, AdmissionOutcome::RejectedOverload);
  EXPECT_EQ(after.rung, ServeRung::TrivialFloor);
  EXPECT_EQ(engine.stats().rejected_overload, 1);
}

// TSan fodder: hammer one server from a full-width pool across several
// keys at once — shared store (shared_mutex), shared contexts (call_once),
// shared group-cost cache, coalescing map and telemetry sinks all under
// real contention. Correctness assert: every response legal, every
// store-hit response identical per key.
TEST(ServeEngine, ConcurrentMixedKeyHammerStaysLegalAndDeterministic) {
  const std::string dir = fresh_dir("engine_hammer");
  PlanStore store(store_config(dir));
  ServeSinks sinks;
  PlanServerConfig cfg;
  cfg.telemetry = &sinks.telemetry;
  PlanServer server(store, cfg);
  const Program program = motivating_example();
  const std::vector<DeviceSpec> devices = {DeviceSpec::k20x(),
                                           DeviceSpec::k40()};
  std::vector<std::string> expected;
  for (const DeviceSpec& d : devices)
    expected.push_back(server.serve(program, d).plan.to_string());

  const int requests = 64;
  ServeEngine engine(server, ServeEngineConfig{.workers = 8,
                                               .queue_capacity = 32,
                                               .shed_on_full = false});
  std::vector<std::future<ServeResult>> futures;
  for (int i = 0; i < requests; ++i)
    futures.push_back(
        engine.submit(program, devices[static_cast<std::size_t>(i) % 2]));
  for (int i = 0; i < requests; ++i) {
    const ServeResult r = futures[static_cast<std::size_t>(i)].get();
    EXPECT_EQ(r.rung, ServeRung::StoreHit);
    EXPECT_EQ(r.plan.to_string(), expected[static_cast<std::size_t>(i) % 2]);
  }
  engine.drain();
  const PlanServer::Stats s = server.stats();
  EXPECT_EQ(s.requests, requests + 2);
  EXPECT_EQ(s.store_hits, requests + 2 - 2);
  EXPECT_EQ(sinks.metrics.counter_value("serve.requests_total"), requests + 2);
}

// TSan fodder for the validated-hit memo: a pool hammers store hits on one
// key while another thread keeps re-putting two different legal plans under
// it, so workers race to validate, replace and read the context's memo.
// Every answer must be a hit carrying one of the two plans with exactly
// that plan's cost — never a mix of one plan and the other's cost.
TEST(ServeEngine, HitsStayCorrectWhileAWriterAlternatesStoredPlans) {
  const std::string dir = fresh_dir("engine_reput");
  PlanStore store(store_config(dir));
  PlanServer server(store, PlanServerConfig{});
  const Program program = motivating_example();
  const DeviceSpec device = DeviceSpec::k20x();
  ASSERT_EQ(server.serve(program, device).rung, ServeRung::FullSearch);
  const ServeResult searched = server.serve(program, device);
  ASSERT_EQ(searched.rung, ServeRung::StoreHit);
  const FusionPlan identity(searched.num_kernels);
  ASSERT_NE(searched.plan.to_string(), identity.to_string());
  const std::map<std::string, double> legal = {
      {searched.plan.to_string(), searched.cost_s},
      {identity.to_string(), searched.baseline_cost_s}};

  std::atomic<bool> stop{false};
  std::atomic<long> puts{0};
  std::thread writer([&] {
    for (long i = 0; !stop.load(); ++i) {
      StoredPlan stored;
      stored.key = searched.key;
      stored.num_kernels = searched.num_kernels;
      stored.plan_text = (i % 2 == 0 ? identity : searched.plan).to_string();
      stored.best_cost_s = legal.at(stored.plan_text);
      stored.baseline_cost_s = searched.baseline_cost_s;
      store.put(std::move(stored));
      puts.fetch_add(1);
    }
  });

  const int requests = 200;
  ServeEngine engine(server, ServeEngineConfig{.workers = 8,
                                               .queue_capacity = 32,
                                               .shed_on_full = false});
  std::vector<std::future<ServeResult>> futures;
  for (int i = 0; i < requests; ++i)
    futures.push_back(engine.submit(program, device));
  std::set<std::string> seen;
  for (auto& f : futures) {
    const ServeResult r = f.get();
    EXPECT_EQ(r.rung, ServeRung::StoreHit);
    const auto it = legal.find(r.plan.to_string());
    ASSERT_NE(it, legal.end()) << "served a plan that was never stored";
    EXPECT_DOUBLE_EQ(r.cost_s, it->second) << "cost of the other plan";
    seen.insert(it->first);
  }
  engine.drain();
  stop = true;
  writer.join();
  EXPECT_GT(puts.load(), 0);
  EXPECT_EQ(server.stats().invalid_stored, 0);
  EXPECT_EQ(server.stats().store_hits, requests + 1);
}

}  // namespace
}  // namespace kf
