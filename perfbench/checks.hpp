// Output checks of the benchmark, independent of the library's own
// validation: each recomputes what it checks from first principles (the
// dependence pairs come from the kernels' array accesses, not from graph/).
// Every check returns an empty string when the output passes and a
// description of the first violation otherwise; self_test() shows that
// each one rejects a broken input.
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "fusion/transformer.hpp"
#include "ir/program.hpp"
#include "serve/plan_server.hpp"
#include "stencil/equivalence.hpp"
#include "store/plan_store.hpp"
#include "telemetry/metrics.hpp"

namespace kf::perfbench {

using Groups = std::vector<std::vector<KernelId>>;

/// Producer -> consumer pairs (RAW, WAR and WAW) of a program whose kernels
/// are listed in invocation order.
std::vector<std::pair<KernelId, KernelId>> dependence_pairs(const Program& program);

/// Every kernel 0..num_kernels-1 appears in exactly one group.
std::string check_partition(const Groups& groups, int num_kernels);

/// Every pair runs in order: the producer's launch comes first, or both sit
/// in one fused launch with the producer listed first.
std::string check_launch_order(const Groups& launches,
                               const std::vector<std::pair<KernelId, KernelId>>& pairs);

/// Partition and launch order of a fused program, both against `plan`'s
/// kernel count.
std::string check_fused(const FusedProgram& fused, int num_kernels,
                        const std::vector<std::pair<KernelId, KernelId>>& pairs);

/// The plan costs no more than the identity plan.
std::string check_cost_bound(double cost_s, double baseline_cost_s);

/// verify_fusion found the fused program equivalent within 1e-9.
std::string check_equivalence(const EquivalenceReport& report);

/// A warm-path answer: a store hit serving exactly the pre-loaded plan.
std::string check_warm_hit(const ServeResult& result, const std::string& stored_plan);

/// A mixed-stream answer: on time and above the floor rung.
std::string check_served(const ServeResult& result);

/// No search behind `metrics` stopped on a deadline, an evaluation budget
/// or a fault storm: the server did the fixed work it was given.
std::string check_no_budget_stop(const MetricsRegistry& metrics);

/// The store directory reopened from disk: clean recovery, one plan per
/// key and each equal to `expected` (key, plan text).
std::string check_store_on_disk(
    const std::string& dir,
    const std::vector<std::pair<PlanKey, std::string>>& expected);

/// Feeds each check a broken input; returns the checks that failed to
/// reject theirs (empty when every check can fail). Also shows that a
/// failing check or a throw counts its operation as failed. `scratch_dir`
/// holds the tampered store and the store of a budget-starved server.
std::vector<std::string> self_test(const std::string& scratch_dir);

}  // namespace kf::perfbench
