#include "search/annealing.hpp"

#include <algorithm>
#include <cmath>

#include "search/driver.hpp"
#include "search/population.hpp"
#include "util/error.hpp"
#include "util/stopwatch.hpp"

namespace kf {
namespace {

/// One random legality-preserving move of `plan` into `out`; returns false
/// when no move applied.
bool random_move(const LegalityChecker& checker, const FusionPlan& plan, Rng& rng,
                 FusionPlan& out, std::vector<KernelId>& group) {
  const int kind = static_cast<int>(rng.next_below(3));
  if (kind == 0 && plan.num_groups() >= 2) {
    // merge two sharing-connected groups
    const KernelId k = static_cast<KernelId>(
        rng.next_below(static_cast<std::uint64_t>(plan.num_kernels())));
    const auto& neighbours = checker.sharing().neighbours(k);
    if (neighbours.empty()) return false;
    const KernelId other = neighbours[rng.next_below(neighbours.size())];
    return try_merge(checker, plan, plan.group_of(k), plan.group_of(other), out, group);
  }
  if (kind == 1) {
    // split a fused group
    std::vector<int> fused;
    for (int g = 0; g < plan.num_groups(); ++g) {
      if (plan.group(g).size() >= 2) fused.push_back(g);
    }
    if (fused.empty()) return false;
    out = plan;
    out.split_group(fused[rng.next_below(fused.size())]);
    return true;
  }
  // move one kernel next to a sharing neighbour
  const KernelId k = static_cast<KernelId>(
      rng.next_below(static_cast<std::uint64_t>(plan.num_kernels())));
  const auto& neighbours = checker.sharing().neighbours(k);
  if (neighbours.empty()) return false;
  const KernelId other = neighbours[rng.next_below(neighbours.size())];
  return try_move(checker, plan, k, plan.group_of(other), out, group);
}

}  // namespace

SearchResult annealing_search(const Objective& objective, AnnealingConfig config,
                              SearchControl* control) {
  KF_REQUIRE(config.iterations > 0, "need a positive iteration budget");
  KF_REQUIRE(config.cooling > 0.0 && config.cooling < 1.0, "cooling in (0,1)");
  Stopwatch watch;
  Rng rng(config.seed);
  const LegalityChecker& checker = objective.checker();

  SearchResult result;
  result.baseline_cost_s = objective.baseline_cost();

  FusionPlan current = random_legal_plan(checker, rng, config.init_aggressiveness);
  // Delta costing: carry the current plan's per-group costs in a memo so a
  // neighbor candidate only pays for the groups its move actually changed;
  // the candidate's cost is still summed in its own group order, so the
  // value is bit-identical to a full recost (see DESIGN.md item 18).
  Objective::GroupCostMemo memo;
  Objective::GroupCostMemo memo_scratch;
  double current_cost = objective.plan_cost_with_memo(current, {}, &memo);
  result.best = current;
  result.best_cost_s = current_cost;
  result.time_to_best_s = watch.elapsed_s();
  if (control != nullptr) control->note_best(result.best, result.best_cost_s);

  double temperature = result.baseline_cost_s * config.initial_temperature_fraction;
  const long cool_every = std::max<long>(1, config.iterations / 100);
  FusionPlan candidate;         // random_move's target, reused every step
  std::vector<KernelId> group;  // try_merge/try_move group scratch

  for (long it = 0; it < config.iterations; ++it) {
    if (control != nullptr && control->should_stop()) break;
    Rng stream = rng.split();
    if (!random_move(checker, current, stream, candidate, group)) continue;
    const double cost = objective.plan_cost_with_memo(candidate, memo, &memo_scratch);
    const double delta = cost - current_cost;
    if (delta <= 0.0 ||
        rng.next_double() < std::exp(-delta / std::max(temperature, 1e-18))) {
      std::swap(current, candidate);
      current_cost = cost;
      std::swap(memo, memo_scratch);
      if (cost < result.best_cost_s) {
        result.best = current;
        result.best_cost_s = cost;
        result.time_to_best_s = watch.elapsed_s();
        if (control != nullptr) control->note_best(result.best, result.best_cost_s);
      }
    }
    if ((it + 1) % cool_every == 0) temperature *= config.cooling;
  }

  result.best.canonicalize();
  result.evaluations = objective.evaluations();
  result.model_evaluations = objective.model_evaluations();
  result.runtime_s = watch.elapsed_s();
  fill_fault_report(result, objective, control);
  return result;
}

}  // namespace kf
