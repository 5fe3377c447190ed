#include "search/population.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace kf {

FusionPlan random_legal_plan(const LegalityChecker& checker, Rng& rng,
                             double aggressiveness) {
  const Program& program = checker.program();
  FusionPlan plan(program.num_kernels());

  std::vector<KernelId> order(static_cast<std::size_t>(program.num_kernels()));
  for (KernelId k = 0; k < program.num_kernels(); ++k) {
    order[static_cast<std::size_t>(k)] = k;
  }
  rng.shuffle(order);

  FusionPlan trial;
  std::vector<KernelId> group;
  for (KernelId k : order) {
    if (!rng.next_bool(aggressiveness)) continue;
    const auto& neighbours = checker.sharing().neighbours(k);
    if (neighbours.empty()) continue;
    // Try a few random neighbours; accept the first legal merge.
    const int attempts = std::min<int>(3, static_cast<int>(neighbours.size()));
    for (int t = 0; t < attempts; ++t) {
      const KernelId other = neighbours[rng.next_below(neighbours.size())];
      if (try_merge(checker, plan, plan.group_of(k), plan.group_of(other), trial, group)) {
        std::swap(plan, trial);
        break;
      }
    }
  }
  return plan;
}

int repair_plan(const LegalityChecker& checker, FusionPlan& plan) {
  int repaired = 0;
  // Group legality is group-local and split_group appends the new
  // singletons at the end, so one pass that re-examines the index it just
  // split (now holding the next group) checks every group once.
  for (int g = 0; g < plan.num_groups();) {
    if (plan.group(g).size() >= 2 && !checker.group_is_legal(plan.group(g))) {
      plan.split_group(g);
      ++repaired;
    } else {
      ++g;
    }
  }
  // Plan-level: break condensation cycles by dissolving the largest fused
  // group on a cycle until the plan is schedulable.
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
    KF_CHECK(victim >= 0, "cycle of singleton groups cannot exist in a DAG");
    plan.split_group(victim);
    ++repaired;
  }
  return repaired;
}

bool try_merge(const LegalityChecker& checker, const FusionPlan& plan, int a, int b,
               FusionPlan& out, std::vector<KernelId>& group) {
  if (a == b) return false;
  group.assign(plan.group(a).begin(), plan.group(a).end());
  group.insert(group.end(), plan.group(b).begin(), plan.group(b).end());
  std::sort(group.begin(), group.end());
  if (!checker.group_is_legal(group)) return false;
  out = plan;
  out.merge_groups(a, b);
  return checker.plan_is_schedulable(out);
}

bool try_move(const LegalityChecker& checker, const FusionPlan& plan, KernelId k, int to,
              FusionPlan& out, std::vector<KernelId>& group) {
  if (plan.group_of(k) == to) return false;
  group.assign(plan.group(to).begin(), plan.group(to).end());
  group.push_back(k);
  std::sort(group.begin(), group.end());
  if (!checker.group_is_legal(group)) return false;
  out = plan;
  out.move_kernel(k, to);
  repair_plan(checker, out);
  return true;
}

}  // namespace kf
