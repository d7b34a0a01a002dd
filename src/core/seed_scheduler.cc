#include "src/core/seed_scheduler.h"

#include <algorithm>
#include <numeric>

#include "src/util/registry.h"

namespace dx {

void SeedScheduler::Report(int seed_index, bool found_test, float coverage_gain) {
  (void)seed_index;
  (void)found_test;
  (void)coverage_gain;
}

void RoundRobinScheduler::Reset(int num_seeds, int max_passes) {
  num_seeds_ = num_seeds;
  max_passes_ = max_passes;
  pass_ = 0;
  cursor_ = 0;
}

int RoundRobinScheduler::Next() {
  if (num_seeds_ <= 0 || pass_ >= max_passes_) {
    return -1;
  }
  const int index = cursor_;
  if (++cursor_ >= num_seeds_) {
    cursor_ = 0;
    ++pass_;
  }
  return index;
}

CoverageGainScheduler::CoverageGainScheduler(float found_bonus)
    : found_bonus_(found_bonus) {}

void CoverageGainScheduler::Reset(int num_seeds, int max_passes) {
  num_seeds_ = num_seeds;
  max_passes_ = max_passes;
  pass_ = 0;
  cursor_ = 0;
  need_sort_ = false;
  score_.assign(static_cast<size_t>(num_seeds), 0.0);
  order_.resize(static_cast<size_t>(num_seeds));
  std::iota(order_.begin(), order_.end(), 0);
}

int CoverageGainScheduler::Next() {
  if (num_seeds_ <= 0 || pass_ >= max_passes_) {
    return -1;
  }
  if (need_sort_) {
    // Replay the most productive seeds first this pass. Sorting lazily here
    // — not at the wrap — lets the previous pass's final batch Report its
    // outcomes first (the session syncs at pass boundaries). stable_sort
    // keeps the previous order among ties, so the schedule is deterministic.
    std::stable_sort(order_.begin(), order_.end(), [this](int a, int b) {
      return score_[static_cast<size_t>(a)] > score_[static_cast<size_t>(b)];
    });
    need_sort_ = false;
  }
  const int index = order_[static_cast<size_t>(cursor_)];
  if (++cursor_ >= num_seeds_) {
    cursor_ = 0;
    ++pass_;
    need_sort_ = true;
  }
  return index;
}

void CoverageGainScheduler::Report(int seed_index, bool found_test, float coverage_gain) {
  if (seed_index < 0 || seed_index >= num_seeds_) {
    return;
  }
  score_[static_cast<size_t>(seed_index)] +=
      static_cast<double>(coverage_gain) + (found_test ? found_bonus_ : 0.0);
}

namespace {

NamedRegistry<SeedSchedulerFactory>& SchedulerRegistry() {
  static auto* registry = new NamedRegistry<SeedSchedulerFactory>({
      {"roundrobin",
       []() -> std::unique_ptr<SeedScheduler> {
         return std::make_unique<RoundRobinScheduler>();
       }},
      {"coverage-gain",
       []() -> std::unique_ptr<SeedScheduler> {
         return std::make_unique<CoverageGainScheduler>();
       }},
  });
  return *registry;
}

}  // namespace

void RegisterSeedScheduler(const std::string& name, SeedSchedulerFactory factory) {
  SchedulerRegistry().Register(name, std::move(factory));
}

std::unique_ptr<SeedScheduler> MakeSeedScheduler(const std::string& name) {
  // Historical aliases, kept out of the registry so listings stay canonical.
  // A plug-in registered under the literal alias name takes precedence.
  std::string key = name;
  if (!SchedulerRegistry().Contains(key)) {
    key = name == "round-robin" ? "roundrobin" : (name == "gain" ? "coverage-gain" : name);
  }
  return SchedulerRegistry().Get(key, "seed scheduler")();
}

std::vector<std::string> SeedSchedulerNames() { return SchedulerRegistry().Names(); }

}  // namespace dx
