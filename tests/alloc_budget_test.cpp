// Allocation budget for a district student step (DESIGN.md §5i). This
// executable replaces the global operator new with a counting one, runs a
// classroom-repair district (4 classrooms x 40 students, 150 steps each,
// rewards on, metrics off) once to warm up, then counts the heap
// allocations of a second, identical run. Everything a step reads that does
// not change — per-scenario object lists and hit grids, the rule book — is
// built once per bundle, dispatch keeps its matches on the stack, and the
// log, the UI overlays and the learning tracker append into storage the
// session keeps, so what remains is session set-up and teardown and the
// growth of per-session buffers, spread over the run's scheduler events.
// The district fingerprint is pinned too: the budget holds for this exact
// run, not for one that stopped doing the work.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <new>

#include "core/demo_games.hpp"
#include "core/platform.hpp"
#include "obs/metrics.hpp"
#include "rewards/rules.hpp"
#include "sim/district.hpp"

namespace {

std::atomic<unsigned long long> g_allocations{0};

void* counted_alloc(std::size_t size, std::size_t align) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (size == 0) size = 1;
  void* p = align > alignof(std::max_align_t)
                ? std::aligned_alloc(align, (size + align - 1) / align * align)
                : std::malloc(size);
  return p;
}

}  // namespace

void* operator new(std::size_t size) {
  if (void* p = counted_alloc(size, 0)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) {
  if (void* p = counted_alloc(size, 0)) return p;
  throw std::bad_alloc();
}
void* operator new(std::size_t size, std::align_val_t align) {
  if (void* p = counted_alloc(size, static_cast<std::size_t>(align))) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size, std::align_val_t align) {
  if (void* p = counted_alloc(size, static_cast<std::size_t>(align))) return p;
  throw std::bad_alloc();
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return counted_alloc(size, 0);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return counted_alloc(size, 0);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace vgbl {
namespace {

// Heap allocations per scheduler event the counted run may make. The step
// itself allocates nothing once its buffers have grown; session set-up,
// teardown, that growth and the post-run aggregation come to about one
// per event.
constexpr double kMaxAllocationsPerEvent = 1.5;
// run_district's fingerprint for this shape and seed (unchanged by the
// allocation work: every output bit is the same).
constexpr u64 kDistrictFingerprint = 0xc4ba5189877cbe27ULL;

TEST(AllocBudget, DistrictStepStaysUnderBudget) {
  auto project = build_classroom_repair_project(42);
  ASSERT_TRUE(project.ok());
  auto bundle = publish(project.value());
  ASSERT_TRUE(bundle.ok());

  sim::DistrictOptions options;
  options.classrooms = 4;
  options.students_per_classroom = 40;
  options.max_steps_per_student = 150;
  options.seed = 19;
  options.worker_threads = 0;
  options.shards = 4;
  options.reward_rules = &rewards::RewardRuleSet::standard();
  obs::set_enabled(false);

  auto warm = sim::run_district(bundle.value(), options);
  ASSERT_TRUE(warm.ok());

  const unsigned long long before =
      g_allocations.load(std::memory_order_relaxed);
  auto run = sim::run_district(bundle.value(), options);
  const unsigned long long allocations =
      g_allocations.load(std::memory_order_relaxed) - before;
  ASSERT_TRUE(run.ok());

  const u64 events = run.value().scheduler.events;
  ASSERT_GT(events, 0u);
  const double per_event =
      static_cast<double>(allocations) / static_cast<double>(events);
  std::printf("district: %llu allocations over %llu events = %.3f per event\n",
              allocations, static_cast<unsigned long long>(events), per_event);
  EXPECT_EQ(run.value().fingerprint, warm.value().fingerprint);
  EXPECT_EQ(run.value().fingerprint, kDistrictFingerprint)
      << "district fingerprint 0x" << std::hex << run.value().fingerprint;
  EXPECT_LT(per_event, kMaxAllocationsPerEvent);
}

}  // namespace
}  // namespace vgbl
