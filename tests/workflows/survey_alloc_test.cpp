// Allocation guard for the streaming survey build: a deterministic work
// counter, unlike wall time, so it can gate on shared CI hosts.  This
// binary replaces the global operator new/delete with counting versions
// and counts the heap allocations buildSurveyCampaign makes per task.  The
// campaign path is serial, so no thread start-up enters the count.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <new>

#include "mcsim/workflows/survey.hpp"

namespace {

std::atomic<std::uint64_t> allocations{0};

}  // namespace

void* operator new(std::size_t size) {
  ++allocations;
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

void operator delete(void* p) noexcept { std::free(p); }

void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace mcsim::workflows {
namespace {

TEST(SurveyAllocations, CampaignBuildStaysUnderBudgetPerTask) {
  SurveyConfig cfg;
  cfg.name = "alloc";
  cfg.tiles = 49;
  cfg.seed = 3;
  cfg.runtimeJitterFraction = 0.25;
  const std::uint64_t before = allocations.load();
  const dag::Workflow wf = buildSurveyCampaign(cfg);
  const std::uint64_t count = allocations.load() - before;
  const std::size_t tasks = wf.taskCount();
  ASSERT_EQ(tasks, 9947u);
  // Every task name outgrows the small-string buffer, so a counter that
  // saw fewer allocations than tasks would not be counting at all.
  ASSERT_GE(count, tasks);
  const double perTask =
      static_cast<double>(count) / static_cast<double>(tasks);
  std::printf("buildSurveyCampaign: %llu allocations, %.2f per task\n",
              static_cast<unsigned long long>(count), perTask);
  // Growing every parents/children list one push_back at a time cost
  // 10.08 per task; sizing each once costs about 8.1.
  EXPECT_LE(perTask, 8.5);
}

}  // namespace
}  // namespace mcsim::workflows
