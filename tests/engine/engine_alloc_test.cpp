// Allocation guard for the engine: a deterministic work counter, unlike
// wall time, so it can gate on shared CI hosts.  This binary replaces the
// global operator new/delete with counting versions and counts the heap
// allocations one simulateWorkflow call makes per task.  A run allocates a
// fixed number of buffers while it sets up (the calendar, the link, the
// storage ledger, the per-task vectors, and the billing records when a sink
// wants line items); after that, nothing on the event, transfer, storage or
// billing path may allocate.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <variant>

#include "mcsim/dag/workflow.hpp"
#include "mcsim/engine/engine.hpp"
#include "mcsim/engine/metrics.hpp"
#include "mcsim/montage/factory.hpp"
#include "mcsim/obs/event.hpp"
#include "mcsim/obs/sink.hpp"

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

namespace mcsim::engine {
namespace {

/// Runs montage:4 at 8 processors in each mode with `observer` attached and
/// requires at most 0.1 allocations per task.
void expectUnderBudgetInEveryMode(obs::Sink* observer, const char* what) {
  const dag::Workflow wf = montage::buildMontageWorkflow(4.0);
  const std::size_t tasks = wf.taskCount();
  for (DataMode mode :
       {DataMode::RemoteIO, DataMode::Regular, DataMode::DynamicCleanup}) {
    SCOPED_TRACE(dataModeName(mode));
    EngineConfig cfg;
    cfg.mode = mode;
    cfg.processors = 8;
    cfg.observer = observer;
    const std::uint64_t before = allocations.load();
    const ExecutionResult r = simulateWorkflow(wf, cfg);
    const std::uint64_t count = allocations.load() - before;
    ASSERT_TRUE(r.completed());
    ASSERT_EQ(r.tasksExecuted, tasks);
    // Setup alone allocates the per-task vectors, so a counter that saw
    // nothing would not be counting at all.
    ASSERT_GT(count, 0u);
    const double perTask =
        static_cast<double>(count) / static_cast<double>(tasks);
    std::printf("simulateWorkflow(montage:4, %s, 8 procs%s): %llu "
                "allocations, %.2f per task\n",
                dataModeName(mode), what,
                static_cast<unsigned long long>(count), perTask);
    EXPECT_LE(perTask, 0.1);
  }
}

TEST(EngineAllocations, RunStaysUnderBudgetPerTaskInEveryMode) {
  // A map node and a std::function per transfer and a hash node per
  // stored object cost 19.2 per task in Remote I/O and 2.2 in Regular
  // and Cleanup; a slot-table link and a dense storage ledger leave about
  // a hundred setup allocations per run.
  expectUnderBudgetInEveryMode(nullptr, "");
}

/// Accepts only billing line items and counts the storage ones; allocates
/// nothing, so every allocation counted is the engine's.
class StorageLineItems final : public obs::Sink {
 public:
  void onEvent(const obs::Event& event) override {
    const auto* item = std::get_if<obs::BillingLineItem>(&event.payload);
    if (item != nullptr && item->resource == obs::Resource::Storage) ++count;
  }
  bool accepts(obs::EventKind kind) const override {
    return kind == obs::EventKind::BillingLineItem;
  }
  std::size_t count = 0;
};

TEST(EngineAllocations, BillingAttributionStaysUnderBudgetPerTask) {
  // A hash node per stored object cost 4.95 per task in Remote I/O and
  // 1.73 in Regular and Cleanup; records indexed like the storage ledger
  // are sized once in setup.
  StorageLineItems sink;
  expectUnderBudgetInEveryMode(&sink, ", billing sink");
  // Every mode erases what it stores, so residency was attributed.
  EXPECT_GT(sink.count, 0u);
}

}  // namespace
}  // namespace mcsim::engine
