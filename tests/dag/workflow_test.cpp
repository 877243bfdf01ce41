#include "mcsim/dag/workflow.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <utility>

#include "tests/common/fixtures.hpp"

namespace mcsim::dag {
namespace {

using test::makeFigure3Workflow;

TEST(Workflow, Figure3StructureDerivedFromDataFlow) {
  const auto fig = makeFigure3Workflow();
  const Workflow& wf = fig.wf;
  EXPECT_EQ(wf.taskCount(), 7u);
  EXPECT_EQ(wf.fileCount(), 8u);

  // t0 is the only source; its children are b's consumers: t1, t2, t6.
  EXPECT_TRUE(wf.task(fig.t0).parents.empty());
  EXPECT_EQ(wf.task(fig.t0).children,
            (std::vector<TaskId>{fig.t1, fig.t2, fig.t6}));
  // t6's parents: producers of e, f, b = t4, t3, t0 (sorted by id).
  EXPECT_EQ(wf.task(fig.t6).parents,
            (std::vector<TaskId>{fig.t0, fig.t3, fig.t4}));
}

TEST(Workflow, Figure3LevelsFollowPaperDefinition) {
  const auto fig = makeFigure3Workflow();
  EXPECT_EQ(fig.wf.task(fig.t0).level, 1);
  EXPECT_EQ(fig.wf.task(fig.t1).level, 2);
  EXPECT_EQ(fig.wf.task(fig.t2).level, 2);
  EXPECT_EQ(fig.wf.task(fig.t3).level, 3);
  EXPECT_EQ(fig.wf.task(fig.t4).level, 3);
  EXPECT_EQ(fig.wf.task(fig.t5).level, 3);
  EXPECT_EQ(fig.wf.task(fig.t6).level, 4);
  EXPECT_EQ(fig.wf.levelCount(), 4);
}

TEST(Workflow, Figure3ExternalInputsAndOutputs) {
  const auto fig = makeFigure3Workflow();
  EXPECT_EQ(fig.wf.externalInputs(), (std::vector<FileId>{fig.a}));
  // Net outputs g and h, exactly as the paper states.
  EXPECT_EQ(fig.wf.workflowOutputs(), (std::vector<FileId>{fig.g, fig.h}));
  EXPECT_DOUBLE_EQ(fig.wf.externalInputBytes().mb(), 1.0);
  EXPECT_DOUBLE_EQ(fig.wf.workflowOutputBytes().mb(), 2.0);
}

TEST(Workflow, TotalsAndCcr) {
  const auto fig = makeFigure3Workflow();
  EXPECT_DOUBLE_EQ(fig.wf.totalRuntimeSeconds(), 70.0);
  EXPECT_DOUBLE_EQ(fig.wf.totalFileBytes().mb(), 8.0);
  // CCR = (8 MB / 1 MB/s) / 70 s.
  EXPECT_NEAR(fig.wf.ccr(1e6), 8.0 / 70.0, 1e-12);
}

TEST(Workflow, ExplicitOutputSurvivesConsumption) {
  auto fig = makeFigure3Workflow();
  fig.wf.markExplicitOutput(fig.c);  // consumed by t4 and t5, now also output
  const auto outs = fig.wf.workflowOutputs();
  EXPECT_NE(std::find(outs.begin(), outs.end(), fig.c), outs.end());
}

TEST(Workflow, CycleDetected) {
  Workflow wf("cyclic");
  const FileId x = wf.addFile("x", Bytes(1.0));
  const FileId y = wf.addFile("y", Bytes(1.0));
  const TaskId t1 = wf.addTask("t1", "t", 1.0);
  const TaskId t2 = wf.addTask("t2", "t", 1.0);
  wf.addInput(t1, x);
  wf.addOutput(t1, y);
  wf.addInput(t2, y);
  wf.addOutput(t2, x);
  EXPECT_THROW(wf.finalize(), std::logic_error);
}

TEST(Workflow, ControlDependencyCycleDetected) {
  Workflow wf("ctrl-cyclic");
  const TaskId t1 = wf.addTask("t1", "t", 1.0);
  const TaskId t2 = wf.addTask("t2", "t", 1.0);
  wf.addControlDependency(t1, t2);
  wf.addControlDependency(t2, t1);
  EXPECT_THROW(wf.finalize(), std::logic_error);
}

TEST(Workflow, ControlDependencyCreatesEdgeAndLevel) {
  Workflow wf("ctrl");
  const TaskId t1 = wf.addTask("t1", "t", 1.0);
  const TaskId t2 = wf.addTask("t2", "t", 1.0);
  wf.addControlDependency(t1, t2);
  wf.finalize();
  EXPECT_EQ(wf.task(t2).parents, (std::vector<TaskId>{t1}));
  EXPECT_EQ(wf.task(t2).level, 2);
  ASSERT_EQ(wf.controlDependencies().size(), 1u);
}

TEST(Workflow, SelfProducingTaskRejected) {
  // Both binding orders are rejected immediately.
  Workflow wf("selfloop");
  const FileId x = wf.addFile("x", Bytes(1.0));
  const TaskId t = wf.addTask("t", "t", 1.0);
  wf.addInput(t, x);
  EXPECT_THROW(wf.addOutput(t, x), std::invalid_argument);
  Workflow wf2("selfloop2");
  const FileId y = wf2.addFile("y", Bytes(1.0));
  const TaskId u = wf2.addTask("u", "t", 1.0);
  wf2.addOutput(u, y);
  EXPECT_THROW(wf2.addInput(u, y), std::invalid_argument);
}

TEST(Workflow, SecondProducerRejected) {
  Workflow wf("two-producers");
  const FileId x = wf.addFile("x", Bytes(1.0));
  const TaskId t1 = wf.addTask("t1", "t", 1.0);
  const TaskId t2 = wf.addTask("t2", "t", 1.0);
  wf.addOutput(t1, x);
  EXPECT_THROW(wf.addOutput(t2, x), std::invalid_argument);
}

TEST(Workflow, DuplicateInputBindingRejected) {
  Workflow wf("dup-input");
  const FileId x = wf.addFile("x", Bytes(1.0));
  const TaskId t = wf.addTask("t", "t", 1.0);
  wf.addInput(t, x);
  EXPECT_THROW(wf.addInput(t, x), std::invalid_argument);
}

TEST(Workflow, InvalidIdsRejected) {
  Workflow wf("bad-ids");
  const TaskId t = wf.addTask("t", "t", 1.0);
  const FileId x = wf.addFile("x", Bytes(1.0));
  EXPECT_THROW(wf.addInput(t, 99), std::out_of_range);
  EXPECT_THROW(wf.addInput(99, x), std::out_of_range);
  EXPECT_THROW(wf.addOutput(99, x), std::out_of_range);
  EXPECT_THROW(wf.addControlDependency(t, 99), std::out_of_range);
  EXPECT_THROW(wf.markExplicitOutput(99), std::out_of_range);
}

TEST(Workflow, NegativeQuantitiesRejected) {
  Workflow wf("neg");
  EXPECT_THROW(wf.addTask("t", "t", -1.0), std::invalid_argument);
  EXPECT_THROW(wf.addFile("x", Bytes(-1.0)), std::invalid_argument);
}

TEST(Workflow, MutationAfterFinalizeRejected) {
  auto fig = makeFigure3Workflow();
  EXPECT_THROW(fig.wf.addTask("late", "t", 1.0), std::logic_error);
  EXPECT_THROW(fig.wf.addFile("late", Bytes(1.0)), std::logic_error);
  EXPECT_THROW(fig.wf.addInput(fig.t0, fig.g), std::logic_error);
  EXPECT_THROW(fig.wf.addOutput(fig.t0, fig.g), std::logic_error);
  EXPECT_THROW(fig.wf.addControlDependency(fig.t0, fig.t1), std::logic_error);
}

TEST(Workflow, FinalizeIsIdempotent) {
  auto fig = makeFigure3Workflow();
  EXPECT_TRUE(fig.wf.finalized());
  fig.wf.finalize();  // no-op
  EXPECT_EQ(fig.wf.task(fig.t6).parents.size(), 3u);
}

TEST(Workflow, SizeScalingAllowedAfterFinalize) {
  auto fig = makeFigure3Workflow();
  fig.wf.scaleAllFileSizes(2.0);
  EXPECT_DOUBLE_EQ(fig.wf.file(fig.a).size.mb(), 2.0);
  EXPECT_DOUBLE_EQ(fig.wf.file(fig.b).size.mb(), 2.0);
  EXPECT_THROW(fig.wf.scaleAllFileSizes(0.0), std::invalid_argument);
  EXPECT_THROW(fig.wf.scaleAllFileSizes(-1.0), std::invalid_argument);
}

TEST(Workflow, RuntimeScalingAllowedAfterFinalize) {
  auto fig = makeFigure3Workflow();
  fig.wf.scaleAllRuntimes(3.0);
  EXPECT_DOUBLE_EQ(fig.wf.totalRuntimeSeconds(), 210.0);
  EXPECT_THROW(fig.wf.scaleAllRuntimes(0.0), std::invalid_argument);
}

TEST(Workflow, FingerprintFollowsEveryPostFinalizeMutator) {
  // `used` has hashed itself before the mutation, `fresh` never has: a
  // mutator that left the cached value standing would split them.
  using Mutation = void (*)(test::Figure3&);
  const std::pair<const char*, Mutation> mutations[] = {
      {"scaleAllFileSizes",
       [](test::Figure3& f) { f.wf.scaleAllFileSizes(2.0); }},
      {"scaleAllRuntimes",
       [](test::Figure3& f) { f.wf.scaleAllRuntimes(3.0); }},
      {"setEarliestStart",
       [](test::Figure3& f) { f.wf.setEarliestStart(f.t3, 5.0); }},
      {"markExplicitOutput",
       [](test::Figure3& f) { f.wf.markExplicitOutput(f.b); }},
  };
  for (const auto& [name, mutate] : mutations) {
    SCOPED_TRACE(name);
    auto used = makeFigure3Workflow();
    const std::uint64_t before = used.wf.fingerprint();
    mutate(used);
    auto fresh = makeFigure3Workflow();
    mutate(fresh);
    EXPECT_NE(used.wf.fingerprint(), before);
    EXPECT_EQ(used.wf.fingerprint(), fresh.wf.fingerprint());
  }
}

TEST(Workflow, CopiesCarryTheFingerprintUntilMutated) {
  auto fig = makeFigure3Workflow();
  const std::uint64_t original = fig.wf.fingerprint();
  auto rescaled = makeFigure3Workflow();
  rescaled.wf.scaleAllFileSizes(2.0);

  // The copy-then-rescale pattern of ccrSweep and placement's speed ladder.
  Workflow copy = fig.wf;
  EXPECT_EQ(copy.fingerprint(), original);
  copy.scaleAllFileSizes(2.0);
  EXPECT_EQ(copy.fingerprint(), rescaled.wf.fingerprint());
  EXPECT_NE(copy.fingerprint(), original);
  EXPECT_EQ(fig.wf.fingerprint(), original);

  Workflow assigned("other");
  assigned = copy;
  EXPECT_EQ(assigned.fingerprint(), rescaled.wf.fingerprint());
  Workflow moved = std::move(copy);
  EXPECT_EQ(moved.fingerprint(), rescaled.wf.fingerprint());
}

TEST(Workflow, CcrValidation) {
  auto fig = makeFigure3Workflow();
  EXPECT_THROW(fig.wf.ccr(0.0), std::invalid_argument);
  Workflow empty("empty");
  empty.finalize();
  EXPECT_THROW(empty.ccr(1.0), std::logic_error);
}

TEST(Workflow, EmptyWorkflowFinalizes) {
  Workflow wf("empty");
  wf.finalize();
  EXPECT_EQ(wf.taskCount(), 0u);
  EXPECT_EQ(wf.levelCount(), 0);
  EXPECT_TRUE(wf.externalInputs().empty());
  EXPECT_TRUE(wf.workflowOutputs().empty());
}

TEST(Workflow, ParallelTasksShareLevelOne) {
  Workflow wf("flat");
  for (int i = 0; i < 5; ++i) {
    const FileId in = wf.addFile("in" + std::to_string(i), Bytes(1.0));
    const TaskId t = wf.addTask("t" + std::to_string(i), "t", 1.0);
    wf.addInput(t, in);
    const FileId out = wf.addFile("out" + std::to_string(i), Bytes(1.0));
    wf.addOutput(t, out);
  }
  wf.finalize();
  for (const Task& t : wf.tasks()) EXPECT_EQ(t.level, 1);
  EXPECT_EQ(wf.externalInputs().size(), 5u);
  EXPECT_EQ(wf.workflowOutputs().size(), 5u);
}

}  // namespace
}  // namespace mcsim::dag
