// WorkflowBuilder property tests: for randomized streaming construction
// sequences the built graph must match its closed-form counts, be acyclic
// with every non-root task wired to an upstream producer, replay
// byte-identically from the same seed, and agree field-for-field with the
// legacy Workflow::addTask/finalize path fed the identical call sequence.
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "mcsim/dag/dax.hpp"
#include "mcsim/dag/workflow.hpp"
#include "mcsim/util/rng.hpp"

namespace mcsim::dag {
namespace {

/// Shape of one randomized streaming build, derived from the seed.
struct BuildPlan {
  int levels = 0;
  std::vector<int> tasksPerLevel;
  int externalInputs = 0;
};

BuildPlan makePlan(std::uint64_t seed) {
  Rng rng(seed);
  BuildPlan plan;
  plan.levels = static_cast<int>(rng.uniformInt(1, 6));
  for (int l = 0; l < plan.levels; ++l)
    plan.tasksPerLevel.push_back(static_cast<int>(rng.uniformInt(1, 12)));
  plan.externalInputs = static_cast<int>(rng.uniformInt(1, 8));
  return plan;
}

/// Drive one streaming construction sequence into `sink` (WorkflowBuilder
/// or legacy Workflow: same vocabulary).  Tasks arrive in topological
/// level order; each produces one file and binds a random subset of files
/// already declared — exactly the contract the builder streams under.
template <class Sink>
std::size_t emitRandom(Sink& sink, std::uint64_t seed, std::size_t* edges) {
  const BuildPlan plan = makePlan(seed);
  Rng rng(seed * 1001 + 17);

  std::vector<FileId> available;  // files with a declared producer or external
  for (int i = 0; i < plan.externalInputs; ++i)
    available.push_back(sink.addFile("ext_" + std::to_string(i),
                                     Bytes(1024.0 * (i + 1))));

  std::size_t inputEdges = 0;
  for (int level = 0; level < plan.levels; ++level) {
    std::vector<FileId> produced;
    for (int i = 0; i < plan.tasksPerLevel[level]; ++i) {
      const std::string stem =
          std::string("L") + std::to_string(level) + "_" + std::to_string(i);
      const TaskId t = sink.addTask("task_" + stem, "type" +
                                        std::to_string(level % 3),
                                    1.0 + static_cast<double>(level));
      // Bind 1..4 distinct already-declared files (reject duplicates by
      // retrying; degree is tiny).
      const int want = static_cast<int>(rng.uniformInt(
          1, std::min<std::int64_t>(4, static_cast<std::int64_t>(
                                           available.size()))));
      std::vector<FileId> chosen;
      while (static_cast<int>(chosen.size()) < want) {
        const FileId f = available[static_cast<std::size_t>(rng.uniformInt(
            0, static_cast<std::int64_t>(available.size()) - 1))];
        if (std::find(chosen.begin(), chosen.end(), f) == chosen.end())
          chosen.push_back(f);
      }
      for (FileId f : chosen) {
        sink.addInput(t, f);
        ++inputEdges;
      }
      const FileId out =
          sink.addFile("out_" + stem, Bytes(4096.0 * (level + 1)));
      sink.addOutput(t, out);
      produced.push_back(out);
    }
    // Files produced on this level become available to later levels only —
    // the producer-before-consumer streaming order.
    available.insert(available.end(), produced.begin(), produced.end());
  }
  if (edges) *edges = inputEdges;

  std::size_t tasks = 0;
  for (int n : plan.tasksPerLevel) tasks += static_cast<std::size_t>(n);
  return tasks;
}

class BuilderProperty : public ::testing::TestWithParam<std::uint64_t> {};

INSTANTIATE_TEST_SUITE_P(Seeds, BuilderProperty,
                         ::testing::Range<std::uint64_t>(3000, 3024));

TEST_P(BuilderProperty, CountsMatchClosedForm) {
  WorkflowBuilder builder("prop");
  std::size_t edges = 0;
  const std::size_t tasks = emitRandom(builder, GetParam(), &edges);
  const BuildPlan plan = makePlan(GetParam());

  EXPECT_EQ(builder.taskCount(), tasks);
  EXPECT_EQ(builder.fileCount(),
            tasks + static_cast<std::size_t>(plan.externalInputs));

  const Workflow wf = builder.build();
  EXPECT_EQ(wf.taskCount(), tasks);
  EXPECT_EQ(wf.fileCount(),
            tasks + static_cast<std::size_t>(plan.externalInputs));
  std::size_t boundInputs = 0;
  for (const Task& t : wf.tasks()) boundInputs += t.inputs.size();
  EXPECT_EQ(boundInputs, edges);
}

TEST_P(BuilderProperty, AcyclicWithMonotoneLevels) {
  WorkflowBuilder builder("prop");
  emitRandom(builder, GetParam(), nullptr);
  const Workflow wf = builder.build();

  // Streaming order makes every parent id smaller than its child's, so
  // levels must be strictly increasing along every edge — the graph is
  // acyclic by construction and build() must agree.
  for (const Task& t : wf.tasks()) {
    for (TaskId p : t.parents) {
      EXPECT_LT(p, t.id);
      EXPECT_LT(wf.task(p).level, t.level);
    }
    for (TaskId c : t.children) EXPECT_GT(c, t.id);
  }
}

TEST_P(BuilderProperty, EveryNonRootTaskHasAnUpstreamProducer) {
  WorkflowBuilder builder("prop");
  emitRandom(builder, GetParam(), nullptr);
  const Workflow wf = builder.build();

  for (const Task& t : wf.tasks()) {
    if (t.level == 1) {
      // Roots (paper levels are 1-based) consume only external files.
      for (FileId f : t.inputs) EXPECT_EQ(wf.file(f).producer, kNoTask);
      continue;
    }
    bool hasProducedInput = false;
    for (FileId f : t.inputs)
      if (wf.file(f).producer != kNoTask) hasProducedInput = true;
    EXPECT_TRUE(hasProducedInput)
        << "task " << t.name << " at level " << t.level
        << " has no produced input";
  }
}

TEST_P(BuilderProperty, SameSeedReplaysByteIdentically) {
  WorkflowBuilder first("prop");
  WorkflowBuilder second("prop");
  emitRandom(first, GetParam(), nullptr);
  emitRandom(second, GetParam(), nullptr);
  // The DAX serialization covers names, types, runtimes, sizes and the
  // full edge structure; byte equality is the strongest cheap identity.
  EXPECT_EQ(writeDax(first.build()), writeDax(second.build()));
}

/// Random control edges on top of emitRandom's tasks: parent < child as the
/// builder requires, added in no particular order, some repeating a data
/// edge or each other.
template <class Sink>
void addRandomControlEdges(Sink& sink, std::size_t tasks, std::uint64_t seed) {
  if (tasks < 2) return;
  Rng rng(seed * 7919 + 5);
  const auto last = static_cast<std::int64_t>(tasks) - 1;
  const std::int64_t count = rng.uniformInt(1, 2 * last);
  for (std::int64_t i = 0; i < count; ++i) {
    const std::int64_t child = rng.uniformInt(1, last);
    sink.addControlDependency(static_cast<TaskId>(rng.uniformInt(0, child - 1)),
                              static_cast<TaskId>(child));
  }
}

void expectSameWorkflow(const Workflow& streamed, const Workflow& legacy) {
  EXPECT_EQ(streamed.fingerprint(), legacy.fingerprint());
  ASSERT_EQ(streamed.taskCount(), legacy.taskCount());
  ASSERT_EQ(streamed.fileCount(), legacy.fileCount());
  for (std::size_t i = 0; i < streamed.taskCount(); ++i) {
    const Task& a = streamed.task(static_cast<TaskId>(i));
    const Task& b = legacy.task(static_cast<TaskId>(i));
    EXPECT_EQ(a.name, b.name);
    EXPECT_EQ(a.type, b.type);
    EXPECT_EQ(a.runtimeSeconds, b.runtimeSeconds);
    EXPECT_EQ(a.earliestStartSeconds, b.earliestStartSeconds);
    EXPECT_EQ(a.inputs, b.inputs);
    EXPECT_EQ(a.outputs, b.outputs);
    EXPECT_EQ(a.parents, b.parents);
    EXPECT_EQ(a.children, b.children);
    EXPECT_EQ(a.level, b.level);
  }
  for (std::size_t i = 0; i < streamed.fileCount(); ++i) {
    const File& a = streamed.file(static_cast<FileId>(i));
    const File& b = legacy.file(static_cast<FileId>(i));
    EXPECT_EQ(a.name, b.name);
    EXPECT_EQ(a.size.value(), b.size.value());
    EXPECT_EQ(a.producer, b.producer);
    EXPECT_EQ(a.consumers, b.consumers);
    EXPECT_EQ(a.explicitOutput, b.explicitOutput);
  }
}

TEST_P(BuilderProperty, MatchesLegacyPathFedTheSameSequence) {
  WorkflowBuilder builder("prop");
  emitRandom(builder, GetParam(), nullptr);
  Workflow legacy("prop");
  emitRandom(legacy, GetParam(), nullptr);
  legacy.finalize();
  expectSameWorkflow(builder.build(), legacy);
}

TEST_P(BuilderProperty, ControlEdgesMatchLegacyPath) {
  WorkflowBuilder builder("prop");
  const std::size_t tasks = emitRandom(builder, GetParam(), nullptr);
  addRandomControlEdges(builder, tasks, GetParam());
  Workflow legacy("prop");
  emitRandom(legacy, GetParam(), nullptr);
  addRandomControlEdges(legacy, tasks, GetParam());
  legacy.finalize();
  expectSameWorkflow(builder.build(), legacy);
}

TEST(WorkflowBuilderContract, FingerprintMatchesLegacyPath) {
  // Calls emitRandom never makes: release times, explicit outputs and
  // control edges.
  const auto emit = [](auto& sink) {
    const FileId in = sink.addFile("in", Bytes(10.0));
    const TaskId a = sink.addTask("a", "ta", 1.0);
    sink.addInput(a, in);
    const FileId mid = sink.addFile("mid", Bytes(20.0));
    sink.addOutput(a, mid);
    const TaskId b = sink.addTask("b", "tb", 2.0);
    sink.addInput(b, mid);
    sink.setEarliestStart(b, 3.0);
    const TaskId c = sink.addTask("c", "tb", 2.0);
    sink.addControlDependency(a, c);
    sink.markExplicitOutput(mid);
  };
  WorkflowBuilder builder("fp");
  emit(builder);
  const Workflow streamed = builder.build();
  Workflow legacy("fp");
  emit(legacy);
  legacy.finalize();
  EXPECT_EQ(streamed.fingerprint(), legacy.fingerprint());
}

TEST(WorkflowBuilderContract, RejectsBindingsOffTheNewestTask) {
  WorkflowBuilder builder("contract");
  const FileId f = builder.addFile("f", Bytes(1.0));
  const TaskId a = builder.addTask("a", "t", 1.0);
  builder.addInput(a, f);
  builder.addTask("b", "t", 1.0);
  EXPECT_THROW(builder.addInput(a, f), std::logic_error);
  EXPECT_THROW(builder.addOutput(a, f), std::logic_error);
}

TEST(WorkflowBuilderContract, RejectsConsumerBeforeProducer) {
  WorkflowBuilder builder("contract");
  const FileId f = builder.addFile("f", Bytes(1.0));
  const TaskId a = builder.addTask("a", "t", 1.0);
  builder.addInput(a, f);
  const TaskId b = builder.addTask("b", "t", 1.0);
  // f already has a consumer; declaring its producer now would let a cycle
  // slip past the single forward sweep.
  EXPECT_THROW(builder.addOutput(b, f), std::logic_error);
}

TEST(WorkflowBuilderContract, RejectsBackwardControlEdgesAndEmptyBuild) {
  WorkflowBuilder builder("contract");
  EXPECT_THROW(builder.build(), std::logic_error);
  const TaskId a = builder.addTask("a", "t", 1.0);
  const TaskId b = builder.addTask("b", "t", 1.0);
  EXPECT_THROW(builder.addControlDependency(b, a), std::logic_error);
  EXPECT_THROW(builder.addControlDependency(a, a), std::logic_error);
  builder.addControlDependency(a, b);
  const Workflow wf = builder.build();
  EXPECT_EQ(wf.task(b).parents, std::vector<TaskId>{a});
  // build() leaves the builder empty and reusable.
  EXPECT_EQ(builder.taskCount(), 0u);
  EXPECT_THROW(builder.build(), std::logic_error);
}

}  // namespace
}  // namespace mcsim::dag
