// Release times / staggered arrivals: requests hitting a running service
// over time (Question 2's operating scenario under load).
#include <gtest/gtest.h>

#include "tests/common/fixtures.hpp"
#include "tests/common/traced.hpp"
#include "mcsim/dag/dax.hpp"
#include "mcsim/dag/merge.hpp"
#include "mcsim/engine/engine.hpp"
#include "mcsim/obs/trace.hpp"

namespace mcsim::engine {
namespace {

using test::makeChainWorkflow;

EngineConfig fastLink(int procs) {
  EngineConfig cfg;
  cfg.processors = procs;
  cfg.linkBandwidthBytesPerSec = 1e9;  // transfers negligible
  return cfg;
}

TEST(Arrivals, ReleaseTimeDelaysSourceTask) {
  auto wf = makeChainWorkflow(2, 10.0);
  wf.setEarliestStart(0, 100.0);
  const auto [r, trace] = test::simulateTraced(wf, fastLink(1));
  EXPECT_GE(trace.begin(test::taskSpan(trace, 0)), 100.0);
  EXPECT_NEAR(r.makespanSeconds, 120.0, 0.1);
}

TEST(Arrivals, ZeroReleaseIsDefaultBehaviour) {
  auto wf = makeChainWorkflow(2, 10.0);
  wf.setEarliestStart(0, 0.0);
  const auto r = simulateWorkflow(wf, fastLink(1));
  EXPECT_NEAR(r.makespanSeconds, 20.0, 0.1);
}

TEST(Arrivals, ReleaseCombinesWithDependencies) {
  // A child gated both by its parent (finishes at ~10) and a 50 s release:
  // it starts at the later of the two.
  auto wf = makeChainWorkflow(2, 10.0);
  wf.setEarliestStart(1, 50.0);
  const auto [r, trace] = test::simulateTraced(wf, fastLink(2));
  EXPECT_GE(trace.begin(test::taskSpan(trace, 1)), 50.0);
  EXPECT_NEAR(r.makespanSeconds, 60.0, 0.1);

  // Release earlier than the parent finish changes nothing.
  auto wf2 = makeChainWorkflow(2, 10.0);
  wf2.setEarliestStart(1, 5.0);
  const auto r2 = simulateWorkflow(wf2, fastLink(2));
  EXPECT_NEAR(r2.makespanSeconds, 20.0, 0.1);
}

TEST(Arrivals, NegativeReleaseRejected) {
  auto wf = makeChainWorkflow(2);
  EXPECT_THROW(wf.setEarliestStart(0, -1.0), std::invalid_argument);
}

TEST(Arrivals, StaggeredMergeReleasesEachPart) {
  const auto request = makeChainWorkflow(3, 10.0);
  const std::vector<dag::Workflow> parts(4, request);
  const dag::Workflow stream =
      dag::mergeWorkflowsStaggered(parts, {0.0, 100.0, 200.0, 300.0});
  const auto [r, trace] = test::simulateTraced(stream, fastLink(64));
  const auto offsets = dag::partTaskOffsets(parts);
  for (std::size_t i = 0; i < parts.size(); ++i) {
    const double release = 100.0 * static_cast<double>(i);
    EXPECT_GE(trace.begin(test::taskSpan(trace, offsets[i])), release)
        << "part " << i;
    // Each request still takes its own 30 s once released.
    EXPECT_NEAR(trace.end(test::taskSpan(trace, offsets[i + 1] - 1)),
                release + 30.0, 0.1)
        << "part " << i;
  }
  EXPECT_NEAR(r.makespanSeconds, 330.0, 0.5);
}

TEST(Arrivals, ContentionDelaysLaterArrivals) {
  // One processor, two requests released 5 s apart: the second waits for
  // the first to finish entirely.
  const auto request = makeChainWorkflow(2, 10.0);
  const std::vector<dag::Workflow> parts(2, request);
  const dag::Workflow stream =
      dag::mergeWorkflowsStaggered(parts, {0.0, 5.0});
  const auto r = simulateWorkflow(stream, fastLink(1));
  EXPECT_NEAR(r.makespanSeconds, 40.0, 0.1);
}

TEST(Arrivals, OffsetsCoverAllParts) {
  const auto a = makeChainWorkflow(3);
  const auto b = makeChainWorkflow(5);
  const auto offsets = dag::partTaskOffsets({a, b});
  EXPECT_EQ(offsets, (std::vector<dag::TaskId>{0, 3, 8}));
}

TEST(Arrivals, StaggeredMergeValidation) {
  const auto wf = makeChainWorkflow(2);
  EXPECT_THROW(dag::mergeWorkflowsStaggered({wf, wf}, {0.0}),
               std::invalid_argument);
  EXPECT_THROW(dag::mergeWorkflowsStaggered({wf}, {-1.0}),
               std::invalid_argument);
}

TEST(Arrivals, ReleaseSurvivesDaxRoundTrip) {
  auto wf = makeChainWorkflow(2, 10.0);
  wf.setEarliestStart(0, 42.5);
  const dag::Workflow back = dag::readDax(dag::writeDax(wf));
  EXPECT_DOUBLE_EQ(back.task(0).earliestStartSeconds, 42.5);
  EXPECT_DOUBLE_EQ(back.task(1).earliestStartSeconds, 0.0);
}

}  // namespace
}  // namespace mcsim::engine
