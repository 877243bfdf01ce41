// Determinism replay: the whole point of seeding every fault model through
// the portable Rng is that a run is a pure function of (workflow, config).
// Two simulations with identical seeds must produce byte-identical JSONL
// event streams and identical costs, and changing only the fault seed must
// change the outcome.
#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "tests/common/fixtures.hpp"
#include "mcsim/cloud/provider.hpp"
#include "mcsim/dag/random_dag.hpp"
#include "mcsim/engine/engine.hpp"
#include "mcsim/faults/faults.hpp"
#include "mcsim/montage/factory.hpp"
#include "mcsim/obs/jsonl.hpp"

namespace mcsim::faults {
namespace {

struct Replay {
  std::string jsonl;
  engine::ExecutionResult result;
};

Replay run(const dag::Workflow& wf, engine::EngineConfig cfg) {
  Replay r;
  std::ostringstream os;
  obs::JsonlSink sink(os);
  cfg.observer = &sink;
  r.result = engine::simulateWorkflow(wf, cfg);
  r.jsonl = os.str();
  return r;
}

engine::EngineConfig faultyConfig(std::uint64_t seed) {
  engine::EngineConfig cfg;
  cfg.mode = engine::DataMode::RemoteIO;
  cfg.processors = 4;
  cfg.faults.processor.mtbfSeconds = 120.0;
  cfg.faults.retry.kind = RetryPolicyKind::ExponentialBackoff;
  cfg.faults.retry.maxRetries = 10;
  cfg.faults.retry.delaySeconds = 5.0;
  cfg.faults.retry.jitterFraction = 0.3;
  cfg.faults.seed = seed;
  return cfg;
}

TEST(Replay, IdenticalSeedsGiveByteIdenticalStreamsAndCosts) {
  const dag::Workflow wf = dag::makeRandomWorkflow(77);
  const Replay a = run(wf, faultyConfig(9));
  const Replay b = run(wf, faultyConfig(9));

  EXPECT_FALSE(a.jsonl.empty());
  EXPECT_EQ(a.jsonl, b.jsonl);
  const cloud::Pricing pricing =
      cloud::ProviderCatalog::builtin().pricing("amazon-2008");
  EXPECT_DOUBLE_EQ(
      engine::computeCost(a.result, pricing, cloud::CpuBillingMode::Usage)
          .total()
          .value(),
      engine::computeCost(b.result, pricing, cloud::CpuBillingMode::Usage)
          .total()
          .value());
  EXPECT_EQ(a.result.processorCrashes, b.result.processorCrashes);
  EXPECT_EQ(a.result.taskRetries, b.result.taskRetries);
  EXPECT_DOUBLE_EQ(a.result.makespanSeconds, b.result.makespanSeconds);
  EXPECT_DOUBLE_EQ(a.result.wastedCpuSeconds, b.result.wastedCpuSeconds);
}

TEST(Replay, TheFaultSeedActuallySteersTheRun) {
  const dag::Workflow wf = dag::makeRandomWorkflow(77);
  const Replay a = run(wf, faultyConfig(9));
  const Replay b = run(wf, faultyConfig(10));
  // Deterministically different: seed 9 and 10 draw different crash times.
  EXPECT_NE(a.jsonl, b.jsonl);
}

TEST(Replay, MontageUnderFaultsReplaysExactly) {
  const dag::Workflow wf = montage::buildMontageWorkflow(0.5);
  engine::EngineConfig cfg = faultyConfig(4);
  cfg.mode = engine::DataMode::DynamicCleanup;
  const Replay a = run(wf, cfg);
  const Replay b = run(wf, cfg);
  EXPECT_GT(a.result.processorCrashes, 0u);
  EXPECT_EQ(a.jsonl, b.jsonl);
}

TEST(Replay, ConfiguredButInertFaultsPreserveTheBaselineStream) {
  // A fault config whose models are all disabled (different seed included)
  // must not perturb the event stream in any way: no extra draws, no extra
  // calendar entries.
  const dag::Workflow wf = test::makeForkJoinWorkflow(4);
  engine::EngineConfig plain;
  plain.processors = 3;
  engine::EngineConfig inert = plain;
  inert.faults.seed = 999;
  inert.faults.retry.maxRetries = 7;
  inert.faults.retry.delaySeconds = 3.0;
  EXPECT_EQ(run(wf, plain).jsonl, run(wf, inert).jsonl);
}

}  // namespace
}  // namespace mcsim::faults
