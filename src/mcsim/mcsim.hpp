// mcsim — the umbrella header: one include for the whole public surface.
//
//   #include "mcsim/mcsim.hpp"
//
// pulls in every layer, bottom-up:
//
//   util/      units, tables, CSV, logging, RNG, usage curves, contracts,
//              CLI args
//   obs/       typed telemetry events, sinks, JSONL/metrics/report exporters
//   sim/       the deterministic event calendar and the shared link
//   dag/       workflows, DAX import, DAG algorithms, cleanup analysis
//   montage/   the paper's Montage workflow factory and CCR rescaling
//   cloud/     pricing, storage service, billing meter
//   faults/    fault-injection models and retry policies
//   engine/    the workflow execution engine and its metrics/trace
//   runner/    the parallel scenario runner and the scenario memo cache
//   analysis/  every figure/table driver, planner, economics, placement
//   workflows/ the non-Montage workflow gallery
//   serve/     the `mcsim serve` daemon: protocol, service, socket client
//
// Tools, examples and quick experiments should prefer this header; code
// inside the library keeps including the specific headers it needs so the
// dependency layering (DESIGN.md "Module map") stays visible and enforced.
#pragma once

#include "mcsim/version.hpp"

#include "mcsim/util/args.hpp"
#include "mcsim/util/contract.hpp"
#include "mcsim/util/csv.hpp"
#include "mcsim/util/expected.hpp"
#include "mcsim/util/json.hpp"
#include "mcsim/util/log.hpp"
#include "mcsim/util/rng.hpp"
#include "mcsim/util/table.hpp"
#include "mcsim/util/units.hpp"
#include "mcsim/util/usage_curve.hpp"

#include "mcsim/obs/event.hpp"
#include "mcsim/obs/jsonl.hpp"
#include "mcsim/obs/metrics.hpp"
#include "mcsim/obs/report.hpp"
#include "mcsim/obs/sampler.hpp"
#include "mcsim/obs/selfprofile.hpp"
#include "mcsim/obs/sink.hpp"
#include "mcsim/obs/telemetry.hpp"
#include "mcsim/obs/trace.hpp"

#include "mcsim/sim/link.hpp"
#include "mcsim/sim/simulator.hpp"

#include "mcsim/dag/algorithms.hpp"
#include "mcsim/dag/cleanup.hpp"
#include "mcsim/dag/dax.hpp"
#include "mcsim/dag/merge.hpp"
#include "mcsim/dag/random_dag.hpp"
#include "mcsim/dag/stats.hpp"
#include "mcsim/dag/workflow.hpp"

#include "mcsim/montage/catalog.hpp"
#include "mcsim/montage/ccr.hpp"
#include "mcsim/montage/factory.hpp"

#include "mcsim/cloud/billing.hpp"
#include "mcsim/cloud/pricing.hpp"
#include "mcsim/cloud/provider.hpp"
#include "mcsim/cloud/storage.hpp"

#include "mcsim/faults/faults.hpp"

#include "mcsim/engine/engine.hpp"
#include "mcsim/engine/metrics.hpp"
#include "mcsim/engine/trace.hpp"

#include "mcsim/runner/campaign.hpp"
#include "mcsim/runner/jobs.hpp"
#include "mcsim/runner/memo.hpp"
#include "mcsim/runner/runner.hpp"

#include "mcsim/analysis/economics.hpp"
#include "mcsim/analysis/experiments.hpp"
#include "mcsim/analysis/explain.hpp"
#include "mcsim/analysis/model.hpp"
#include "mcsim/analysis/placement.hpp"
#include "mcsim/analysis/planner.hpp"
#include "mcsim/analysis/reliability.hpp"
#include "mcsim/analysis/report.hpp"
#include "mcsim/analysis/service.hpp"

#include "mcsim/workflows/gallery.hpp"
#include "mcsim/workflows/survey.hpp"

#include "mcsim/serve/client.hpp"
#include "mcsim/serve/daemon.hpp"
#include "mcsim/serve/protocol.hpp"
#include "mcsim/serve/service.hpp"
