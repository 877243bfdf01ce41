#include "mcsim/analysis/placement.hpp"

#include <algorithm>
#include <cstdio>
#include <deque>
#include <limits>
#include <map>
#include <stdexcept>
#include <tuple>
#include <utility>

#include "mcsim/analysis/report.hpp"
#include "mcsim/dag/algorithms.hpp"
#include "mcsim/runner/jobs.hpp"
#include "mcsim/runner/runner.hpp"

namespace mcsim::analysis {

RequestShape shapeFromWorkflow(const dag::Workflow& wf) {
  RequestShape s;
  s.cpuSeconds = wf.totalRuntimeSeconds();
  s.inputBytes = wf.externalInputBytes();
  s.productBytes = wf.workflowOutputBytes();
  return s;
}

std::vector<PlacementPlan> comparePlacements(
    const RequestShape& shape, Bytes archiveBytes, double requestsPerMonth,
    const std::vector<cloud::Pricing>& providers) {
  if (providers.empty())
    throw std::invalid_argument("comparePlacements: no providers");
  if (requestsPerMonth < 0.0)
    throw std::invalid_argument("comparePlacements: negative request volume");

  std::vector<PlacementPlan> plans;
  for (const cloud::Pricing& compute : providers) {
    for (const cloud::Pricing& archive : providers) {
      PlacementPlan plan;
      plan.computeProvider = compute.providerName;
      plan.archiveProvider = archive.providerName;
      plan.colocated = compute.providerName == archive.providerName;

      plan.archiveMonthly =
          archive.storageCost(archiveBytes, kSecondsPerMonth);
      plan.computePerRequest = compute.cpuCost(shape.cpuSeconds);

      Money transfer;
      if (!plan.colocated) {
        // The archive provider charges egress, the compute provider ingress.
        transfer += archive.transferOutCost(shape.inputBytes);
        transfer += compute.transferInCost(shape.inputBytes);
      }
      // The product always leaves the compute provider for the user.
      transfer += compute.transferOutCost(shape.productBytes);
      plan.transferPerRequest = transfer;

      plan.monthlyTotal =
          plan.archiveMonthly +
          (plan.computePerRequest + plan.transferPerRequest) *
              requestsPerMonth;
      plans.push_back(plan);
    }
  }
  std::sort(plans.begin(), plans.end(),
            [](const PlacementPlan& a, const PlacementPlan& b) {
              if (a.monthlyTotal != b.monthlyTotal)
                return a.monthlyTotal < b.monthlyTotal;
              if (a.computeProvider != b.computeProvider)
                return a.computeProvider < b.computeProvider;
              return a.archiveProvider < b.archiveProvider;
            });
  return plans;
}

// -- placement optimizer -----------------------------------------------------

namespace {

double perGBToPerByte(Money perGB) { return perGB.value() / kBytesPerGB; }

std::string formatSpeed(double speed) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.6g", speed);
  return buf;
}

/// Scratch traffic the simulation does not itemize: when intermediates live
/// on a different provider than the compute, every byte that lands on
/// scratch (staged inputs + every produced file) crosses on the way in, and
/// every byte read back (each consumer's read + the final stage-out)
/// crosses on the way out.  Static workflow aggregates — regular and
/// cleanup modes move the same bytes, they differ only in residency.
struct ScratchTraffic {
  Bytes writes;
  Bytes reads;
};

ScratchTraffic scratchTraffic(const dag::Workflow& wf) {
  ScratchTraffic t;
  Bytes produced;
  Bytes consumed;
  for (const dag::File& file : wf.files()) {
    if (file.producer != dag::kNoTask) produced += file.size;
    consumed += file.size * static_cast<double>(file.consumers.size());
  }
  t.writes = wf.externalInputBytes() + produced;
  t.reads = consumed + wf.workflowOutputBytes();
  return t;
}

std::string siteLabel(const DataSite& site) {
  if (site.isUserSite()) return kUserSite;
  return site.provider + "/" + site.storageClass;
}

/// Deterministic total order for equal-cost candidates.
std::tuple<const std::string&, const std::string&, bool, int, std::string,
           std::string, std::string>
assignmentKey(const PlacementCandidate& c) {
  return {c.assignment.computeProvider,
          c.assignment.instanceType,
          c.assignment.spot,
          static_cast<int>(c.mode),
          siteLabel(c.assignment.intermediates),
          siteLabel(c.assignment.inputs),
          siteLabel(c.assignment.outputs)};
}

}  // namespace

OptimizeResult optimizePlacement(const dag::Workflow& wf,
                                 const cloud::ProviderCatalog& catalog,
                                 const OptimizeConfig& config) {
  if (config.modes.empty())
    throw std::invalid_argument("optimizePlacement: no data modes to sweep");

  std::vector<std::string> providerNames =
      config.providers.empty() ? catalog.names() : config.providers;
  if (providerNames.empty())
    throw std::invalid_argument("optimizePlacement: empty provider catalog");
  // at() throws with the known-name list on an unknown provider.
  for (const std::string& name : providerNames) catalog.at(name);

  const int processors =
      config.processorOverride > 0
          ? config.processorOverride
          : static_cast<int>(std::max<std::size_t>(1, dag::maxParallelism(wf)));

  // -- simulation stage: one run per distinct (mode, instance speed) --------
  // A candidate's execution metrics depend only on the data mode and how
  // fast the instance executes the calibrated runtimes; prices never enter
  // the simulator.  Collect distinct speed factors, scale the workflow once
  // per speed, and dispatch mode x speed through the runner.
  std::vector<double> speeds;
  for (const std::string& name : providerNames)
    for (const cloud::InstanceType& sku : catalog.at(name).instanceTypes)
      speeds.push_back(sku.speedFactor);
  std::sort(speeds.begin(), speeds.end());
  speeds.erase(std::unique(speeds.begin(), speeds.end()), speeds.end());

  std::deque<dag::Workflow> scaled;  // stable addresses for the specs
  std::map<double, const dag::Workflow*> workflowBySpeed;
  for (double speed : speeds) {
    // 1.0 is the exact "unscaled workflow" key set by the caller, never a
    // computed factor.  mcsim-lint: allow(float-equality)
    if (speed == 1.0) {
      workflowBySpeed[speed] = &wf;
      continue;
    }
    dag::Workflow copy = wf;
    copy.scaleAllRuntimes(1.0 / speed);
    scaled.push_back(std::move(copy));
    workflowBySpeed[speed] = &scaled.back();
  }

  std::vector<runner::ScenarioSpec> specs;
  std::map<std::pair<int, double>, std::size_t> specIndex;
  for (engine::DataMode mode : config.modes) {
    for (double speed : speeds) {
      const std::pair<int, double> key{static_cast<int>(mode), speed};
      if (specIndex.count(key) != 0) continue;  // duplicate mode in config
      runner::ScenarioSpec spec;
      spec.workflow = workflowBySpeed.at(speed);
      spec.config = config.base;
      spec.config.mode = mode;
      spec.config.processors = processors;
      spec.config.observer = nullptr;
      spec.label = std::string("optimize/mode=") + engine::dataModeName(mode) +
                   "/speed=" + formatSpeed(speed);
      specIndex.emplace(key, specs.size());
      specs.push_back(std::move(spec));
    }
  }

  const std::vector<runner::ScenarioResult> sims =
      runner::runOnQueue(config.queue, specs, {.observer = config.observer});

  // -- pricing stage: every placement combination, analytically -------------
  const ScratchTraffic scratch = scratchTraffic(wf);
  const Bytes archiveBytes = config.archiveBytes.value() > 0.0
                                 ? config.archiveBytes
                                 : wf.externalInputBytes();

  // Site menus, built once: deterministic provider-name order.
  std::vector<DataSite> inputSites{DataSite{}};
  std::vector<DataSite> outputSites{DataSite{}};
  if (config.sweepArchiveHosting) {
    for (const std::string& name : providerNames) {
      const cloud::ProviderProfile& profile = catalog.at(name);
      for (const cloud::StorageClass& cls : profile.storageClasses)
        inputSites.push_back(DataSite{name, cls.name});
      outputSites.push_back(
          DataSite{name, profile.defaultStorageClass().name});
    }
  }

  OptimizeResult out;
  out.simulations = specs.size();

  for (const std::string& computeName : providerNames) {
    const cloud::ProviderProfile& compute = catalog.at(computeName);
    for (const cloud::InstanceType& sku : compute.instanceTypes) {
      for (int spotInt = 0; spotInt <= (config.useSpot && sku.spotCapable()
                                            ? 1
                                            : 0);
           ++spotInt) {
        const bool spot = spotInt != 0;
        for (engine::DataMode mode : config.modes) {
          const engine::ExecutionResult& sim =
              sims[specIndex.at({static_cast<int>(mode), sku.speedFactor})]
                  .result;

          // Scratch menu per (compute, mode): the compute provider's own
          // classes; other providers' classes only when asked for and the
          // mode actually persists intermediates (remote I/O streams
          // through compute-local scratch by construction).
          std::vector<DataSite> scratchSites;
          for (const cloud::StorageClass& cls : compute.storageClasses)
            scratchSites.push_back(DataSite{computeName, cls.name});
          if (config.sweepCrossProviderScratch &&
              mode != engine::DataMode::RemoteIO) {
            for (const std::string& other : providerNames) {
              if (other == computeName) continue;
              for (const cloud::StorageClass& cls :
                   catalog.at(other).storageClasses)
                scratchSites.push_back(DataSite{other, cls.name});
            }
          }

          for (const DataSite& scratchSite : scratchSites) {
            for (const DataSite& inputSite : inputSites) {
              for (const DataSite& outputSite : outputSites) {
                PlacementCandidate candidate;
                candidate.assignment = {computeName, sku.name,     spot,
                                        inputSite,   scratchSite, outputSite};
                candidate.mode = mode;
                candidate.makespanSeconds = sim.makespanSeconds;
                PlacementCostBreakdown& cost = candidate.cost;

                // CPU at the SKU's (possibly spot) rate.  The scaled
                // workflow's runtimes are already instance-seconds.
                const cloud::BillingGranularity granularity =
                    config.skuGranularity
                        ? sku.granularity
                        : cloud::BillingGranularity::PerSecond;
                const double ratePerSecond =
                    sku.effectiveHourlyRate(spot).value() / kSecondsPerHour;
                double billedCpuSeconds = 0.0;
                switch (config.billing) {
                  case cloud::CpuBillingMode::Usage:
                    billedCpuSeconds =
                        cloud::billedSeconds(sim.cpuBusySeconds, granularity);
                    break;
                  case cloud::CpuBillingMode::Provisioned:
                    billedCpuSeconds =
                        cloud::billedSeconds(sim.makespanSeconds,
                                             granularity) *
                        sim.processors;
                    break;
                }
                cost.cpu = Money(billedCpuSeconds * ratePerSecond);

                // Spot interruptions: expected reclaims over the
                // provisioned instance-hours; each reclaim is assumed to
                // waste one mean task attempt, billed at the spot rate.
                if (spot) {
                  candidate.expectedInterruptions =
                      sku.interruptionsPerHour * sim.processors *
                      (sim.makespanSeconds / kSecondsPerHour);
                  const double meanTaskSeconds =
                      sim.cpuBusySeconds /
                      static_cast<double>(
                          std::max<std::size_t>(1, sim.tasksExecuted));
                  cost.spotRework =
                      Money(candidate.expectedInterruptions *
                            meanTaskSeconds * ratePerSecond);
                }

                // Intermediates residency on the scratch tier, plus
                // cross-provider staging when scratch is remote.
                const cloud::StorageClass& scratchClass =
                    *catalog.at(scratchSite.provider)
                         .findStorageClass(scratchSite.storageClass);
                cost.storage = Money(sim.storageByteSeconds *
                                     scratchClass.dollarsPerByteSecond());
                if (scratchSite.provider != computeName) {
                  const cloud::TransferRates& remote =
                      catalog.at(scratchSite.provider).transfer;
                  cost.scratchTransfer =
                      Money(scratch.writes.value() *
                                (perGBToPerByte(compute.transfer.outPerGB) +
                                 perGBToPerByte(remote.inPerGB)) +
                            scratch.reads.value() *
                                (perGBToPerByte(remote.outPerGB) +
                                 perGBToPerByte(compute.transfer.inPerGB)));
                }

                // Inputs: from the user site they pay compute ingress (the
                // paper's model); hosted archives pay the tier's retrieval
                // fee, cross-provider hops when split from compute, and an
                // amortized share of the monthly holding bill.
                Money transfer;
                if (inputSite.isUserSite()) {
                  transfer += Money(sim.bytesIn.value() *
                                    perGBToPerByte(compute.transfer.inPerGB));
                } else {
                  const cloud::ProviderProfile& host =
                      catalog.at(inputSite.provider);
                  const cloud::StorageClass& tier =
                      *host.findStorageClass(inputSite.storageClass);
                  cost.retrieval = Money(
                      sim.bytesIn.value() * perGBToPerByte(tier.retrievalPerGB));
                  if (inputSite.provider != computeName)
                    transfer +=
                        Money(sim.bytesIn.value() *
                              (perGBToPerByte(host.transfer.outPerGB) +
                               perGBToPerByte(compute.transfer.inPerGB)));
                  if (config.requestsPerMonth > 0.0)
                    cost.archiveShare =
                        Money(archiveBytes.gb() * tier.perGBMonth.value() /
                              config.requestsPerMonth);
                }

                // Outputs: back to the user they pay compute egress; to a
                // hosted site they pay the cross-provider hop (free when
                // co-located, as with EC2/S3).
                if (outputSite.isUserSite()) {
                  transfer +=
                      Money(sim.bytesOut.value() *
                            perGBToPerByte(compute.transfer.outPerGB));
                } else if (outputSite.provider != computeName) {
                  const cloud::ProviderProfile& host =
                      catalog.at(outputSite.provider);
                  transfer +=
                      Money(sim.bytesOut.value() *
                            (perGBToPerByte(compute.transfer.outPerGB) +
                             perGBToPerByte(host.transfer.inPerGB)));
                }
                cost.transfer = transfer;

                out.ranked.push_back(std::move(candidate));
              }
            }
          }
        }
      }
    }
  }

  std::sort(out.ranked.begin(), out.ranked.end(),
            [](const PlacementCandidate& a, const PlacementCandidate& b) {
              const Money ta = a.cost.total();
              const Money tb = b.cost.total();
              if (ta != tb) return ta < tb;
              if (a.makespanSeconds != b.makespanSeconds)
                return a.makespanSeconds < b.makespanSeconds;
              return assignmentKey(a) < assignmentKey(b);
            });

  // Cost–makespan Pareto frontier: walking in ascending cost order, a
  // candidate is non-dominated iff it is strictly faster than everything
  // cheaper (or equal-cost and first at its makespan).
  double bestMakespan = std::numeric_limits<double>::infinity();
  for (PlacementCandidate& candidate : out.ranked) {
    if (candidate.makespanSeconds < bestMakespan) {
      candidate.onFrontier = true;
      bestMakespan = candidate.makespanSeconds;
    }
  }

  out.candidates = out.ranked.size();
  return out;
}

Table optimizeTable(const OptimizeResult& result, std::size_t top) {
  Table t({"#", "compute", "mode", "scratch", "inputs", "outputs",
           "makespan", "cpu", "data", "total", "pareto"});
  for (std::size_t i = 0; i < result.ranked.size(); ++i) {
    const PlacementCandidate& c = result.ranked[i];
    if (i >= top && !c.onFrontier) continue;
    const Money data = c.cost.storage + c.cost.scratchTransfer +
                       c.cost.retrieval + c.cost.transfer +
                       c.cost.archiveShare;
    std::string computeCell =
        c.assignment.computeProvider + "/" + c.assignment.instanceType;
    if (c.assignment.spot) computeCell += " (spot)";
    t.addRow({std::to_string(i + 1), computeCell,
              engine::dataModeName(c.mode),
              siteLabel(c.assignment.intermediates),
              siteLabel(c.assignment.inputs),
              siteLabel(c.assignment.outputs),
              formatDuration(c.makespanSeconds), moneyCell(c.cost.cpu),
              moneyCell(data), moneyCell(c.cost.total()),
              c.onFrontier ? "*" : ""});
  }
  return t;
}

std::string describeCandidate(const PlacementCandidate& candidate) {
  const PlacementAssignment& a = candidate.assignment;
  std::string text = "compute on " + a.computeProvider + "/" +
                     a.instanceType + (a.spot ? " (spot)" : "") + ", " +
                     engine::dataModeName(candidate.mode) +
                     " mode, scratch on " + siteLabel(a.intermediates) +
                     ", inputs from " + siteLabel(a.inputs) +
                     ", outputs to " + siteLabel(a.outputs) + " — " +
                     formatMoney(candidate.cost.total()) + " per run, " +
                     formatDuration(candidate.makespanSeconds) + " makespan";
  if (candidate.expectedInterruptions > 0.0) {
    char buf[64];
    std::snprintf(buf, sizeof buf, " (~%.2f expected spot interruptions)",
                  candidate.expectedInterruptions);
    text += buf;
  }
  return text;
}

}  // namespace mcsim::analysis
