// paper_sweep: the paper's whole evaluation as one operation, run the way the
// figure drivers and `mcsim sweep|modes|ccr` run it.  For the 1°, 2° and 4°
// mosaics: analysis::provisioningSweep billed per second (Figs 4-6) and per
// hour (ablation A1) and analysis::dataModeComparison (Figs 7-9); on the 1°
// mosaic, analysis::ccrSweep at 8 processors over seeded targets (Fig 11).
// All of it runs on one JobQueue whose memo cache starts cold every
// operation, as a fresh sweep process does, so repeats (the per-hour
// re-pricing) come only from within the operation.  The figures are then
// rendered as the drivers' tables.
//
// Traced runs replace the analysis calls with the benchmark's own serial
// decomposition of the same scenarios — workflow preparation, fingerprint
// and cache lookup, simulation of misses, pricing — each call timed.  The
// first operation of every run is compared with the analysis functions'
// serial, uncached code path.
#include <algorithm>
#include <cmath>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "bench.hpp"
#include "mcsim/analysis/experiments.hpp"
#include "mcsim/analysis/report.hpp"
#include "mcsim/dag/algorithms.hpp"
#include "mcsim/montage/ccr.hpp"
#include "mcsim/montage/factory.hpp"
#include "mcsim/runner/runner.hpp"
#include "mcsim/util/rng.hpp"
#include "pipeline.hpp"

namespace mcbench {
namespace {

using namespace mcsim;
using analysis::CcrPoint;
using analysis::DataModeMetrics;
using analysis::ProvisioningPoint;
using cloud::BillingGranularity;
using engine::DataMode;

constexpr double kMosaicDegrees[] = {1.0, 2.0, 4.0};
constexpr int kCcrTargets = 8;
constexpr int kCcrProcessors = 8;

/// One operation's figures.
struct Sweep {
  struct Mosaic {
    std::vector<ProvisioningPoint> perSecond, perHour;
    std::vector<DataModeMetrics> modes;  ///< RemoteIO, Regular, DynamicCleanup.
  };
  std::vector<Mosaic> mosaics;
  std::vector<double> ccrTargets;  ///< Sorted ascending.
  std::vector<CcrPoint> ccr;
};

bool same(const ProvisioningPoint& a, const ProvisioningPoint& b) {
  return a.processors == b.processors &&
         a.makespanSeconds == b.makespanSeconds &&
         a.cpuCost.value() == b.cpuCost.value() &&
         a.storageCost.value() == b.storageCost.value() &&
         a.storageCleanupCost.value() == b.storageCleanupCost.value() &&
         a.transferCost.value() == b.transferCost.value() &&
         a.totalCost.value() == b.totalCost.value() &&
         a.utilization == b.utilization;
}

bool same(const DataModeMetrics& a, const DataModeMetrics& b) {
  return a.mode == b.mode && a.makespanSeconds == b.makespanSeconds &&
         a.storageGBHours == b.storageGBHours &&
         a.bytesIn.value() == b.bytesIn.value() &&
         a.bytesOut.value() == b.bytesOut.value() &&
         a.storageCost.value() == b.storageCost.value() &&
         a.transferInCost.value() == b.transferInCost.value() &&
         a.transferOutCost.value() == b.transferOutCost.value() &&
         a.cpuCost.value() == b.cpuCost.value();
}

bool same(const CcrPoint& a, const CcrPoint& b) {
  return a.ccr == b.ccr && a.makespanSeconds == b.makespanSeconds &&
         a.cpuCost.value() == b.cpuCost.value() &&
         a.storageCost.value() == b.storageCost.value() &&
         a.storageCleanupCost.value() == b.storageCleanupCost.value() &&
         a.transferCost.value() == b.transferCost.value() &&
         a.totalCost.value() == b.totalCost.value();
}

template <class T>
bool same(const std::vector<T>& a, const std::vector<T>& b) {
  return std::equal(a.begin(), a.end(), b.begin(), b.end(),
                    [](const T& x, const T& y) { return same(x, y); });
}

runner::ScenarioSpec makeSpec(const dag::Workflow& wf, DataMode mode,
                              int processors) {
  runner::ScenarioSpec spec;
  spec.workflow = &wf;
  spec.config.mode = mode;
  spec.config.processors = processors;
  spec.label = wf.name() + "/" + engine::dataModeName(mode) + "/p" +
               std::to_string(processors);
  return spec;
}

class PaperSweep {
 public:
  explicit PaperSweep(const Options& options)
      : options_(options),
        pricing_(loadPricing()),
        queue_({.workers = poolWorkers(), .cache = &cache_}) {
    for (double degrees : kMosaicDegrees)
      mosaics_.push_back(montage::buildMontageWorkflow(degrees));
    const std::size_t ladder = analysis::defaultProcessorLadder().size();
    for (const dag::Workflow& wf : mosaics_)
      tasksPerOp_ += (4 * ladder + 3) * wf.taskCount();
    tasksPerOp_ += 2 * kCcrTargets * mosaics_.front().taskCount();
    Report warmup;
    run(0, warmup);
  }

  /// One paper sweep; its timing is the caller's.
  Sweep run(std::uint64_t op, Report& report) {
    cache_.clear();
    std::vector<double> targets;
    Rng rng(runner::deriveSeed(options_.seed, op));
    for (int i = 0; i < kCcrTargets; ++i)
      targets.push_back(
          std::exp(rng.uniformReal(std::log(0.05), std::log(5.0))));
    std::sort(targets.begin(), targets.end());

    LayerTimes layers;
    Sweep s = options_.trace ? traced(targets, layers, report)
                             : analysisSweep(targets, &queue_);
    const std::string tables = timed(layers.render, [&] { return render(s); });
    report.check(!tables.empty(), "paper_sweep: no tables rendered");
    report.tasksDelivered += tasksPerOp_;
    if (options_.trace) report.opLayers.push_back(layers);
    return s;
  }

  /// The paper's invariants, checked on every operation.
  void check(const Sweep& s, Report& report) const {
    for (std::size_t m = 0; m < s.mosaics.size(); ++m) {
      const Sweep::Mosaic& f = s.mosaics[m];
      const std::string name = mosaics_[m].name();
      for (std::size_t r = 0; r < f.perSecond.size(); ++r) {
        // Transfer cost does not depend on the processor count (Figs 4-6).
        report.check(f.perSecond[r].transferCost.value() ==
                         f.perSecond[0].transferCost.value(),
                     name + ": transfer cost varies with processors");
        report.check(f.perSecond[r].storageCleanupCost.value() <=
                         f.perSecond[r].storageCost.value(),
                     name + ": cleanup stores more than regular");
        report.check(f.perHour[r].makespanSeconds ==
                             f.perSecond[r].makespanSeconds &&
                         f.perHour[r].totalCost.value() >=
                             f.perSecond[r].totalCost.value(),
                     name + ": per-hour billing cheaper than per-second");
      }
      // Question 2a ordering: cleanup <= regular < remote I/O (Figs 7-9).
      report.check(f.modes.size() == 3 &&
                       f.modes[2].totalCost().value() <=
                           f.modes[1].totalCost().value() &&
                       f.modes[1].totalCost().value() <
                           f.modes[0].totalCost().value(),
                   name + ": data-mode cost ordering differs from the paper");
    }
    // More data per CPU second costs more to move (Fig 11).
    for (std::size_t i = 1; i < s.ccr.size(); ++i)
      report.check(s.ccr[i].transferCost.value() >=
                       s.ccr[i - 1].transferCost.value(),
                   "transfer cost falls as CCR rises");
  }

  /// `s` equals the analysis functions' serial, uncached code path.
  void checkAgainstSerial(const Sweep& s, Report& report) const {
    const Sweep serial = analysisSweep(s.ccrTargets, nullptr);
    bool equal = same(serial.ccr, s.ccr) &&
                 serial.mosaics.size() == s.mosaics.size();
    for (std::size_t m = 0; equal && m < s.mosaics.size(); ++m)
      equal = same(serial.mosaics[m].perSecond, s.mosaics[m].perSecond) &&
              same(serial.mosaics[m].perHour, s.mosaics[m].perHour) &&
              same(serial.mosaics[m].modes, s.mosaics[m].modes);
    report.check(equal, "paper_sweep: figures differ from a serial uncached "
                        "analysis run");
  }

 private:
  /// The figures through the analysis module; `queue` may be nullptr (the
  /// serial, uncached legacy path).
  Sweep analysisSweep(const std::vector<double>& targets,
                      runner::JobQueue* queue) const {
    Sweep s;
    s.ccrTargets = targets;
    for (const dag::Workflow& wf : mosaics_)
      s.mosaics.push_back(
          {.perSecond = analysis::provisioningSweep(
               wf, pricing_,
               {.granularity = BillingGranularity::PerSecond, .queue = queue}),
           .perHour = analysis::provisioningSweep(
               wf, pricing_,
               {.granularity = BillingGranularity::PerHour, .queue = queue}),
           .modes = analysis::dataModeComparison(wf, pricing_,
                                                 {.queue = queue})});
    s.ccr = analysis::ccrSweep(mosaics_.front(), pricing_,
                               {.ccrTargets = targets,
                                .processors = kCcrProcessors,
                                .queue = queue});
    return s;
  }

  /// The same figures from the benchmark's own serial calls into each
  /// layer.  Point assembly follows analysis/experiments.cpp;
  /// checkAgainstSerial holds the two equal.
  Sweep traced(const std::vector<double>& targets, LayerTimes& layers,
               Report& report) {
    Sweep s;
    s.ccrTargets = targets;
    for (const dag::Workflow& wf : mosaics_) {
      Sweep::Mosaic f;
      f.perSecond = provisioning(wf, BillingGranularity::PerSecond, layers,
                                 report);
      f.perHour = provisioning(wf, BillingGranularity::PerHour, layers, report);
      f.modes = modes(wf, layers, report);
      s.mosaics.push_back(std::move(f));
    }
    const std::vector<dag::Workflow> scaled = timed(layers.dag, [&] {
      std::vector<dag::Workflow> out;
      for (double target : targets) {
        out.push_back(mosaics_.front());
        montage::rescaleToCcr(out.back(), target,
                              engine::EngineConfig{}.linkBandwidthBytesPerSec);
      }
      return out;
    });
    std::vector<const dag::Workflow*> workflows;
    for (const dag::Workflow& wf : scaled) workflows.push_back(&wf);
    const std::vector<ProvisioningPoint> points = provisioning(
        workflows, std::vector<int>(scaled.size(), kCcrProcessors),
        BillingGranularity::PerSecond, layers, report);
    for (std::size_t i = 0; i < points.size(); ++i) {
      const ProvisioningPoint& p = points[i];
      s.ccr.push_back({.ccr = targets[i],
                       .makespanSeconds = p.makespanSeconds,
                       .cpuCost = p.cpuCost,
                       .storageCost = p.storageCost,
                       .storageCleanupCost = p.storageCleanupCost,
                       .transferCost = p.transferCost,
                       .totalCost = p.totalCost});
    }
    return s;
  }

  std::vector<ProvisioningPoint> provisioning(const dag::Workflow& wf,
                                              BillingGranularity granularity,
                                              LayerTimes& layers,
                                              Report& report) {
    const std::vector<int> ladder = analysis::defaultProcessorLadder();
    return provisioning(std::vector<const dag::Workflow*>(ladder.size(), &wf),
                        ladder, granularity, layers, report);
  }

  /// A Regular and a DynamicCleanup run of `wfs[i]` on `counts[i]`
  /// processors for every i.
  std::vector<ProvisioningPoint> provisioning(
      const std::vector<const dag::Workflow*>& wfs,
      const std::vector<int>& counts, BillingGranularity granularity,
      LayerTimes& layers, Report& report) {
    std::vector<runner::ScenarioSpec> specs;
    for (std::size_t i = 0; i < counts.size(); ++i) {
      specs.push_back(makeSpec(*wfs[i], DataMode::Regular, counts[i]));
      specs.push_back(makeSpec(*wfs[i], DataMode::DynamicCleanup, counts[i]));
    }
    const auto results = runBatch(specs, nullptr, cache_, layers, report);
    return timed(layers.price, [&] {
      std::vector<ProvisioningPoint> points;
      for (std::size_t i = 0; i < counts.size(); ++i) {
        const engine::ExecutionResult& regular = results[2 * i].result;
        const engine::ExecutionResult& cleanup = results[2 * i + 1].result;
        const cloud::CostBreakdown cost = engine::computeCost(
            regular, pricing_, cloud::CpuBillingMode::Provisioned,
            granularity);
        points.push_back(
            {.processors = counts[i],
             .makespanSeconds = regular.makespanSeconds,
             .cpuCost = cost.cpu,
             .storageCost = cost.storage,
             .storageCleanupCost =
                 pricing_.storageCost(cleanup.storageByteSeconds),
             .transferCost = cost.transfer(),
             .totalCost = cost.total(),
             .utilization = regular.utilization()});
      }
      return points;
    });
  }

  std::vector<DataModeMetrics> modes(const dag::Workflow& wf,
                                     LayerTimes& layers, Report& report) {
    const int processors = timed(layers.dag, [&] {
      return static_cast<int>(
          std::max<std::size_t>(1, dag::maxParallelism(wf)));
    });
    std::vector<runner::ScenarioSpec> specs;
    for (DataMode mode :
         {DataMode::RemoteIO, DataMode::Regular, DataMode::DynamicCleanup})
      specs.push_back(makeSpec(wf, mode, processors));
    const auto results = runBatch(specs, nullptr, cache_, layers, report);
    return timed(layers.price, [&] {
      std::vector<DataModeMetrics> rows;
      for (const runner::ScenarioResult& scenario : results) {
        const engine::ExecutionResult& r = scenario.result;
        const cloud::CostBreakdown cost =
            engine::computeCost(r, pricing_, cloud::CpuBillingMode::Usage);
        rows.push_back({.mode = r.mode,
                        .makespanSeconds = r.makespanSeconds,
                        .storageGBHours = r.storageGBHours(),
                        .bytesIn = r.bytesIn,
                        .bytesOut = r.bytesOut,
                        .storageCost = cost.storage,
                        .transferInCost = cost.transferIn,
                        .transferOutCost = cost.transferOut,
                        .cpuCost = cost.cpu});
      }
      return rows;
    });
  }

  /// The figure drivers' tables for `s`, as one text.
  static std::string render(const Sweep& s) {
    std::ostringstream out;
    for (const Sweep::Mosaic& f : s.mosaics) {
      analysis::provisioningTable(f.perSecond).print(out);
      analysis::provisioningTable(f.perHour).print(out);
      analysis::dataModeTable(f.modes).print(out);
    }
    analysis::ccrTable(s.ccr).print(out);
    return out.str();
  }

  Options options_;
  cloud::Pricing pricing_;
  std::vector<dag::Workflow> mosaics_;
  std::uint64_t tasksPerOp_ = 0;  ///< Workflow tasks the figures cover.
  runner::ScenarioMemoCache cache_;
  runner::JobQueue queue_;  // Last: its workers use the cache above.
};

}  // namespace

Report runPaperSweep(const Options& options) {
  Report report;
  const std::unique_ptr<PaperSweep> bench =
      bringUp<PaperSweep>(options, report);
  std::optional<Sweep> first;
  const auto start = Clock::now();
  for (std::uint64_t op = 0;
       op == 0 || secondsSince(start) < options.seconds; ++op) {
    const auto t0 = Clock::now();
    Sweep s = bench->run(op, report);
    report.opSeconds.push_back(secondsSince(t0));
    bench->check(s, report);
    if (!first) first = std::move(s);
  }
  report.windowSeconds = secondsSince(start);
  bench->checkAgainstSerial(*first, report);
  return report;
}

}  // namespace mcbench
