#include "mcsim/obs/report.hpp"

#include <algorithm>
#include <cmath>
#include <map>

#include "mcsim/obs/json_write.hpp"

namespace mcsim::obs {
namespace {

AttributedCost price(const ResourceUsage& usage,
                     const cloud::Pricing& pricing) {
  AttributedCost cost;
  cost.usage = usage;
  cost.cpu = pricing.cpuCost(usage.cpuSeconds);
  cost.storage = pricing.storageCost(usage.storageByteSeconds);
  cost.transferIn = pricing.transferInCost(Bytes(usage.bytesIn));
  cost.transferOut = pricing.transferOutCost(Bytes(usage.bytesOut));
  return cost;
}

void writeCostFields(std::ostream& os, const AttributedCost& c) {
  os << "\"cpu_seconds\":" << JsonNumber{c.usage.cpuSeconds}
     << ",\"storage_byte_seconds\":" << JsonNumber{c.usage.storageByteSeconds}
     << ",\"bytes_in\":" << JsonNumber{c.usage.bytesIn}
     << ",\"bytes_out\":" << JsonNumber{c.usage.bytesOut}
     << ",\"cpu\":" << JsonNumber{c.cpu.value()}
     << ",\"storage\":" << JsonNumber{c.storage.value()}
     << ",\"transfer_in\":" << JsonNumber{c.transferIn.value()}
     << ",\"transfer_out\":" << JsonNumber{c.transferOut.value()}
     << ",\"total\":" << JsonNumber{c.total().value()};
}

}  // namespace

void ResourceUsage::add(Resource resource, double quantity) {
  switch (resource) {
    case Resource::Cpu: cpuSeconds += quantity; break;
    case Resource::Storage: storageByteSeconds += quantity; break;
    case Resource::TransferIn: bytesIn += quantity; break;
    case Resource::TransferOut: bytesOut += quantity; break;
  }
}

void ReportBuilder::onEvent(const Event& event) {
  if (const auto* item = std::get_if<BillingLineItem>(&event.payload))
    usage_[item->task].add(item->resource, item->quantity);
}

RunReport ReportBuilder::build(const dag::Workflow& wf,
                               const engine::ExecutionResult& result,
                               const cloud::Pricing& pricing,
                               cloud::CpuBillingMode cpuMode,
                               cloud::BillingGranularity granularity) const {
  RunReport report;
  report.workflow = wf.name();
  report.mode = engine::dataModeName(result.mode);
  report.billing =
      cpuMode == cloud::CpuBillingMode::Provisioned ? "provisioned" : "usage";
  report.processors = result.processors;
  report.makespanSeconds = result.makespanSeconds;
  report.cpuBusySeconds = result.cpuBusySeconds;
  report.bytesIn = result.bytesIn.value();
  report.bytesOut = result.bytesOut.value();
  report.storageGBHours = result.storageGBHours();
  report.peakStorageBytes = result.peakStorageBytes.value();
  report.tasksExecuted = result.tasksExecuted;
  report.taskRetries = result.taskRetries;
  report.tasksFailed = result.tasksFailed;
  report.tasksAbandoned = result.tasksAbandoned;
  report.processorCrashes = result.processorCrashes;
  report.wastedCpuSeconds = result.wastedCpuSeconds;
  report.deadlineExceeded = result.deadlineExceeded;

  report.totals = engine::computeCost(result, pricing, cpuMode, granularity);

  // Per-task and staging attribution, priced from the raw line items.
  std::map<int, LevelCost> levels;  // ordered: deterministic output
  Money attributedCpu;
  for (const auto& [task, usage] : usage_) {
    const AttributedCost cost = price(usage, pricing);
    attributedCpu += cost.cpu;
    if (task == kNoTask) {
      report.staging = cost;
      continue;
    }
    TaskCost entry;
    entry.task = task;
    const dag::Task& t = wf.task(task);
    entry.name = t.name;
    entry.type = t.type;
    entry.level = t.level;
    entry.cost = cost;
    report.byTask.push_back(std::move(entry));
  }
  std::sort(report.byTask.begin(), report.byTask.end(),
            [](const TaskCost& a, const TaskCost& b) { return a.task < b.task; });

  // Section is omitted only when staging never happened at all — every
  // field still exactly its zero initializer.
  // mcsim-lint: allow(float-equality)
  if (report.staging.total().value() != 0.0 ||
      report.staging.usage.bytesIn != 0.0) {  // mcsim-lint: allow(float-equality)
    LevelCost& l0 = levels[0];
    l0.level = 0;
    l0.cost.usage = report.staging.usage;
  }
  for (const TaskCost& t : report.byTask) {
    LevelCost& l = levels[t.level];
    l.level = t.level;
    ++l.tasks;
    ResourceUsage& u = l.cost.usage;
    u.cpuSeconds += t.cost.usage.cpuSeconds;
    u.storageByteSeconds += t.cost.usage.storageByteSeconds;
    u.bytesIn += t.cost.usage.bytesIn;
    u.bytesOut += t.cost.usage.bytesOut;
  }
  for (auto& [level, entry] : levels) {
    const ResourceUsage u = entry.cost.usage;
    entry.cost = price(u, pricing);
    report.byLevel.push_back(entry);
  }

  report.unattributedCpu = report.totals.cpu - attributedCpu;
  if (std::abs(report.unattributedCpu.value()) < 1e-9)
    report.unattributedCpu = Money::zero();
  return report;
}

void writeReportJson(std::ostream& os, const RunReport& r) {
  os << "{\n";
  os << "  \"schema\": \"mcsim.report.v1\",\n";
  os << "  \"workflow\": " << JsonString{r.workflow} << ",\n";
  os << "  \"mode\": \"" << r.mode << "\",\n";
  os << "  \"billing\": \"" << r.billing << "\",\n";
  os << "  \"processors\": " << r.processors << ",\n";
  os << "  \"metrics\": {\"makespan_seconds\":" << JsonNumber{r.makespanSeconds}
     << ",\"cpu_busy_seconds\":" << JsonNumber{r.cpuBusySeconds}
     << ",\"bytes_in\":" << JsonNumber{r.bytesIn}
     << ",\"bytes_out\":" << JsonNumber{r.bytesOut}
     << ",\"storage_gb_hours\":" << JsonNumber{r.storageGBHours}
     << ",\"peak_storage_bytes\":" << JsonNumber{r.peakStorageBytes}
     << ",\"tasks_executed\":" << r.tasksExecuted
     << ",\"task_retries\":" << r.taskRetries
     << ",\"tasks_failed\":" << r.tasksFailed
     << ",\"tasks_abandoned\":" << r.tasksAbandoned
     << ",\"processor_crashes\":" << r.processorCrashes
     << ",\"wasted_cpu_seconds\":" << JsonNumber{r.wastedCpuSeconds}
     << ",\"deadline_exceeded\":" << (r.deadlineExceeded ? "true" : "false")
     << "},\n";
  os << "  \"totals\": {\"cpu\":" << JsonNumber{r.totals.cpu.value()}
     << ",\"storage\":" << JsonNumber{r.totals.storage.value()}
     << ",\"transfer_in\":" << JsonNumber{r.totals.transferIn.value()}
     << ",\"transfer_out\":" << JsonNumber{r.totals.transferOut.value()}
     << ",\"total\":" << JsonNumber{r.totals.total().value()} << "},\n";
  os << "  \"unattributed_cpu\": " << JsonNumber{r.unattributedCpu.value()}
     << ",\n";
  os << "  \"staging\": {";
  writeCostFields(os, r.staging);
  os << "},\n";
  os << "  \"by_task\": [\n";
  for (std::size_t i = 0; i < r.byTask.size(); ++i) {
    const TaskCost& t = r.byTask[i];
    os << "    {\"task\":" << t.task << ",\"name\":" << JsonString{t.name}
       << ",\"type\":" << JsonString{t.type} << ",\"level\":" << t.level
       << ',';
    writeCostFields(os, t.cost);
    os << '}' << (i + 1 < r.byTask.size() ? "," : "") << '\n';
  }
  os << "  ],\n";
  os << "  \"by_level\": [\n";
  for (std::size_t i = 0; i < r.byLevel.size(); ++i) {
    const LevelCost& l = r.byLevel[i];
    os << "    {\"level\":" << l.level << ",\"tasks\":" << l.tasks << ',';
    writeCostFields(os, l.cost);
    os << '}' << (i + 1 < r.byLevel.size() ? "," : "") << '\n';
  }
  os << "  ]\n";
  os << "}\n";
}

}  // namespace mcsim::obs
