#include "mcsim/obs/jsonl.hpp"

#include "mcsim/obs/json_write.hpp"

namespace mcsim::obs {
namespace {

/// "task":<id> with kNoTask rendered as null (workflow-level attribution).
void taskField(std::ostream& os, std::uint32_t task) {
  os << ",\"task\":";
  if (task == kNoTask) os << "null";
  else os << task;
}

struct Writer {
  std::ostream& os;

  void operator()(const SimEventScheduled& p) {
    os << ",\"event\":" << p.event << ",\"fire_at\":";
    os << JsonNumber{p.fireAt};
  }
  void operator()(const SimEventFired& p) { os << ",\"event\":" << p.event; }
  void operator()(const SimEventCancelled& p) {
    os << ",\"event\":" << p.event;
  }
  void operator()(const TransferStarted& p) {
    os << ",\"transfer\":" << p.transfer << ",\"bytes\":";
    os << JsonNumber{p.bytes};
    os << ",\"active\":" << p.active;
  }
  void operator()(const TransferProgress& p) {
    os << ",\"transfer\":" << p.transfer << ",\"remaining_bytes\":";
    os << JsonNumber{p.remainingBytes};
  }
  void operator()(const TransferFinished& p) {
    os << ",\"transfer\":" << p.transfer << ",\"bytes\":";
    os << JsonNumber{p.bytes};
    os << ",\"seconds\":";
    os << JsonNumber{p.seconds};
  }
  void operator()(const LinkShareChanged& p) {
    os << ",\"active\":" << p.active << ",\"bytes_per_second_each\":";
    os << JsonNumber{p.bytesPerSecondEach};
  }
  void operator()(const LinkSuspended&) {}
  void operator()(const LinkResumed&) {}
  void operator()(const ProcessorClaimed& p) {
    os << ",\"busy\":" << p.busy << ",\"total\":" << p.total
       << ",\"queued\":" << p.queued;
  }
  void operator()(const ProcessorReleased& p) {
    os << ",\"busy\":" << p.busy << ",\"total\":" << p.total
       << ",\"queued\":" << p.queued;
  }
  void operator()(const StorageFilePut& p) {
    os << ",\"key\":" << p.key << ",\"bytes\":";
    os << JsonNumber{p.bytes};
    os << ",\"resident_bytes\":";
    os << JsonNumber{p.residentBytes};
    os << ",\"objects\":" << p.objects;
  }
  void operator()(const StorageFileErased& p) {
    os << ",\"key\":" << p.key << ",\"bytes\":";
    os << JsonNumber{p.bytes};
    os << ",\"resident_bytes\":";
    os << JsonNumber{p.residentBytes};
    os << ",\"objects\":" << p.objects;
  }
  void operator()(const StorageSampled& p) {
    os << ",\"resident_bytes\":";
    os << JsonNumber{p.residentBytes};
    os << ",\"objects\":" << p.objects;
  }
  void operator()(const RunStarted& p) {
    os << ",\"tasks\":" << p.tasks << ",\"files\":" << p.files
       << ",\"processors\":" << p.processors;
  }
  void operator()(const RunFinished& p) {
    os << ",\"seconds\":";
    os << JsonNumber{p.seconds};
  }
  void operator()(const TaskReady& p) { os << ",\"task\":" << p.task; }
  void operator()(const TaskStarted& p) { os << ",\"task\":" << p.task; }
  void operator()(const TaskExecStarted& p) { os << ",\"task\":" << p.task; }
  void operator()(const TaskFinished& p) {
    os << ",\"task\":" << p.task << ",\"cpu_seconds\":";
    os << JsonNumber{p.cpuSeconds};
  }
  void operator()(const TaskRetried& p) { os << ",\"task\":" << p.task; }
  void operator()(const TaskBlocked& p) { os << ",\"task\":" << p.task; }
  void operator()(const StageInStarted& p) { stage(p.file, p.task, p.bytes); }
  void operator()(const StageInFinished& p) { stage(p.file, p.task, p.bytes); }
  void operator()(const StageOutStarted& p) { stage(p.file, p.task, p.bytes); }
  void operator()(const StageOutFinished& p) { stage(p.file, p.task, p.bytes); }
  void operator()(const FileCleanupDeleted& p) {
    stage(p.file, p.task, p.bytes);
  }
  void operator()(const BillingLineItem& p) {
    os << ",\"resource\":\"" << resourceName(p.resource) << '"';
    taskField(os, p.task);
    os << ",\"quantity\":";
    os << JsonNumber{p.quantity};
  }
  void operator()(const LogEmitted& p) {
    os << ",\"level\":" << p.level << ",\"message\":";
    os << JsonString{p.message};
  }
  void operator()(const ProcessorCrashed& p) {
    os << ",\"task\":" << p.task << ",\"wasted_seconds\":";
    os << JsonNumber{p.wastedSeconds};
  }
  void operator()(const TaskRetryScheduled& p) {
    os << ",\"task\":" << p.task << ",\"attempt\":" << p.attempt
       << ",\"delay_seconds\":";
    os << JsonNumber{p.delaySeconds};
  }
  void operator()(const TaskFailed& p) {
    os << ",\"task\":" << p.task << ",\"attempts\":" << p.attempts;
  }
  void operator()(const TaskAbandoned& p) {
    os << ",\"task\":" << p.task << ",\"ancestor\":" << p.ancestor;
  }
  void operator()(const StorageOutageStarted&) {}
  void operator()(const StorageOutageEnded&) {}
  void operator()(const DeadlineExceeded& p) {
    os << ",\"unfinished_tasks\":" << p.unfinishedTasks;
  }
  void operator()(const ScenarioCacheStats& p) {
    os << ",\"hits\":" << p.hits << ",\"misses\":" << p.misses
       << ",\"entries\":" << p.entries << ",\"evictions\":" << p.evictions
       << ",\"bytes\":" << p.bytes << ",\"hit_rate\":";
    os << JsonNumber{p.hitRate};
  }
  void operator()(const PhaseProfile& p) {
    os << ",\"phase\":" << static_cast<int>(p.phase) << ",\"wall_seconds\":";
    os << JsonNumber{p.wallSeconds};
  }

  void stage(std::uint32_t file, std::uint32_t task, double bytes) {
    os << ",\"file\":" << file;
    taskField(os, task);
    os << ",\"bytes\":";
    os << JsonNumber{bytes};
  }
};

}  // namespace

void writeEventJson(std::ostream& os, const Event& event) {
  os << "{\"t\":";
  os << JsonNumber{event.time};
  os << ",\"type\":\"" << eventName(kind(event)) << '"';
  std::visit(Writer{os}, event.payload);
  os << '}';
}

void JsonlSink::onEvent(const Event& event) {
  writeEventJson(os_, event);
  os_ << '\n';
  ++written_;
}

}  // namespace mcsim::obs
