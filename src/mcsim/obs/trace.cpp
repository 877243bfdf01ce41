#include "mcsim/obs/trace.hpp"

#include <algorithm>
#include <cstring>
#include <istream>
#include <ostream>
#include <stdexcept>

#include "mcsim/obs/json_write.hpp"

namespace mcsim::obs {

const char* spanKindName(SpanKind kind) {
  switch (kind) {
    case SpanKind::Run: return "run";
    case SpanKind::QueueWait: return "queue_wait";
    case SpanKind::Task: return "task";
    case SpanKind::Compute: return "compute";
    case SpanKind::StageIn: return "stage_in";
    case SpanKind::StageOut: return "stage_out";
    case SpanKind::RetryWait: return "retry_wait";
    case SpanKind::OutageStall: return "outage_stall";
  }
  return "unknown";
}

const char* edgeKindName(EdgeKind kind) {
  switch (kind) {
    case EdgeKind::Child: return "child";
    case EdgeKind::FollowsFrom: return "follows_from";
    case EdgeKind::Resource: return "resource";
  }
  return "unknown";
}

// -- TraceStore ---------------------------------------------------------------

void TraceStore::reserve(std::size_t spans, std::size_t edges,
                         std::size_t counters) {
  spanKind_.reserve(spans);
  spanFlags_.reserve(spans);
  spanBegin_.reserve(spans);
  spanEnd_.reserve(spans);
  spanTask_.reserve(spans);
  spanFile_.reserve(spans);
  spanBytes_.reserve(spans);
  spanLane_.reserve(spans);
  edgeFrom_.reserve(edges);
  edgeTo_.reserve(edges);
  edgeKind_.reserve(edges);
  counterTime_.reserve(counters);
  counterBytes_.reserve(counters);
  counterObjects_.reserve(counters);
}

std::uint32_t TraceStore::beginSpan(SpanKind kind, double begin,
                                    std::uint32_t task, std::uint32_t file,
                                    double bytes, std::int32_t lane) {
  const std::uint32_t id = static_cast<std::uint32_t>(spanKind_.size());
  spanKind_.push_back(static_cast<std::uint8_t>(kind));
  spanFlags_.push_back(0);
  spanBegin_.push_back(begin);
  spanEnd_.push_back(-1.0);
  spanTask_.push_back(task);
  spanFile_.push_back(file);
  spanBytes_.push_back(bytes);
  spanLane_.push_back(lane);
  if (lane >= 0 && lane + 1 > laneCount_) laneCount_ = lane + 1;
  note(begin);
  return id;
}

void TraceStore::endSpan(std::uint32_t span, double end) {
  spanEnd_[span] = end;
  note(end);
}

void TraceStore::markFailed(std::uint32_t span) {
  spanFlags_[span] |= kSpanFlagFailed;
}

void TraceStore::addEdge(std::uint32_t from, std::uint32_t to, EdgeKind kind) {
  edgeFrom_.push_back(from);
  edgeTo_.push_back(to);
  edgeKind_.push_back(static_cast<std::uint8_t>(kind));
}

void TraceStore::addCounterSample(double time, double residentBytes,
                                  double objects) {
  counterTime_.push_back(time);
  counterBytes_.push_back(residentBytes);
  counterObjects_.push_back(objects);
  note(time);
}

bool TraceStore::operator==(const TraceStore& other) const {
  return spanKind_ == other.spanKind_ && spanFlags_ == other.spanFlags_ &&
         spanBegin_ == other.spanBegin_ && spanEnd_ == other.spanEnd_ &&
         spanTask_ == other.spanTask_ && spanFile_ == other.spanFile_ &&
         spanBytes_ == other.spanBytes_ && spanLane_ == other.spanLane_ &&
         edgeFrom_ == other.edgeFrom_ && edgeTo_ == other.edgeTo_ &&
         edgeKind_ == other.edgeKind_ && counterTime_ == other.counterTime_ &&
         counterBytes_ == other.counterBytes_ &&
         counterObjects_ == other.counterObjects_;
}

// -- SpanSink -----------------------------------------------------------------

namespace {

std::uint64_t stageKey(std::uint32_t task, std::uint32_t file) {
  return (static_cast<std::uint64_t>(task) << 32) | file;
}

}  // namespace

SpanSink::SpanSink(TraceStore& store, TraceTopology topology)
    : store_(store), topo_(std::move(topology)) {}

bool SpanSink::accepts(EventKind kind) const {
  switch (kind) {
    case EventKind::RunStarted:
    case EventKind::RunFinished:
    case EventKind::TaskReady:
    case EventKind::TaskStarted:
    case EventKind::TaskExecStarted:
    case EventKind::TaskFinished:
    case EventKind::TaskRetryScheduled:
    case EventKind::TaskFailed:
    case EventKind::ProcessorCrashed:
    case EventKind::StageInStarted:
    case EventKind::StageInFinished:
    case EventKind::StageOutStarted:
    case EventKind::StageOutFinished:
    case EventKind::LinkSuspended:
    case EventKind::LinkResumed:
    case EventKind::StorageFilePut:
    case EventKind::StorageFileErased:
    case EventKind::StorageSampled:
      return true;
    default:
      return false;
  }
}

void SpanSink::ensureTask(std::uint32_t task) {
  if (task == kNoTask) return;
  if (task < queueSpan_.size()) return;
  const std::size_t n = static_cast<std::size_t>(task) + 1;
  queueSpan_.resize(n, kNoSpan);
  taskSpan_.resize(n, kNoSpan);
  computeSpan_.resize(n, kNoSpan);
  closedTaskSpan_.resize(n, kNoSpan);
  taskLane_.resize(n, kLaneNone);
}

void SpanSink::onTaskReady(double t, std::uint32_t task) {
  ensureTask(task);
  const std::uint32_t qw =
      store_.beginSpan(SpanKind::QueueWait, t, task, kNoFile, 0.0, kLaneNone);
  queueSpan_[task] = qw;
  // Dependency causality: the parent Task spans and external-input stage-in
  // spans whose completion made this task ready.
  if (!topo_.empty() && task + 1 < topo_.parentOffsets.size()) {
    for (std::uint32_t i = topo_.parentOffsets[task];
         i < topo_.parentOffsets[task + 1]; ++i) {
      const std::uint32_t parent = topo_.parents[i];
      if (parent < closedTaskSpan_.size() &&
          closedTaskSpan_[parent] != kNoSpan)
        store_.addEdge(closedTaskSpan_[parent], qw, EdgeKind::FollowsFrom);
    }
  }
  if (task + 1 < topo_.extInputOffsets.size()) {
    for (std::uint32_t i = topo_.extInputOffsets[task];
         i < topo_.extInputOffsets[task + 1]; ++i) {
      const std::uint32_t f = topo_.extInputs[i];
      if (f < extStageSpan_.size() && extStageSpan_[f] != kNoSpan)
        store_.addEdge(extStageSpan_[f], qw, EdgeKind::FollowsFrom);
    }
  }
}

std::int32_t SpanSink::claimLane(std::uint32_t queueSpan) {
  std::int32_t lane;
  if (!freeLanes_.empty()) {
    lane = freeLanes_.back();  // sorted descending: back is the lowest
    freeLanes_.pop_back();
  } else {
    lane = nextLane_++;
    lanePrev_.resize(static_cast<std::size_t>(nextLane_), kNoSpan);
  }
  // Contention causality: the lane's previous occupant had to finish before
  // this task's queue wait could end.
  const std::uint32_t prev = lanePrev_[static_cast<std::size_t>(lane)];
  if (prev != kNoSpan && queueSpan != kNoSpan)
    store_.addEdge(prev, queueSpan, EdgeKind::Resource);
  return lane;
}

void SpanSink::freeLane(std::int32_t lane) {
  if (lane < 0) return;
  const auto it = std::lower_bound(freeLanes_.begin(), freeLanes_.end(), lane,
                                   std::greater<std::int32_t>());
  freeLanes_.insert(it, lane);
}

void SpanSink::onTaskStarted(double t, std::uint32_t task) {
  ensureTask(task);
  const std::uint32_t qw = queueSpan_[task];
  if (qw != kNoSpan && store_.isOpen(qw)) store_.endSpan(qw, t);
  const std::int32_t lane = claimLane(qw);
  const std::uint32_t span =
      store_.beginSpan(SpanKind::Task, t, task, kNoFile, 0.0, lane);
  if (qw != kNoSpan) store_.addEdge(qw, span, EdgeKind::FollowsFrom);
  taskSpan_[task] = span;
  taskLane_[task] = lane;
  lanePrev_[static_cast<std::size_t>(lane)] = span;
}

void SpanSink::onTaskExecStarted(double t, std::uint32_t task) {
  ensureTask(task);
  const std::uint32_t span = store_.beginSpan(SpanKind::Compute, t, task,
                                              kNoFile, 0.0, taskLane_[task]);
  if (taskSpan_[task] != kNoSpan)
    store_.addEdge(taskSpan_[task], span, EdgeKind::Child);
  computeSpan_[task] = span;
}

void SpanSink::closeCompute(double t, std::uint32_t task, bool failed) {
  if (task >= computeSpan_.size()) return;
  const std::uint32_t span = computeSpan_[task];
  if (span == kNoSpan) return;
  store_.endSpan(span, t);
  if (failed) store_.markFailed(span);
  computeSpan_[task] = kNoSpan;
}

void SpanSink::onTaskDone(double t, std::uint32_t task, bool failed) {
  ensureTask(task);
  closeCompute(t, task, failed);
  const std::uint32_t span = taskSpan_[task];
  if (span != kNoSpan) {
    store_.endSpan(span, t);
    if (failed) store_.markFailed(span);
    closedTaskSpan_[task] = span;
    if (!failed) lastClosedTask_ = span;
    taskSpan_[task] = kNoSpan;
  }
  freeLane(taskLane_[task]);
  taskLane_[task] = kLaneNone;
}

void SpanSink::onStageStarted(SpanKind kind, double t, std::uint32_t file,
                              std::uint32_t task, double bytes) {
  ensureTask(task);
  // Task-attributed staging (remote I/O) holds the task's processor for the
  // duration, so the span lives on the task's lane and nests under its Task
  // span; workflow-level staging lives on the shared link lane.
  std::int32_t lane = kLaneLink;
  if (task != kNoTask && taskLane_[task] >= 0) lane = taskLane_[task];
  const std::uint32_t span = store_.beginSpan(kind, t, task, file, bytes, lane);
  if (task != kNoTask && taskSpan_[task] != kNoSpan)
    store_.addEdge(taskSpan_[task], span, EdgeKind::Child);
  if (kind == SpanKind::StageOut && task == kNoTask &&
      lastClosedTask_ != kNoSpan)
    store_.addEdge(lastClosedTask_, span, EdgeKind::FollowsFrom);
  openStage_[stageKey(task, file)] = span;
}

void SpanSink::onStageFinished(double t, std::uint32_t file,
                               std::uint32_t task) {
  const auto it = openStage_.find(stageKey(task, file));
  if (it == openStage_.end()) return;
  const std::uint32_t span = it->second;
  openStage_.erase(it);
  store_.endSpan(span, t);
  if (task == kNoTask && store_.kind(span) == SpanKind::StageIn) {
    if (file >= extStageSpan_.size())
      extStageSpan_.resize(static_cast<std::size_t>(file) + 1, kNoSpan);
    extStageSpan_[file] = span;
  }
}

void SpanSink::onEvent(const Event& event) {
  const double t = event.time;
  switch (obs::kind(event)) {
    case EventKind::RunStarted: {
      const auto& p = std::get<RunStarted>(event.payload);
      if (p.tasks > 0) ensureTask(static_cast<std::uint32_t>(p.tasks - 1));
      extStageSpan_.assign(p.files, kNoSpan);
      // Typical fault-free shape: queue-wait + task + compute per task, one
      // stage span per file, plus the run span; each task contributes its
      // dependency edges plus qw->task, task->compute and a resource edge,
      // and the storage counter sees at most a put and an erase per file.
      // Pre-size all the columns so the hot path never reallocates mid-run.
      store_.reserve(3 * p.tasks + p.files + 8,
                     topo_.parents.size() + topo_.extInputs.size() +
                         3 * p.tasks + p.files + 8,
                     2 * p.files + 64);
      runSpan_ = store_.beginSpan(SpanKind::Run, t, kNoTask, kNoFile, 0.0,
                                  kLaneNone);
      break;
    }
    case EventKind::RunFinished:
      if (runSpan_ != kNoSpan && store_.isOpen(runSpan_))
        store_.endSpan(runSpan_, t);
      break;
    case EventKind::TaskReady:
      onTaskReady(t, std::get<TaskReady>(event.payload).task);
      break;
    case EventKind::TaskStarted:
      onTaskStarted(t, std::get<TaskStarted>(event.payload).task);
      break;
    case EventKind::TaskExecStarted:
      onTaskExecStarted(t, std::get<TaskExecStarted>(event.payload).task);
      break;
    case EventKind::TaskFinished:
      onTaskDone(t, std::get<TaskFinished>(event.payload).task, false);
      break;
    case EventKind::TaskFailed:
      onTaskDone(t, std::get<TaskFailed>(event.payload).task, true);
      break;
    case EventKind::ProcessorCrashed:
      closeCompute(t, std::get<ProcessorCrashed>(event.payload).task, true);
      break;
    case EventKind::TaskRetryScheduled: {
      const auto& p = std::get<TaskRetryScheduled>(event.payload);
      ensureTask(p.task);
      const std::uint32_t span =
          store_.beginSpan(SpanKind::RetryWait, t, p.task, kNoFile, 0.0,
                           taskLane_[p.task]);
      store_.endSpan(span, t + p.delaySeconds);
      if (taskSpan_[p.task] != kNoSpan)
        store_.addEdge(taskSpan_[p.task], span, EdgeKind::Child);
      break;
    }
    case EventKind::StageInStarted: {
      const auto& p = std::get<StageInStarted>(event.payload);
      onStageStarted(SpanKind::StageIn, t, p.file, p.task, p.bytes);
      break;
    }
    case EventKind::StageInFinished: {
      const auto& p = std::get<StageInFinished>(event.payload);
      onStageFinished(t, p.file, p.task);
      break;
    }
    case EventKind::StageOutStarted: {
      const auto& p = std::get<StageOutStarted>(event.payload);
      // Remote I/O: the first output leaving marks the end of computation —
      // there is no separate exec-end event.
      if (p.task != kNoTask) closeCompute(t, p.task, false);
      onStageStarted(SpanKind::StageOut, t, p.file, p.task, p.bytes);
      break;
    }
    case EventKind::StageOutFinished: {
      const auto& p = std::get<StageOutFinished>(event.payload);
      onStageFinished(t, p.file, p.task);
      break;
    }
    case EventKind::LinkSuspended:
      outageSpan_ = store_.beginSpan(SpanKind::OutageStall, t, kNoTask,
                                     kNoFile, 0.0, kLaneLink);
      break;
    case EventKind::LinkResumed:
      if (outageSpan_ != kNoSpan && store_.isOpen(outageSpan_))
        store_.endSpan(outageSpan_, t);
      outageSpan_ = kNoSpan;
      break;
    case EventKind::StorageFilePut: {
      const auto& p = std::get<StorageFilePut>(event.payload);
      store_.addCounterSample(t, p.residentBytes,
                              static_cast<double>(p.objects));
      break;
    }
    case EventKind::StorageFileErased: {
      const auto& p = std::get<StorageFileErased>(event.payload);
      store_.addCounterSample(t, p.residentBytes,
                              static_cast<double>(p.objects));
      break;
    }
    case EventKind::StorageSampled: {
      const auto& p = std::get<StorageSampled>(event.payload);
      store_.addCounterSample(t, p.residentBytes,
                              static_cast<double>(p.objects));
      break;
    }
    default:
      break;
  }
}

// -- Perfetto / Chrome trace-event export -------------------------------------

namespace {

constexpr int kPidProcessors = 1;
constexpr int kPidLink = 2;
constexpr int kPidQueue = 3;
constexpr int kPidRun = 4;

/// Greedy sub-lane packing for spans that share one logical resource (link
/// transfers, queue waits): spans sorted by begin take the lowest sub-lane
/// free at their begin.
std::vector<int> packLanes(const TraceStore& store,
                           const std::vector<std::uint32_t>& spans,
                           int* laneCountOut) {
  std::vector<std::uint32_t> order = spans;
  std::sort(order.begin(), order.end(),
            [&](std::uint32_t a, std::uint32_t b) {
              if (store.begin(a) != store.begin(b))
                return store.begin(a) < store.begin(b);
              return a < b;
            });
  std::vector<double> freeAt;
  std::vector<int> lane(store.spanCount(), 0);
  for (std::uint32_t s : order) {
    const double b = store.begin(s);
    const double e = store.isOpen(s) ? store.maxTime() : store.end(s);
    int chosen = -1;
    for (std::size_t l = 0; l < freeAt.size(); ++l) {
      if (freeAt[l] <= b + 1e-12) {
        chosen = static_cast<int>(l);
        break;
      }
    }
    if (chosen < 0) {
      chosen = static_cast<int>(freeAt.size());
      freeAt.push_back(0.0);
    }
    freeAt[static_cast<std::size_t>(chosen)] = e;
    lane[s] = chosen;
  }
  if (laneCountOut != nullptr) *laneCountOut = static_cast<int>(freeAt.size());
  return lane;
}

std::string spanDisplayName(const TraceStore& store, std::uint32_t s,
                            const TraceNames* names) {
  const SpanKind k = store.kind(s);
  const std::uint32_t task = store.task(s);
  const std::uint32_t file = store.file(s);
  switch (k) {
    case SpanKind::Run: return "run";
    case SpanKind::OutageStall: return "outage";
    case SpanKind::Compute: return "exec";
    case SpanKind::RetryWait: return "retry wait";
    case SpanKind::QueueWait:
    case SpanKind::Task:
      if (names != nullptr && task < names->taskNames.size())
        return names->taskNames[task];
      return "task " + std::to_string(task);
    case SpanKind::StageIn:
    case SpanKind::StageOut:
      if (names != nullptr && file < names->fileNames.size())
        return names->fileNames[file];
      return "file " + std::to_string(file);
  }
  return "span";
}

void writeMeta(std::ostream& os, const char* what, int pid, int tid,
               const std::string& name, bool* first) {
  if (!*first) os << ",\n";
  *first = false;
  os << "  {\"ph\":\"M\",\"pid\":" << pid;
  if (tid >= 0) os << ",\"tid\":" << tid;
  os << ",\"name\":\"" << what << "\",\"args\":{\"name\":";
  os << JsonString{name};
  os << "}}";
}

}  // namespace

void writePerfettoTrace(std::ostream& os, const TraceStore& store,
                        const TraceNames* names) {
  // Partition spans across processes: processor lanes (tasks and their
  // nested sub-spans), the shared link, the scheduler queue, and the run
  // marker.
  std::vector<std::uint32_t> linkSpans;
  std::vector<std::uint32_t> queueSpans;
  for (std::uint32_t s = 0; s < store.spanCount(); ++s) {
    if (store.kind(s) == SpanKind::QueueWait) queueSpans.push_back(s);
    else if (store.lane(s) == kLaneLink) linkSpans.push_back(s);
  }
  int linkLanes = 0;
  int queueLanes = 0;
  const std::vector<int> linkLane = packLanes(store, linkSpans, &linkLanes);
  const std::vector<int> queueLane = packLanes(store, queueSpans, &queueLanes);

  os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  bool first = true;
  writeMeta(os, "process_name", kPidProcessors, -1, "processors", &first);
  writeMeta(os, "process_name", kPidLink, -1, "link", &first);
  writeMeta(os, "process_name", kPidQueue, -1, "queue", &first);
  writeMeta(os, "process_name", kPidRun, -1, "run", &first);
  for (int l = 0; l < store.laneCount(); ++l)
    writeMeta(os, "thread_name", kPidProcessors, l,
              "cpu " + std::to_string(l), &first);
  for (int l = 0; l < linkLanes; ++l)
    writeMeta(os, "thread_name", kPidLink, l, "link " + std::to_string(l),
              &first);
  for (int l = 0; l < queueLanes; ++l)
    writeMeta(os, "thread_name", kPidQueue, l, "queue " + std::to_string(l),
              &first);

  // Complete events, ordered by (begin, -duration, id) so outer spans precede
  // the sub-spans they contain (trace viewers nest by containment).
  std::vector<std::uint32_t> order(store.spanCount());
  for (std::uint32_t s = 0; s < store.spanCount(); ++s) order[s] = s;
  const auto duration = [&](std::uint32_t s) {
    return (store.isOpen(s) ? store.maxTime() : store.end(s)) - store.begin(s);
  };
  std::sort(order.begin(), order.end(), [&](std::uint32_t a, std::uint32_t b) {
    if (store.begin(a) != store.begin(b))
      return store.begin(a) < store.begin(b);
    if (duration(a) != duration(b)) return duration(a) > duration(b);
    return a < b;
  });

  for (std::uint32_t s : order) {
    int pid = kPidProcessors;
    int tid = 0;
    if (store.kind(s) == SpanKind::Run) {
      pid = kPidRun;
    } else if (store.kind(s) == SpanKind::QueueWait) {
      pid = kPidQueue;
      tid = queueLane[s];
    } else if (store.lane(s) == kLaneLink) {
      pid = kPidLink;
      tid = linkLane[s];
    } else if (store.lane(s) >= 0) {
      tid = store.lane(s);
    }
    if (!first) os << ",\n";
    first = false;
    os << "  {\"name\":";
    os << JsonString{spanDisplayName(store, s, names)};
    os << ",\"cat\":\"" << spanKindName(store.kind(s))
       << "\",\"ph\":\"X\",\"pid\":" << pid << ",\"tid\":" << tid
       << ",\"ts\":";
    os << JsonNumber{store.begin(s) * 1e6};
    os << ",\"dur\":";
    os << JsonNumber{std::max(0.0, duration(s)) * 1e6};
    os << ",\"args\":{";
    bool firstArg = true;
    const auto arg = [&](const char* key) -> std::ostream& {
      if (!firstArg) os << ',';
      firstArg = false;
      os << '"' << key << "\":";
      return os;
    };
    if (store.task(s) != kNoTask) arg("task") << store.task(s);
    if (store.file(s) != kNoFile) arg("file") << store.file(s);
    if (store.bytes(s) > 0.0) arg("bytes") << JsonNumber{store.bytes(s)};
    if (store.isFailed(s)) arg("failed") << "true";
    if (store.isOpen(s)) arg("open") << "true";
    if (names != nullptr && store.task(s) != kNoTask &&
        store.task(s) < names->taskTypes.size()) {
      arg("type");
      os << JsonString{names->taskTypes[store.task(s)]};
    }
    os << "}}";
  }

  // Storage occupancy as a counter track.
  for (std::size_t i = 0; i < store.counterCount(); ++i) {
    if (!first) os << ",\n";
    first = false;
    os << "  {\"name\":\"storage\",\"ph\":\"C\",\"pid\":" << kPidLink
       << ",\"ts\":";
    os << JsonNumber{store.counterTimes()[i] * 1e6};
    os << ",\"args\":{\"resident_bytes\":";
    os << JsonNumber{store.counterBytes()[i]};
    os << ",\"objects\":";
    os << JsonNumber{store.counterObjects()[i]};
    os << "}}";
  }
  os << "\n]}\n";
}

// -- .mctrace binary format ---------------------------------------------------

namespace {

constexpr char kMagic[4] = {'M', 'C', 'T', 'R'};
constexpr std::uint32_t kVersion = 1;

template <class T>
void writeColumn(std::ostream& os, const std::vector<T>& column) {
  if (!column.empty())
    os.write(reinterpret_cast<const char*>(column.data()),
             static_cast<std::streamsize>(column.size() * sizeof(T)));
}

void writeU32(std::ostream& os, std::uint32_t v) {
  os.write(reinterpret_cast<const char*>(&v), sizeof v);
}

void writeU64(std::ostream& os, std::uint64_t v) {
  os.write(reinterpret_cast<const char*>(&v), sizeof v);
}

class MctraceReader {
 public:
  explicit MctraceReader(std::istream& is) : is_(is) {}

  template <class T>
  T scalar(const char* what) {
    T v{};
    is_.read(reinterpret_cast<char*>(&v), sizeof v);
    if (!is_) fail(what);
    return v;
  }

  template <class T>
  std::vector<T> column(std::size_t count, const char* what) {
    std::vector<T> v(count);
    if (count > 0) {
      is_.read(reinterpret_cast<char*>(v.data()),
               static_cast<std::streamsize>(count * sizeof(T)));
      if (!is_) fail(what);
    }
    return v;
  }

  [[noreturn]] void fail(const char* what) {
    throw std::runtime_error(std::string("readMctrace: truncated or corrupt "
                                         "stream (") +
                             what + ")");
  }

 private:
  std::istream& is_;
};

}  // namespace

void writeMctrace(std::ostream& os, const TraceStore& store) {
  os.write(kMagic, sizeof kMagic);
  writeU32(os, kVersion);
  writeU64(os, store.spanCount());
  writeU64(os, store.edgeCount());
  writeU64(os, store.counterCount());
  writeColumn(os, store.spanKinds());
  writeColumn(os, store.spanFlags());
  writeColumn(os, store.spanBegins());
  writeColumn(os, store.spanEnds());
  writeColumn(os, store.spanTasks());
  writeColumn(os, store.spanFiles());
  writeColumn(os, store.spanByteCounts());
  writeColumn(os, store.spanLanes());
  writeColumn(os, store.edgeFroms());
  writeColumn(os, store.edgeTos());
  writeColumn(os, store.edgeKinds());
  writeColumn(os, store.counterTimes());
  writeColumn(os, store.counterBytes());
  writeColumn(os, store.counterObjects());
}

TraceStore readMctrace(std::istream& is) {
  MctraceReader r(is);
  char magic[4];
  is.read(magic, sizeof magic);
  if (!is || std::memcmp(magic, kMagic, sizeof kMagic) != 0)
    throw std::runtime_error("readMctrace: not an mctrace stream (bad magic)");
  const std::uint32_t version = r.scalar<std::uint32_t>("version");
  if (version != kVersion)
    throw std::runtime_error("readMctrace: unsupported version " +
                             std::to_string(version));
  const std::uint64_t spans = r.scalar<std::uint64_t>("span count");
  const std::uint64_t edges = r.scalar<std::uint64_t>("edge count");
  const std::uint64_t counters = r.scalar<std::uint64_t>("counter count");
  // Cap declared counts by what the remaining stream could possibly hold, so
  // a corrupted header cannot drive a huge allocation.
  const auto here = is.tellg();
  is.seekg(0, std::ios::end);
  const auto end = is.tellg();
  is.seekg(here);
  if (here >= 0 && end >= 0) {
    const std::uint64_t remaining = static_cast<std::uint64_t>(end - here);
    const std::uint64_t needed =
        spans * (2 * sizeof(std::uint8_t) + 3 * sizeof(double) +
                 2 * sizeof(std::uint32_t) + sizeof(std::int32_t)) +
        edges * (2 * sizeof(std::uint32_t) + sizeof(std::uint8_t)) +
        counters * (3 * sizeof(double));
    if (needed != remaining)
      throw std::runtime_error(
          "readMctrace: declared sizes do not match stream length");
  }

  TraceStore store;
  const auto kinds = r.column<std::uint8_t>(spans, "span kinds");
  const auto flags = r.column<std::uint8_t>(spans, "span flags");
  const auto begins = r.column<double>(spans, "span begins");
  const auto ends = r.column<double>(spans, "span ends");
  const auto tasks = r.column<std::uint32_t>(spans, "span tasks");
  const auto files = r.column<std::uint32_t>(spans, "span files");
  const auto byteCounts = r.column<double>(spans, "span bytes");
  const auto lanes = r.column<std::int32_t>(spans, "span lanes");
  const auto edgeFrom = r.column<std::uint32_t>(edges, "edge froms");
  const auto edgeTo = r.column<std::uint32_t>(edges, "edge tos");
  const auto edgeKinds = r.column<std::uint8_t>(edges, "edge kinds");
  const auto counterTimes = r.column<double>(counters, "counter times");
  const auto counterBytes = r.column<double>(counters, "counter bytes");
  const auto counterObjects = r.column<double>(counters, "counter objects");

  store.reserve(spans, edges, counters);
  for (std::uint64_t i = 0; i < spans; ++i) {
    if (kinds[i] >= kSpanKindCount)
      throw std::runtime_error("readMctrace: invalid span kind " +
                               std::to_string(kinds[i]));
    const std::uint32_t id =
        store.beginSpan(static_cast<SpanKind>(kinds[i]), begins[i], tasks[i],
                        files[i], byteCounts[i], lanes[i]);
    if (ends[i] >= 0.0) store.endSpan(id, ends[i]);
    if ((flags[i] & kSpanFlagFailed) != 0) store.markFailed(id);
  }
  for (std::uint64_t i = 0; i < edges; ++i) {
    if (edgeFrom[i] >= spans || edgeTo[i] >= spans)
      throw std::runtime_error("readMctrace: edge references missing span");
    if (edgeKinds[i] > static_cast<std::uint8_t>(EdgeKind::Resource))
      throw std::runtime_error("readMctrace: invalid edge kind " +
                               std::to_string(edgeKinds[i]));
    store.addEdge(edgeFrom[i], edgeTo[i],
                  static_cast<EdgeKind>(edgeKinds[i]));
  }
  for (std::uint64_t i = 0; i < counters; ++i)
    store.addCounterSample(counterTimes[i], counterBytes[i],
                           counterObjects[i]);
  return store;
}

}  // namespace mcsim::obs
