#include "mcsim/dag/workflow.hpp"

#include <algorithm>
#include <bit>
#include <cstring>
#include <stdexcept>
#include <utility>

namespace mcsim::dag {
namespace {

/// The hash behind Workflow::fingerprint(), fed one 64-bit word per step.
/// A step xors the word into the state, multiplies by an odd constant and
/// folds the high half down; for a fixed word that is a bijection of the
/// state, so two equally long word sequences that differ in one word always
/// end in different states.  splitmix64's finalizer then spreads every bit.
/// Not cryptographic: like the FNV-1a config half of the memo key, it only
/// has to keep one process's distinct workflows apart.
class WordHash {
 public:
  void word(std::uint64_t w) {
    state_ = (state_ ^ w) * 0x9e3779b97f4a7c15ull;
    state_ ^= state_ >> 32;
  }
  void f64(double v) {
    // +0.0 and -0.0 compare equal but differ in bits; canonicalize so
    // behaviorally identical workflows share a key.  The comparison is
    // exact on purpose.  mcsim-lint: allow(float-equality)
    if (v == 0.0) v = 0.0;
    word(std::bit_cast<std::uint64_t>(v));
  }
  /// Length, then the bytes eight at a time; the tail word is zero-padded,
  /// which the length prefix keeps unambiguous.
  void str(const std::string& s) {
    word(s.size());
    std::size_t i = 0;
    for (; i + 8 <= s.size(); i += 8) {
      std::uint64_t w;
      std::memcpy(&w, s.data() + i, 8);
      word(w);
    }
    if (i < s.size()) {
      std::uint64_t w = 0;
      std::memcpy(&w, s.data() + i, s.size() - i);
      word(w);
    }
  }
  void ids(const std::vector<std::uint32_t>& v) {
    word(v.size());
    for (std::uint32_t id : v) word(id);
  }
  std::uint64_t value() const {
    std::uint64_t z = state_;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }

 private:
  std::uint64_t state_ = 0xcbf29ce484222325ull;
};

}  // namespace

Workflow::Workflow(std::string name) : name_(std::move(name)) {}

void Workflow::reserve(std::size_t tasks, std::size_t files) {
  tasks_.reserve(tasks);
  files_.reserve(files);
}

void Workflow::requireNotFinalized(const char* op) const {
  if (finalized_)
    throw std::logic_error(std::string("Workflow: ") + op +
                           " after finalize()");
}

void Workflow::requireValidTask(TaskId id) const {
  if (id >= tasks_.size())
    throw std::out_of_range("Workflow: invalid task id " + std::to_string(id));
}

void Workflow::requireValidFile(FileId id) const {
  if (id >= files_.size())
    throw std::out_of_range("Workflow: invalid file id " + std::to_string(id));
}

TaskId Workflow::addTask(std::string name, std::string type,
                         double runtimeSeconds) {
  requireNotFinalized("addTask");
  if (runtimeSeconds < 0.0)
    throw std::invalid_argument("Workflow::addTask: negative runtime");
  fingerprint_.clear();
  Task t;
  t.id = static_cast<TaskId>(tasks_.size());
  t.name = std::move(name);
  t.type = std::move(type);
  t.runtimeSeconds = runtimeSeconds;
  tasks_.push_back(std::move(t));
  return tasks_.back().id;
}

FileId Workflow::addFile(std::string name, Bytes size) {
  requireNotFinalized("addFile");
  if (size.value() < 0.0)
    throw std::invalid_argument("Workflow::addFile: negative size");
  fingerprint_.clear();
  File f;
  f.id = static_cast<FileId>(files_.size());
  f.name = std::move(name);
  f.size = size;
  files_.push_back(std::move(f));
  return files_.back().id;
}

void Workflow::addInput(TaskId task, FileId file) {
  requireNotFinalized("addInput");
  requireValidTask(task);
  requireValidFile(file);
  if (files_[file].producer == task)
    throw std::invalid_argument("Workflow::addInput: task '" +
                                tasks_[task].name + "' produces '" +
                                files_[file].name + "'");
  auto& ins = tasks_[task].inputs;
  if (std::find(ins.begin(), ins.end(), file) != ins.end())
    throw std::invalid_argument("Workflow::addInput: duplicate input binding");
  fingerprint_.clear();
  ins.push_back(file);
  files_[file].consumers.push_back(task);
}

void Workflow::addOutput(TaskId task, FileId file) {
  requireNotFinalized("addOutput");
  requireValidTask(task);
  requireValidFile(file);
  if (files_[file].producer != kNoTask)
    throw std::invalid_argument("Workflow::addOutput: file '" +
                                files_[file].name +
                                "' already has a producer");
  const auto& ins = tasks_[task].inputs;
  if (std::find(ins.begin(), ins.end(), file) != ins.end())
    throw std::invalid_argument("Workflow::addOutput: task '" +
                                tasks_[task].name + "' consumes '" +
                                files_[file].name + "'");
  fingerprint_.clear();
  files_[file].producer = task;
  tasks_[task].outputs.push_back(file);
}

void Workflow::addControlDependency(TaskId parent, TaskId child) {
  requireNotFinalized("addControlDependency");
  requireValidTask(parent);
  requireValidTask(child);
  if (parent == child)
    throw std::invalid_argument("Workflow: self control dependency");
  fingerprint_.clear();
  controlEdges_.emplace_back(parent, child);
}

void Workflow::markExplicitOutput(FileId file) {
  requireValidFile(file);
  fingerprint_.clear();
  files_[file].explicitOutput = true;
}

void Workflow::finalize() {
  if (finalized_) return;

  // Derive edges: file producer -> each consumer, plus explicit control
  // edges.  A parent may feed a child several files, so collect raw edges
  // first and sort + unique per task — measured faster than the previous
  // hash-set-per-task at every scale (no per-task allocation churn, no hash
  // overhead), and the sorted result is identical.
  for (Task& t : tasks_) {
    t.parents.clear();
    t.children.clear();
  }
  for (const File& f : files_) {
    if (f.producer == kNoTask) continue;
    for (TaskId consumer : f.consumers) {
      if (consumer == f.producer)
        throw std::logic_error("Workflow: task '" + tasks_[consumer].name +
                               "' both produces and consumes '" + f.name + "'");
      tasks_[consumer].parents.push_back(f.producer);
    }
  }
  for (const auto& [parent, child] : controlEdges_)
    tasks_[child].parents.push_back(parent);

  for (Task& t : tasks_) {
    std::sort(t.parents.begin(), t.parents.end());
    t.parents.erase(std::unique(t.parents.begin(), t.parents.end()),
                    t.parents.end());
  }
  for (const Task& t : tasks_)
    for (TaskId p : t.parents) tasks_[p].children.push_back(t.id);
  for (Task& t : tasks_) std::sort(t.children.begin(), t.children.end());

  // Kahn's algorithm: validates acyclicity and yields levels in one pass
  // (paper definition: sources are level 1; otherwise 1 + max parent level).
  // A plain vector serves as the queue — pop order (index sweep) still
  // visits every ready task exactly once.
  std::vector<std::size_t> pendingParents(tasks_.size());
  std::vector<TaskId> ready;
  ready.reserve(tasks_.size());
  for (Task& t : tasks_) {
    pendingParents[t.id] = t.parents.size();
    t.level = 1;
    if (t.parents.empty()) ready.push_back(t.id);
  }
  for (std::size_t head = 0; head < ready.size(); ++head) {
    const Task& t = tasks_[ready[head]];
    for (TaskId c : t.children) {
      tasks_[c].level = std::max(tasks_[c].level, t.level + 1);
      if (--pendingParents[c] == 0) ready.push_back(c);
    }
  }
  if (ready.size() != tasks_.size())
    throw std::logic_error("Workflow '" + name_ + "' contains a cycle");

  finalized_ = true;
}

void Workflow::setFileSize(FileId file, Bytes size) {
  requireValidFile(file);
  if (size.value() < 0.0)
    throw std::invalid_argument("Workflow::setFileSize: negative size");
  fingerprint_.clear();
  files_[file].size = size;
}

void Workflow::scaleAllFileSizes(double factor) {
  if (!(factor > 0.0))
    throw std::invalid_argument("Workflow::scaleAllFileSizes: factor must be > 0");
  fingerprint_.clear();
  for (File& f : files_) f.size *= factor;
}

void Workflow::setEarliestStart(TaskId task, double seconds) {
  requireValidTask(task);
  if (seconds < 0.0)
    throw std::invalid_argument("Workflow::setEarliestStart: negative time");
  fingerprint_.clear();
  tasks_[task].earliestStartSeconds = seconds;
}

void Workflow::scaleAllRuntimes(double factor) {
  if (!(factor > 0.0))
    throw std::invalid_argument("Workflow::scaleAllRuntimes: factor must be > 0");
  fingerprint_.clear();
  for (Task& t : tasks_) t.runtimeSeconds *= factor;
}

std::vector<FileId> Workflow::externalInputs() const {
  std::vector<FileId> out;
  for (const File& f : files_)
    if (f.producer == kNoTask) out.push_back(f.id);
  return out;
}

std::vector<FileId> Workflow::workflowOutputs() const {
  std::vector<FileId> out;
  for (const File& f : files_)
    if (f.explicitOutput || (f.consumers.empty() && f.producer != kNoTask))
      out.push_back(f.id);
  return out;
}

double Workflow::totalRuntimeSeconds() const {
  double total = 0.0;
  for (const Task& t : tasks_) total += t.runtimeSeconds;
  return total;
}

Bytes Workflow::totalFileBytes() const {
  Bytes total;
  for (const File& f : files_) total += f.size;
  return total;
}

Bytes Workflow::externalInputBytes() const {
  Bytes total;
  for (const File& f : files_)
    if (f.producer == kNoTask) total += f.size;
  return total;
}

Bytes Workflow::workflowOutputBytes() const {
  Bytes total;
  for (FileId id : workflowOutputs()) total += files_[id].size;
  return total;
}

double Workflow::ccr(double bandwidthBytesPerSecond) const {
  if (!(bandwidthBytesPerSecond > 0.0))
    throw std::invalid_argument("Workflow::ccr: bandwidth must be positive");
  const double compute = totalRuntimeSeconds();
  // Guards a division; only an exactly-zero total divides to infinity.
  // mcsim-lint: allow(float-equality)
  if (compute == 0.0)
    throw std::logic_error("Workflow::ccr: zero total runtime");
  return (totalFileBytes().value() / bandwidthBytesPerSecond) / compute;
}

int Workflow::levelCount() const {
  int maxLevel = 0;
  for (const Task& t : tasks_) maxLevel = std::max(maxLevel, t.level);
  return maxLevel;
}

std::uint64_t Workflow::fingerprint() const {
  if (const std::uint64_t cached = fingerprint_.load(); cached != 0)
    return cached;
  WordHash h;
  h.str(name_);
  h.word(tasks_.size());
  for (const Task& t : tasks_) {
    h.str(t.name);
    h.str(t.type);
    h.f64(t.runtimeSeconds);
    h.f64(t.earliestStartSeconds);
    h.ids(t.inputs);
    h.ids(t.outputs);
  }
  h.word(files_.size());
  for (const File& f : files_) {
    h.str(f.name);
    h.f64(f.size.value());
    h.word(f.producer);
    h.word(f.explicitOutput ? 1 : 0);
  }
  h.word(controlEdges_.size());
  for (const auto& [parent, child] : controlEdges_) {
    h.word(parent);
    h.word(child);
  }
  const std::uint64_t value = h.value();
  fingerprint_.store(value);
  return value;
}

// ---------------------------------------------------------------------------
// WorkflowBuilder
// ---------------------------------------------------------------------------

WorkflowBuilder::WorkflowBuilder(std::string name) : name_(std::move(name)) {}

void WorkflowBuilder::reserve(std::size_t tasks, std::size_t files,
                              std::size_t inputEdges, std::size_t outputEdges,
                              std::size_t nameBytes) {
  taskName_.reserve(tasks);
  taskType_.reserve(tasks);
  taskRuntime_.reserve(tasks);
  taskEarliestStart_.reserve(tasks);
  taskInputStart_.reserve(tasks);
  taskOutputStart_.reserve(tasks);
  taskInputs_.reserve(inputEdges);
  taskOutputs_.reserve(outputEdges);
  fileName_.reserve(files);
  fileSize_.reserve(files);
  fileProducer_.reserve(files);
  fileConsumers_.reserve(files);
  fileExplicitOutput_.reserve(files);
  if (nameBytes > 0) nameArena_.reserve(nameBytes);
}

WorkflowBuilder::NameRef WorkflowBuilder::internName(std::string_view name) {
  NameRef ref;
  ref.offset = nameArena_.size();
  ref.length = static_cast<std::uint32_t>(name.size());
  nameArena_.append(name);
  return ref;
}

std::uint32_t WorkflowBuilder::internType(std::string_view type) {
  // A workflow has a handful of routine names (Montage: 9); linear scan
  // beats a hash map at that cardinality.
  for (std::size_t i = 0; i < typeTable_.size(); ++i)
    if (typeTable_[i] == type) return static_cast<std::uint32_t>(i);
  typeTable_.emplace_back(type);
  return static_cast<std::uint32_t>(typeTable_.size() - 1);
}

void WorkflowBuilder::requireNewestTask(TaskId task, const char* op) const {
  if (taskRuntime_.empty() || task + 1 != taskRuntime_.size())
    throw std::logic_error(
        std::string("WorkflowBuilder::") + op + ": task " +
        std::to_string(task) +
        " is not the most recently added task (streaming order: bindings "
        "attach only to the newest task)");
}

TaskId WorkflowBuilder::addTask(std::string_view name, std::string_view type,
                                double runtimeSeconds) {
  if (runtimeSeconds < 0.0)
    throw std::invalid_argument("WorkflowBuilder::addTask: negative runtime");
  const TaskId id = static_cast<TaskId>(taskRuntime_.size());
  taskName_.push_back(internName(name));
  taskType_.push_back(internType(type));
  taskRuntime_.push_back(runtimeSeconds);
  taskEarliestStart_.push_back(0.0);
  // CSR fence: this task's edge ranges begin where the previous one ended.
  taskInputStart_.push_back(taskInputs_.size());
  taskOutputStart_.push_back(taskOutputs_.size());
  return id;
}

FileId WorkflowBuilder::addFile(std::string_view name, Bytes size) {
  if (size.value() < 0.0)
    throw std::invalid_argument("WorkflowBuilder::addFile: negative size");
  const FileId id = static_cast<FileId>(fileSize_.size());
  fileName_.push_back(internName(name));
  fileSize_.push_back(size);
  fileProducer_.push_back(kNoTask);
  fileConsumers_.push_back(0);
  fileExplicitOutput_.push_back(false);
  return id;
}

void WorkflowBuilder::addInput(TaskId task, FileId file) {
  requireNewestTask(task, "addInput");
  if (file >= fileSize_.size())
    throw std::out_of_range("WorkflowBuilder: invalid file id " +
                            std::to_string(file));
  if (fileProducer_[file] == task)
    throw std::invalid_argument(
        "WorkflowBuilder::addInput: task '" +
        std::string(nameAt(taskName_[task])) + "' produces '" +
        std::string(nameAt(fileName_[file])) + "'");
  // Duplicate scan only over this task's (open) input range — same contract
  // as Workflow::addInput but bounded by one task's degree.
  for (std::size_t i = taskInputStart_[task]; i < taskInputs_.size(); ++i)
    if (taskInputs_[i] == file)
      throw std::invalid_argument(
          "WorkflowBuilder::addInput: duplicate input binding");
  taskInputs_.push_back(file);
  ++fileConsumers_[file];
}

void WorkflowBuilder::addOutput(TaskId task, FileId file) {
  requireNewestTask(task, "addOutput");
  if (file >= fileSize_.size())
    throw std::out_of_range("WorkflowBuilder: invalid file id " +
                            std::to_string(file));
  if (fileProducer_[file] != kNoTask)
    throw std::invalid_argument("WorkflowBuilder::addOutput: file '" +
                                std::string(nameAt(fileName_[file])) +
                                "' already has a producer");
  if (fileConsumers_[file] != 0)
    throw std::logic_error(
        "WorkflowBuilder::addOutput: file '" +
        std::string(nameAt(fileName_[file])) +
        "' already has consumers (streaming order: declare the producer "
        "before any consumer binds the file)");
  for (std::size_t i = taskInputStart_[task]; i < taskInputs_.size(); ++i)
    if (taskInputs_[i] == file)
      throw std::invalid_argument(
          "WorkflowBuilder::addOutput: task '" +
          std::string(nameAt(taskName_[task])) + "' consumes '" +
          std::string(nameAt(fileName_[file])) + "'");
  fileProducer_[file] = task;
  taskOutputs_.push_back(file);
}

void WorkflowBuilder::addControlDependency(TaskId parent, TaskId child) {
  if (parent >= taskRuntime_.size() || child >= taskRuntime_.size())
    throw std::out_of_range("WorkflowBuilder: invalid task id");
  if (parent >= child)
    throw std::logic_error(
        "WorkflowBuilder::addControlDependency: parent " +
        std::to_string(parent) + " does not precede child " +
        std::to_string(child) + " (streaming order)");
  controlEdges_.emplace_back(parent, child);
}

void WorkflowBuilder::markExplicitOutput(FileId file) {
  if (file >= fileSize_.size())
    throw std::out_of_range("WorkflowBuilder: invalid file id " +
                            std::to_string(file));
  fileExplicitOutput_[file] = true;
}

void WorkflowBuilder::setEarliestStart(TaskId task, double seconds) {
  if (task >= taskRuntime_.size())
    throw std::out_of_range("WorkflowBuilder: invalid task id " +
                            std::to_string(task));
  if (seconds < 0.0)
    throw std::invalid_argument(
        "WorkflowBuilder::setEarliestStart: negative time");
  taskEarliestStart_[task] = seconds;
}

void WorkflowBuilder::clear() {
  nameArena_.clear();
  taskName_.clear();
  taskType_.clear();
  taskRuntime_.clear();
  taskEarliestStart_.clear();
  taskInputs_.clear();
  taskInputStart_.clear();
  taskOutputs_.clear();
  taskOutputStart_.clear();
  fileName_.clear();
  fileSize_.clear();
  fileProducer_.clear();
  fileConsumers_.clear();
  fileExplicitOutput_.clear();
  typeTable_.clear();
  controlEdges_.clear();
}

Workflow WorkflowBuilder::build() {
  const std::size_t taskCount = taskRuntime_.size();
  const std::size_t fileCount = fileSize_.size();
  if (taskCount == 0)
    throw std::logic_error("WorkflowBuilder::build: empty builder");

  Workflow wf(name_);
  wf.tasks_.resize(taskCount);
  wf.files_.resize(fileCount);

  auto inputEnd = [&](std::size_t t) {
    return t + 1 < taskCount ? taskInputStart_[t + 1] : taskInputs_.size();
  };
  auto outputEnd = [&](std::size_t t) {
    return t + 1 < taskCount ? taskOutputStart_[t + 1] : taskOutputs_.size();
  };

  for (std::size_t i = 0; i < fileCount; ++i) {
    File& f = wf.files_[i];
    f.id = static_cast<FileId>(i);
    f.name = std::string(nameAt(fileName_[i]));
    f.size = fileSize_[i];
    f.producer = fileProducer_[i];
    f.consumers.reserve(fileConsumers_[i]);
    f.explicitOutput = fileExplicitOutput_[i];
  }

  // Control edges grouped by child, so each task's control parents can be
  // counted and appended next to its data parents.
  std::vector<std::pair<TaskId, TaskId>> controlByChild;
  controlByChild.reserve(controlEdges_.size());
  for (const auto& [parent, child] : controlEdges_)
    controlByChild.emplace_back(child, parent);
  std::sort(controlByChild.begin(), controlByChild.end());
  auto nextControl = controlByChild.begin();

  // First sweep: copy the columns and derive each task's parents (producers
  // of its inputs plus its control parents; sort + unique as in
  // finalize()).  Counting them before filling allocates each parents
  // vector once; childCount tallies distinct children so the second sweep
  // can size each children vector the same way.
  std::vector<std::uint32_t> childCount(taskCount, 0);
  for (std::size_t i = 0; i < taskCount; ++i) {
    Task& t = wf.tasks_[i];
    t.id = static_cast<TaskId>(i);
    t.name = std::string(nameAt(taskName_[i]));
    t.type = typeTable_[taskType_[i]];
    t.runtimeSeconds = taskRuntime_[i];
    t.earliestStartSeconds = taskEarliestStart_[i];
    t.inputs.assign(taskInputs_.begin() +
                        static_cast<std::ptrdiff_t>(taskInputStart_[i]),
                    taskInputs_.begin() +
                        static_cast<std::ptrdiff_t>(inputEnd(i)));
    t.outputs.assign(taskOutputs_.begin() +
                         static_cast<std::ptrdiff_t>(taskOutputStart_[i]),
                     taskOutputs_.begin() +
                         static_cast<std::ptrdiff_t>(outputEnd(i)));
    // Consumer lists fill in ascending task order — the same order the
    // legacy path records when the identical call sequence is replayed.
    std::size_t parentCount = 0;
    for (FileId file : t.inputs) {
      wf.files_[file].consumers.push_back(t.id);
      if (fileProducer_[file] != kNoTask) ++parentCount;
    }
    const auto controlEnd = std::find_if(
        nextControl, controlByChild.end(),
        [&](const auto& edge) { return edge.first != t.id; });
    parentCount += static_cast<std::size_t>(controlEnd - nextControl);
    t.parents.reserve(parentCount);
    for (FileId file : t.inputs)
      if (fileProducer_[file] != kNoTask)
        t.parents.push_back(fileProducer_[file]);
    for (; nextControl != controlEnd; ++nextControl)
      t.parents.push_back(nextControl->second);
    std::sort(t.parents.begin(), t.parents.end());
    t.parents.erase(std::unique(t.parents.begin(), t.parents.end()),
                    t.parents.end());
    for (TaskId p : t.parents) ++childCount[p];
  }

  // Streaming order guarantees every parent id < child id, so one ascending
  // sweep computes levels (paper definition) with no Kahn queue, and the
  // children lists it fills are sorted for free.  Every child of task i
  // comes after i, so step i can size i's list before any append.
  for (std::size_t i = 0; i < taskCount; ++i) {
    Task& t = wf.tasks_[i];
    t.children.reserve(childCount[i]);
    t.level = 1;
    for (TaskId p : t.parents) {
      wf.tasks_[p].children.push_back(t.id);
      t.level = std::max(t.level, wf.tasks_[p].level + 1);
    }
  }

  wf.controlEdges_ = std::move(controlEdges_);
  wf.finalized_ = true;
  clear();
  return wf;
}

}  // namespace mcsim::dag
