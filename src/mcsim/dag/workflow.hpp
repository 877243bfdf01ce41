// Workflow DAG model: tasks, files, and the data dependencies between them.
//
// Matches the paper's abstraction (§2): vertices are tasks, edges are data
// dependencies; every file has at most one producer task and any number of
// consumers; files with no producer are the workflow's external inputs
// (initially "co-located with the application", §5) and files with no
// consumer are the net outputs staged back to the user.  Task levels follow
// the paper's definition: tasks with no parents are level 1; any other
// task's level is one plus the maximum level of its parents.
#pragma once

#include <atomic>
#include <cstdint>
#include <limits>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "mcsim/util/units.hpp"

namespace mcsim::dag {

using TaskId = std::uint32_t;
using FileId = std::uint32_t;

inline constexpr TaskId kNoTask = std::numeric_limits<TaskId>::max();

/// A logical file flowing through the workflow.
struct File {
  FileId id = 0;
  std::string name;
  Bytes size;
  TaskId producer = kNoTask;     ///< kNoTask: external input.
  std::vector<TaskId> consumers; ///< Tasks that read this file.
  /// True if the file must be delivered to the user at workflow end.  By
  /// default every file without consumers is an output; producers of
  /// consumed files can additionally be flagged (e.g. a preview JPEG that a
  /// later task also reads).
  bool explicitOutput = false;
};

/// One executable task (a vertex of the DAG).
struct Task {
  TaskId id = 0;
  std::string name;        ///< Unique instance name, e.g. "mProject_0017".
  std::string type;        ///< Routine name, e.g. "mProject" (paper: all
                           ///< tasks at a level invoke the same routine).
  double runtimeSeconds = 0.0;  ///< On the reference CPU (paper's r(v)).
  std::vector<FileId> inputs;
  std::vector<FileId> outputs;
  /// Earliest time (seconds from run start) this task may begin — models a
  /// request arriving at a running service.  0 = available immediately.
  double earliestStartSeconds = 0.0;
  // Derived by finalize():
  std::vector<TaskId> parents;
  std::vector<TaskId> children;
  int level = 0;  ///< Paper's level; 1-based.  0 until finalize().
};

/// A complete workflow.  Build with addTask/addFile/bind calls, then call
/// finalize() to derive the task graph, validate acyclicity and compute
/// levels.  Structural mutation after finalize() throws; five mutators stay
/// allowed afterwards because they change no edge: setFileSize,
/// scaleAllFileSizes, scaleAllRuntimes, setEarliestStart and
/// markExplicitOutput (CCR experiments change only sizes).
class Workflow {
 public:
  explicit Workflow(std::string name);

  // -- construction ---------------------------------------------------------
  /// Pre-size the task and file tables — one allocation each instead of a
  /// doubling cascade.  Batch composition (dag/merge) and generators that
  /// know their closed-form counts should call this first.
  void reserve(std::size_t tasks, std::size_t files);
  TaskId addTask(std::string name, std::string type, double runtimeSeconds);
  FileId addFile(std::string name, Bytes size);
  /// Declare `file` as an input of `task`.
  void addInput(TaskId task, FileId file);
  /// Declare `file` as an output of `task`.  A file may have at most one
  /// producer; a second producer throws.
  void addOutput(TaskId task, FileId file);
  /// Add an explicit control dependency (parent must finish before child
  /// starts) that is not mediated by a file.
  void addControlDependency(TaskId parent, TaskId child);
  /// Flag a consumed file as nonetheless being a user-visible output.
  /// Allowed post-finalize.
  void markExplicitOutput(FileId file);

  /// Derive parents/children from data flow plus control edges, de-duplicate,
  /// verify the graph is acyclic, and compute levels.  Idempotent.
  void finalize();
  bool finalized() const { return finalized_; }

  // -- size mutation (allowed post-finalize) --------------------------------
  void setFileSize(FileId file, Bytes size);
  /// Multiply every file size by `factor` (> 0) — the paper's CCR knob.
  void scaleAllFileSizes(double factor);
  /// Multiply every task runtime by `factor` (> 0) — used by workload
  /// calibration.  Structure (and levels) are unaffected.
  void scaleAllRuntimes(double factor);
  /// Set a task's release time (>= 0).  Allowed post-finalize.
  void setEarliestStart(TaskId task, double seconds);

  // -- accessors -------------------------------------------------------------
  const std::string& name() const { return name_; }
  std::size_t taskCount() const { return tasks_.size(); }
  std::size_t fileCount() const { return files_.size(); }
  const Task& task(TaskId id) const { return tasks_.at(id); }
  const File& file(FileId id) const { return files_.at(id); }
  const std::vector<Task>& tasks() const { return tasks_; }
  const std::vector<File>& files() const { return files_; }

  /// Files with no producer: staged in from the user/archive.
  std::vector<FileId> externalInputs() const;
  /// Files delivered to the user: no consumers, or explicitly flagged.
  std::vector<FileId> workflowOutputs() const;

  /// Σ r(v) over all tasks, in seconds.
  double totalRuntimeSeconds() const;
  /// Σ s(f) over all files (the paper's CCR numerator before dividing by B).
  Bytes totalFileBytes() const;
  Bytes externalInputBytes() const;
  Bytes workflowOutputBytes() const;

  /// The paper's communication-to-computation ratio:
  ///   CCR = (Σ s(f) / B) / Σ r(v)   with B in bytes/second.
  double ccr(double bandwidthBytesPerSecond) const;

  /// Highest level value (the number of levels).
  int levelCount() const;

  /// Explicit control-only edges as added (for serialization).
  const std::vector<std::pair<TaskId, TaskId>>& controlDependencies() const {
    return controlEdges_;
  }

  /// 64-bit hash of the workflow's content: its name, tasks (name, type,
  /// runtime, release time, input and output file lists), files (name,
  /// size, producer, explicit-output flag) and control edges.  The fields
  /// finalize() derives (parents, children, levels) are left out, so equal
  /// content hashes equally however it was built.  Computed on first use
  /// and kept until a mutator of hashed content clears it; copies carry
  /// it.  Safe for concurrent const callers.  The scenario memo cache keys
  /// on it (runner/memo.hpp).
  std::uint64_t fingerprint() const;

 private:
  friend class WorkflowBuilder;

  /// fingerprint()'s cache: 0 until computed (a hash that is itself 0 is
  /// recomputed on every call).  An atomic so concurrent const callers may
  /// each fill it; copyable so Workflow stays a value type.  A move leaves
  /// the source empty, like the vectors it hashes.  Relaxed ordering: the
  /// value publishes no other data (every caller could compute it from the
  /// content it already sees), and a relaxed store is a plain write in the
  /// add*() calls that clear it.
  class FingerprintSlot {
   public:
    FingerprintSlot() = default;
    FingerprintSlot(const FingerprintSlot& other) : value_(other.load()) {}
    FingerprintSlot(FingerprintSlot&& other) noexcept
        : value_(other.value_.exchange(0, std::memory_order_relaxed)) {}
    FingerprintSlot& operator=(const FingerprintSlot& other) {
      store(other.load());
      return *this;
    }
    FingerprintSlot& operator=(FingerprintSlot&& other) noexcept {
      store(other.value_.exchange(0, std::memory_order_relaxed));
      return *this;
    }
    std::uint64_t load() const {
      return value_.load(std::memory_order_relaxed);
    }
    void store(std::uint64_t value) const {
      value_.store(value, std::memory_order_relaxed);
    }
    void clear() { store(0); }

   private:
    mutable std::atomic<std::uint64_t> value_{0};
  };

  void requireNotFinalized(const char* op) const;
  void requireValidTask(TaskId id) const;
  void requireValidFile(FileId id) const;

  std::string name_;
  std::vector<Task> tasks_;
  std::vector<File> files_;
  std::vector<std::pair<TaskId, TaskId>> controlEdges_;
  bool finalized_ = false;
  FingerprintSlot fingerprint_;
};

/// Streaming, structure-of-arrays workflow construction for survey-scale
/// DAGs (10⁶–10⁷ tasks).
///
/// `Workflow`'s add*/finalize() path is convenient but pays per-call
/// allocation (two std::strings per task), per-binding duplicate scans and a
/// hash-set-per-task finalize — fine at 3,027 tasks, ruinous at 10⁷.  The
/// builder stages the same data in flat columns (one shared name arena,
/// interned type table, CSR input/output edge lists) and imposes one extra
/// contract in exchange for a one-pass, allocation-light finalize:
///
///   *Topological level order* — bindings attach only to the most recently
///   added task, and a file must be added (and, if produced, have its
///   producer declared) before any consumer binds it.  Generators that emit
///   level by level satisfy this naturally.  Violations throw immediately.
///
/// Under that contract every parent id is smaller than its child's id, so
/// build() derives parents/children/levels in a single forward sweep — no
/// Kahn queue, no cycle check needed (acyclicity holds by construction) —
/// and materializes a finalized `Workflow` indistinguishable from one built
/// through the legacy path with the same call sequence (differential-tested;
/// see tests/dag/builder_property_test.cpp).
class WorkflowBuilder {
 public:
  explicit WorkflowBuilder(std::string name);

  /// Pre-size every column.  `nameBytes` is the expected total length of all
  /// task+file names; pass 0 to let the arena grow geometrically.
  void reserve(std::size_t tasks, std::size_t files, std::size_t inputEdges,
               std::size_t outputEdges, std::size_t nameBytes = 0);

  TaskId addTask(std::string_view name, std::string_view type,
                 double runtimeSeconds);
  FileId addFile(std::string_view name, Bytes size);
  /// Bind `file` as an input of `task`.  `task` must be the most recently
  /// added task; `file` must already have its producer declared (or be
  /// external).  Duplicate bindings and produce-and-consume throw, exactly
  /// like Workflow::addInput.
  void addInput(TaskId task, FileId file);
  /// Declare `task` as the producer of `file`.  `task` must be the most
  /// recently added task and `file` must have no producer and no consumers
  /// yet (producers are declared before consumers in streaming order).
  void addOutput(TaskId task, FileId file);
  /// Control-only edge; `parent` must precede `child` (streaming order).
  void addControlDependency(TaskId parent, TaskId child);
  void markExplicitOutput(FileId file);
  void setEarliestStart(TaskId task, double seconds);

  std::size_t taskCount() const { return taskRuntime_.size(); }
  std::size_t fileCount() const { return fileSize_.size(); }
  const std::string& name() const { return name_; }

  /// Derive the task graph (parents/children/levels) in one forward pass and
  /// materialize a finalized Workflow.  The builder is left empty and may be
  /// reused.  Throws std::logic_error if called on an empty builder.
  Workflow build();

 private:
  struct NameRef {
    std::uint64_t offset;
    std::uint32_t length;
  };

  std::string_view nameAt(NameRef ref) const {
    return std::string_view(nameArena_).substr(ref.offset, ref.length);
  }
  NameRef internName(std::string_view name);
  std::uint32_t internType(std::string_view type);
  void requireNewestTask(TaskId task, const char* op) const;
  void clear();

  std::string name_;

  // One arena for every task and file name; NameRefs index into it.
  std::string nameArena_;

  // -- task columns -----------------------------------------------------------
  std::vector<NameRef> taskName_;
  std::vector<std::uint32_t> taskType_;  ///< Index into typeTable_.
  std::vector<double> taskRuntime_;
  std::vector<double> taskEarliestStart_;
  /// CSR edge storage: task i's inputs are taskInputs_[taskInputStart_[i] ..
  /// taskInputStart_[i+1]); the final fence is implicit (vector size) for
  /// the newest task.  Outputs likewise.
  std::vector<FileId> taskInputs_;
  std::vector<std::uint64_t> taskInputStart_;
  std::vector<FileId> taskOutputs_;
  std::vector<std::uint64_t> taskOutputStart_;

  // -- file columns -----------------------------------------------------------
  std::vector<NameRef> fileName_;
  std::vector<Bytes> fileSize_;
  std::vector<TaskId> fileProducer_;
  std::vector<std::uint32_t> fileConsumers_;  ///< Count only; lists derived.
  std::vector<bool> fileExplicitOutput_;

  std::vector<std::string> typeTable_;  ///< Few distinct routine names.
  std::vector<std::pair<TaskId, TaskId>> controlEdges_;
};

}  // namespace mcsim::dag
