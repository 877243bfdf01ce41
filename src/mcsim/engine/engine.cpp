#include "mcsim/engine/engine.hpp"

#include <algorithm>
#include <queue>
#include <stdexcept>
#include <vector>

#include <limits>
#include <optional>

#include "mcsim/cloud/storage.hpp"
#include "mcsim/dag/cleanup.hpp"
#include "mcsim/dag/algorithms.hpp"
#include "mcsim/obs/sampler.hpp"
#include "mcsim/obs/selfprofile.hpp"
#include "mcsim/obs/sink.hpp"
#include "mcsim/sim/simulator.hpp"
#include "mcsim/util/rng.hpp"

namespace mcsim::engine {
namespace {

using dag::FileId;
using dag::TaskId;
using dag::Workflow;

/// The engine-side fault configuration: the user's FaultConfig with its
/// outage windows sorted and merged.
faults::FaultConfig effectiveFaults(const EngineConfig& cfg) {
  faults::FaultConfig fc = cfg.faults;
  fc.link.outages = faults::normalizeOutages(fc.link.outages);
  fc.storage.outages = faults::normalizeOutages(fc.storage.outages);
  return fc;
}

/// One simulated execution.  Owns the simulator, link and storage for its
/// lifetime; `execute()` drives the event loop to completion and extracts
/// the metrics.
class Run {
 public:
  Run(const Workflow& wf, const EngineConfig& cfg)
      : wf_(wf),
        cfg_(cfg),
        fcfg_(effectiveFaults(cfg)),
        plan_(dag::analyzeCleanup(wf)),
        sim_(sim::SimulatorOptions{wf.taskCount() * 2 + wf.fileCount() + 16}),
        link_(sim_,
              sim::LinkConfig{cfg.linkBandwidthBytesPerSec, cfg.linkSharing}),
        storage_(sim_, cloud::StorageConfig{
                           cfg.storageCapacityBytes > 0.0
                               ? cfg.storageCapacityBytes
                               : std::numeric_limits<double>::infinity()}) {
    if (fcfg_.anyEnabled()) injector_.emplace(fcfg_);
    if (!fcfg_.storage.outages.empty()) {
      std::vector<std::pair<double, double>> windows;
      for (const auto& w : fcfg_.storage.outages)
        windows.emplace_back(w.startSeconds, w.endSeconds());
      storage_.setOutages(std::move(windows));
    }
    obs_ = cfg.observer;
    sim_.setObserver(cfg.observer);
    link_.setObserver(cfg.observer);
    storage_.setObserver(cfg.observer);
    // Billing attribution keeps a record per resident object; skip all of
    // that bookkeeping unless some sink actually wants the line items.
    billed_ = obs_ != nullptr && obs_->accepts(obs::EventKind::BillingLineItem);
  }

  /// Argument validation, ahead of any member construction that assumes a
  /// well-formed workflow/config.
  static void validate(const Workflow& wf, const EngineConfig& cfg) {
    if (!wf.finalized())
      throw std::invalid_argument("simulateWorkflow: workflow not finalized");
    if (cfg.processors < 1)
      throw std::invalid_argument("simulateWorkflow: processors must be >= 1");
    if (cfg.vmStartupSeconds < 0.0 || cfg.vmTeardownSeconds < 0.0)
      throw std::invalid_argument("simulateWorkflow: negative VM overhead");
    if (cfg.storageCapacityBytes < 0.0)
      throw std::invalid_argument("simulateWorkflow: negative storage capacity");
    if (cfg.samplePeriodSeconds < 0.0)
      throw std::invalid_argument("simulateWorkflow: negative sample period");
    cfg.faults.validate();
  }

  ExecutionResult execute(obs::PhaseProfiler* profiler = nullptr) {
    {
      MCSIM_TRACE_PHASE(profiler, obs::SimPhase::Setup);
      prepare();
    }
    {
      MCSIM_TRACE_PHASE(profiler, obs::SimPhase::Schedule);
      scheduleOutages();
      scheduleStorageOutages();
      if (fcfg_.deadlineSeconds > 0.0)
        sim_.schedule(fcfg_.deadlineSeconds, [this] { onDeadline(); });
      if (obs_ != nullptr && cfg_.samplePeriodSeconds > 0.0) {
        sampler_.emplace(sim_, cfg_.samplePeriodSeconds, [this] {
          emit(obs::StorageSampled{storage_.residentBytes().value(),
                                   storage_.objectCount()});
        });
        sampler_->start();
      }
      sim_.schedule(cfg_.vmStartupSeconds, [this] { begin(); });
    }
    {
      MCSIM_TRACE_PHASE(profiler, obs::SimPhase::EventLoop);
      sim_.run();
    }
    MCSIM_TRACE_PHASE(profiler, obs::SimPhase::Extract);
    if (!finished_) {
      if (!blocked_.empty())
        throw std::runtime_error(
            "simulateWorkflow: deadlock -- " + std::to_string(blocked_.size()) +
            " task(s) blocked on storage capacity with nothing left to free "
            "(regular mode frees no space mid-run; use DynamicCleanup or "
            "raise storageCapacityBytes)");
      throw std::logic_error(
          "simulateWorkflow: simulation drained without completing the "
          "workflow (engine bug)");
    }

    result_.mode = cfg_.mode;
    result_.processors = cfg_.processors;
    result_.makespanSeconds = endTime_ + cfg_.vmTeardownSeconds;
    result_.processorBusySeconds = busyIntegral_;
    result_.storageByteSeconds = storage_.curve().integralByteSeconds(endTime_);
    result_.peakStorageBytes = storage_.peakBytes();
    result_.storageCurve = storage_.takeCurve();
    for (double seconds : cpuSeconds_) result_.cpuBusySeconds += seconds;
    for (const RemoteTask& r : remote_) {
      result_.bytesIn += Bytes(r.bytesIn);
      result_.bytesOut += Bytes(r.bytesOut);
    }
    return std::move(result_);
  }

 private:
  // -- setup ------------------------------------------------------------------
  void prepare() {
    const std::size_t nTasks = wf_.taskCount();
    waitCount_.assign(nTasks, 0);
    abandoned_.assign(nTasks, false);
    running_.assign(nTasks, Attempt{});
    cpuSeconds_.assign(nTasks, 0.0);
    const bool remote = cfg_.mode == DataMode::RemoteIO;
    if (remote) remote_.assign(nTasks, RemoteTask{});
    remainingUses_ = plan_.remainingUses;

    isExternal_.assign(wf_.fileCount(), false);
    for (FileId f : wf_.externalInputs()) isExternal_[f] = true;

    std::size_t fileUses = 0;
    for (const dag::Task& t : wf_.tasks()) {
      std::size_t waits = t.parents.size();
      if (!remote) {
        for (FileId f : t.inputs)
          if (isExternal_[f]) ++waits;
      }
      if (t.earliestStartSeconds > 0.0) ++waits;  // released by timer
      waitCount_[t.id] = waits;
      fileUses += t.inputs.size() + t.outputs.size();
    }
    // Remote I/O stores one object per use of a file, the other modes one
    // per file.  Retries after a crash stage again and grow the ledger (and
    // the billing records, which are indexed the same way).
    if (remote) storage_.reserve(0, fileUses);
    else storage_.reserve(wf_.fileCount(), 0);
    if (billed_) {
      if (remote) storedUses_.resize(fileUses);
      else storedFiles_.resize(wf_.fileCount());
    }

    if (cfg_.scheduler == SchedulerPolicy::CriticalPathFirst) {
      // Upward rank: runtime + max child rank, computed sinks-first.
      upwardRank_.assign(nTasks, 0.0);
      const auto order = dag::topologicalOrder(wf_);
      for (auto it = order.rbegin(); it != order.rend(); ++it) {
        const dag::Task& t = wf_.task(*it);
        double best = 0.0;
        for (TaskId c : t.children) best = std::max(best, upwardRank_[c]);
        upwardRank_[*it] = t.runtimeSeconds + best;
      }
    }

    freeProcessors_ = cfg_.processors;
    tasksRemaining_ = nTasks;
  }

  /// Overlapping windows (link and storage windows both stall the shared
  /// link) are refcounted: the link resumes only when the last window ends.
  void suspendLink() {
    if (linkSuspends_++ == 0) link_.suspend();
  }
  void resumeLink() {
    if (--linkSuspends_ == 0) link_.resume();
  }

  void scheduleOutages() {
    for (const faults::OutageWindow& w : fcfg_.link.outages) {
      sim_.schedule(w.startSeconds, [this] { suspendLink(); });
      sim_.schedule(w.endSeconds(), [this] { resumeLink(); });
    }
  }

  /// Storage (S3) unavailability: nothing can be read from or written to
  /// storage, so the user<->storage link stalls too, and task completions
  /// that land inside a window defer their output commit to the window end
  /// (the finish* entry points check storage_.availableFrom).
  void scheduleStorageOutages() {
    for (const faults::OutageWindow& w : fcfg_.storage.outages) {
      sim_.schedule(w.startSeconds, [this] {
        emit(obs::StorageOutageStarted{});
        suspendLink();
      });
      sim_.schedule(w.endSeconds(), [this] {
        emit(obs::StorageOutageEnded{});
        resumeLink();
      });
    }
  }

  // -- telemetry ---------------------------------------------------------------
  template <class Payload>
  void emit(Payload&& payload) {
    // accepts() pre-filter: a rejected kind costs one predicted branch, not
    // a 46-alternative variant construction plus a virtual dispatch.
    using P = std::remove_cvref_t<Payload>;
    if (obs_ != nullptr && obs_->accepts(obs::kEventKindOf<P>))
      obs_->onEvent(obs::Event{sim_.now(), std::forward<Payload>(payload)});
  }

  void bill(obs::Resource resource, std::uint32_t task, double quantity) {
    if (billed_) emit(obs::BillingLineItem{resource, task, quantity});
  }

  /// Billing attribution of storage residency: remember who put the object
  /// and when, and convert that into byte-seconds when it is erased.  The
  /// per-key sum over a run equals the usage-curve integral (same additions,
  /// grouped by object instead of by time).
  struct StoredObject {
    static constexpr double kAbsent = -1.0;
    double createdAt = 0.0;
    std::uint32_t task = 0;
    double bytes = kAbsent;  ///< kAbsent: not resident.
  };
  void noteStored(std::uint64_t key, std::uint32_t task, double bytes) {
    if (billed_) storedObject(key) = StoredObject{sim_.now(), task, bytes};
  }
  void billErase(std::uint64_t key) {
    if (!billed_) return;
    StoredObject& o = storedObject(key);
    if (o.bytes < 0.0) return;
    bill(obs::Resource::Storage, o.task, o.bytes * (sim_.now() - o.createdAt));
    o.bytes = StoredObject::kAbsent;
  }
  /// The record of `key`, indexed as the storage ledger indexes; its array
  /// grows to hold the key.
  StoredObject& storedObject(std::uint64_t key) {
    const bool file = key < cloud::kUseKeyBase;
    std::vector<StoredObject>& table = file ? storedFiles_ : storedUses_;
    const std::uint64_t i = file ? key : key - cloud::kUseKeyBase;
    if (i >= table.size()) table.resize(i + 1);
    return table[i];
  }

  std::size_t queuedTasks() const { return ready_.size() + blocked_.size(); }

  // -- common machinery --------------------------------------------------------
  void accrueBusy() {
    busyIntegral_ += static_cast<double>(busyCount_) * (sim_.now() - busyLast_);
    busyLast_ = sim_.now();
  }
  void claimProcessor() {
    accrueBusy();
    ++busyCount_;
    --freeProcessors_;
    emit(obs::ProcessorClaimed{busyCount_, cfg_.processors, queuedTasks()});
  }
  void releaseProcessor() {
    accrueBusy();
    --busyCount_;
    ++freeProcessors_;
    emit(obs::ProcessorReleased{busyCount_, cfg_.processors, queuedTasks()});
  }

  void begin() {
    busyLast_ = sim_.now();
    emit(obs::RunStarted{wf_.taskCount(), wf_.fileCount(), cfg_.processors});
    if (tasksRemaining_ == 0) {
      beginStageOut();
      return;
    }
    // Release-time gates: the extra wait added in prepare() drops when the
    // request "arrives".
    for (const dag::Task& t : wf_.tasks()) {
      if (t.earliestStartSeconds <= 0.0) continue;
      sim_.scheduleAfter(t.earliestStartSeconds, [this, id = t.id] {
        if (halted_) return;
        if (--waitCount_[id] == 0) markReady(id);
      });
    }
    if (cfg_.mode != DataMode::RemoteIO) {
      // Stage in every external input concurrently over the shared link.
      // Under a capacity cap the whole stage-in volume is reserved up
      // front: these bytes *will* arrive regardless of scheduling, so task
      // admission must leave room for them or later arrivals would
      // overflow.
      if (cfg_.storageCapacityBytes > 0.0)
        reservedBytes_ += wf_.externalInputBytes().value();
      for (FileId f : wf_.externalInputs()) {
        const Bytes size = wf_.file(f).size;
        emit(obs::StageInStarted{f, obs::kNoTask, size.value()});
        link_.startTransfer(size, [this, f, size] {
          if (halted_) return;
          result_.bytesIn += size;
          ++result_.transfersIn;
          if (cfg_.storageCapacityBytes > 0.0)
            reservedBytes_ -= size.value();
          try {
            storage_.put(f, size);
          } catch (const std::runtime_error&) {
            throw std::runtime_error(
                "simulateWorkflow: stage-in overflow -- storage capacity is "
                "too small for the workflow's external inputs ('" +
                wf_.file(f).name + "' does not fit)");
          }
          noteStored(f, obs::kNoTask, size.value());
          emit(obs::StageInFinished{f, obs::kNoTask, size.value()});
          bill(obs::Resource::TransferIn, obs::kNoTask, size.value());
          onExternalFileArrived(f);
        });
      }
    }
    // Tasks with no waits (sources without external inputs in regular mode;
    // all sources in remote mode) are ready immediately.
    for (const dag::Task& t : wf_.tasks())
      if (waitCount_[t.id] == 0) markReady(t.id);
  }

  void onExternalFileArrived(FileId f) {
    for (TaskId consumer : wf_.file(f).consumers) {
      if (--waitCount_[consumer] == 0) markReady(consumer);
    }
    // An external file no task reads (possible in hand-built workflows) just
    // sits on storage until the end-of-run sweep.
  }

  void markReady(TaskId id) {
    if (halted_ || abandoned_[id]) return;
    emit(obs::TaskReady{id});
    const double rank = cfg_.scheduler == SchedulerPolicy::CriticalPathFirst
                            ? upwardRank_[id]
                            : 0.0;
    ready_.push(ReadyEntry{rank, readySeq_++, id});
    scheduleDispatch();
  }

  /// Run dispatch() as a same-timestamp event, coalescing multiple requests.
  /// Deferring matters for scheduling policy: every task that becomes ready
  /// at this instant must be in the queue before processors are assigned,
  /// or priority ordering degenerates to arrival order.
  void scheduleDispatch() {
    if (dispatchScheduled_) return;
    dispatchScheduled_ = true;
    sim_.scheduleAfter(0.0, [this] {
      dispatchScheduled_ = false;
      if (halted_) return;
      dispatch();
    });
  }

  /// Bytes the task will add to storage while it runs.
  double storageDemand(TaskId id) const {
    const dag::Task& t = wf_.task(id);
    double needed = 0.0;
    if (cfg_.mode == DataMode::RemoteIO)
      for (FileId f : t.inputs) needed += wf_.file(f).size.value();
    for (FileId f : t.outputs) needed += wf_.file(f).size.value();
    return needed;
  }

  bool fitsOnStorage(TaskId id) const {
    if (cfg_.storageCapacityBytes <= 0.0) return true;
    // Count both resident bytes and reservations of admitted-but-not-yet-
    // materialized tasks, or same-instant dispatches would over-commit.
    return storage_.residentBytes().value() + reservedBytes_ +
               storageDemand(id) <=
           cfg_.storageCapacityBytes + 1e-6;
  }

  void dispatch() {
    while (freeProcessors_ > 0 && !ready_.empty()) {
      const ReadyEntry entry = ready_.top();
      ready_.pop();
      if (!fitsOnStorage(entry.id)) {
        // Defer until space frees up; backfill with later ready tasks.
        blocked_.push_back(entry);
        ++result_.tasksEverBlocked;
        emit(obs::TaskBlocked{entry.id});
        continue;
      }
      if (cfg_.storageCapacityBytes > 0.0)
        reservedBytes_ += storageDemand(entry.id);
      claimProcessor();
      emit(obs::TaskStarted{entry.id});
      if (cfg_.mode == DataMode::RemoteIO) startRemote(entry.id);
      else startRegular(entry.id);
    }
  }

  /// Storage was freed: give every blocked task another chance, preserving
  /// its original priority/sequence.
  void unblock() {
    if (blocked_.empty()) return;
    for (const ReadyEntry& entry : blocked_) ready_.push(entry);
    blocked_.clear();
    scheduleDispatch();
  }

  /// Dependency bookkeeping after a task is fully complete.
  void completeTask(TaskId id) {
    emit(obs::TaskFinished{id, wf_.task(id).runtimeSeconds});
    ++result_.tasksExecuted;
    releaseProcessor();
    for (TaskId c : wf_.task(id).children)
      if (--waitCount_[c] == 0) markReady(c);
    if (--tasksRemaining_ == 0) beginStageOut();
    scheduleDispatch();
  }

  // -- execution attempts & fault mechanics -------------------------------------
  /// Schedule the completion of one execution attempt and, when the crash
  /// model is armed, the spot-style loss that may preempt it.  Exactly one
  /// of the two events fires: a drawn time-to-failure shorter than the
  /// runtime schedules a crash (which cancels the completion); otherwise no
  /// crash event exists at all.
  void registerAttempt(TaskId id, void (Run::*finish)(TaskId)) {
    const dag::Task& t = wf_.task(id);
    Attempt a;
    a.execStart = sim_.now();
    a.runtimeSeconds = t.runtimeSeconds;
    a.finishEvent = sim_.scheduleAfter(
        t.runtimeSeconds, [this, id, finish] { (this->*finish)(id); });
    if (injector_) {
      if (const auto ttf = injector_->drawCrashTime(t.runtimeSeconds))
        a.crashEvent = sim_.scheduleAfter(*ttf, [this, id] { onCrash(id); });
    }
    a.active = true;
    running_[id] = a;
  }

  /// A processor crash preempted the attempt: the completion event is
  /// cancelled (Simulator::cancel), the partial work is billed as waste, and
  /// the task either retries per policy or is permanently failed.  In remote
  /// I/O mode the dead instance's staged inputs are lost; the retry
  /// re-stages (and re-bills) them — the paper's "you pay for the S3
  /// transfer again" accounting.
  void onCrash(TaskId id) {
    if (halted_) return;
    if (!running_[id].active)
      throw std::logic_error("engine: crash for a task with no attempt");
    const Attempt a = running_[id];
    running_[id].active = false;
    sim_.cancel(a.finishEvent);
    const double wasted = sim_.now() - a.execStart;
    cpuSeconds_[id] += wasted;
    result_.wastedCpuSeconds += wasted;
    ++result_.processorCrashes;
    emit(obs::ProcessorCrashed{id, wasted});
    bill(obs::Resource::Cpu, id, wasted);
    bool freed = false;
    if (cfg_.mode == DataMode::RemoteIO) {
      freed = eraseRemoteInputs(id);
      remote_[id].pendingIo = 0;
    }
    if (freed) unblock();
    if (const auto delay = injector_->nextRetryDelay(id)) {
      ++result_.taskRetries;
      emit(obs::TaskRetryScheduled{id, injector_->attemptsMade(id), *delay});
      emit(obs::TaskRetried{id});
      const bool remote = cfg_.mode == DataMode::RemoteIO;
      sim_.scheduleAfter(*delay, [this, id, remote] {
        if (halted_) return;
        if (remote) startRemote(id);
        else startRegular(id);
      });
    } else {
      failTask(id);
    }
  }

  /// Retry budget exhausted: the task is reported failed, its descendants
  /// can never run and are abandoned, and the rest of the workflow carries
  /// on (partial results still stage out).
  void failTask(TaskId id) {
    emit(obs::TaskFailed{id, injector_->attemptsMade(id)});
    ++result_.tasksFailed;
    releaseProcessor();
    if (cfg_.storageCapacityBytes > 0.0) {
      reservedBytes_ -= storageDemand(id);  // outputs never materialize
      unblock();
    }
    abandonDescendants(id);
    if (--tasksRemaining_ == 0) beginStageOut();
    else scheduleDispatch();
  }

  void abandonDescendants(TaskId failedTask) {
    std::vector<std::pair<TaskId, TaskId>> stack;  // (task, sealing ancestor)
    for (TaskId c : wf_.task(failedTask).children)
      stack.emplace_back(c, failedTask);
    while (!stack.empty()) {
      const auto [id, ancestor] = stack.back();
      stack.pop_back();
      if (abandoned_[id]) continue;
      abandoned_[id] = true;
      emit(obs::TaskAbandoned{id, ancestor});
      ++result_.tasksAbandoned;
      --tasksRemaining_;
      for (TaskId c : wf_.task(id).children) stack.emplace_back(c, id);
    }
  }

  /// The workflow deadline passed: preempt every in-flight attempt (billing
  /// the partial work as waste), stop dispatching, and report the run
  /// incomplete.  Already-scheduled calendar events become no-ops via the
  /// halted_ guards.
  void onDeadline() {
    if (finished_ || halted_) return;
    halted_ = true;
    result_.deadlineExceeded = true;
    // The task-indexed attempt vector is naturally in ascending id order —
    // the order the old map-based code had to sort into.
    for (TaskId id = 0; id < static_cast<TaskId>(running_.size()); ++id) {
      const Attempt& a = running_[id];
      if (!a.active) continue;
      sim_.cancel(a.finishEvent);
      if (a.crashEvent != sim::kInvalidEvent) sim_.cancel(a.crashEvent);
      const double wasted =
          std::min(sim_.now() - a.execStart, a.runtimeSeconds);
      cpuSeconds_[id] += wasted;
      result_.wastedCpuSeconds += wasted;
      bill(obs::Resource::Cpu, id, wasted);
      running_[id].active = false;
    }
    emit(obs::DeadlineExceeded{tasksRemaining_});
    finish();
  }

  // -- regular / cleanup path ---------------------------------------------------
  void startRegular(TaskId id) {
    emit(obs::TaskExecStarted{id});
    registerAttempt(id, &Run::finishRegular);
  }

  /// The per-task coin flip (faults.legacy, drawn by faults::FaultInjector):
  /// true if this completion attempt fails and the task re-executes
  /// immediately on the same processor — full runtime billed, no retry
  /// budget, no re-staging, draw order identical to the pre-faults engine.
  bool attemptFails(TaskId id, void (Run::*retry)(TaskId)) {
    const dag::Task& t = wf_.task(id);
    if (!injector_ || !injector_->legacyAttemptFails()) return false;
    cpuSeconds_[id] += t.runtimeSeconds;  // the failed attempt
    result_.wastedCpuSeconds += t.runtimeSeconds;
    ++result_.taskRetries;
    emit(obs::TaskRetried{id});
    bill(obs::Resource::Cpu, id, t.runtimeSeconds);
    sim_.scheduleAfter(t.runtimeSeconds,
                       [this, id, retry] { (this->*retry)(id); });
    return true;
  }

  void finishRegular(TaskId id) {
    if (halted_) return;
    // An S3 outage blocks the output commit: the task holds its processor
    // until the service returns (extending the billed makespan), then
    // finishes normally.
    if (const double at = storage_.availableFrom(sim_.now()); at > sim_.now()) {
      sim_.schedule(at, [this, id] { finishRegular(id); });
      return;
    }
    running_[id].active = false;
    if (attemptFails(id, &Run::finishRegular)) return;
    const dag::Task& t = wf_.task(id);
    cpuSeconds_[id] += t.runtimeSeconds;
    bill(obs::Resource::Cpu, id, t.runtimeSeconds);
    for (FileId f : t.outputs) {
      const Bytes size = wf_.file(f).size;
      storage_.put(f, size);
      noteStored(f, id, size.value());
    }
    if (cfg_.storageCapacityBytes > 0.0)
      reservedBytes_ -= storageDemand(id);  // materialized: now counted as
                                            // resident instead
    bool freed = false;
    if (cfg_.mode == DataMode::DynamicCleanup) {
      for (FileId f : t.inputs) {
        if (remainingUses_[f] == 0)
          throw std::logic_error("engine: cleanup refcount underflow");
        if (--remainingUses_[f] == 0 && !plan_.isOutput[f]) {
          const double bytes = storage_.sizeOf(f).value();
          storage_.erase(f);
          billErase(f);
          emit(obs::FileCleanupDeleted{f, id, bytes});
          freed = true;
        }
      }
    }
    if (freed) unblock();
    completeTask(id);
  }

  // -- remote I/O path -----------------------------------------------------------
  // Residency follows the paper's accounting ("the files are present on the
  // resource only during the execution of the current task", Fig 7): inputs
  // occupy storage from execution start until execution end; each output
  // occupies storage from execution end until its own stage-out completes.
  void startRemote(TaskId id) {
    const dag::Task& t = wf_.task(id);
    remote_[id].pendingIo = t.inputs.size();
    if (t.inputs.empty()) {
      execRemote(id);
      return;
    }
    for (FileId f : t.inputs) {
      const Bytes size = wf_.file(f).size;
      emit(obs::StageInStarted{f, id, size.value()});
      link_.startTransfer(size, [this, id, f, size] {
        if (halted_) return;
        remote_[id].bytesIn += size.value();
        ++result_.transfersIn;
        emit(obs::StageInFinished{f, id, size.value()});
        bill(obs::Resource::TransferIn, id, size.value());
        if (--remote_[id].pendingIo == 0) execRemote(id);
      });
    }
  }

  void execRemote(TaskId id) {
    const dag::Task& t = wf_.task(id);
    emit(obs::TaskExecStarted{id});
    RemoteTask& r = remote_[id];
    r.firstKey = nextObjectKey_;
    r.inputKeys = t.inputs.size();
    for (FileId f : t.inputs) {
      const std::uint64_t key = nextObjectKey_++;
      storage_.put(key, wf_.file(f).size);
      noteStored(key, id, wf_.file(f).size.value());
    }
    registerAttempt(id, &Run::finishRemote);
  }

  /// Erase the task's resident input copies; true if it had any.
  bool eraseRemoteInputs(TaskId id) {
    RemoteTask& r = remote_[id];
    for (std::uint64_t key = r.firstKey; key < r.firstKey + r.inputKeys;
         ++key) {
      storage_.erase(key);
      billErase(key);
    }
    const bool freed = r.inputKeys > 0;
    r.inputKeys = 0;
    return freed;
  }

  void finishRemote(TaskId id) {
    if (halted_) return;
    if (const double at = storage_.availableFrom(sim_.now()); at > sim_.now()) {
      sim_.schedule(at, [this, id] { finishRemote(id); });
      return;
    }
    running_[id].active = false;
    if (attemptFails(id, &Run::finishRemote)) return;
    const dag::Task& t = wf_.task(id);
    cpuSeconds_[id] += t.runtimeSeconds;
    bill(obs::Resource::Cpu, id, t.runtimeSeconds);
    eraseRemoteInputs(id);
    if (cfg_.storageCapacityBytes > 0.0)
      reservedBytes_ -= storageDemand(id);  // outputs materialize below
    if (!t.inputs.empty()) unblock();
    remote_[id].pendingIo = t.outputs.size();
    if (t.outputs.empty()) {
      teardownRemote(id);
      return;
    }
    for (FileId f : t.outputs) {
      const Bytes size = wf_.file(f).size;
      const std::uint64_t key = nextObjectKey_++;
      storage_.put(key, size);
      noteStored(key, id, size.value());
      emit(obs::StageOutStarted{f, id, size.value()});
      link_.startTransfer(size, [this, id, f, key, size] {
        if (halted_) return;
        remote_[id].bytesOut += size.value();
        ++result_.transfersOut;
        storage_.erase(key);
        billErase(key);
        emit(obs::StageOutFinished{f, id, size.value()});
        bill(obs::Resource::TransferOut, id, size.value());
        unblock();
        if (--remote_[id].pendingIo == 0) teardownRemote(id);
      });
    }
  }

  void teardownRemote(TaskId id) {
    remote_[id].pendingIo = 0;
    completeTask(id);
  }

  // -- final stage-out -------------------------------------------------------------
  void beginStageOut() {
    if (cfg_.mode == DataMode::RemoteIO) {
      // Every task already delivered its outputs to the user site.
      finish();
      return;
    }
    auto outputs = wf_.workflowOutputs();
    if (result_.tasksFailed + result_.tasksAbandoned > 0) {
      // Failed branches never produced their outputs; stage out only what is
      // actually resident.
      std::erase_if(outputs,
                    [this](FileId f) { return !storage_.contains(f); });
    }
    pendingStageOut_ = outputs.size();
    if (pendingStageOut_ == 0) {
      sweepStorageAndFinish();
      return;
    }
    for (FileId f : outputs) {
      const Bytes size = wf_.file(f).size;
      emit(obs::StageOutStarted{f, obs::kNoTask, size.value()});
      link_.startTransfer(size, [this, f, size] {
        if (halted_) return;
        result_.bytesOut += size;
        ++result_.transfersOut;
        emit(obs::StageOutFinished{f, obs::kNoTask, size.value()});
        bill(obs::Resource::TransferOut, obs::kNoTask, size.value());
        if (--pendingStageOut_ == 0) sweepStorageAndFinish();
      });
    }
  }

  void sweepStorageAndFinish() {
    // "After that ... all the files are deleted from the storage resource."
    for (FileId f = 0; f < static_cast<FileId>(wf_.fileCount()); ++f)
      if (storage_.contains(f)) {
        storage_.erase(f);
        billErase(f);
      }
    finish();
  }

  void finish() {
    accrueBusy();
    finished_ = true;
    endTime_ = sim_.now();
    if (sampler_) sampler_->stop();
    emit(obs::RunFinished{sim_.now()});
  }

  // -- data -------------------------------------------------------------------------
  struct ReadyEntry {
    double rank;
    std::uint64_t sequence;
    TaskId id;
  };
  struct WorseReady {
    bool operator()(const ReadyEntry& a, const ReadyEntry& b) const {
      if (a.rank != b.rank) return a.rank < b.rank;  // higher rank first
      return a.sequence > b.sequence;                // then FIFO
    }
  };

  const Workflow& wf_;
  const EngineConfig& cfg_;
  const faults::FaultConfig fcfg_;
  dag::CleanupPlan plan_;

  sim::Simulator sim_;
  sim::Link link_;
  cloud::StorageService storage_;

  std::vector<std::size_t> waitCount_;
  std::vector<std::size_t> remainingUses_;
  std::vector<bool> isExternal_;
  std::vector<double> upwardRank_;
  std::priority_queue<ReadyEntry, std::vector<ReadyEntry>, WorseReady> ready_;
  std::uint64_t readySeq_ = 0;
  bool dispatchScheduled_ = false;
  int freeProcessors_ = 0;
  std::size_t tasksRemaining_ = 0;
  std::size_t pendingStageOut_ = 0;

  /// Remote I/O state of one task.  Its resident input objects have keys
  /// unique per use (two tasks may stage the same logical file
  /// concurrently), handed out consecutively, so a first key and a count
  /// name them.  The bytes its transfers moved are summed in task-id order
  /// when the result is extracted, as CPU-seconds are, so the totals do not
  /// depend on the order in which transfers finish.
  struct RemoteTask {
    std::uint64_t firstKey = 0;
    std::size_t inputKeys = 0;  ///< Resident input objects from firstKey.
    std::size_t pendingIo = 0;  ///< In-flight transfers.
    double bytesIn = 0.0;
    double bytesOut = 0.0;
  };
  /// Task-indexed (sized in prepare()); empty in the other data modes.
  std::vector<RemoteTask> remote_;
  std::uint64_t nextObjectKey_ = cloud::kUseKeyBase;

  std::vector<ReadyEntry> blocked_;  ///< Ready but waiting for storage space.
  double reservedBytes_ = 0.0;       ///< Admitted tasks' unmaterialized bytes.

  /// Fault machinery.  One Attempt per task currently executing: the
  /// calendar events for its completion and (when drawn) its crash, so
  /// either outcome can cancel the other.
  struct Attempt {
    sim::EventId finishEvent = sim::kInvalidEvent;
    sim::EventId crashEvent = sim::kInvalidEvent;
    double execStart = 0.0;
    double runtimeSeconds = 0.0;
    bool active = false;
  };
  std::optional<faults::FaultInjector> injector_;
  std::vector<Attempt> running_;  ///< Task-indexed; active marks in-flight.
  std::vector<bool> abandoned_;  ///< Descendants of permanently failed tasks.
  /// CPU-seconds charged to each task, summed in task-id order when the
  /// result is extracted: the total then does not depend on the order in
  /// which tasks finish, so it is the same for every pool size.
  std::vector<double> cpuSeconds_;
  bool halted_ = false;          ///< Deadline hit: pending events are no-ops.
  int linkSuspends_ = 0;         ///< Overlapping-outage refcount.

  int busyCount_ = 0;
  double busyIntegral_ = 0.0;
  double busyLast_ = 0.0;

  /// Telemetry plumbing.  obs_ is what the engine emits to: the configured
  /// observer (nullptr = fully disabled).
  obs::Sink* obs_ = nullptr;
  bool billed_ = false;
  std::optional<obs::PeriodicSampler> sampler_;
  /// Billing records by file id and by per-use key - kUseKeyBase, sized in
  /// prepare() when billing is on; empty otherwise.
  std::vector<StoredObject> storedFiles_;
  std::vector<StoredObject> storedUses_;

  bool finished_ = false;
  double endTime_ = 0.0;
  ExecutionResult result_;
};

}  // namespace

ExecutionResult simulateWorkflow(const dag::Workflow& workflow,
                                 const EngineConfig& config) {
  Run::validate(workflow, config);
  if (!config.profile || config.observer == nullptr) {
    Run run(workflow, config);
    return run.execute();
  }
  // Self-profiling path: time Run construction as Setup, let execute()
  // attribute the rest, then surface the totals through the observer (after
  // RunFinished, with time < 0 — wall-clock stays out of simulated time).
  obs::PhaseProfiler profiler;
  std::optional<Run> run;
  {
    MCSIM_TRACE_PHASE(&profiler, obs::SimPhase::Setup);
    run.emplace(workflow, config);
  }
  ExecutionResult result = run->execute(&profiler);
  profiler.emitTo(config.observer);
  return result;
}

}  // namespace mcsim::engine
