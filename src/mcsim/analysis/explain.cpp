#include "mcsim/analysis/explain.hpp"

#include <algorithm>
#include <cstdio>
#include <ostream>
#include <unordered_map>
#include <unordered_set>

#include "mcsim/obs/json_write.hpp"

namespace mcsim::analysis {
namespace {

using obs::JsonNumber;
using obs::JsonString;

constexpr double kEps = 1e-9;

CostBucket bucketFor(obs::SpanKind kind) {
  switch (kind) {
    case obs::SpanKind::Compute: return CostBucket::Compute;
    case obs::SpanKind::StageIn: return CostBucket::StageIn;
    case obs::SpanKind::StageOut: return CostBucket::StageOut;
    case obs::SpanKind::QueueWait: return CostBucket::QueueWait;
    case obs::SpanKind::RetryWait: return CostBucket::RetryWait;
    default: return CostBucket::TaskOther;
  }
}

/// Incoming dependency edges (FollowsFrom only — resource edges record
/// contention for viewers but do not bind the causal walk) and child
/// sub-spans, both as CSR over span ids.
struct Adjacency {
  std::vector<std::uint32_t> inOffsets, inFrom;
  std::vector<std::uint32_t> childOffsets, children;
};

Adjacency buildAdjacency(const obs::TraceStore& store) {
  const std::size_t n = store.spanCount();
  Adjacency adj;
  adj.inOffsets.assign(n + 1, 0);
  adj.childOffsets.assign(n + 1, 0);
  const auto& from = store.edgeFroms();
  const auto& to = store.edgeTos();
  const auto& kinds = store.edgeKinds();
  for (std::size_t e = 0; e < store.edgeCount(); ++e) {
    if (kinds[e] == static_cast<std::uint8_t>(obs::EdgeKind::FollowsFrom))
      ++adj.inOffsets[to[e] + 1];
    else if (kinds[e] == static_cast<std::uint8_t>(obs::EdgeKind::Child))
      ++adj.childOffsets[from[e] + 1];
  }
  for (std::size_t i = 1; i <= n; ++i) {
    adj.inOffsets[i] += adj.inOffsets[i - 1];
    adj.childOffsets[i] += adj.childOffsets[i - 1];
  }
  adj.inFrom.resize(adj.inOffsets[n]);
  adj.children.resize(adj.childOffsets[n]);
  std::vector<std::uint32_t> inCursor(adj.inOffsets.begin(),
                                      adj.inOffsets.end() - 1);
  std::vector<std::uint32_t> childCursor(adj.childOffsets.begin(),
                                         adj.childOffsets.end() - 1);
  for (std::size_t e = 0; e < store.edgeCount(); ++e) {
    if (kinds[e] == static_cast<std::uint8_t>(obs::EdgeKind::FollowsFrom))
      adj.inFrom[inCursor[to[e]]++] = from[e];
    else if (kinds[e] == static_cast<std::uint8_t>(obs::EdgeKind::Child))
      adj.children[childCursor[from[e]]++] = to[e];
  }
  return adj;
}

/// Append `cur`'s path tile(s).  A Task span is sub-attributed by sweeping
/// its closed child spans in time order with a moving cursor, so concurrent
/// children (remote-I/O stage-ins share the window) are never double-counted;
/// whatever the children leave uncovered becomes TaskOther.  Other span
/// kinds are one tile each.  Segments are appended in *reverse* time order
/// (the walk runs backwards); extractCriticalPath reverses at the end.
void emitSegments(const obs::TraceStore& store, const Adjacency& adj,
                  std::uint32_t cur, double begin, double end,
                  std::vector<CriticalSegment>& rev) {
  if (store.kind(cur) != obs::SpanKind::Task) {
    if (end - begin > 0.0)
      rev.push_back({cur, bucketFor(store.kind(cur)), begin, end});
    return;
  }
  std::vector<std::uint32_t> kids(
      adj.children.begin() + adj.childOffsets[cur],
      adj.children.begin() + adj.childOffsets[cur + 1]);
  std::sort(kids.begin(), kids.end(), [&](std::uint32_t a, std::uint32_t b) {
    if (store.begin(a) != store.begin(b))
      return store.begin(a) < store.begin(b);
    return a < b;
  });
  std::vector<CriticalSegment> fwd;
  double t = begin;
  for (std::uint32_t c : kids) {
    const double ce = store.isOpen(c) ? end : std::min(end, store.end(c));
    const double cb = std::max(t, std::min(end, store.begin(c)));
    if (ce > cb + kEps) {
      if (cb > t + kEps)
        fwd.push_back({cur, CostBucket::TaskOther, t, cb});
      fwd.push_back({c, bucketFor(store.kind(c)), cb, ce});
      t = ce;
    }
  }
  if (end > t + kEps) fwd.push_back({cur, CostBucket::TaskOther, t, end});
  // Degenerate zero-width task (possible with zero-runtime tasks): keep one
  // zero-width tile so the task still registers on the path.
  if (fwd.empty()) fwd.push_back({cur, CostBucket::TaskOther, begin, end});
  rev.insert(rev.end(), fwd.rbegin(), fwd.rend());
}

}  // namespace

obs::TraceTopology traceTopology(const dag::Workflow& wf) {
  obs::TraceTopology topo;
  const std::size_t n = wf.taskCount();
  std::vector<bool> isExternal(wf.fileCount(), false);
  for (dag::FileId f : wf.externalInputs()) isExternal[f] = true;

  topo.parentOffsets.assign(n + 1, 0);
  topo.extInputOffsets.assign(n + 1, 0);
  for (const dag::Task& t : wf.tasks()) {
    topo.parentOffsets[t.id + 1] =
        static_cast<std::uint32_t>(t.parents.size());
    std::uint32_t ext = 0;
    for (dag::FileId f : t.inputs)
      if (isExternal[f]) ++ext;
    topo.extInputOffsets[t.id + 1] = ext;
  }
  for (std::size_t i = 1; i <= n; ++i) {
    topo.parentOffsets[i] += topo.parentOffsets[i - 1];
    topo.extInputOffsets[i] += topo.extInputOffsets[i - 1];
  }
  topo.parents.resize(topo.parentOffsets[n]);
  topo.extInputs.resize(topo.extInputOffsets[n]);
  for (const dag::Task& t : wf.tasks()) {
    std::uint32_t p = topo.parentOffsets[t.id];
    for (dag::TaskId parent : t.parents) topo.parents[p++] = parent;
    std::uint32_t x = topo.extInputOffsets[t.id];
    for (dag::FileId f : t.inputs)
      if (isExternal[f]) topo.extInputs[x++] = f;
  }
  return topo;
}

obs::TraceNames traceNames(const dag::Workflow& wf) {
  obs::TraceNames names;
  names.taskNames.reserve(wf.taskCount());
  names.taskTypes.reserve(wf.taskCount());
  for (const dag::Task& t : wf.tasks()) {
    names.taskNames.push_back(t.name);
    names.taskTypes.push_back(t.type);
  }
  names.fileNames.reserve(wf.fileCount());
  for (const dag::File& f : wf.files()) names.fileNames.push_back(f.name);
  return names;
}

const char* costBucketName(CostBucket bucket) {
  switch (bucket) {
    case CostBucket::Compute: return "compute";
    case CostBucket::StageIn: return "stage_in";
    case CostBucket::StageOut: return "stage_out";
    case CostBucket::QueueWait: return "queue_wait";
    case CostBucket::RetryWait: return "retry_wait";
    case CostBucket::TaskOther: return "task_other";
    case CostBucket::Gap: return "gap";
    case CostBucket::VmStartup: return "vm_startup";
    case CostBucket::VmTeardown: return "vm_teardown";
  }
  return "unknown";
}

CriticalPath extractCriticalPath(const obs::TraceStore& store,
                                 double makespanSeconds) {
  CriticalPath path;

  // Terminal: the latest-ending completed work span.  At equal end times a
  // Task span beats its co-terminal stage spans (remote-I/O: the final
  // stage-out closes together with its task, but only the Task span has the
  // dependency edges the walk needs); remaining ties break toward the larger
  // span id (the later-recorded one) for determinism.
  std::uint32_t terminal = obs::kNoSpan;
  const auto better = [&](std::uint32_t s, std::uint32_t best) {
    if (best == obs::kNoSpan) return true;
    if (store.end(s) != store.end(best)) return store.end(s) > store.end(best);
    const bool sTask = store.kind(s) == obs::SpanKind::Task;
    const bool bestTask = store.kind(best) == obs::SpanKind::Task;
    if (sTask != bestTask) return sTask;
    return s > best;
  };
  for (std::uint32_t s = 0; s < store.spanCount(); ++s) {
    const obs::SpanKind k = store.kind(s);
    if (k != obs::SpanKind::Task && k != obs::SpanKind::StageIn &&
        k != obs::SpanKind::StageOut)
      continue;
    if (store.isOpen(s)) continue;
    if (better(s, terminal)) terminal = s;
  }
  if (terminal == obs::kNoSpan) {
    if (makespanSeconds > 0.0)
      path.segments.push_back(
          {obs::kNoSpan, CostBucket::Gap, 0.0, makespanSeconds});
    return path;
  }

  const Adjacency adj = buildAdjacency(store);
  std::vector<CriticalSegment> rev;
  std::vector<std::uint32_t> tasksRev;

  if (makespanSeconds > store.end(terminal) + kEps)
    rev.push_back({obs::kNoSpan, CostBucket::VmTeardown, store.end(terminal),
                   makespanSeconds});

  std::uint32_t cur = terminal;
  double cursor = store.end(terminal);
  while (true) {
    const double b = store.begin(cur);
    emitSegments(store, adj, cur, b, cursor, rev);
    if (store.kind(cur) == obs::SpanKind::Task &&
        store.task(cur) != obs::kNoTask)
      tasksRev.push_back(store.task(cur));

    // Dependency predecessor: the latest-ending incoming span that finished
    // by the time `cur` began (what actually released it).
    std::uint32_t pred = obs::kNoSpan;
    for (std::uint32_t i = adj.inOffsets[cur]; i < adj.inOffsets[cur + 1];
         ++i) {
      const std::uint32_t from = adj.inFrom[i];
      if (store.isOpen(from)) continue;
      if (store.end(from) > b + kEps) continue;
      if (pred == obs::kNoSpan || store.end(from) > store.end(pred) ||
          (store.end(from) == store.end(pred) && from > pred))
        pred = from;
    }
    if (pred == obs::kNoSpan) {
      if (b > kEps)
        rev.push_back({obs::kNoSpan, CostBucket::VmStartup, 0.0, b});
      break;
    }
    if (store.end(pred) < b - kEps)
      rev.push_back(
          {obs::kNoSpan, CostBucket::Gap, store.end(pred), b});
    cursor = std::min(store.end(pred), b);
    cur = pred;
  }

  path.segments.assign(rev.rbegin(), rev.rend());
  path.taskOrder.assign(tasksRev.rbegin(), tasksRev.rend());
  return path;
}

Explanation explainRun(const dag::Workflow& wf, const obs::TraceStore& store,
                       const obs::RunReport& report) {
  Explanation e;
  e.workflow = report.workflow;
  e.mode = report.mode;
  e.billing = report.billing;
  e.processors = report.processors;
  e.makespanSeconds = report.makespanSeconds;
  e.totalTasks = wf.taskCount();
  e.path = extractCriticalPath(store, report.makespanSeconds);

  std::unordered_map<std::uint32_t, double> critSeconds;
  for (const CriticalSegment& seg : e.path.segments) {
    e.bucketSeconds[static_cast<std::size_t>(seg.bucket)] += seg.seconds();
    if (seg.span != obs::kNoSpan && store.task(seg.span) != obs::kNoTask)
      critSeconds[store.task(seg.span)] += seg.seconds();
  }

  std::unordered_set<std::uint32_t> critical(e.path.taskOrder.begin(),
                                             e.path.taskOrder.end());
  e.criticalTasks = critical.size();

  e.totalCost = report.totals.total();
  e.stagingCost = report.staging.total();
  e.unattributedCost = report.unattributedCpu;
  std::unordered_map<std::uint32_t, const obs::TaskCost*> costByTask;
  for (const obs::TaskCost& t : report.byTask) {
    costByTask.emplace(t.task, &t);
    if (critical.count(t.task) != 0)
      e.criticalCost += t.cost.total();
    else
      e.slackCost += t.cost.total();
  }

  std::unordered_set<std::uint32_t> seen;
  for (std::uint32_t id : e.path.taskOrder) {
    if (!seen.insert(id).second)
      continue;  // a retried task can appear twice; keep the first visit
    TaskShare share;
    share.task = id;
    const dag::Task& t = wf.task(id);
    share.name = t.name;
    share.type = t.type;
    if (const auto it = critSeconds.find(id); it != critSeconds.end())
      share.criticalSeconds = it->second;
    if (const auto it = costByTask.find(id); it != costByTask.end())
      share.cost = it->second->cost;
    e.tasks.push_back(std::move(share));
  }
  std::sort(e.tasks.begin(), e.tasks.end(),
            [](const TaskShare& a, const TaskShare& b) {
              if (a.criticalSeconds != b.criticalSeconds)
                return a.criticalSeconds > b.criticalSeconds;
              return a.task < b.task;
            });

  std::unordered_map<std::string, std::size_t> typeIndex;
  for (const TaskShare& t : e.tasks) {
    auto [it, fresh] = typeIndex.try_emplace(t.type, e.byType.size());
    if (fresh) {
      TypeShare share;
      share.type = t.type;
      e.byType.push_back(std::move(share));
    }
    TypeShare& share = e.byType[it->second];
    ++share.tasks;
    share.criticalSeconds += t.criticalSeconds;
    share.cost += t.cost.total();
  }
  std::sort(e.byType.begin(), e.byType.end(),
            [](const TypeShare& a, const TypeShare& b) {
              if (a.criticalSeconds != b.criticalSeconds)
                return a.criticalSeconds > b.criticalSeconds;
              return a.type < b.type;
            });
  return e;
}

void printExplanation(std::ostream& os, const Explanation& e,
                      std::size_t topN) {
  char buf[256];
  const auto pct = [&](double s) {
    return e.makespanSeconds > 0.0 ? 100.0 * s / e.makespanSeconds : 0.0;
  };
  os << "mcsim explain: " << e.workflow << " (" << e.mode << ", "
     << e.processors << " proc, " << e.billing << " billing)\n";
  std::snprintf(buf, sizeof buf,
                "  makespan %.3f s; critical path visits %zu of %zu tasks\n",
                e.makespanSeconds, e.criticalTasks, e.totalTasks);
  os << buf;

  os << "\n  makespan attribution (simulated critical path):\n";
  for (std::size_t b = 0; b < kCostBucketCount; ++b) {
    const double s = e.bucketSeconds[b];
    if (s <= 0.0) continue;
    std::snprintf(buf, sizeof buf, "    %-11s %14.3f s  %5.1f%%\n",
                  costBucketName(static_cast<CostBucket>(b)), s, pct(s));
    os << buf;
  }

  os << "\n  cost attribution:\n";
  const auto costRow = [&](const char* label, Money m) {
    const double share = e.totalCost.value() > 0.0
                             ? 100.0 * m.value() / e.totalCost.value()
                             : 0.0;
    std::snprintf(buf, sizeof buf, "    %-13s $%12.4f  %5.1f%%\n", label,
                  m.value(), share);
    os << buf;
  };
  costRow("critical path", e.criticalCost);
  costRow("slack tasks", e.slackCost);
  costRow("staging", e.stagingCost);
  costRow("idle (prov.)", e.unattributedCost);
  costRow("total", e.totalCost);

  os << "\n  top tasks on the critical path:\n";
  std::snprintf(buf, sizeof buf, "    %-5s %-18s %-12s %14s %12s\n", "task",
                "name", "type", "critical_s", "cost_$");
  os << buf;
  for (std::size_t i = 0; i < e.tasks.size() && i < topN; ++i) {
    const TaskShare& t = e.tasks[i];
    std::snprintf(buf, sizeof buf, "    %-5u %-18s %-12s %14.3f %12.6f\n",
                  t.task, t.name.c_str(), t.type.c_str(), t.criticalSeconds,
                  t.cost.total().value());
    os << buf;
  }

  os << "\n  by task type (critical tasks only):\n";
  for (const TypeShare& t : e.byType) {
    std::snprintf(buf, sizeof buf,
                  "    %-12s %4zu task(s) %14.3f s %12.6f $\n",
                  t.type.c_str(), t.tasks, t.criticalSeconds,
                  t.cost.value());
    os << buf;
  }
}

void writeExplanationJson(std::ostream& os, const Explanation& e) {
  os << "{\n";
  os << "  \"schema\": \"mcsim.explain.v1\",\n";
  os << "  \"workflow\": " << JsonString{e.workflow} << ",\n";
  os << "  \"mode\": \"" << e.mode << "\",\n";
  os << "  \"billing\": \"" << e.billing << "\",\n";
  os << "  \"processors\": " << e.processors << ",\n";
  os << "  \"makespan_seconds\": " << JsonNumber{e.makespanSeconds} << ",\n";
  os << "  \"critical_tasks\": " << e.criticalTasks << ",\n";
  os << "  \"total_tasks\": " << e.totalTasks << ",\n";
  os << "  \"segments\": " << e.path.segments.size() << ",\n";
  os << "  \"makespan_buckets\": {";
  for (std::size_t b = 0; b < kCostBucketCount; ++b) {
    if (b != 0) os << ',';
    os << '"' << costBucketName(static_cast<CostBucket>(b))
       << "\":" << JsonNumber{e.bucketSeconds[b]};
  }
  os << "},\n";
  os << "  \"cost\": {\"total\":" << JsonNumber{e.totalCost.value()}
     << ",\"critical\":" << JsonNumber{e.criticalCost.value()}
     << ",\"slack\":" << JsonNumber{e.slackCost.value()}
     << ",\"staging\":" << JsonNumber{e.stagingCost.value()}
     << ",\"unattributed\":" << JsonNumber{e.unattributedCost.value()}
     << "},\n";
  os << "  \"tasks\": [\n";
  for (std::size_t i = 0; i < e.tasks.size(); ++i) {
    const TaskShare& t = e.tasks[i];
    os << "    {\"task\":" << t.task << ",\"name\":" << JsonString{t.name}
       << ",\"type\":" << JsonString{t.type}
       << ",\"critical_seconds\":" << JsonNumber{t.criticalSeconds}
       << ",\"cost\":" << JsonNumber{t.cost.total().value()} << '}'
       << (i + 1 < e.tasks.size() ? "," : "") << '\n';
  }
  os << "  ],\n";
  os << "  \"by_type\": [\n";
  for (std::size_t i = 0; i < e.byType.size(); ++i) {
    const TypeShare& t = e.byType[i];
    os << "    {\"type\":" << JsonString{t.type}
       << ",\"tasks\":" << t.tasks
       << ",\"critical_seconds\":" << JsonNumber{t.criticalSeconds}
       << ",\"cost\":" << JsonNumber{t.cost.value()} << '}'
       << (i + 1 < e.byType.size() ? "," : "") << '\n';
  }
  os << "  ]\n";
  os << "}\n";
}

}  // namespace mcsim::analysis
