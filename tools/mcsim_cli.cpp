// mcsim — command-line front-end to the simulator.
//
//   mcsim info     --workflow montage:2
//   mcsim simulate --workflow montage:1 --mode cleanup --procs 8
//                  [--trace-out run.json]
//   mcsim sweep    --workflow montage:4 [--procs 1,2,4,...]
//   mcsim modes    --workflow cybershake
//   mcsim ccr      --workflow montage:1 --procs 8 --targets 0.053,0.5,2
//   mcsim reliability --workflow montage:1 --mtbf 900,3600,14400
//   mcsim explain  --workflow montage:4 --mode cleanup [--json] [--top 20]
//   mcsim dax      --workflow montage:1 --out montage1.dax
//   mcsim survey   --tiles 1000 --shards 8 --jobs 8
//   mcsim serve    --socket /tmp/mcsim.sock --jobs 8
//   mcsim request  --socket /tmp/mcsim.sock --workflow montage:4 --procs 1,16
//
// --workflow accepts montage:<degrees>, cybershake, epigenomics, inspiral,
// sipht, or a path to a DAX file.
#include <algorithm>
#include <chrono>
#include <csignal>
#include <fstream>
#include <iostream>
#include <set>
#include <sstream>
#include <string_view>
#include <variant>
#include <vector>

#include "mcsim/mcsim.hpp"

namespace {

using namespace mcsim;

constexpr const char* kUsage = R"(usage: mcsim <command> [options]

commands:
  info      workflow structure and aggregate statistics
  simulate  one execution; prints metrics and costs
  sweep     Question-1 provisioning sweep (Fig 4-6 style)
  modes     Question-2 data-mode comparison (Fig 7-9 style)
  ccr       Fig-11 style CCR sweep
  reliability  cost vs. processor MTBF across the three data modes
  explain   critical-path cost attribution for one execution
  providers list the provider catalog (fee schedules, SKUs, storage tiers)
  optimize  cross-provider placement optimizer: sweep provider x instance
            x storage class x data mode x data placement, rank by total
            cost and mark the cost-makespan Pareto frontier
  dax       write the workflow as a DAX XML file
  survey    build a sky-survey campaign (many Montage tiles via the
            streaming builder) and simulate it as concurrent shards
  serve     run the simulation daemon on a unix socket (NDJSON protocol;
            also answers HTTP "GET /metrics" for Prometheus scrapers)
  request   submit a scenario batch to a running daemon and wait for the
            result (one scenario per --procs entry); prints the JSON reply
  status    poll a job on a running daemon (--job <id>)
  cancel    cancel a job on a running daemon (--job <id>)
  metrics   scrape a running daemon's Prometheus exposition
  shutdown  ask a running daemon to stop
  version   print version, git SHA and build type (also --version)

common options (a command refuses any option not noted for it, and help
and version take none; "the sweeps": sweep modes ccr reliability optimize):
  --log-level <l>     (all) debug | info | warn | error | off (default warn)
  --workflow <spec>   (info simulate explain dax request, the sweeps)
                      montage:<degrees> | cybershake | epigenomics |
                      inspiral | sipht | <path.dax>       (default montage:1)
  --procs <n|list>    (simulate explain survey request, the sweeps)
                      processor count or comma list        (default 8)
  --bandwidth <mbps>  (as --procs) user<->storage link     (default 10)
  --mode <m>          (simulate explain survey request) remote-io |
                      regular | cleanup                    (default regular)
  --targets <list>    CCR targets for `ccr`
  --out <path>        output file for `dax`
  --trace-out <path>  (simulate/explain) write the causal span trace as
                      Perfetto/Chrome trace-event JSON
  --mctrace-out <p>   (simulate/explain) write the span trace in the compact
                      binary .mctrace format
  --telemetry-dir <d> (simulate) write events.jsonl, metrics.prom and
                      report.json for the run into directory <d>
  --sample-period <s> (simulate) storage sampling period for
                      --telemetry-dir in simulated seconds  (default 60)
  --profile           (simulate) emit simulator self-profiling events
                      (phase timers) into the telemetry stream
  --billing <b>       (explain) provisioned | usage   (default provisioned)
  --top <n>           (explain) rows in the top-task table (default 10)
  --json              (explain) machine-readable mcsim.explain.v1 JSON
  --jobs <n>          (survey serve, the sweeps) job-queue worker threads;
                      0 = serial (the queue runs inline, useful for
                      debugging)     (default: hardware concurrency)

provider options (simulate explain survey serve and the sweeps but
optimize, which sweeps the catalog and takes --providers-dir only;
providers takes --provider and --providers-dir):
  --provider <name>   catalog entry to price against  (default amazon-2008)
  --instance <sku>    instance type within the provider    (default first)
  --storage-class <c> storage class within the provider    (default first)
  --providers-dir <d> load the catalog from <d>/*.json instead of the
                      built-in profiles (config/providers/ mirrors them)

optimize options:
  --providers <list>  comma list of catalog names     (default: everything)
  --billing <b>       provisioned | usage                  (default usage)
  --spot              also evaluate spot variants of spot-capable SKUs
  --archive-hosting   also host inputs/outputs on provider storage tiers
  --cross-scratch     also place intermediates off the compute provider
  --sku-granularity   bill at each SKU's granularity instead of per-second
  --requests-per-month <n>  amortize hosted-archive holding costs over n
                      requests (0 = off)
  --top <n>           ranked rows to print                  (default 15)

survey options (survey takes no --workflow; tiles are generated):
  --tiles <n>            mosaic tiles in the campaign        (default 16)
  --tile-degrees <d>     degrees per tile                    (default 1)
  --overlap <f>          fraction of raw inputs shared with
                         the left neighbour tile, 0..0.5     (default 0)
  --runtime-jitter <f>   per-tile CPU jitter fraction, 0..0.9(default 0)
  --release-interval <s> tile release cadence, sim seconds   (default 0)
  --survey-seed <n>      campaign seed                       (default 1)
  --shards <n>           split the campaign into n shard
                         workflows simulated concurrently
                         (default: --jobs; 1 when --overlap > 0)

serve / client options:
  --socket <path>     (serve request status cancel shutdown metrics)
                      daemon unix socket path        (default mcsim.sock)
  --queue-depth <n>   (serve) max queued jobs before submits are refused
                      with a retryable "queue full"  (default 64)
  --cache-entries <n> (serve) memo-cache entry bound (default 256)
  --cache-bytes <n>   (serve) memo-cache byte bound  (default 256 MiB)
  --job <id>          (status/cancel) job id from a submit reply
  --base-seed <n>     (request) derive per-scenario fault seeds
  --events            (request) return the job's merged JSONL event
                      stream inside the result reply

fault injection (simulate explain survey reliability; request takes --mtbf
and --fault-seed; reliability reads --mtbf as a comma list):
  --mtbf <s|list>     processor MTBF in simulated seconds; 0 = off
  --retries <n>       retry budget per task                 (default 3)
  --retry-policy <p>  fixed | backoff                       (default fixed)
  --retry-delay <s>   delay before re-attempt (backoff base)(default 0)
  --jitter <f>        backoff jitter fraction               (default 0)
  --deadline <s>      (simulate explain survey) workflow deadline; 0 = none
  --fault-seed <n>    fault Rng seed                        (default 1)
)";

LogLevel parseLogLevel(const std::string& name) {
  if (name == "debug") return LogLevel::Debug;
  if (name == "info") return LogLevel::Info;
  if (name == "warn") return LogLevel::Warn;
  if (name == "error") return LogLevel::Error;
  if (name == "off") return LogLevel::Off;
  throw std::invalid_argument("unknown log level '" + name +
                              "' (want debug|info|warn|error|off)");
}

/// --workflow: the spec a command loads, or sends to a daemon.
std::string workflowOption(const ArgParser& args) {
  return args.valueOr("workflow", "montage:1");
}

/// --mode, in any spelling engine::parseDataMode accepts.
engine::DataMode modeOption(const ArgParser& args) {
  const auto mode = engine::parseDataMode(args.valueOr("mode", "regular"));
  if (!mode) throw std::invalid_argument(mode.error());
  return *mode;
}

/// --bandwidth, given in Mbps, as the engine's bytes per second.
double bandwidthOption(const ArgParser& args) {
  return args.numberOr("bandwidth", 10.0) * 1e6 / 8.0;
}

/// --retry-policy, --retries, --retry-delay and --jitter.
faults::RetryPolicy retryOptions(const ArgParser& args) {
  faults::RetryPolicy retry;
  const std::string policy = args.valueOr("retry-policy", "fixed");
  if (policy == "fixed") retry.kind = faults::RetryPolicyKind::Fixed;
  else if (policy == "backoff")
    retry.kind = faults::RetryPolicyKind::ExponentialBackoff;
  else
    throw std::invalid_argument("unknown retry policy '" + policy +
                                "' (want fixed|backoff)");
  retry.maxRetries = args.intOr("retries", 3);
  retry.delaySeconds = args.numberOr("retry-delay", 0.0);
  retry.jitterFraction = args.numberOr("jitter", 0.0);
  return retry;
}

/// --mode, --bandwidth, --mtbf and --fault-seed: a served scenario's run.
engine::EngineConfig scenarioOptions(const ArgParser& args) {
  engine::EngineConfig cfg;
  cfg.mode = modeOption(args);
  cfg.linkBandwidthBytesPerSec = bandwidthOption(args);
  cfg.faults.processor.mtbfSeconds = args.numberOr("mtbf", 0.0);
  cfg.faults.seed = args.u64Or("fault-seed", 1);
  return cfg;
}

/// simulate, explain and survey: scenarioOptions, --procs, retry, --deadline.
engine::EngineConfig engineOptions(const ArgParser& args) {
  engine::EngineConfig cfg = scenarioOptions(args);
  cfg.processors = args.intOr("procs", 8);
  cfg.faults.retry = retryOptions(args);
  cfg.faults.deadlineSeconds = args.numberOr("deadline", 0.0);
  return cfg;
}

/// --jobs: default = all hardware threads, 0 = serial (the job queue runs
/// inline in this thread).
int jobsOption(const ArgParser& args) {
  const int jobs = args.intOr("jobs", runner::defaultJobs());
  if (jobs < 0) throw std::invalid_argument("--jobs must be >= 0");
  return jobs;
}

/// The provider catalog for this invocation: built-in unless
/// --providers-dir points at a directory of profile JSON files.
cloud::ProviderCatalog loadCatalog(const ArgParser& args) {
  if (const auto dir = args.value("providers-dir")) {
    auto loaded = cloud::loadProviderCatalog(*dir);
    if (!loaded) throw std::runtime_error(loaded.error());
    return std::move(loaded.value());
  }
  return cloud::ProviderCatalog::builtin();
}

/// --provider/--instance/--storage-class -> the normalized fee view the
/// sweep-style commands consume.
cloud::Pricing selectPricing(const ArgParser& args) {
  return loadCatalog(args).pricing(args.valueOr("provider", "amazon-2008"),
                                   args.valueOr("instance", ""),
                                   args.valueOr("storage-class", ""));
}

cloud::CpuBillingMode parseBilling(const std::string& name) {
  if (name == "provisioned") return cloud::CpuBillingMode::Provisioned;
  if (name == "usage") return cloud::CpuBillingMode::Usage;
  throw std::invalid_argument("unknown billing '" + name +
                              "' (want provisioned|usage)");
}

/// --top: rows in a ranked table, defaulting to `fallback`.
std::size_t topOption(const ArgParser& args, int fallback) {
  const int top = args.intOr("top", fallback);
  if (top < 0) throw std::invalid_argument("--top must be >= 0");
  return static_cast<std::size_t>(top);
}

/// --socket: the daemon's unix socket.
std::string socketOption(const ArgParser& args) {
  return args.valueOr("socket", "mcsim.sock");
}

/// --trace-out and --mctrace-out: write the span trace as Perfetto JSON and
/// as .mctrace when asked, naming each file written on `log` if given.
void writeTraces(const ArgParser& args, const dag::Workflow& wf,
                 const obs::TraceStore& store, std::ostream* log) {
  if (const auto path = args.value("trace-out")) {
    std::ofstream out(*path);
    if (!out) throw std::runtime_error("cannot write " + *path);
    const obs::TraceNames names = analysis::traceNames(wf);
    obs::writePerfettoTrace(out, store, &names);
    if (log != nullptr)
      *log << "span trace written to " << *path
           << " (open in ui.perfetto.dev)\n";
  }
  if (const auto path = args.value("mctrace-out")) {
    std::ofstream out(*path, std::ios::binary);
    if (!out) throw std::runtime_error("cannot write " + *path);
    obs::writeMctrace(out, store);
    if (log != nullptr)
      *log << "binary span trace written to " << *path << " ("
           << store.spanCount() << " spans)\n";
  }
}

int cmdInfo(const dag::Workflow& wf, const ArgParser&) {
  Table t({"property", "value"}, {Align::Left, Align::Left});
  t.addRow({"name", wf.name()});
  t.addRow({"tasks", std::to_string(wf.taskCount())});
  t.addRow({"files", std::to_string(wf.fileCount())});
  t.addRow({"levels", std::to_string(wf.levelCount())});
  t.addRow({"max level width", std::to_string(dag::maxLevelWidth(wf))});
  t.addRow({"max parallelism", std::to_string(dag::maxParallelism(wf))});
  t.addRow({"total cpu time", formatDuration(wf.totalRuntimeSeconds())});
  t.addRow({"critical path", formatDuration(dag::criticalPathSeconds(wf))});
  t.addRow({"total data", formatBytes(wf.totalFileBytes())});
  t.addRow({"external inputs", formatBytes(wf.externalInputBytes())});
  t.addRow({"workflow outputs", formatBytes(wf.workflowOutputBytes())});
  t.addRow({"CCR @ 10 Mbps",
            std::to_string(wf.ccr(montage::kReferenceBandwidthBytesPerSec))});
  t.print(std::cout);

  const dag::WorkflowStats stats = dag::computeStats(wf);
  std::cout << "\nper-routine profile:\n";
  Table byType({"routine", "tasks", "mean runtime", "total runtime",
                "mean output"});
  for (const auto& [name, type] : stats.byType) {
    byType.addRow({name, std::to_string(type.runtimeSeconds.count),
                   formatDuration(type.runtimeSeconds.mean()),
                   formatDuration(type.runtimeSeconds.total),
                   formatBytes(Bytes(type.outputBytes.mean()))});
  }
  byType.print(std::cout);
  return 0;
}

int cmdSimulate(const dag::Workflow& wf, const ArgParser& args) {
  engine::EngineConfig cfg = engineOptions(args);
  cfg.profile = args.hasFlag("profile");

  // --telemetry-dir: observe the whole run and write the three artifacts.
  // Log messages join the same event stream while the session is live.
  std::optional<obs::TelemetrySession> telemetry;
  if (const auto dir = args.value("telemetry-dir")) {
    telemetry.emplace(obs::TelemetryOptions{*dir});
    cfg.samplePeriodSeconds = args.numberOr("sample-period", 60.0);
    setLogSink(telemetry->sink());
  }

  // Fold the run into a causal span trace: the level summary reads it, and
  // --trace-out / --mctrace-out export it.
  obs::TraceStore store;
  obs::SpanSink spanSink(store, analysis::traceTopology(wf));
  obs::FanOutSink observers;
  observers.add(&spanSink);
  if (telemetry) observers.add(telemetry->sink());
  cfg.observer = &observers;

  const auto result = engine::simulateWorkflow(wf, cfg);
  std::cout << engine::summarize(wf, result) << "\n\n";
  engine::printLevelSummary(std::cout, wf, store);
  if (result.processorCrashes + result.tasksFailed + result.tasksAbandoned >
          0 ||
      result.deadlineExceeded) {
    std::cout << "\nfaults: " << result.processorCrashes << " crashes, "
              << result.taskRetries << " retries, " << result.tasksFailed
              << " failed, " << result.tasksAbandoned << " abandoned, "
              << formatDuration(result.wastedCpuSeconds) << " wasted cpu";
    if (result.deadlineExceeded) std::cout << ", DEADLINE EXCEEDED";
    std::cout << "\n";
  }

  const cloud::Pricing pricing = selectPricing(args);
  const auto provisioned = engine::computeCost(
      result, pricing, cloud::CpuBillingMode::Provisioned);
  const auto usage =
      engine::computeCost(result, pricing, cloud::CpuBillingMode::Usage);
  std::cout << "\nprovisioned total " << formatMoney(provisioned.total())
            << ", usage total " << formatMoney(usage.total()) << "\n";

  if (telemetry) {
    setLogSink(nullptr);
    const obs::RunReport report = telemetry->finish(
        wf, result, pricing, cloud::CpuBillingMode::Provisioned);
    std::cout << "telemetry: " << telemetry->eventsPath() << ", "
              << telemetry->metricsPath() << ", " << telemetry->reportPath()
              << " (report total " << formatMoney(report.totals.total())
              << ")\n";
  }

  writeTraces(args, wf, store, &std::cout);
  return 0;
}

/// Run once with a SpanSink + ReportBuilder observing, then join the span
/// trace's critical path with the report's cost attribution.
int cmdExplain(const dag::Workflow& wf, const ArgParser& args) {
  engine::EngineConfig cfg = engineOptions(args);

  obs::TraceStore store;
  obs::SpanSink spanSink(store, analysis::traceTopology(wf));
  obs::ReportBuilder lineItems;
  obs::FanOutSink fan({&spanSink, &lineItems});
  cfg.observer = &fan;

  const auto result = engine::simulateWorkflow(wf, cfg);
  const auto billing = parseBilling(args.valueOr("billing", "provisioned"));
  const obs::RunReport report =
      lineItems.build(wf, result, selectPricing(args), billing);
  const analysis::Explanation e = analysis::explainRun(wf, store, report);
  // Silent: --json output goes to stdout.
  writeTraces(args, wf, store, nullptr);

  if (args.hasFlag("json")) {
    analysis::writeExplanationJson(std::cout, e);
  } else {
    analysis::printExplanation(std::cout, e, topOption(args, 10));
  }
  return 0;
}

int cmdSweep(const dag::Workflow& wf, const ArgParser& args) {
  analysis::ProvisioningSweepConfig config;
  config.processorCounts = args.intListOr("procs", config.processorCounts);
  config.base.linkBandwidthBytesPerSec = bandwidthOption(args);
  runner::JobQueue queue({.workers = jobsOption(args)});
  config.queue = &queue;
  const auto points =
      analysis::provisioningSweep(wf, selectPricing(args), config);
  analysis::provisioningTable(points).print(std::cout);
  return 0;
}

int cmdModes(const dag::Workflow& wf, const ArgParser& args) {
  analysis::DataModeComparisonConfig config;
  config.base.linkBandwidthBytesPerSec = bandwidthOption(args);
  config.processorOverride = args.intOr("procs", 0);
  runner::JobQueue queue({.workers = jobsOption(args)});
  config.queue = &queue;
  const auto rows =
      analysis::dataModeComparison(wf, selectPricing(args), config);
  analysis::dataModeTable(rows).print(std::cout);
  return 0;
}

int cmdCcr(const dag::Workflow& wf, const ArgParser& args) {
  analysis::CcrSweepConfig config;
  config.ccrTargets =
      args.numberListOr("targets", {0.053, 0.1, 0.2, 0.4, 0.8, 1.6});
  config.processors = args.intOr("procs", 8);
  config.base.linkBandwidthBytesPerSec = bandwidthOption(args);
  runner::JobQueue queue({.workers = jobsOption(args)});
  config.queue = &queue;
  const auto points =
      analysis::ccrSweep(wf, selectPricing(args), config);
  analysis::ccrTable(points).print(std::cout);
  return 0;
}

int cmdReliability(const dag::Workflow& wf, const ArgParser& args) {
  analysis::ReliabilityConfig rc;
  // 15 min, 1 h, 4 h
  rc.mtbfSeconds = args.numberListOr("mtbf", {900.0, 3600.0, 14400.0});
  rc.retry = retryOptions(args);
  rc.faultSeed = args.u64Or("fault-seed", 1);
  rc.processorOverride = args.intOr("procs", 0);
  rc.base.linkBandwidthBytesPerSec = bandwidthOption(args);
  runner::JobQueue queue({.workers = jobsOption(args)});
  rc.queue = &queue;
  const auto points =
      analysis::reliabilitySweep(wf, selectPricing(args), rc);
  analysis::reliabilityTable(points).print(std::cout);
  return 0;
}

/// Build a survey campaign through the streaming builder, shard it, and
/// simulate the shards concurrently on a job queue.  The only command that
/// does not load --workflow: the campaign is generated, not loaded.
int cmdSurvey(const ArgParser& args) {
  workflows::SurveyConfig sc;
  sc.tiles = args.u64Or("tiles", 16);
  if (sc.tiles < 1) throw std::invalid_argument("--tiles must be >= 1");
  sc.tileDegrees = args.numberOr("tile-degrees", 1.0);
  sc.overlapFraction = args.numberOr("overlap", 0.0);
  sc.seed = args.u64Or("survey-seed", 1);
  sc.runtimeJitterFraction = args.numberOr("runtime-jitter", 0.0);
  sc.releaseIntervalSeconds = args.numberOr("release-interval", 0.0);

  const workflows::SurveyCounts counts = workflows::surveyCounts(sc);
  const int jobs = jobsOption(args);
  int shards = args.intOr("shards", 0);
  if (shards == 0)
    shards = counts.sharedFiles > 0
                 ? 1
                 : static_cast<int>(std::min<std::uint64_t>(
                       sc.tiles,
                       static_cast<std::uint64_t>(std::max(1, jobs))));
  if (shards < 1) throw std::invalid_argument("--shards must be >= 1");

  Table structure({"property", "value"}, {Align::Left, Align::Left});
  structure.addRow({"tiles", std::to_string(counts.tiles)});
  structure.addRow({"grid", std::to_string(counts.cols) + " x " +
                            std::to_string(counts.rows)});
  structure.addRow({"tasks/tile", std::to_string(counts.tasksPerTile)});
  structure.addRow({"tasks", std::to_string(counts.tasks)});
  structure.addRow({"files", std::to_string(counts.files)});
  structure.addRow({"shared input files", std::to_string(counts.sharedFiles)});
  structure.addRow({"shards", std::to_string(shards)});
  structure.print(std::cout);

  // Wall-clock here is fine: this is a tool, not the deterministic core.
  const auto buildStart = std::chrono::steady_clock::now();
  std::vector<dag::Workflow> shardWfs;
  if (shards == 1) {
    shardWfs.push_back(workflows::buildSurveyCampaign(sc));
  } else {
    shardWfs =
        workflows::buildSurveyShards(sc, static_cast<std::uint32_t>(shards));
  }
  const double buildSeconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    buildStart)
          .count();
  std::cout << "\nbuilt " << counts.tasks << " tasks in "
            << formatDuration(buildSeconds) << " ("
            << static_cast<std::uint64_t>(
                   static_cast<double>(counts.tasks) /
                   std::max(buildSeconds, 1e-9))
            << " tasks/sec)\n\n";

  runner::CampaignOptions options;
  options.engine = engineOptions(args);
  runner::JobQueue queue({.workers = jobs});
  options.queue = &queue;

  const auto simStart = std::chrono::steady_clock::now();
  const runner::CampaignResult campaign = runner::runCampaign(shardWfs, options);
  const double simSeconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    simStart)
          .count();

  const cloud::Pricing pricing = selectPricing(args);
  Money provisioned;
  Money usage;
  for (const runner::ScenarioResult& shard : campaign.shardResults) {
    provisioned += engine::computeCost(shard.result, pricing,
                                       cloud::CpuBillingMode::Provisioned)
                       .total();
    usage += engine::computeCost(shard.result, pricing,
                                 cloud::CpuBillingMode::Usage)
                 .total();
  }

  Table results({"metric", "value"}, {Align::Left, Align::Left});
  results.addRow({"tasks executed", std::to_string(campaign.tasks)});
  results.addRow({"campaign makespan (concurrent shards)",
                  formatDuration(campaign.makespanSeconds)});
  results.addRow({"serialized makespan (one pool)",
                  formatDuration(campaign.serializedMakespanSeconds)});
  results.addRow({"cpu time", formatDuration(campaign.totalCpuSeconds)});
  results.addRow({"bytes in", formatBytes(campaign.bytesIn)});
  results.addRow({"bytes out", formatBytes(campaign.bytesOut)});
  results.addRow({"cost (provisioned)", formatMoney(provisioned)});
  results.addRow({"cost (usage)", formatMoney(usage)});
  results.addRow({"completed", campaign.completed ? "yes" : "NO"});
  results.addRow({"sim wall time", formatDuration(simSeconds)});
  results.print(std::cout);
  return 0;
}

serve::ServeDaemon* gServeDaemon = nullptr;

/// SIGTERM/SIGINT: requestStop() is async-signal-safe by contract.
void onStopSignal(int) {
  if (gServeDaemon != nullptr) gServeDaemon->requestStop();
}

int cmdServe(const ArgParser& args) {
  serve::DaemonOptions options;
  options.socketPath = socketOption(args);
  options.service.workers = jobsOption(args);
  const int depth = args.intOr("queue-depth", 64);
  if (depth < 1) throw std::invalid_argument("--queue-depth must be >= 1");
  options.service.maxQueuedJobs = static_cast<std::size_t>(depth);
  options.service.cache.maxEntries = args.u64Or("cache-entries", 256);
  options.service.cache.maxBytes = args.u64Or("cache-bytes", 256u << 20);
  options.service.pricing = selectPricing(args);

  serve::ServeDaemon daemon(options);
  gServeDaemon = &daemon;
  std::signal(SIGINT, onStopSignal);
  std::signal(SIGTERM, onStopSignal);
  daemon.start();
  // Flush immediately: scripts (and the CI smoke job) wait for this line
  // before connecting.
  std::cout << "mcsim serve: listening on " << daemon.socketPath() << " ("
            << options.service.workers << " workers)" << std::endl;
  daemon.wait();
  gServeDaemon = nullptr;
  std::cout << "mcsim serve: stopped\n";
  return 0;
}

int cmdRequest(const ArgParser& args) {
  serve::SubmitRequest request;
  runner::ScenarioSpec spec;
  spec.config = scenarioOptions(args);
  for (int p : args.intListOr("procs", {8})) {
    spec.config.processors = p;
    request.scenarios.push_back(spec);
  }
  request.baseSeed = args.u64Or("base-seed", 0);
  request.events = args.hasFlag("events");

  // Encode first: a request the codec refuses never connects.
  json::JsonObject submit;
  submit["verb"] = std::string("submit");
  submit["request"] = serve::submitRequestToJson(workflowOption(args), request);
  serve::ServeClient client(socketOption(args));
  const json::JsonValue submitted = client.call(json::JsonValue(submit));
  if (!submitted.at("ok").asBool()) {
    std::cerr << "mcsim request: " << submitted.at("error").asString()
              << "\n";
    return 1;
  }

  json::JsonObject result;
  result["verb"] = std::string("result");
  result["job"] = submitted.at("job");
  const json::JsonValue reply = client.call(json::JsonValue(result));
  std::cout << json::dumpJson(reply) << "\n";
  return reply.at("ok").asBool() &&
                 reply.at("state").asString() == "completed"
             ? 0
             : 1;
}

/// status / cancel / shutdown: one verb, --job for status and cancel,
/// reply printed raw.
int cmdServeVerb(const std::string& verb, const ArgParser& args) {
  json::JsonObject request;
  request["verb"] = verb;
  if (verb != "shutdown") {
    if (!args.value("job"))
      throw std::invalid_argument(verb + ": --job <id> required");
    request["job"] = args.u64Or("job", 0);
  }
  serve::ServeClient client(socketOption(args));
  const json::JsonValue reply = client.call(json::JsonValue(request));
  std::cout << json::dumpJson(reply) << "\n";
  return reply.at("ok").asBool() ? 0 : 1;
}

int cmdMetrics(const ArgParser& args) {
  std::cout << serve::fetchMetrics(socketOption(args));
  return 0;
}

/// Fee-schedule rates need more precision than formatMoney's cents — the
/// storage-heavy what-if charges $0.001/GB transfer.
std::string rateCell(Money rate) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "$%.4g", rate.value());
  return buf;
}

std::string numberCell(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.4g", v);
  return buf;
}

/// `mcsim providers`: the catalog at a glance; --provider narrows to one
/// profile's full SKU and storage-tier detail.
int cmdProviders(const ArgParser& args) {
  const cloud::ProviderCatalog catalog = loadCatalog(args);
  if (const auto name = args.value("provider")) {
    const cloud::ProviderProfile& p = catalog.at(*name);
    std::cout << p.name << " — " << p.displayName << " (" << p.year << ")\n\n";
    Table instances({"instance", "speed", "$/hour", "billing", "spot disc.",
                     "interrupts/h"});
    for (const cloud::InstanceType& sku : p.instanceTypes) {
      instances.addRow(
          {sku.name, numberCell(sku.speedFactor),
           rateCell(sku.hourlyRate),
           cloud::billingGranularityName(sku.granularity),
           sku.spotCapable() ? numberCell(sku.spotDiscount) : "-",
           sku.spotCapable() ? numberCell(sku.interruptionsPerHour)
                             : "-"});
    }
    instances.print(std::cout);
    std::cout << "\n";
    Table tiers({"storage class", "$/GB-month", "retrieval $/GB"});
    for (const cloud::StorageClass& cls : p.storageClasses)
      tiers.addRow({cls.name, rateCell(cls.perGBMonth),
                    rateCell(cls.retrievalPerGB)});
    tiers.print(std::cout);
    std::cout << "\ntransfer: in " << rateCell(p.transfer.inPerGB)
              << "/GB, out " << rateCell(p.transfer.outPerGB) << "/GB\n";
    return 0;
  }
  Table t({"name", "year", "instances", "storage classes", "in $/GB",
           "out $/GB", "display name"});
  for (const auto& [name, p] : catalog.profiles()) {
    t.addRow({name, std::to_string(p.year),
              std::to_string(p.instanceTypes.size()),
              std::to_string(p.storageClasses.size()),
              rateCell(p.transfer.inPerGB),
              rateCell(p.transfer.outPerGB), p.displayName});
  }
  t.print(std::cout);
  std::cout << "\n(use --provider <name> for SKU and storage-tier detail)\n";
  return 0;
}

/// `mcsim optimize`: the cross-provider placement optimizer.
int cmdOptimize(const dag::Workflow& wf, const ArgParser& args) {
  const cloud::ProviderCatalog catalog = loadCatalog(args);
  analysis::OptimizeConfig config;
  if (const auto list = args.value("providers")) {
    std::stringstream ss(*list);
    std::string item;
    while (std::getline(ss, item, ',')) config.providers.push_back(item);
  }
  config.processorOverride = args.intOr("procs", 0);
  config.billing = parseBilling(args.valueOr("billing", "usage"));
  config.skuGranularity = args.hasFlag("sku-granularity");
  config.useSpot = args.hasFlag("spot");
  config.sweepArchiveHosting = args.hasFlag("archive-hosting");
  config.sweepCrossProviderScratch = args.hasFlag("cross-scratch");
  config.requestsPerMonth = args.numberOr("requests-per-month", 0.0);
  config.base.linkBandwidthBytesPerSec = bandwidthOption(args);
  runner::JobQueue queue({.workers = jobsOption(args)});
  config.queue = &queue;

  const analysis::OptimizeResult result =
      analysis::optimizePlacement(wf, catalog, config);
  const std::size_t top = topOption(args, 15);
  std::cout << result.candidates << " candidates priced from "
            << result.simulations << " simulations\n\n";
  analysis::optimizeTable(result, top).print(std::cout);
  std::cout << "\nrecommendation: "
            << analysis::describeCandidate(result.best()) << "\n";
  return 0;
}

int cmdDax(const dag::Workflow& wf, const ArgParser& args) {
  const auto out = args.value("out");
  if (!out) throw std::invalid_argument("dax: --out <path> required");
  dag::writeDaxFile(wf, *out);
  std::cout << "wrote " << wf.taskCount() << " tasks to " << *out << "\n";
  return 0;
}

// -- The command table ---------------------------------------------------

/// Option names, each spelled once: in a group or in the one row reading it.
using Names = std::vector<std::string>;
Names operator+(Names a, const Names& b) {
  a.insert(a.end(), b.begin(), b.end());
  return a;
}
const Names kWorkflow = {"workflow"};
const Names kRun = {"procs", "bandwidth"};
const Names kCrash = {"mtbf", "fault-seed"};
const Names kRetry = {"retries", "retry-policy", "retry-delay", "jitter"};
const Names kServed = kRun + kCrash + Names{"mode"};  // scenarioOptions
const Names kScenario = kServed + kRetry + Names{"deadline"};  // engineOptions
const Names kCatalog = {"providers-dir"};
const Names kProvider = {"provider"};
const Names kPricing = kCatalog + kProvider + Names{"instance", "storage-class"};
const Names kTrace = {"trace-out", "mctrace-out"};
const Names kRanking = {"billing", "top"};
const Names kJobs = {"jobs"};
const Names kSocket = {"socket"};

using WorkflowCommand = int (*)(const dag::Workflow&, const ArgParser&);
using PlainCommand = int (*)(const ArgParser&);

/// A command's handler (a WorkflowCommand is given the --workflow it loads)
/// and the options its code reads besides --log-level and that --workflow.
struct Command {
  std::string_view name;
  std::variant<WorkflowCommand, PlainCommand> run;
  Names values;
  Names flags = {};
};

const std::vector<Command> kCommands = {
    {"info", cmdInfo, {}},
    {"simulate", cmdSimulate,
     kScenario + kPricing + kTrace + Names{"telemetry-dir", "sample-period"},
     {"profile"}},
    {"sweep", cmdSweep, kRun + kJobs + kPricing},
    {"modes", cmdModes, kRun + kJobs + kPricing},
    {"ccr", cmdCcr, kRun + kJobs + kPricing + Names{"targets"}},
    {"reliability", cmdReliability, kRun + kCrash + kRetry + kJobs + kPricing},
    {"explain", cmdExplain, kScenario + kPricing + kTrace + kRanking, {"json"}},
    {"optimize", cmdOptimize,
     kRun + kJobs + kCatalog + kRanking +
         Names{"providers", "requests-per-month"},
     {"spot", "archive-hosting", "cross-scratch", "sku-granularity"}},
    {"dax", cmdDax, {"out"}},
    {"survey", cmdSurvey,
     kScenario + kJobs + kPricing +
         Names{"tiles", "tile-degrees", "overlap", "runtime-jitter",
               "release-interval", "survey-seed", "shards"}},
    {"serve", cmdServe,
     kSocket + kJobs + kPricing +
         Names{"queue-depth", "cache-entries", "cache-bytes"}},
    {"request", cmdRequest, kWorkflow + kSocket + kServed + Names{"base-seed"},
     {"events"}},
    {"status", +[](const ArgParser& a) { return cmdServeVerb("status", a); },
     kSocket + Names{"job"}},
    {"cancel", +[](const ArgParser& a) { return cmdServeVerb("cancel", a); },
     kSocket + Names{"job"}},
    {"shutdown",
     +[](const ArgParser& a) { return cmdServeVerb("shutdown", a); }, kSocket},
    {"metrics", cmdMetrics, kSocket},
    {"providers", cmdProviders, kCatalog + kProvider},
};

}  // namespace

int main(int argc, char** argv) {
  try {
    if (argc < 2) {
      std::cerr << kUsage;
      return 2;
    }
    const std::string command = argv[1];
    const bool help = command == "help" || command == "--help";
    if (help || command == "version" || command == "--version") {
      ArgParser(command, {}, {}).parse(argc - 2, argv + 2);
      std::cout << (help ? kUsage : versionString() + "\n");
      return 0;
    }
    const auto row =
        std::find_if(kCommands.begin(), kCommands.end(),
                     [&](const Command& c) { return c.name == command; });
    if (row == kCommands.end()) {
      std::cerr << "unknown command '" << command << "'\n" << kUsage;
      return 2;
    }
    const auto* load = std::get_if<WorkflowCommand>(&row->run);
    std::set<std::string> values(row->values.begin(), row->values.end());
    values.insert("log-level");
    if (load != nullptr) values.insert(kWorkflow.begin(), kWorkflow.end());
    ArgParser args(command, std::move(values),
                   {row->flags.begin(), row->flags.end()});
    args.parse(argc - 2, argv + 2);
    if (const auto level = args.value("log-level"))
      setLogLevel(parseLogLevel(*level));
    if (load != nullptr)
      return (*load)(serve::loadWorkflowSpec(workflowOption(args)), args);
    return std::get<PlainCommand>(row->run)(args);
  } catch (const std::exception& e) {
    std::cerr << "mcsim: " << e.what() << "\n";
    return 1;
  }
}
