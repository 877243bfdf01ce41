// mcsim — command-line front-end to the simulator.
//
//   mcsim info     --workflow montage:2
//   mcsim simulate --workflow montage:1 --mode cleanup --procs 8 [--trace out.json]
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
#include <sstream>

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

common options:
  --workflow <spec>   montage:<degrees> | cybershake | epigenomics |
                      inspiral | sipht | <path.dax>       (default montage:1)
  --procs <n|list>    processor count or comma list        (default 8)
  --mode <m>          remote-io | regular | cleanup        (default regular)
  --bandwidth <mbps>  user<->storage link                  (default 10)
  --targets <list>    CCR targets for `ccr`
  --out <path>        output file for `dax` / --trace
  --trace <path>      (simulate) write a Chrome trace JSON
  --trace-out <path>  (simulate/explain) write the causal span trace as
                      Perfetto/Chrome trace-event JSON
  --mctrace-out <p>   (simulate/explain) write the span trace in the compact
                      binary .mctrace format
  --telemetry-dir <d> (simulate) write events.jsonl, metrics.prom and
                      report.json for the run into directory <d>
  --sample-period <s> storage sampling period for --telemetry-dir
                      in simulated seconds                  (default 60)
  --profile           (simulate) emit simulator self-profiling events
                      (phase timers) into the telemetry stream
  --billing <b>       (explain) provisioned | usage   (default provisioned)
  --top <n>           (explain) rows in the top-task table (default 10)
  --json              (explain) machine-readable mcsim.explain.v1 JSON
  --jobs <n>          job-queue worker threads for sweep / modes /
                      ccr / reliability / optimize / survey / serve;
                      0 = serial (the queue runs inline, useful for
                      debugging)     (default: hardware concurrency)
  --log-level <l>     debug | info | warn | error | off     (default warn)
  --csv               machine-readable output where supported

provider options (simulate / sweep / modes / ccr / reliability / survey
price against one provider; optimize sweeps several):
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
  --socket <path>     daemon unix socket path        (default mcsim.sock)
  --queue-depth <n>   (serve) max queued jobs before submits are refused
                      with a retryable "queue full"  (default 64)
  --cache-entries <n> (serve) memo-cache entry bound (default 256)
  --cache-bytes <n>   (serve) memo-cache byte bound  (default 256 MiB)
  --job <id>          (status/cancel) job id from a submit reply
  --base-seed <n>     (request) derive per-scenario fault seeds
  --events            (request) return the job's merged JSONL event
                      stream inside the result reply

fault injection (simulate: single --mtbf; reliability: comma list):
  --mtbf <s|list>     processor MTBF in simulated seconds; 0 = off
  --retries <n>       retry budget per task                 (default 3)
  --retry-policy <p>  fixed | backoff                       (default fixed)
  --retry-delay <s>   delay before re-attempt (backoff base)(default 0)
  --jitter <f>        backoff jitter fraction               (default 0)
  --deadline <s>      (simulate) workflow deadline; 0 = none
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

engine::DataMode parseMode(const std::string& name) {
  if (name == "remote-io") return engine::DataMode::RemoteIO;
  if (name == "regular") return engine::DataMode::Regular;
  if (name == "cleanup") return engine::DataMode::DynamicCleanup;
  throw std::invalid_argument("unknown mode '" + name +
                              "' (want remote-io|regular|cleanup)");
}

std::vector<int> parseIntList(const std::string& text) {
  std::vector<int> out;
  std::stringstream ss(text);
  std::string item;
  while (std::getline(ss, item, ',')) out.push_back(std::stoi(item));
  if (out.empty()) throw std::invalid_argument("empty list");
  return out;
}

std::vector<double> parseDoubleList(const std::string& text) {
  std::vector<double> out;
  std::stringstream ss(text);
  std::string item;
  while (std::getline(ss, item, ',')) out.push_back(std::stod(item));
  if (out.empty()) throw std::invalid_argument("empty list");
  return out;
}

faults::RetryPolicy parseRetryFlags(const ArgParser& args) {
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

/// simulate's fault knobs: a single-MTBF crash model plus deadline.
void applyFaultFlags(engine::EngineConfig& cfg, const ArgParser& args) {
  cfg.faults.processor.mtbfSeconds = args.numberOr("mtbf", 0.0);
  cfg.faults.retry = parseRetryFlags(args);
  cfg.faults.deadlineSeconds = args.numberOr("deadline", 0.0);
  cfg.faults.seed =
      static_cast<std::uint64_t>(args.numberOr("fault-seed", 1.0));
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
  engine::EngineConfig cfg;
  cfg.mode = parseMode(args.valueOr("mode", "regular"));
  cfg.processors = args.intOr("procs", 8);
  cfg.linkBandwidthBytesPerSec = args.numberOr("bandwidth", 10.0) * 1e6 / 8.0;
  cfg.trace = true;
  cfg.profile = args.hasFlag("profile");
  applyFaultFlags(cfg, args);

  // --telemetry-dir: observe the whole run and write the three artifacts.
  // Log messages join the same event stream while the session is live.
  std::optional<obs::TelemetrySession> telemetry;
  if (const auto dir = args.value("telemetry-dir")) {
    telemetry.emplace(obs::TelemetryOptions{*dir});
    cfg.samplePeriodSeconds = args.numberOr("sample-period", 60.0);
    setLogSink(telemetry->sink());
  }

  // --trace-out / --mctrace-out: fold the run into a causal span trace.
  const auto traceOut = args.value("trace-out");
  const auto mctraceOut = args.value("mctrace-out");
  obs::TraceStore store;
  std::optional<obs::SpanSink> spanSink;
  obs::FanOutSink observers;
  if (traceOut || mctraceOut) {
    spanSink.emplace(store, analysis::traceTopology(wf));
    observers.add(&*spanSink);
  }
  if (telemetry) observers.add(telemetry->sink());
  if (observers.childCount() > 0) cfg.observer = &observers;

  const auto result = engine::simulateWorkflow(wf, cfg);
  std::cout << engine::summarize(wf, result) << "\n\n";
  engine::printLevelSummary(std::cout, wf, result);
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

  if (const auto tracePath = args.value("trace")) {
    std::ofstream out(*tracePath);
    if (!out) throw std::runtime_error("cannot write " + *tracePath);
    engine::writeChromeTrace(out, wf, result);
    std::cout << "chrome trace written to " << *tracePath
              << " (open in chrome://tracing)\n";
  }
  if (traceOut) {
    std::ofstream out(*traceOut);
    if (!out) throw std::runtime_error("cannot write " + *traceOut);
    const obs::TraceNames names = analysis::traceNames(wf);
    obs::writePerfettoTrace(out, store, &names);
    std::cout << "span trace written to " << *traceOut
              << " (open in ui.perfetto.dev)\n";
  }
  if (mctraceOut) {
    std::ofstream out(*mctraceOut, std::ios::binary);
    if (!out) throw std::runtime_error("cannot write " + *mctraceOut);
    obs::writeMctrace(out, store);
    std::cout << "binary span trace written to " << *mctraceOut << " ("
              << store.spanCount() << " spans)\n";
  }
  return 0;
}

cloud::CpuBillingMode parseBilling(const std::string& name) {
  if (name == "provisioned") return cloud::CpuBillingMode::Provisioned;
  if (name == "usage") return cloud::CpuBillingMode::Usage;
  throw std::invalid_argument("unknown billing '" + name +
                              "' (want provisioned|usage)");
}

/// Run once with a SpanSink + ReportBuilder observing, then join the span
/// trace's critical path with the report's cost attribution.
int cmdExplain(const dag::Workflow& wf, const ArgParser& args) {
  engine::EngineConfig cfg;
  cfg.mode = parseMode(args.valueOr("mode", "regular"));
  cfg.processors = args.intOr("procs", 8);
  cfg.linkBandwidthBytesPerSec = args.numberOr("bandwidth", 10.0) * 1e6 / 8.0;
  applyFaultFlags(cfg, args);

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

  if (const auto path = args.value("trace-out")) {
    std::ofstream out(*path);
    if (!out) throw std::runtime_error("cannot write " + *path);
    const obs::TraceNames names = analysis::traceNames(wf);
    obs::writePerfettoTrace(out, store, &names);
  }
  if (const auto path = args.value("mctrace-out")) {
    std::ofstream out(*path, std::ios::binary);
    if (!out) throw std::runtime_error("cannot write " + *path);
    obs::writeMctrace(out, store);
  }

  if (args.hasFlag("json")) {
    analysis::writeExplanationJson(std::cout, e);
  } else {
    const int top = args.intOr("top", 10);
    if (top < 0) throw std::invalid_argument("--top must be >= 0");
    analysis::printExplanation(std::cout, e, static_cast<std::size_t>(top));
  }
  return 0;
}

/// --jobs for the sweep-style commands; default = all hardware threads,
/// 0 = serial (the job queue runs inline in this thread).
int parseJobs(const ArgParser& args) {
  const int jobs = args.intOr("jobs", runner::defaultJobs());
  if (jobs < 0) throw std::invalid_argument("--jobs must be >= 0");
  return jobs;
}

int cmdSweep(const dag::Workflow& wf, const ArgParser& args) {
  analysis::ProvisioningSweepConfig config;
  if (const auto list = args.value("procs"))
    config.processorCounts = parseIntList(*list);
  config.base.linkBandwidthBytesPerSec =
      args.numberOr("bandwidth", 10.0) * 1e6 / 8.0;
  runner::JobQueue queue({.workers = parseJobs(args)});
  config.queue = &queue;
  const auto points =
      analysis::provisioningSweep(wf, selectPricing(args), config);
  analysis::provisioningTable(points).print(std::cout);
  return 0;
}

int cmdModes(const dag::Workflow& wf, const ArgParser& args) {
  analysis::DataModeComparisonConfig config;
  config.base.linkBandwidthBytesPerSec =
      args.numberOr("bandwidth", 10.0) * 1e6 / 8.0;
  config.processorOverride = args.intOr("procs", 0);
  runner::JobQueue queue({.workers = parseJobs(args)});
  config.queue = &queue;
  const auto rows =
      analysis::dataModeComparison(wf, selectPricing(args), config);
  analysis::dataModeTable(rows).print(std::cout);
  return 0;
}

int cmdCcr(const dag::Workflow& wf, const ArgParser& args) {
  analysis::CcrSweepConfig config;
  config.ccrTargets = {0.053, 0.1, 0.2, 0.4, 0.8, 1.6};
  if (const auto list = args.value("targets"))
    config.ccrTargets = parseDoubleList(*list);
  config.processors = args.intOr("procs", 8);
  runner::JobQueue queue({.workers = parseJobs(args)});
  config.queue = &queue;
  const auto points =
      analysis::ccrSweep(wf, selectPricing(args), config);
  analysis::ccrTable(points).print(std::cout);
  return 0;
}

int cmdReliability(const dag::Workflow& wf, const ArgParser& args) {
  analysis::ReliabilityConfig rc;
  rc.mtbfSeconds = {900.0, 3600.0, 14400.0};  // 15 min, 1 h, 4 h
  if (const auto list = args.value("mtbf"))
    rc.mtbfSeconds = parseDoubleList(*list);
  rc.retry = parseRetryFlags(args);
  rc.faultSeed = static_cast<std::uint64_t>(args.numberOr("fault-seed", 1.0));
  rc.processorOverride = args.intOr("procs", 0);
  rc.base.linkBandwidthBytesPerSec =
      args.numberOr("bandwidth", 10.0) * 1e6 / 8.0;
  runner::JobQueue queue({.workers = parseJobs(args)});
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
  const double tilesArg = args.numberOr("tiles", 16.0);
  if (!(tilesArg >= 1.0))
    throw std::invalid_argument("--tiles must be >= 1");
  sc.tiles = static_cast<std::uint64_t>(tilesArg);
  sc.tileDegrees = args.numberOr("tile-degrees", 1.0);
  sc.overlapFraction = args.numberOr("overlap", 0.0);
  sc.seed = static_cast<std::uint64_t>(args.numberOr("survey-seed", 1.0));
  sc.runtimeJitterFraction = args.numberOr("runtime-jitter", 0.0);
  sc.releaseIntervalSeconds = args.numberOr("release-interval", 0.0);

  const workflows::SurveyCounts counts = workflows::surveyCounts(sc);
  const int jobs = parseJobs(args);
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
  options.engine.mode = parseMode(args.valueOr("mode", "regular"));
  options.engine.processors = args.intOr("procs", 8);
  options.engine.linkBandwidthBytesPerSec =
      args.numberOr("bandwidth", 10.0) * 1e6 / 8.0;
  applyFaultFlags(options.engine, args);
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
  options.socketPath = args.valueOr("socket", "mcsim.sock");
  options.service.workers = parseJobs(args);
  const int depth = args.intOr("queue-depth", 64);
  if (depth < 1) throw std::invalid_argument("--queue-depth must be >= 1");
  options.service.maxQueuedJobs = static_cast<std::size_t>(depth);
  const double entries = args.numberOr("cache-entries", 256.0);
  const double bytes = args.numberOr("cache-bytes", 256.0 * 1024 * 1024);
  if (entries < 0 || bytes < 0)
    throw std::invalid_argument("cache bounds must be >= 0");
  options.service.cache.maxEntries = static_cast<std::size_t>(entries);
  options.service.cache.maxBytes = static_cast<std::size_t>(bytes);

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
  json::JsonObject request;
  request["workflow"] = args.valueOr("workflow", "montage:1");
  json::JsonArray scenarios;
  for (int p : parseIntList(args.valueOr("procs", "8"))) {
    json::JsonObject s;
    s["mode"] = args.valueOr("mode", "regular");
    s["processors"] = p;
    s["bandwidth_mbps"] = args.numberOr("bandwidth", 10.0);
    const double mtbf = args.numberOr("mtbf", 0.0);
    if (mtbf > 0.0) {
      s["mtbf_seconds"] = mtbf;
      s["fault_seed"] = args.numberOr("fault-seed", 1.0);
    }
    scenarios.push_back(json::JsonValue(std::move(s)));
  }
  request["scenarios"] = std::move(scenarios);
  if (const auto seed = args.value("base-seed"))
    request["base_seed"] = std::stod(*seed);
  if (args.hasFlag("events")) request["events"] = true;

  serve::ServeClient client(args.valueOr("socket", "mcsim.sock"));
  json::JsonObject submit;
  submit["verb"] = std::string("submit");
  submit["request"] = std::move(request);
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

/// status / cancel / shutdown: one verb, optional --job, reply printed raw.
int cmdServeVerb(const std::string& verb, const ArgParser& args) {
  json::JsonObject request;
  request["verb"] = verb;
  if (const auto job = args.value("job"))
    request["job"] = std::stod(*job);
  else if (verb != "shutdown")
    throw std::invalid_argument(verb + ": --job <id> required");
  serve::ServeClient client(args.valueOr("socket", "mcsim.sock"));
  const json::JsonValue reply = client.call(json::JsonValue(request));
  std::cout << json::dumpJson(reply) << "\n";
  return reply.at("ok").asBool() ? 0 : 1;
}

int cmdMetrics(const ArgParser& args) {
  std::cout << serve::fetchMetrics(args.valueOr("socket", "mcsim.sock"));
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
  config.base.linkBandwidthBytesPerSec =
      args.numberOr("bandwidth", 10.0) * 1e6 / 8.0;
  runner::JobQueue queue({.workers = parseJobs(args)});
  config.queue = &queue;

  const analysis::OptimizeResult result =
      analysis::optimizePlacement(wf, catalog, config);
  const int top = args.intOr("top", 15);
  if (top < 0) throw std::invalid_argument("--top must be >= 0");
  std::cout << result.candidates << " candidates priced from "
            << result.simulations << " simulations\n\n";
  analysis::optimizeTable(result, static_cast<std::size_t>(top))
      .print(std::cout);
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

}  // namespace

int main(int argc, char** argv) {
  try {
    if (argc < 2) {
      std::cerr << kUsage;
      return 2;
    }
    const std::string command = argv[1];
    if (command == "--help" || command == "help") {
      std::cout << kUsage;
      return 0;
    }
    if (command == "--version" || command == "version") {
      std::cout << versionString() << "\n";
      return 0;
    }
    ArgParser args({"workflow", "procs", "mode", "bandwidth", "targets",
                    "out", "trace", "trace-out", "mctrace-out",
                    "telemetry-dir", "sample-period", "log-level", "mtbf",
                    "retries", "retry-policy", "retry-delay", "jitter",
                    "deadline", "fault-seed", "jobs", "billing", "top",
                    "tiles", "tile-degrees", "overlap", "runtime-jitter",
                    "release-interval", "survey-seed", "shards", "socket",
                    "job", "queue-depth", "cache-entries", "cache-bytes",
                    "base-seed", "provider", "providers", "providers-dir",
                    "instance", "storage-class", "requests-per-month"},
                   {"csv", "json", "profile", "events", "spot",
                    "archive-hosting", "cross-scratch", "sku-granularity"});
    args.parse(argc - 2, argv + 2);
    if (const auto level = args.value("log-level"))
      setLogLevel(parseLogLevel(*level));
    // survey generates its campaign; it takes no --workflow.
    if (command == "survey") return cmdSurvey(args);
    // The serve family talks to (or is) the daemon; the daemon loads
    // workflows per request, so none of these load one here.
    if (command == "serve") return cmdServe(args);
    if (command == "request") return cmdRequest(args);
    if (command == "status") return cmdServeVerb("status", args);
    if (command == "cancel") return cmdServeVerb("cancel", args);
    if (command == "shutdown") return cmdServeVerb("shutdown", args);
    if (command == "metrics") return cmdMetrics(args);
    // providers inspects the catalog; no workflow involved.
    if (command == "providers") return cmdProviders(args);
    const dag::Workflow wf =
        serve::loadWorkflowSpec(args.valueOr("workflow", "montage:1"));

    if (command == "info") return cmdInfo(wf, args);
    if (command == "simulate") return cmdSimulate(wf, args);
    if (command == "sweep") return cmdSweep(wf, args);
    if (command == "modes") return cmdModes(wf, args);
    if (command == "ccr") return cmdCcr(wf, args);
    if (command == "reliability") return cmdReliability(wf, args);
    if (command == "explain") return cmdExplain(wf, args);
    if (command == "optimize") return cmdOptimize(wf, args);
    if (command == "dax") return cmdDax(wf, args);
    std::cerr << "unknown command '" << command << "'\n" << kUsage;
    return 2;
  } catch (const std::exception& e) {
    std::cerr << "mcsim: " << e.what() << "\n";
    return 1;
  }
}
