#include "bench/bench_util.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string_view>

#include "algos/registry.h"
#include "common/flags.h"
#include "common/logging.h"
#include "common/table.h"
#include "common/thread_pool.h"
#include "ml/compression.h"
#include "net/event_queue.h"
#include "net/fault_schedule.h"
#include "net/topology.h"

namespace netmax::bench {
namespace {

int BenchThreads() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 4 : static_cast<int>(std::min(hw, 16u));
}

bool smoke_mode = false;
int threads_override = -1;
int shards_override = -1;
bool backend_override_set = false;
core::ExecutionBackendKind backend_override =
    core::ExecutionBackendKind::kAsyncPipeline;
int reorder_window_override = -1;
double checkpoint_at_override = 0.0;
double checkpoint_every_override = 0.0;
std::string checkpoint_path_override;
std::string restore_path_override;
// --faults: either a scripted schedule parsed up front, or a "seed:K" form
// resolved per run (FromSeed needs the run's worker count).
bool faults_override_set = false;
bool faults_from_seed = false;
uint64_t faults_seed = 0;
net::FaultSchedule faults_override;
bool peer_policy_override_set = false;
core::PeerPolicy peer_policy_override = core::PeerPolicy::kWait;
bool adaptive_window_override = false;
bool event_queue_override_set = false;
net::EventQueueKind event_queue_override = net::EventQueueKind::kSortedVector;
int workers_override = -1;
bool topology_override_set = false;
net::TopologySpec topology_override;
bool compress_override_set = false;
ml::CompressionSpec compress_override;
// Seed-derived schedules ("--faults=seed:K") place their events inside
// (0.1, 0.75) x this horizon: 40 virtual seconds lands the churn well inside
// every bench run, smoke or full.
constexpr double kSeedFaultHorizonSeconds = 40.0;
constexpr int kSeedFaultCount = 4;
// Sequence number of the current RunAlgorithms/RunConfigs batch within this
// process. Benches call the runners several times (one per figure panel,
// often with the same algorithm names), and the batch index keeps each
// call's checkpoint files distinct. The numbering is deterministic for a
// given binary, so a --restore-path pass resolves exactly the files the
// --checkpoint-path pass wrote.
int run_batch_counter = 0;

void PrintUsage(std::ostream& os, const char* binary) {
  os << "usage: " << binary
     << " [--smoke] [--threads=N] [--shards=N] [--backend=K]"
        " [--reorder-window=N]\n"
        "       [--checkpoint-at=S --checkpoint-path=P] [--restore-path=P]\n"
        "       [--faults=SPEC] [--peer-policy=P] [--checkpoint-every=S]"
        " [--adaptive-window]\n"
     << "  --smoke              reduced iterations / corpus (CI smoke run)\n"
     << "  --threads=N          per-run simulation threads (0 = one per "
        "core, 1 = serial; results are bit-identical)\n"
     << "  --shards=N           intra-worker gradient shard tasks (0 = auto "
        "from the thread budget; results are bit-identical)\n"
     << "  --backend=K          execution backend: async (default) | "
        "serial (results are bit-identical)\n"
     << "  --reorder-window=N   async backend in-flight compute bound "
        "(0 = auto, 2 x threads; results are bit-identical)\n"
     << "  --checkpoint-at=S    write a checkpoint S virtual seconds into "
        "every run (requires --checkpoint-path)\n"
     << "  --checkpoint-path=P  checkpoint file prefix; each run writes "
        "P.b<batch>.<run name>\n"
     << "  --restore-path=P     resume every run from its P.b<batch>.<run "
        "name> checkpoint (results are bit-identical to the uninterrupted "
        "run)\n"
     << "  --faults=SPEC        inject a deterministic fault schedule into "
        "every run: 'leave@T:wN', 'join@T:wN', 'crash@T', 'slow@T+DURxF:wN' "
        "joined by ';',\n"
        "                       or 'seed:K' for a seed-derived churn mix "
        "(results are bit-identical for any schedule)\n"
     << "  --peer-policy=P      dead/stalled-peer handling: wait (block and "
        "re-probe) or timeout (degrade after the deadline and continue)\n"
     << "  --checkpoint-every=S rewrite each run's checkpoint every S "
        "virtual seconds (rotating history; requires --checkpoint-path)\n"
     << "  --adaptive-window    async backend re-sizes its reorder window "
        "at runtime (results are bit-identical)\n"
     << "  --event-queue=K      simulator event-queue backend: vector | heap "
        "| calendar (results are bit-identical)\n"
     << "  --workers=N          simulated worker count (N >= 2; overrides "
        "every run's num_workers)\n"
     << "  --topology=SPEC      gossip topology: complete or "
        "hier:<cluster_size> (clusters-of-clusters)\n"
     << "  --compress=SPEC      gradient compression: none | topk:<frac> | "
        "int8 | layerwise:<period> (results are bit-identical across "
        "backends)\n"
     << "environment overrides (a flag beats its variable):\n"
     << "  NETMAX_SMOKE=1            same as --smoke\n"
     << "  NETMAX_THREADS=N          same as --threads=N\n"
     << "  NETMAX_SHARDS=N           same as --shards=N\n"
     << "  NETMAX_BACKEND=K          same as --backend=K\n"
     << "  NETMAX_REORDER_WINDOW=N   same as --reorder-window=N\n"
     << "  NETMAX_FAULTS=SPEC        same as --faults=SPEC\n"
     << "  NETMAX_PEER_POLICY=P      same as --peer-policy=P\n"
     << "  NETMAX_CHECKPOINT_EVERY=S same as --checkpoint-every=S\n"
     << "  NETMAX_ADAPTIVE_WINDOW=1  same as --adaptive-window\n"
     << "  NETMAX_EVENT_QUEUE=K      same as --event-queue=K\n"
     << "  NETMAX_WORKERS=N          same as --workers=N\n"
     << "  NETMAX_TOPOLOGY=SPEC      same as --topology=SPEC\n"
     << "  NETMAX_COMPRESS=SPEC      same as --compress=SPEC\n";
}

// Strict value parse for "--flag=N" style flags and their environment
// fallbacks: anything but an exact non-negative integer is a usage error.
StatusOr<int> ParseFlagValue(const std::string& flag_text,
                             std::string_view value) {
  StatusOr<int> parsed = ParseNonNegativeInt(value);
  if (!parsed.ok()) {
    return InvalidArgumentError("bad flag value: " + flag_text +
                                " (expected a non-negative integer)");
  }
  return parsed;
}

// Strict value parse for "--backend=K" and NETMAX_BACKEND: anything but a
// known backend name is a usage error.
StatusOr<core::ExecutionBackendKind> ParseBackend(const std::string& flag_text,
                                                  std::string_view value) {
  core::ExecutionBackendKind kind;
  if (!core::ParseExecutionBackendKind(value, &kind)) {
    return InvalidArgumentError(
        "bad flag value: " + flag_text +
        " (expected serial or async)");
  }
  return kind;
}

// Strict value parse for "--checkpoint-at=S": a non-negative decimal number
// of virtual seconds.
StatusOr<double> ParseSeconds(const std::string& flag_text,
                              std::string_view value) {
  const std::string text(value);
  if (!text.empty() && std::isdigit(static_cast<unsigned char>(text[0]))) {
    char* end = nullptr;
    const double parsed = std::strtod(text.c_str(), &end);
    if (end == text.c_str() + text.size() && parsed >= 0.0) return parsed;
  }
  return InvalidArgumentError("bad flag value: " + flag_text +
                              " (expected a non-negative number of seconds)");
}

// Strict value parse for "--faults=SPEC" and NETMAX_FAULTS. A "seed:K" spec
// is recorded for per-run resolution (FromSeed needs the run's worker
// count); anything else must parse under the scripted grammar now so a typo
// fails before any experiment runs.
Status ParseFaults(const std::string& flag_text, std::string_view value) {
  faults_from_seed = false;
  if (value.rfind("seed:", 0) == 0) {
    StatusOr<int> seed = ParseNonNegativeInt(value.substr(5));
    if (!seed.ok()) {
      return InvalidArgumentError("bad flag value: " + flag_text +
                                  " (expected seed:K with K a non-negative "
                                  "integer)");
    }
    faults_from_seed = true;
    faults_seed = static_cast<uint64_t>(*seed);
    faults_override_set = true;
    return Status::Ok();
  }
  StatusOr<net::FaultSchedule> parsed = net::FaultSchedule::Parse(value);
  if (!parsed.ok()) {
    return InvalidArgumentError("bad flag value: " + flag_text + " (" +
                                parsed.status().message() + ")");
  }
  faults_override = std::move(parsed.value());
  faults_override_set = true;
  return Status::Ok();
}

// Strict value parse for "--peer-policy=P" and NETMAX_PEER_POLICY.
Status ParsePeerPolicyFlag(const std::string& flag_text,
                           std::string_view value) {
  core::PeerPolicy policy;
  if (!core::ParsePeerPolicy(value, &policy)) {
    return InvalidArgumentError("bad flag value: " + flag_text +
                                " (expected wait or timeout)");
  }
  peer_policy_override = policy;
  peer_policy_override_set = true;
  return Status::Ok();
}

// Strict value parse for "--event-queue=K" and NETMAX_EVENT_QUEUE.
Status ParseEventQueueFlag(const std::string& flag_text,
                           std::string_view value) {
  StatusOr<net::EventQueueKind> kind = net::ParseEventQueueKind(value);
  if (!kind.ok()) {
    return InvalidArgumentError("bad flag value: " + flag_text +
                                " (expected vector, heap, calendar, or "
                                "pairing)");
  }
  event_queue_override = *kind;
  event_queue_override_set = true;
  return Status::Ok();
}

// Strict value parse for "--workers=N" and NETMAX_WORKERS: a decentralized
// run needs at least two workers, so 0 and 1 are usage errors, not configs.
Status ParseWorkersFlag(const std::string& flag_text, std::string_view value) {
  StatusOr<int> parsed = ParseNonNegativeInt(value);
  if (!parsed.ok() || *parsed < 2) {
    return InvalidArgumentError("bad flag value: " + flag_text +
                                " (expected an integer worker count >= 2)");
  }
  workers_override = *parsed;
  return Status::Ok();
}

// Strict value parse for "--topology=SPEC" and NETMAX_TOPOLOGY.
Status ParseTopologyFlag(const std::string& flag_text,
                         std::string_view value) {
  StatusOr<net::TopologySpec> spec = net::ParseTopologySpec(value);
  if (!spec.ok()) {
    return InvalidArgumentError("bad flag value: " + flag_text + " (" +
                                spec.status().message() + ")");
  }
  topology_override = *spec;
  topology_override_set = true;
  return Status::Ok();
}

// Strict value parse for "--compress=SPEC" and NETMAX_COMPRESS.
Status ParseCompressFlag(const std::string& flag_text,
                         std::string_view value) {
  StatusOr<ml::CompressionSpec> spec = ml::ParseCompressionSpec(value);
  if (!spec.ok()) {
    return InvalidArgumentError("bad flag value: " + flag_text + " (" +
                                spec.status().message() + ")");
  }
  compress_override = *spec;
  compress_override_set = true;
  return Status::Ok();
}

// Splits the machine between `concurrent_runs` simultaneous experiments:
// every run gets an equal share of the cores for its own compute-event pool
// (at least one). Applied only when the config asks for the automatic
// default; an explicit config.threads or --threads wins.
int PerRunThreads(size_t concurrent_runs) {
  return std::max(1, BenchThreads() / std::max<int>(1, static_cast<int>(
                                                           concurrent_runs)));
}

void ApplyExecutionOverrides(core::ExperimentConfig& config,
                             size_t concurrent_runs) {
  if (threads_override >= 0) {
    config.threads = threads_override;
  } else if (config.threads == 0) {
    config.threads = PerRunThreads(concurrent_runs);
  }
  if (shards_override >= 0) config.shards = shards_override;
  if (backend_override_set) config.backend = backend_override;
  if (reorder_window_override >= 0) {
    config.reorder_window = reorder_window_override;
  }
  if (event_queue_override_set) config.event_queue = event_queue_override;
  if (topology_override_set) config.topology = topology_override;
  // The worker override must land before a seed-derived fault schedule is
  // resolved below: FromSeed draws its churn targets from num_workers.
  if (workers_override >= 0) config.num_workers = workers_override;
  if (faults_override_set) {
    config.faults =
        faults_from_seed
            ? net::FaultSchedule::FromSeed(faults_seed, config.num_workers,
                                           kSeedFaultHorizonSeconds,
                                           kSeedFaultCount)
            : faults_override;
  }
  if (peer_policy_override_set) config.peer_policy = peer_policy_override;
  if (adaptive_window_override) config.adaptive_reorder_window = true;
  if (compress_override_set) config.compress = compress_override;
}

// Distinct checkpoint/restore files for every run of a bench:
// --checkpoint-path / --restore-path name a prefix and each run appends
// ".<run name>" (separators sanitized), so a bench running several
// algorithms in parallel never interleaves two runs' bytes in one file and
// a restore always finds the file whose fingerprint matches the run.
std::string PerRunPath(const std::string& prefix,
                       const std::string& run_name) {
  std::string suffix = run_name;
  for (char& c : suffix) {
    if (c == '/' || c == '\\' ||
        std::isspace(static_cast<unsigned char>(c))) {
      c = '-';
    }
  }
  return prefix + "." + suffix;
}

void ApplyCheckpointOverrides(core::ExperimentConfig& config, int batch,
                              const std::string& run_name) {
  // Built with += rather than operator+ chaining: GCC 12's -Wrestrict
  // false-fires on the `literal + temporary` form under -O2.
  std::string run_key = "b";
  run_key += std::to_string(batch);
  run_key += '.';
  run_key += run_name;
  if (checkpoint_at_override > 0.0) {
    config.checkpoint_at_seconds = checkpoint_at_override;
    config.checkpoint_path = PerRunPath(checkpoint_path_override, run_key);
  }
  if (checkpoint_every_override > 0.0) {
    config.checkpoint_every_seconds = checkpoint_every_override;
    config.checkpoint_path = PerRunPath(checkpoint_path_override, run_key);
  }
  if (!restore_path_override.empty()) {
    config.restore_path = PerRunPath(restore_path_override, run_key);
  }
}

}  // namespace

StatusOr<bool> InitBench(int argc, char** argv) {
  // Idempotent: re-parsing from a clean slate lets tests (and any caller)
  // invoke InitBench more than once without earlier overrides leaking in.
  smoke_mode = false;
  threads_override = -1;
  shards_override = -1;
  backend_override_set = false;
  reorder_window_override = -1;
  checkpoint_at_override = 0.0;
  checkpoint_every_override = 0.0;
  checkpoint_path_override.clear();
  restore_path_override.clear();
  faults_override_set = false;
  faults_from_seed = false;
  faults_seed = 0;
  faults_override = net::FaultSchedule();
  peer_policy_override_set = false;
  adaptive_window_override = false;
  event_queue_override_set = false;
  event_queue_override = net::EventQueueKind::kSortedVector;
  workers_override = -1;
  topology_override_set = false;
  topology_override = net::TopologySpec();
  compress_override_set = false;
  compress_override = ml::CompressionSpec();
  run_batch_counter = 0;
  const char* env = std::getenv("NETMAX_SMOKE");
  if (env != nullptr && std::strcmp(env, "1") == 0) smoke_mode = true;
  const char* env_adaptive = std::getenv("NETMAX_ADAPTIVE_WINDOW");
  if (env_adaptive != nullptr && std::strcmp(env_adaptive, "1") == 0) {
    adaptive_window_override = true;
  }
  const char* env_threads = std::getenv("NETMAX_THREADS");
  if (env_threads != nullptr) {
    NETMAX_ASSIGN_OR_RETURN(
        threads_override,
        ParseFlagValue(std::string("NETMAX_THREADS=") + env_threads,
                       env_threads));
  }
  const char* env_shards = std::getenv("NETMAX_SHARDS");
  if (env_shards != nullptr) {
    NETMAX_ASSIGN_OR_RETURN(
        shards_override,
        ParseFlagValue(std::string("NETMAX_SHARDS=") + env_shards,
                       env_shards));
  }
  const char* env_backend = std::getenv("NETMAX_BACKEND");
  if (env_backend != nullptr) {
    NETMAX_ASSIGN_OR_RETURN(
        backend_override,
        ParseBackend(std::string("NETMAX_BACKEND=") + env_backend,
                     env_backend));
    backend_override_set = true;
  }
  const char* env_window = std::getenv("NETMAX_REORDER_WINDOW");
  if (env_window != nullptr) {
    NETMAX_ASSIGN_OR_RETURN(
        reorder_window_override,
        ParseFlagValue(std::string("NETMAX_REORDER_WINDOW=") + env_window,
                       env_window));
  }
  const char* env_faults = std::getenv("NETMAX_FAULTS");
  if (env_faults != nullptr) {
    NETMAX_RETURN_IF_ERROR(ParseFaults(
        std::string("NETMAX_FAULTS=") + env_faults, env_faults));
  }
  const char* env_policy = std::getenv("NETMAX_PEER_POLICY");
  if (env_policy != nullptr) {
    NETMAX_RETURN_IF_ERROR(ParsePeerPolicyFlag(
        std::string("NETMAX_PEER_POLICY=") + env_policy, env_policy));
  }
  const char* env_queue = std::getenv("NETMAX_EVENT_QUEUE");
  if (env_queue != nullptr) {
    NETMAX_RETURN_IF_ERROR(ParseEventQueueFlag(
        std::string("NETMAX_EVENT_QUEUE=") + env_queue, env_queue));
  }
  const char* env_workers = std::getenv("NETMAX_WORKERS");
  if (env_workers != nullptr) {
    NETMAX_RETURN_IF_ERROR(ParseWorkersFlag(
        std::string("NETMAX_WORKERS=") + env_workers, env_workers));
  }
  const char* env_topology = std::getenv("NETMAX_TOPOLOGY");
  if (env_topology != nullptr) {
    NETMAX_RETURN_IF_ERROR(ParseTopologyFlag(
        std::string("NETMAX_TOPOLOGY=") + env_topology, env_topology));
  }
  const char* env_compress = std::getenv("NETMAX_COMPRESS");
  if (env_compress != nullptr) {
    NETMAX_RETURN_IF_ERROR(ParseCompressFlag(
        std::string("NETMAX_COMPRESS=") + env_compress, env_compress));
  }
  const char* env_every = std::getenv("NETMAX_CHECKPOINT_EVERY");
  if (env_every != nullptr) {
    NETMAX_ASSIGN_OR_RETURN(
        checkpoint_every_override,
        ParseSeconds(std::string("NETMAX_CHECKPOINT_EVERY=") + env_every,
                     env_every));
  }
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") {
      smoke_mode = true;
    } else if (arg.rfind("--threads=", 0) == 0) {
      NETMAX_ASSIGN_OR_RETURN(
          threads_override,
          ParseFlagValue(arg, std::string_view(arg).substr(10)));
    } else if (arg.rfind("--shards=", 0) == 0) {
      NETMAX_ASSIGN_OR_RETURN(
          shards_override,
          ParseFlagValue(arg, std::string_view(arg).substr(9)));
    } else if (arg.rfind("--backend=", 0) == 0) {
      NETMAX_ASSIGN_OR_RETURN(
          backend_override,
          ParseBackend(arg, std::string_view(arg).substr(10)));
      backend_override_set = true;
    } else if (arg.rfind("--reorder-window=", 0) == 0) {
      NETMAX_ASSIGN_OR_RETURN(
          reorder_window_override,
          ParseFlagValue(arg, std::string_view(arg).substr(17)));
    } else if (arg.rfind("--checkpoint-at=", 0) == 0) {
      NETMAX_ASSIGN_OR_RETURN(
          checkpoint_at_override,
          ParseSeconds(arg, std::string_view(arg).substr(16)));
    } else if (arg.rfind("--checkpoint-every=", 0) == 0) {
      NETMAX_ASSIGN_OR_RETURN(
          checkpoint_every_override,
          ParseSeconds(arg, std::string_view(arg).substr(19)));
    } else if (arg.rfind("--checkpoint-path=", 0) == 0) {
      checkpoint_path_override = arg.substr(18);
    } else if (arg.rfind("--restore-path=", 0) == 0) {
      restore_path_override = arg.substr(15);
    } else if (arg.rfind("--faults=", 0) == 0) {
      NETMAX_RETURN_IF_ERROR(
          ParseFaults(arg, std::string_view(arg).substr(9)));
    } else if (arg.rfind("--peer-policy=", 0) == 0) {
      NETMAX_RETURN_IF_ERROR(
          ParsePeerPolicyFlag(arg, std::string_view(arg).substr(14)));
    } else if (arg == "--adaptive-window") {
      adaptive_window_override = true;
    } else if (arg.rfind("--event-queue=", 0) == 0) {
      NETMAX_RETURN_IF_ERROR(
          ParseEventQueueFlag(arg, std::string_view(arg).substr(14)));
    } else if (arg.rfind("--workers=", 0) == 0) {
      NETMAX_RETURN_IF_ERROR(
          ParseWorkersFlag(arg, std::string_view(arg).substr(10)));
    } else if (arg.rfind("--topology=", 0) == 0) {
      NETMAX_RETURN_IF_ERROR(
          ParseTopologyFlag(arg, std::string_view(arg).substr(11)));
    } else if (arg.rfind("--compress=", 0) == 0) {
      NETMAX_RETURN_IF_ERROR(
          ParseCompressFlag(arg, std::string_view(arg).substr(11)));
    } else if (arg == "--help" || arg == "-h") {
      PrintUsage(std::cout, argc > 0 ? argv[0] : "bench");
      return false;
    } else {
      return InvalidArgumentError("unknown bench flag: " + arg);
    }
  }
  if (checkpoint_at_override > 0.0 && checkpoint_path_override.empty()) {
    return InvalidArgumentError(
        "--checkpoint-at requires --checkpoint-path");
  }
  if (checkpoint_every_override > 0.0 && checkpoint_path_override.empty()) {
    return InvalidArgumentError(
        "--checkpoint-every requires --checkpoint-path");
  }
  return true;
}

int BenchMain(int argc, char** argv, const std::function<Status()>& body) {
  StatusOr<bool> init = InitBench(argc, argv);
  if (!init.ok()) {
    std::cerr << init.status().message() << "\n";
    PrintUsage(std::cerr, argc > 0 ? argv[0] : "bench");
    return 2;
  }
  if (!*init) return 0;  // --help
  const Status status = body();
  if (!status.ok()) {
    std::cerr << "bench failed: " << status.ToString() << "\n";
    return 2;
  }
  return 0;
}

bool SmokeMode() { return smoke_mode; }

int ThreadsOverride() { return threads_override; }

int ShardsOverride() { return shards_override; }

int ReorderWindowOverride() { return reorder_window_override; }

int WorkersOverride() { return workers_override; }

void MaybeApplySmoke(core::ExperimentConfig& config) {
  if (!smoke_mode) return;
  // Keep the experiment shape (workers, network scenario, partition) but cut
  // the work: tiny corpus, a handful of epochs, coarse policy refinement.
  config.dataset.num_train = std::min(config.dataset.num_train, 512);
  config.dataset.num_test = std::min(config.dataset.num_test, 128);
  config.max_epochs = std::min(config.max_epochs, 4);
  config.generator.outer_rounds = std::min(config.generator.outer_rounds, 3);
  config.generator.inner_rounds = std::min(config.generator.inner_rounds, 3);
  // Rescale the re-draw/monitor periods so smoke runs still exercise a few
  // policy windows within the shortened virtual run.
  config.slowdown_period_seconds =
      std::min(config.slowdown_period_seconds, 20.0);
  config.monitor_period_seconds = std::min(config.monitor_period_seconds, 8.0);
  // lr_milestones are left untouched: milestones beyond the shortened budget
  // simply never fire, while emptying the list would switch the harness to
  // the plateau-decay scheduler (experiment.cc) — a different experiment.
}

StatusOr<std::vector<NamedResult>> RunAlgorithms(
    const std::vector<std::string>& names,
    const core::ExperimentConfig& config) {
  // Shrink at the last point before execution so per-bench overrides applied
  // after PaperBaseConfig() (epochs, corpus size, ...) cannot undo --smoke.
  core::ExperimentConfig run_config = config;
  MaybeApplySmoke(run_config);
  ApplyExecutionOverrides(run_config, names.size());
  const int batch = run_batch_counter++;
  std::vector<NamedResult> results(names.size());
  std::vector<Status> statuses(names.size());
  ThreadPool pool(BenchThreads());
  ParallelFor(pool, static_cast<int>(names.size()),
              [&names, &run_config, &results, &statuses, batch](int i) {
                const size_t n = static_cast<size_t>(i);
                auto algorithm = algos::MakeAlgorithm(names[n]);
                if (!algorithm.ok()) {
                  statuses[n] = algorithm.status();
                  return;
                }
                core::ExperimentConfig config_n = run_config;
                ApplyCheckpointOverrides(config_n, batch, names[n]);
                auto result = (*algorithm)->Run(config_n);
                if (!result.ok()) {
                  statuses[n] = Status(
                      result.status().code(),
                      names[n] + ": " + result.status().message());
                  return;
                }
                results[n] =
                    NamedResult{result->algorithm, std::move(result.value())};
              });
  for (const Status& status : statuses) {
    NETMAX_RETURN_IF_ERROR(status);
  }
  PrintExecutionDiagnostics(std::cerr, results);
  return results;
}

StatusOr<std::vector<NamedResult>> RunConfigs(
    const std::string& algorithm,
    const std::vector<core::ExperimentConfig>& configs,
    const std::vector<std::string>& labels) {
  if (configs.size() != labels.size()) {
    return InvalidArgumentError("RunConfigs: configs/labels size mismatch");
  }
  std::vector<core::ExperimentConfig> run_configs = configs;
  const int batch = run_batch_counter++;
  for (size_t n = 0; n < run_configs.size(); ++n) {
    MaybeApplySmoke(run_configs[n]);
    ApplyExecutionOverrides(run_configs[n], configs.size());
    ApplyCheckpointOverrides(run_configs[n], batch, labels[n]);
  }
  std::vector<NamedResult> results(configs.size());
  std::vector<Status> statuses(configs.size());
  ThreadPool pool(BenchThreads());
  ParallelFor(pool, static_cast<int>(configs.size()),
              [&algorithm, &run_configs, &labels, &results, &statuses](int i) {
                const size_t n = static_cast<size_t>(i);
                auto algo = algos::MakeAlgorithm(algorithm);
                if (!algo.ok()) {
                  statuses[n] = algo.status();
                  return;
                }
                auto result = (*algo)->Run(run_configs[n]);
                if (!result.ok()) {
                  statuses[n] = Status(
                      result.status().code(),
                      labels[n] + ": " + result.status().message());
                  return;
                }
                results[n] = NamedResult{labels[n], std::move(result.value())};
              });
  for (const Status& status : statuses) {
    NETMAX_RETURN_IF_ERROR(status);
  }
  PrintExecutionDiagnostics(std::cerr, results);
  return results;
}

ml::Series Downsample(const ml::Series& series, int max_points) {
  if (static_cast<int>(series.size()) <= max_points || max_points < 2) {
    return series;
  }
  ml::Series out;
  const double stride = static_cast<double>(series.size() - 1) /
                        static_cast<double>(max_points - 1);
  for (int k = 0; k < max_points; ++k) {
    out.push_back(series[static_cast<size_t>(std::lround(k * stride))]);
  }
  return out;
}

void PrintSeries(std::ostream& os, const std::string& title,
                 const std::string& x_label, const std::string& y_label,
                 const std::vector<NamedResult>& results,
                 ml::Series core::RunResult::* series, int max_points) {
  TablePrinter table({"algorithm", x_label, y_label});
  for (const NamedResult& entry : results) {
    for (const ml::SeriesPoint& point :
         Downsample(entry.result.*series, max_points)) {
      table.AddRow({entry.name, Fmt(point.x, 1), Fmt(point.y, 4)});
    }
  }
  os << "\n== " << title << " ==\n";
  table.Print(os);
  table.PrintCsv(os, title);
}

double CommonLossThreshold(const std::vector<NamedResult>& results) {
  // Compare curves late in their descent (92% of each run's total loss
  // reduction) rather than at the deepest floor: floors are dominated by
  // small-dataset overfitting tails, while the paper reads its speedups off
  // the mid/late descent of the curves. Every curve reaches the maximum of
  // these per-curve marks, since a curve's own mark is above its minimum.
  double threshold = 0.0;
  for (const NamedResult& entry : results) {
    NETMAX_CHECK(!entry.result.loss_vs_time.empty()) << entry.name;
    const double first = entry.result.loss_vs_time.front().y;
    const double floor = ml::MinValue(entry.result.loss_vs_time);
    threshold = std::max(threshold, floor + 0.08 * (first - floor));
  }
  return threshold;
}

double ConvergenceSeconds(const core::RunResult& result,
                          double loss_threshold) {
  const auto time = ml::TimeToThreshold(result.loss_vs_time, loss_threshold);
  return time.has_value() ? *time : result.total_virtual_seconds;
}

void PrintSpeedups(std::ostream& os, const std::string& title,
                   const std::vector<NamedResult>& results) {
  NETMAX_CHECK(!results.empty());
  // Two speedup readings: time to a common (late-descent) loss level, and —
  // the headline number — total time to finish the fixed epoch budget. The
  // paper trains every algorithm for a fixed epoch count and reads speedups
  // off the loss-vs-time curves; with near-parity per-epoch convergence the
  // equal-work ratio is the stable equivalent on these shortened runs, where
  // a single curve crossing can swing threshold-based readings.
  const double threshold = CommonLossThreshold(results);
  const double ref_loss_time =
      ConvergenceSeconds(results.back().result, threshold);
  const double ref_total = results.back().result.total_virtual_seconds;
  TablePrinter table({"algorithm", "time_to_loss_s", "total_time_s",
                      "netmax_speedup"});
  for (const NamedResult& entry : results) {
    const double seconds = ConvergenceSeconds(entry.result, threshold);
    (void)ref_loss_time;
    table.AddRow({entry.name, Fmt(seconds, 1),
                  Fmt(entry.result.total_virtual_seconds, 1),
                  Fmt(ref_total > 0.0
                          ? entry.result.total_virtual_seconds / ref_total
                          : 0.0,
                      2)});
  }
  os << "\n== " << title << " (loss threshold " << Fmt(threshold, 3)
     << "; speedup = equal-work total time vs NetMax) ==\n";
  table.Print(os);
  table.PrintCsv(os, title);
}

void PrintEpochCostSplit(std::ostream& os, const std::string& title,
                         const std::vector<NamedResult>& results) {
  TablePrinter table({"algorithm", "computation_s", "communication_s",
                      "epoch_time_s"});
  for (const NamedResult& entry : results) {
    const auto& cost = entry.result.avg_epoch_cost;
    table.AddRow({entry.name, Fmt(cost.compute_seconds, 2),
                  Fmt(cost.communication_seconds, 2),
                  Fmt(cost.total_seconds(), 2)});
  }
  os << "\n== " << title << " ==\n";
  table.Print(os);
  table.PrintCsv(os, title);
}

void PrintExecutionDiagnostics(std::ostream& os,
                               const std::vector<NamedResult>& results) {
  // Fault and adaptive-window columns appear only when some run has activity
  // to report: fault-free batches keep the exact pre-fault table shape, so
  // scripts diffing a bench's stderr across revisions see no churn.
  bool any_faults = false;
  for (const NamedResult& entry : results) {
    const core::RunResult& r = entry.result;
    if (r.window_resizes != 0 || r.faults_injected != 0 ||
        r.rounds_degraded != 0 || r.peers_timed_out != 0) {
      any_faults = true;
      break;
    }
  }
  // Wire columns appear only when some run compressed: bytes_saved stays
  // identically zero on uncompressed runs (headerless dense f32 encoding),
  // while bytes_sent is nonzero for any communicating run and so cannot
  // gate the columns without churning every existing bench's stderr.
  bool any_bytes = false;
  for (const NamedResult& entry : results) {
    if (entry.result.bytes_saved != 0) {
      any_bytes = true;
      break;
    }
  }
  std::vector<std::string> header = {"run",          "backend",
                                     "batches",      "speculated",
                                     "redispatched", "recomputed",
                                     "stalls",       "backpressure"};
  if (any_faults) {
    header.insert(header.end(),
                  {"resizes", "faults", "degraded", "timeouts"});
  }
  if (any_bytes) {
    header.insert(header.end(), {"messages", "bytes_sent", "bytes_saved"});
  }
  TablePrinter table(header);
  for (const NamedResult& entry : results) {
    const core::RunResult& r = entry.result;
    std::vector<std::string> row = {entry.name,
                                    r.backend,
                                    std::to_string(r.parallel_batches),
                                    std::to_string(r.computes_speculated),
                                    std::to_string(r.computes_redispatched),
                                    std::to_string(r.computes_recomputed),
                                    std::to_string(r.window_stalls),
                                    std::to_string(r.window_backpressure)};
    if (any_faults) {
      row.insert(row.end(), {std::to_string(r.window_resizes),
                             std::to_string(r.faults_injected),
                             std::to_string(r.rounds_degraded),
                             std::to_string(r.peers_timed_out)});
    }
    if (any_bytes) {
      row.insert(row.end(), {std::to_string(r.messages_sent),
                             std::to_string(r.bytes_sent),
                             std::to_string(r.bytes_saved)});
    }
    table.AddRow(std::move(row));
  }
  os << "\n== Execution diagnostics (real-machine dispatch; never affects "
        "results) ==\n";
  table.Print(os);
}

core::ExperimentConfig PaperBaseConfig() {
  core::ExperimentConfig config;
  config.dataset = ml::Cifar10SimSpec();
  config.dataset.num_train = 2048;
  config.dataset.num_test = 512;
  config.hidden_layers = {32};
  config.profile = ml::ResNet18Profile();
  config.num_workers = 8;
  config.network = core::NetworkScenario::kHeterogeneousDynamic;
  config.batch_size = 32;
  config.max_epochs = 24;
  // The paper re-draws the slow link every 5 minutes over multi-hour
  // trainings and recomputes the policy every Ts = 2 minutes. Our scaled-down
  // runs last tens of virtual minutes, so both periods shrink proportionally
  // to preserve the windows-per-training ratio.
  config.slowdown_period_seconds = 60.0;
  config.monitor_period_seconds = 24.0;
  config.generator.outer_rounds = 6;
  config.generator.inner_rounds = 6;
  config.seed = 1;
  return config;
}

core::ExperimentConfig NonUniformConfig(const ml::SyntheticSpec& dataset,
                                        const ml::ModelProfile& profile) {
  core::ExperimentConfig config = PaperBaseConfig();
  config.dataset = dataset;
  config.dataset.num_train = std::min(config.dataset.num_train, 4096);
  config.dataset.num_test = std::min(config.dataset.num_test, 1024);
  config.profile = profile;
  config.num_workers = 8;
  config.two_server_placement = true;
  config.partition = core::PartitionScheme::kSegments;
  config.segments = {1, 1, 1, 1, 2, 1, 2, 1};  // paper Section V-F
  config.batch_size = 16;                      // scaled per segment count
  config.max_epochs = 24;
  config.lr_milestones = {16};  // paper: decay by 10 at 2/3 of the budget
  return config;
}

}  // namespace netmax::bench
