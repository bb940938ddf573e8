// perfbench: the measuring half of the repo benchmark (run.py is the other
// half: it builds this binary, turns its raw report into metrics, and prints
// the result line).
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1 [--plumbing]
//
// Every experiment goes through the public library API: algos::MakeAlgorithm
// + TrainingAlgorithm::Run for the runs, and the layers' own public functions
// for the per-layer probes. Runs execute one at a time, with the program's
// default execution config (backend, event queue) and `threads` = 1: on a
// shared host, a thread pool as wide as the affinity core count times the
// host's scheduler as much as the program.
//
// --trace 0 (timed run): times ExperimentHarness::Init (setup), runs one
//   untimed warm-up repetition of the workload's jobs, then repeats them, one
//   repetition after another, until --seconds pass.
// --trace 1 (traced run): records spans (name, start, end, parent) in memory
//   around the benchmark's own calls into each layer, plus an untraced, a
//   traced and a parallel (threads = affinity cores) repetition, a checkpoint
//   cadence on/off pair and a restore run; spans are written out with the
//   report at exit.
// --plumbing: shrinks the workload so every code path runs in about a second.
//
// The raw report is one JSON object on the last line of stdout. Every run
// carries its own output checks; a run that fails any of them is reported
// with ok=false and the reasons.

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "algos/registry.h"
#include "bench/bench_util.h"
#include "common/random.h"
#include "core/experiment.h"
#include "core/policy.h"
#include "core/policy_generator.h"
#include "linalg/eigen.h"
#include "linalg/matrix.h"
#include "ml/compression.h"
#include "ml/dataset.h"
#include "net/event_queue.h"
#include "net/event_sim.h"
#include "net/topology.h"

namespace netmax::perfbench {
namespace {

using Clock = std::chrono::steady_clock;

double SecondsBetween(Clock::time_point start, Clock::time_point end) {
  return std::chrono::duration<double>(end - start).count();
}

// --- JSON output -------------------------------------------------------------

std::string Quote(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out + "\"";
}

std::string Num(double value) {
  if (!std::isfinite(value)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

std::string Num(int64_t value) { return std::to_string(value); }

std::string NumList(const std::vector<double>& values) {
  std::string out = "[";
  for (size_t i = 0; i < values.size(); ++i) {
    if (i > 0) out += ",";
    out += Num(values[i]);
  }
  return out + "]";
}

// Appends `"key": value` members to one JSON object.
class JsonObject {
 public:
  JsonObject& Raw(const std::string& key, const std::string& json) {
    if (!body_.empty()) body_ += ",";
    body_ += Quote(key) + ":" + json;
    return *this;
  }
  JsonObject& Str(const std::string& key, const std::string& value) {
    return Raw(key, Quote(value));
  }
  JsonObject& Dbl(const std::string& key, double value) {
    return Raw(key, Num(value));
  }
  JsonObject& Int(const std::string& key, int64_t value) {
    return Raw(key, Num(value));
  }
  JsonObject& Bool(const std::string& key, bool value) {
    return Raw(key, value ? "true" : "false");
  }
  std::string str() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

// --- tracing -----------------------------------------------------------------

// In-memory span recorder. Spans are recorded only around the benchmark's own
// calls into the library; self time (a span minus its children) is computed
// from the written spans by run.py.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled), origin_(Clock::now()) {
    spans_.reserve(4096);
  }

  int Begin(const std::string& name) {
    if (!enabled_) return -1;
    const int id = static_cast<int>(spans_.size());
    const int parent = stack_.empty() ? -1 : stack_.back();
    spans_.push_back({id, parent, name, Now(), -1.0});
    stack_.push_back(id);
    return id;
  }

  void End(int id) {
    if (id < 0) return;
    spans_[static_cast<size_t>(id)].end = Now();
    if (!stack_.empty() && stack_.back() == id) stack_.pop_back();
  }

  std::string Json() const {
    std::string out = "[";
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& span = spans_[i];
      if (i > 0) out += ",";
      out += JsonObject()
                 .Int("id", span.id)
                 .Int("parent", span.parent)
                 .Str("name", span.name)
                 .Dbl("start", span.start)
                 .Dbl("end", span.end)
                 .str();
    }
    return out + "]";
  }

 private:
  struct Span {
    int id;
    int parent;
    std::string name;
    double start;
    double end;
  };

  double Now() const { return SecondsBetween(origin_, Clock::now()); }

  bool enabled_;
  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, const std::string& name)
      : tracer_(tracer), id_(tracer.Begin(name)) {}
  ~ScopedSpan() { tracer_.End(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer& tracer_;
  int id_;
};

// --- workloads ---------------------------------------------------------------

// The virtual seconds between two periodic checkpoints on comm-ckpt (and on
// the traced run's checkpoint probe of every other workload).
constexpr double kCadenceSeconds = 10.0;

struct Job {
  std::string label;
  std::string algorithm;
  core::ExperimentConfig config;
  bool cadence = false;  // checkpoints every kCadenceSeconds to a sink
  int restore_of = -1;   // index of the cadenced job this run resumes
};

struct Workload {
  std::string name;
  std::vector<Job> jobs;
  // Fixed train-loss target of sim_time_to_loss_s.
  double loss_target = 0.0;
};

int AffinityCores() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 1;
  return std::max(1, CPU_COUNT(&set));
}

core::ExperimentConfig SeededPaperConfig(uint64_t seed, bool plumbing) {
  core::ExperimentConfig config = bench::PaperBaseConfig();
  // The seed draws the training data. The cluster's network scenario (the
  // slow-link draws, under config.seed) is part of the workload, so the
  // simulated outcomes move with the data only.
  config.dataset.seed += seed;
  config.dataset.num_train = plumbing ? 2048 : 4096;
  if (plumbing) config.max_epochs = 3;
  config.threads = 1;
  return config;
}

StatusOr<Workload> MakeWorkload(const std::string& name, uint64_t seed,
                                bool plumbing) {
  Workload workload;
  workload.name = name;
  if (name == "paper8") {
    // The paper's Fig. 8 comparison, as users run it.
    const core::ExperimentConfig config = SeededPaperConfig(seed, plumbing);
    for (const char* algorithm : {"prague", "allreduce", "adpsgd", "netmax"}) {
      workload.jobs.push_back({algorithm, algorithm, config});
    }
    workload.loss_target = 0.5;
  } else if (name == "netmax-dense32") {
    // NetMax alone on a 32-worker complete graph: policy generation dominates.
    core::ExperimentConfig config = SeededPaperConfig(seed, plumbing);
    if (!plumbing) config.dataset.num_train = 2048;
    config.num_workers = plumbing ? 16 : 32;
    config.monitor_period_seconds = 8.0;
    config.generator.outer_rounds = 6;
    config.generator.inner_rounds = 6;
    workload.jobs.push_back({"netmax", "netmax", config});
    workload.loss_target = 1.0;
  } else if (name == "comm-ckpt") {
    // Compression on two different paths plus checkpoint saves and a restore.
    core::ExperimentConfig base = SeededPaperConfig(seed, plumbing);
    Job allreduce{"allreduce+topk", "allreduce", base, true};
    allreduce.config.compress.kind = ml::CompressionKind::kTopK;
    allreduce.config.compress.topk_fraction = 0.05;
    Job netmax{"netmax+int8", "netmax", base, true};
    netmax.config.compress.kind = ml::CompressionKind::kInt8;
    Job restore{"allreduce+topk:restore", "allreduce", allreduce.config};
    restore.restore_of = 0;
    workload.jobs = {allreduce, netmax, restore};
    workload.loss_target = 0.5;
  } else {
    return InvalidArgumentError("unknown workload '" + name + "'");
  }
  return workload;
}

// --- runs and their checks ---------------------------------------------------

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
}


// Simulation outputs covered by the bit-identity contract (execution
// diagnostics such as backend counters are excluded).
bool SameSeries(const ml::Series& a, const ml::Series& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (std::bit_cast<uint64_t>(a[i].x) != std::bit_cast<uint64_t>(b[i].x) ||
        std::bit_cast<uint64_t>(a[i].y) != std::bit_cast<uint64_t>(b[i].y)) {
      return false;
    }
  }
  return true;
}

bool SameBits(double a, double b) {
  return std::bit_cast<uint64_t>(a) == std::bit_cast<uint64_t>(b);
}

bool SameSimulation(const core::RunResult& a, const core::RunResult& b) {
  return SameSeries(a.loss_vs_time, b.loss_vs_time) &&
         SameSeries(a.loss_vs_epoch, b.loss_vs_epoch) &&
         SameSeries(a.accuracy_vs_time, b.accuracy_vs_time) &&
         SameBits(a.final_train_loss, b.final_train_loss) &&
         SameBits(a.final_accuracy, b.final_accuracy) &&
         SameBits(a.total_virtual_seconds, b.total_virtual_seconds) &&
         SameBits(a.avg_epoch_cost.compute_seconds,
                  b.avg_epoch_cost.compute_seconds) &&
         SameBits(a.avg_epoch_cost.communication_seconds,
                  b.avg_epoch_cost.communication_seconds) &&
         SameBits(a.consensus_distance, b.consensus_distance) &&
         a.total_local_iterations == b.total_local_iterations &&
         a.policies_generated == b.policies_generated &&
         a.messages_sent == b.messages_sent &&
         a.bytes_sent == b.bytes_sent && a.bytes_saved == b.bytes_saved;
}

bool LossesFinite(const core::RunResult& result) {
  if (!std::isfinite(result.final_train_loss)) return false;
  for (const ml::Series* series :
       {&result.loss_vs_time, &result.loss_vs_epoch}) {
    for (const ml::SeriesPoint& point : *series) {
      if (!std::isfinite(point.y)) return false;
    }
  }
  return true;
}

struct RunRecord {
  std::string phase;
  int rep = 0;
  int job = 0;
  std::string label;
  int threads = 0;  // resolved thread count of the run's config
  double wall_s = 0.0;
  double cadence_seconds = 0.0;  // 0 = no periodic checkpoints
  bool restore = false;
  int64_t checkpoint_bytes = 0;
  double peak_rss_mb = 0.0;  // the process's peak RSS when the run ended
  std::optional<core::RunResult> result;  // empty when Run failed
  std::vector<std::string> errors;
};

// Outputs every run must produce, whatever its phase.
struct Expectation {
  std::vector<int64_t> iterations;  // per job
  int max_threads = 0;
};

// Harness-side facts of a config: what `threads` resolves to, and the local
// iterations a complete run performs.
struct ResolvedConfig {
  int threads = 0;
  int64_t iterations = 0;
};

StatusOr<ResolvedConfig> Resolve(const core::ExperimentConfig& config) {
  core::ExperimentConfig plain = config;
  plain.checkpoint_every_seconds = 0.0;
  core::ExperimentHarness harness(plain, "resolve");
  NETMAX_RETURN_IF_ERROR(harness.Init());
  ResolvedConfig resolved;
  resolved.threads = harness.threads();
  for (int w = 0; w < harness.num_workers(); ++w) {
    resolved.iterations +=
        harness.worker(w).sampler->batches_per_epoch() * config.max_epochs;
  }
  return resolved;
}

class Runner {
 public:
  Runner(const Workload& workload, Tracer& tracer, Expectation expect)
      : workload_(workload), tracer_(tracer), expect_(expect) {}

  // Runs job `j` with `config` (the job's config, possibly adjusted by the
  // caller) and checks its output.
  RunRecord Run(const std::string& phase, int rep, int j,
                core::ExperimentConfig config, double cadence_seconds,
                const std::vector<uint8_t>* restore_source,
                std::vector<uint8_t>* sink) {
    const Job& job = workload_.jobs[static_cast<size_t>(j)];
    RunRecord record;
    record.phase = phase;
    record.rep = rep;
    record.job = j;
    record.label = job.label;
    record.cadence_seconds = cadence_seconds;
    record.restore = restore_source != nullptr;
    config.checkpoint_every_seconds = cadence_seconds;
    config.checkpoint_sink = cadence_seconds > 0.0 ? sink : nullptr;
    config.restore_source = restore_source;
    CheckThreads(record, config);

    auto algorithm = algos::MakeAlgorithm(job.algorithm);
    if (!algorithm.ok()) {
      record.errors.push_back(algorithm.status().ToString());
      return record;
    }
    StatusOr<core::RunResult> result = InvalidArgumentError("not run");
    {
      ScopedSpan span(tracer_, "algos.run:" + job.label);
      const Clock::time_point start = Clock::now();
      result = (*algorithm)->Run(config);
      record.wall_s = SecondsBetween(start, Clock::now());
    }
    record.peak_rss_mb = PeakRssMb();
    if (!result.ok()) {
      record.errors.push_back("status: " + result.status().ToString());
      return record;
    }
    record.result = std::move(result.value());
    if (sink != nullptr) {
      record.checkpoint_bytes = static_cast<int64_t>(sink->size());
    }
    const core::RunResult& out = *record.result;
    const int64_t iterations = expect_.iterations[static_cast<size_t>(j)];
    if (out.total_local_iterations != iterations) {
      record.errors.push_back(
          "total_local_iterations " +
          std::to_string(out.total_local_iterations) + " != expected " +
          std::to_string(iterations));
    }
    if (!LossesFinite(out)) record.errors.push_back("non-finite loss");
    if (cadence_seconds > 0.0 && restore_source == nullptr &&
        record.checkpoint_bytes == 0) {
      record.errors.push_back("cadence wrote no checkpoint");
    }
    return record;
  }

  // Records the thread count the run's config resolves to (resolved once per
  // job and requested count, outside any timing); a run that resolves to
  // more threads than the affinity core count fails.
  void CheckThreads(RunRecord& record, const core::ExperimentConfig& config) {
    const std::pair<int, int> key{record.job, config.threads};
    auto it = resolved_threads_.find(key);
    if (it == resolved_threads_.end()) {
      StatusOr<ResolvedConfig> resolved = Resolve(config);
      it = resolved_threads_.emplace(key, resolved.ok() ? resolved->threads : 0)
               .first;
    }
    record.threads = it->second;
    if (record.threads < 1 || record.threads > expect_.max_threads) {
      record.errors.push_back("resolved threads " +
                              std::to_string(record.threads) +
                              " outside [1, affinity cores " +
                              std::to_string(expect_.max_threads) + "]");
    }
  }

  // Resolved thread count of job `j` at its own config (0 if unresolved).
  int ResolvedThreads(int j) const {
    const auto it = resolved_threads_.find(
        {j, workload_.jobs[static_cast<size_t>(j)].config.threads});
    return it == resolved_threads_.end() ? 0 : it->second;
  }

  // One repetition: every job once, in order, each with its own sinks.
  std::vector<RunRecord> Repetition(const std::string& phase, int rep,
                                    int threads_override,
                                    bool include_restore) {
    const size_t n = workload_.jobs.size();
    std::vector<std::vector<uint8_t>> sinks(n);
    std::vector<RunRecord> records;
    ScopedSpan span(tracer_, "bench.rep:" + phase);
    for (size_t j = 0; j < n; ++j) {
      const Job& job = workload_.jobs[j];
      if (job.restore_of >= 0 && !include_restore) continue;
      core::ExperimentConfig config = job.config;
      if (threads_override > 0) config.threads = threads_override;
      const std::vector<uint8_t>* source =
          job.restore_of >= 0 ? &sinks[static_cast<size_t>(job.restore_of)]
                              : nullptr;
      // A restore run keeps the cadence, so its resumed ticks land exactly
      // where the uninterrupted run's did.
      const double cadence =
          job.cadence || source != nullptr ? kCadenceSeconds : 0.0;
      RunRecord record = Run(phase, rep, static_cast<int>(j), config, cadence,
                             source, &sinks[j]);
      if (source != nullptr) {
        const RunRecord* from = nullptr;
        for (const RunRecord& earlier : records) {
          if (earlier.job == job.restore_of) from = &earlier;
        }
        CheckRestore(record, from);
      }
      records.push_back(std::move(record));
    }
    return records;
  }

  // The restore run must finish where its cadenced source run finished.
  static void CheckRestore(RunRecord& restore, const RunRecord* source) {
    if (!restore.result) return;
    if (source == nullptr || !source->result) {
      restore.errors.push_back("restore source run missing");
      return;
    }
    if (!SameBits(source->result->final_train_loss,
                  restore.result->final_train_loss)) {
      restore.errors.push_back("restored final loss differs from source");
    }
    if (!SameSimulation(*source->result, *restore.result)) {
      restore.errors.push_back("restored run differs from source");
    }
  }

 private:
  const Workload& workload_;
  Tracer& tracer_;
  Expectation expect_;
  std::map<std::pair<int, int>, int> resolved_threads_;
};

std::string RunJson(const RunRecord& record, double loss_target) {
  JsonObject json;
  json.Str("phase", record.phase)
      .Int("rep", record.rep)
      .Int("job", record.job)
      .Str("label", record.label)
      .Bool("ok", record.errors.empty())
      .Dbl("wall_s", record.wall_s)
      .Int("threads", record.threads)
      .Dbl("cadence_seconds", record.cadence_seconds)
      .Bool("restore", record.restore)
      .Int("checkpoint_bytes", record.checkpoint_bytes)
      .Dbl("peak_rss_mb", record.peak_rss_mb);
  std::string errors = "[";
  for (size_t i = 0; i < record.errors.size(); ++i) {
    if (i > 0) errors += ",";
    errors += Quote(record.errors[i]);
  }
  json.Raw("errors", errors + "]");
  if (record.result) {
    const core::RunResult& r = *record.result;
    json.Str("backend", r.backend)
        .Str("event_queue", r.event_queue)
        .Int("total_local_iterations", r.total_local_iterations)
        .Int("policies_generated", r.policies_generated)
        .Int("messages_sent", r.messages_sent)
        .Int("bytes_sent", r.bytes_sent)
        .Dbl("final_train_loss", r.final_train_loss)
        .Dbl("final_accuracy", r.final_accuracy)
        .Dbl("total_virtual_seconds", r.total_virtual_seconds)
        .Dbl("sim_time_to_loss_s",
             bench::ConvergenceSeconds(r, loss_target))
        .Int("parallel_batches", r.parallel_batches)
        .Int("computes_speculated", r.computes_speculated)
        .Int("computes_redispatched", r.computes_redispatched)
        .Int("window_stalls", r.window_stalls);
    std::vector<double> curve;
    for (const ml::SeriesPoint& point : r.loss_vs_time) {
      curve.push_back(point.x);
      curve.push_back(point.y);
    }
    json.Raw("loss_vs_time", NumList(curve));
  }
  return json.str();
}

// --- layer probes ------------------------------------------------------------

// Times `op` in blocks until `budget` seconds pass (at least `min_blocks`
// blocks) and returns the per-call seconds of each block. The block length is
// calibrated from one untimed warm-up call so a block lasts ~budget/10.
std::vector<double> PerCall(Tracer& tracer, const std::string& name,
                            double budget, int min_blocks,
                            const std::function<void()>& op) {
  Clock::time_point start = Clock::now();
  op();
  const double one = std::max(SecondsBetween(start, Clock::now()), 1e-9);
  const int64_t calls = std::max<int64_t>(
      1, static_cast<int64_t>(budget / 10.0 / one));
  std::vector<double> samples;
  const Clock::time_point begin = Clock::now();
  while (static_cast<int>(samples.size()) < min_blocks ||
         SecondsBetween(begin, Clock::now()) < budget) {
    ScopedSpan span(tracer, name);
    start = Clock::now();
    for (int64_t i = 0; i < calls; ++i) op();
    samples.push_back(SecondsBetween(start, Clock::now()) /
                      static_cast<double>(calls));
  }
  return samples;
}

// The iteration-time matrix a monitor would measure on an idle network:
// t_{i,m} = max(C_i, N_{i,m}) on every edge of `topology`, over the first
// topology.num_nodes() workers of `harness`.
linalg::Matrix IterationTimes(const core::ExperimentHarness& harness,
                              const net::Topology& topology) {
  const int n = topology.num_nodes();
  linalg::Matrix times(n, n, 0.0);
  const double compute = harness.ComputeSeconds(harness.config().batch_size);
  for (int i = 0; i < n; ++i) {
    for (int m : topology.Neighbors(i)) {
      times(i, m) = std::max(compute, harness.PullSeconds(m, i));
    }
  }
  return times;
}

// The largest topology NetMax's generator is run on in the probe: the
// workload's own when it runs NetMax, else an 8-worker complete slice (the
// paper's scale), so every workload reports the layer's per-call cost.
constexpr int kPolicySliceWorkers = 8;

struct LayerProbes {
  std::map<std::string, std::vector<double>> samples;
  std::map<std::string, double> counters;
};

Status ProbeLayers(const Workload& workload, double budget, Tracer& tracer,
                   LayerProbes& out) {
  const Job& job = workload.jobs.front();
  const core::ExperimentConfig& config = job.config;
  core::ExperimentHarness harness(config, "probe");
  NETMAX_RETURN_IF_ERROR(harness.Init());

  // Results are summed into `sink` (and checked) so no call is elided.
  double sink = 0.0;
  out.samples["core.finalize_s"] =
      PerCall(tracer, "core.finalize", budget, 3,
              [&] { sink += harness.Finalize().final_accuracy; });

  // ml: one worker's gradient and optimizer step at the workload's model and
  // batch.
  core::WorkerRuntime& worker = harness.worker(0);
  std::vector<int> batch;
  worker.sampler->NextBatch(batch);
  out.samples["ml.grad_step_s"] =
      PerCall(tracer, "ml.grad_step", budget, 10, [&] {
        sink += worker.model->LossAndGradient(worker.shard, batch,
                                              worker.gradient,
                                              worker.workspace);
      });
  out.samples["ml.optimizer_step_s"] =
      PerCall(tracer, "ml.optimizer_step", budget, 10, [&] {
        worker.optimizer->Step(worker.model->parameters(), worker.gradient);
      });
  if (!std::isfinite(sink)) {
    return InternalError("finalize/gradient probe produced a non-finite value");
  }

  // ml: compression transforms at the proxy parameter count.
  const int params = worker.model->num_parameters();
  Rng values_rng(config.seed);
  std::vector<double> values(static_cast<size_t>(params));
  for (double& v : values) v = values_rng.Gaussian();
  std::vector<double> scratch(values.size());
  ml::CompressionSpec topk;
  topk.kind = ml::CompressionKind::kTopK;
  topk.topk_fraction = 0.05;
  ml::CompressionSpec int8;
  int8.kind = ml::CompressionKind::kInt8;
  for (const auto& [name, spec] :
       {std::pair{"topk", topk}, std::pair{"int8", int8}}) {
    const ml::GradientCompressor compressor(spec,
                                            worker.model->LayerSegments());
    Rng rng(config.seed);
    int64_t round = 0;
    out.samples[std::string("ml.compress_s.") + name] =
        PerCall(tracer, std::string("ml.compress.") + name, budget, 10, [&] {
          std::copy(values.begin(), values.end(), scratch.begin());
          compressor.Transform(scratch, round++, rng);
        });
  }

  // core + linalg: NetMax's policy generation on the idle-network time
  // matrix, and lambda_2 alone. (A 1x1 grid cannot stand in for one LP solve:
  // its only point sits on the feasible region's boundary and is infeasible,
  // so run.py derives the per-point LP cost from the full grid instead.)
  const bool runs_netmax = std::any_of(
      workload.jobs.begin(), workload.jobs.end(),
      [](const Job& j) { return j.algorithm == "netmax"; });
  const int n = runs_netmax ? harness.num_workers()
                            : std::min(kPolicySliceWorkers,
                                       harness.num_workers());
  const net::Topology topology = runs_netmax
                                     ? harness.topology()
                                     : net::Topology::Complete(n);
  const linalg::Matrix times = IterationTimes(harness, topology);
  core::PolicyGeneratorOptions options = config.generator;
  options.alpha = config.learning_rate;
  const core::PolicyGenerator generator(topology, options);
  Status generate_status;
  out.samples["core.policy_generate_s"] =
      PerCall(tracer, "core.policy_generate", budget, 3, [&] {
        const auto policy = generator.Generate(times);
        if (!policy.ok()) generate_status = policy.status();
      });
  NETMAX_RETURN_IF_ERROR(generate_status);
  // lambda_2 of the Y matrix of the policy Generate picked.
  StatusOr<core::GeneratedPolicy> point = generator.Generate(times);
  NETMAX_RETURN_IF_ERROR(point.status());
  const std::vector<double> uniform(static_cast<size_t>(n),
                                    1.0 / static_cast<double>(n));
  StatusOr<linalg::Matrix> y = core::BuildNetMaxY(
      point->policy, topology, options.alpha, point->rho, uniform);
  NETMAX_RETURN_IF_ERROR(y.status());
  out.samples["linalg.lambda2_s"] =
      PerCall(tracer, "linalg.lambda2", budget, 5, [&] {
        const auto eigen = linalg::JacobiEigenSymmetric(*y);
        if (!eigen.ok()) generate_status = eigen.status();
      });
  NETMAX_RETURN_IF_ERROR(generate_status);
  out.counters["linalg.solves_per_generate"] =
      static_cast<double>(options.outer_rounds) *
      static_cast<double>(options.inner_rounds);
  out.counters["core.policy_probe_workers"] = n;

  // net: the effective event queue holding one pending event per worker, and
  // a standalone simulator with one self-rechaining event per worker.
  const int workers = harness.num_workers();
  const net::EventQueueKind kind = harness.sim().queue_kind();
  std::unique_ptr<net::EventQueue> queue = net::MakeEventQueue(kind);
  Rng queue_rng(config.seed);
  int64_t sequence = 0;
  for (int w = 0; w < workers; ++w) {
    net::SimEvent event;
    event.time = queue_rng.Uniform(0.0, 1.0);
    event.sequence = sequence++;
    event.plain = [] {};
    queue->Push(std::move(event));
  }
  out.samples["net.queue_op_s"] =
      PerCall(tracer, "net.queue_op", budget, 10, [&] {
        net::SimEvent event = queue->PopNext();
        event.time += queue_rng.Uniform(0.5, 1.5);
        event.sequence = sequence++;
        queue->Push(std::move(event));
      });

  struct Chain {
    net::EventSimulator* sim;
    Rng* rng;
    void operator()() const {
      sim->ScheduleAfter(rng->Uniform(0.5, 1.5), Chain{sim, rng});
    }
  };
  std::vector<double> rates;
  const Clock::time_point sim_begin = Clock::now();
  while (rates.size() < 5 || SecondsBetween(sim_begin, Clock::now()) < budget) {
    ScopedSpan span(tracer, "net.sim_events");
    net::EventSimulator sim;
    sim.ReplaceQueue(net::MakeEventQueue(kind));
    Rng rng(config.seed);
    for (int w = 0; w < workers; ++w) {
      sim.ScheduleAt(rng.Uniform(0.0, 1.0), Chain{&sim, &rng});
    }
    // ~20k events per block whatever the worker count.
    const double horizon = 20000.0 / static_cast<double>(workers);
    const Clock::time_point start = Clock::now();
    const int64_t events = sim.RunUntil(horizon);
    rates.push_back(static_cast<double>(events) /
                    SecondsBetween(start, Clock::now()));
  }
  out.samples["net.sim_events_per_s"] = rates;
  return Status::Ok();
}

// --- setup -------------------------------------------------------------------

// One standalone ExperimentHarness::Init on `config`: the setup every Run
// does before its first event.
Status TimeInit(const core::ExperimentConfig& config, Tracer& tracer,
                LayerProbes& out) {
  core::ExperimentHarness harness(config, "setup");
  const Clock::time_point start = Clock::now();
  Status status;
  {
    ScopedSpan span(tracer, "core.harness_init");
    status = harness.Init();
  }
  out.samples["setup_s"].push_back(SecondsBetween(start, Clock::now()));
  return status;
}

// Init's two data stages, called standalone on `config`.
Status ProbeInitStages(const core::ExperimentConfig& config, int reps,
                       Tracer& tracer, LayerProbes& out) {
  for (int r = 0; r < reps; ++r) {
    Clock::time_point start = Clock::now();
    std::optional<ml::DatasetPair> data;
    {
      ScopedSpan span(tracer, "ml.dataset_synth");
      data.emplace(ml::GenerateSynthetic(config.dataset));
    }
    out.samples["ml.dataset_synth_s"].push_back(
        SecondsBetween(start, Clock::now()));
    start = Clock::now();
    StatusOr<std::vector<ml::Dataset>> shards = InternalError("not run");
    {
      ScopedSpan span(tracer, "core.build_shards");
      shards = core::BuildShards(config, data->train);
    }
    out.samples["core.build_shards_s"].push_back(
        SecondsBetween(start, Clock::now()));
    NETMAX_RETURN_IF_ERROR(shards.status());
  }
  return Status::Ok();
}

// --- provenance --------------------------------------------------------------

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) {
        return line.substr(line.find_first_not_of(' ', colon + 1));
      }
    }
  }
  return "unknown";
}

std::string Provenance() {
#ifdef NDEBUG
  const bool ndebug = true;
#else
  const bool ndebug = false;
#endif
  return JsonObject()
      .Int("affinity_cores", AffinityCores())
      .Int("hardware_concurrency", std::thread::hardware_concurrency())
      .Str("cpu_model", CpuModel())
#ifdef __clang__
      .Str("compiler", std::string("clang ") + __VERSION__)
#else
      .Str("compiler", std::string("g++ ") + __VERSION__)
#endif
      .Str("build_type", PERFBENCH_BUILD_TYPE)
      .Str("cxx_flags", PERFBENCH_CXX_FLAGS)
      .Bool("ndebug", ndebug)
      .str();
}

std::string ConfigJson(const core::ExperimentConfig& config, int resolved) {
  return JsonObject()
      .Int("num_workers", config.num_workers)
      .Str("topology", net::TopologySpecName(config.topology))
      .Int("threads", config.threads)
      .Int("resolved_threads", resolved)
      .Str("backend", std::string(core::ExecutionBackendKindName(
                          config.backend)))
      .Str("event_queue",
           std::string(net::EventQueueKindName(config.event_queue)))
      .Int("num_train", config.dataset.num_train)
      .Int("max_epochs", config.max_epochs)
      .Str("compress", ml::CompressionSpecName(config.compress))
      .Int("seed", static_cast<int64_t>(config.seed))
      .str();
}

// --- main --------------------------------------------------------------------

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool plumbing = false;
};

StatusOr<Args> ParseArgs(int argc, char** argv) {
  Args args;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--plumbing") {
      args.plumbing = true;
      continue;
    }
    if (i + 1 >= argc) return InvalidArgumentError(flag + " needs a value");
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
      if (!(args.seconds > 0.0)) end = nullptr;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") {
        return InvalidArgumentError("--trace takes 0 or 1");
      }
      args.trace = value == "1";
      continue;
    } else {
      return InvalidArgumentError("unknown flag " + flag);
    }
    if (flag != "--workload" && (end == nullptr || *end != '\0')) {
      return InvalidArgumentError("bad value for " + flag + ": " + value);
    }
  }
  if (!have_workload) return InvalidArgumentError("--workload is required");
  return args;
}

std::string SamplesJson(const std::map<std::string, std::vector<double>>& m) {
  JsonObject json;
  for (const auto& [name, values] : m) json.Raw(name, NumList(values));
  return json.str();
}

int Main(int argc, char** argv) {
  StatusOr<Args> parsed = ParseArgs(argc, argv);
  if (!parsed.ok()) {
    std::cerr << "perfbench: " << parsed.status().ToString() << "\n";
    return 2;
  }
  const Args args = *parsed;
  StatusOr<Workload> made = MakeWorkload(args.workload, args.seed,
                                         args.plumbing);
  if (!made.ok()) {
    std::cerr << "perfbench: " << made.status().ToString() << "\n";
    return 2;
  }
  const Workload& workload = *made;
  const Clock::time_point begin = Clock::now();
  Tracer tracer(args.trace);
  const int root = tracer.Begin("perfbench");

  Expectation expect;
  expect.max_threads = AffinityCores();
  for (const Job& job : workload.jobs) {
    StatusOr<ResolvedConfig> r = Resolve(job.config);
    if (!r.ok()) {
      std::cerr << "perfbench: " << job.label << ": " << r.status().ToString()
                << "\n";
      return 1;
    }
    expect.iterations.push_back(r->iterations);
  }
  Runner runner(workload, tracer, expect);

  // Setup is timed several times per invocation. The timed run spreads its
  // Init calls over the measurement window (one before every repetition), so
  // setup_s samples the same machine state as the runs do.
  LayerProbes probes;
  const core::ExperimentConfig& setup_config = workload.jobs.front().config;
  const auto setup = [&](int reps) {
    for (int r = 0; r < reps; ++r) {
      const Status status = TimeInit(setup_config, tracer, probes);
      if (!status.ok()) {
        std::cerr << "perfbench: setup: " << status.ToString() << "\n";
        return false;
      }
    }
    return true;
  };

  std::vector<RunRecord> runs;
  const auto add = [&](std::vector<RunRecord> records) {
    for (RunRecord& record : records) runs.push_back(std::move(record));
  };
  // Simulated outputs must repeat exactly across an invocation's
  // repetitions: each run is compared with the same job's first run.
  const auto check_repeat = [&](size_t from) {
    for (size_t i = from; i < runs.size(); ++i) {
      RunRecord& record = runs[i];
      if (!record.result) continue;
      for (size_t k = 0; k < i; ++k) {
        const RunRecord& first = runs[k];
        if (first.job != record.job || first.restore != record.restore ||
            first.cadence_seconds != record.cadence_seconds ||
            !first.result) {
          continue;
        }
        if (!SameSimulation(*first.result, *record.result)) {
          record.errors.push_back("simulated outputs differ from " +
                                  first.phase + " rep " +
                                  std::to_string(first.rep));
        }
        break;
      }
    }
  };

  const int min_reps = args.plumbing ? 1 : 2;
  if (!args.trace) {
    if (!setup(args.plumbing ? 0 : 2)) return 1;
    // One untimed repetition first, so caches, the allocator and lazy
    // set-up are warm when timing starts. Its runs are checked like the rest.
    if (!args.plumbing) add(runner.Repetition("warmup", 0, 0, true));
    const Clock::time_point start = Clock::now();
    for (int rep = 0;; ++rep) {
      const double elapsed = SecondsBetween(start, Clock::now());
      if (rep >= min_reps &&
          (args.plumbing || elapsed + elapsed / rep > args.seconds)) {
        break;
      }
      if (!setup(1)) return 1;
      add(runner.Repetition("timed", rep, 0, true));
    }
    check_repeat(0);
  } else {
    const int reps = args.plumbing ? 1 : 7;
    if (!setup(reps)) return 1;
    const Status stages = ProbeInitStages(setup_config, reps, tracer, probes);
    if (!stages.ok()) {
      std::cerr << "perfbench: setup: " << stages.ToString() << "\n";
      return 1;
    }

    // Untraced and traced repetitions of the timed config (their difference
    // is the tracing overhead), then a parallel repetition with `threads` at
    // the affinity core count, which must match them bit for bit.
    Tracer silent(false);
    Runner untraced(workload, silent, expect);
    add(untraced.Repetition("untraced", 0, 0, true));
    add(runner.Repetition("traced", 0, 0, true));
    add(runner.Repetition("parallel", 0, AffinityCores(), false));
    check_repeat(0);

    // Checkpoint probe on the first job: cadence on vs off (one of the two
    // is the traced run itself) and a restore from the cadenced run. A job
    // without its own cadence gets kCadenceSeconds, or more ticks on runs
    // shorter than 64 of those, so the saves outweigh the run's noise.
    const Job& first = workload.jobs.front();
    double cadence = kCadenceSeconds;
    for (const RunRecord& record : runs) {
      if (record.phase == "traced" && record.job == 0 && record.result &&
          !first.cadence) {
        cadence = std::min(kCadenceSeconds,
                           record.result->total_virtual_seconds / 64.0);
      }
    }
    std::vector<uint8_t> sink;
    std::vector<uint8_t> restore_sink;
    {
      ScopedSpan span(tracer, "bench.checkpoint_probe");
      std::vector<RunRecord> extra;
      if (first.cadence) {
        extra.push_back(
            runner.Run("cadence_off", 0, 0, first.config, 0.0, nullptr, &sink));
      }
      extra.push_back(runner.Run("cadence_on", 0, 0, first.config, cadence,
                                 nullptr, &sink));
      RunRecord restore = runner.Run("restore", 0, 0, first.config, cadence,
                                     &sink, &restore_sink);
      Runner::CheckRestore(restore, &extra.back());
      extra.push_back(std::move(restore));
      const size_t from = runs.size();
      add(std::move(extra));
      check_repeat(from);
    }

    const double budget =
        args.plumbing ? 0.01 : std::clamp(args.seconds / 40.0, 0.05, 0.5);
    const Status status = ProbeLayers(workload, budget, tracer, probes);
    if (!status.ok()) {
      std::cerr << "perfbench: layer probes: " << status.ToString() << "\n";
      return 1;
    }
  }
  tracer.End(root);

  std::string runs_json = "[";
  for (size_t i = 0; i < runs.size(); ++i) {
    if (i > 0) runs_json += ",";
    runs_json += RunJson(runs[i], workload.loss_target);
  }
  runs_json += "]";
  std::string configs = "[";
  for (size_t j = 0; j < workload.jobs.size(); ++j) {
    if (j > 0) configs += ",";
    configs += JsonObject()
                   .Str("label", workload.jobs[j].label)
                   .Str("algorithm", workload.jobs[j].algorithm)
                   .Bool("cadence", workload.jobs[j].cadence)
                   .Bool("restore", workload.jobs[j].restore_of >= 0)
                   .Int("expected_iterations", expect.iterations[j])
                   .Raw("config", ConfigJson(workload.jobs[j].config,
                                             runner.ResolvedThreads(
                                                 static_cast<int>(j))))
                   .str();
  }
  configs += "]";
  JsonObject counters;
  for (const auto& [name, value] : probes.counters) counters.Dbl(name, value);

  std::cout << JsonObject()
                   .Str("workload", workload.name)
                   .Int("seed", static_cast<int64_t>(args.seed))
                   .Dbl("seconds", args.seconds)
                   .Bool("trace", args.trace)
                   .Bool("plumbing", args.plumbing)
                   .Raw("provenance", Provenance())
                   .Raw("jobs", configs)
                   .Dbl("loss_target", workload.loss_target)
                   .Dbl("cadence_seconds", kCadenceSeconds)
                   .Raw("samples", SamplesJson(probes.samples))
                   .Raw("counters", counters.str())
                   .Raw("runs", runs_json)
                   .Dbl("peak_rss_mb", PeakRssMb())
                   .Dbl("elapsed_s", SecondsBetween(begin, Clock::now()))
                   .Raw("spans", tracer.Json())
                   .str()
            << "\n";
  return 0;
}

}  // namespace
}  // namespace netmax::perfbench

int main(int argc, char** argv) {
  return netmax::perfbench::Main(argc, argv);
}
