#ifndef NETMAX_CORE_EXPERIMENT_H_
#define NETMAX_CORE_EXPERIMENT_H_

// Shared experiment plumbing for every decentralized-training algorithm.
//
// ExperimentConfig describes one run the way the paper's Section V does:
// dataset + partitioning, model cost profile, cluster/network scenario,
// optimizer settings, and algorithm knobs. ExperimentHarness instantiates it
// (shards, per-worker model replicas and optimizers, link model, event
// simulator) and does the measurement bookkeeping (training-loss series,
// epoch-time cost split, accuracy) so that NetMax and all baselines are
// compared on identical footing — the paper's "same runtime environment".

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/random.h"
#include "common/serialize.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "core/execution_backend.h"
#include "core/policy_generator.h"
#include "ml/compression.h"
#include "ml/dataset.h"
#include "ml/metrics.h"
#include "ml/model.h"
#include "ml/model_profile.h"
#include "ml/optimizer.h"
#include "net/cluster.h"
#include "net/event_sim.h"
#include "net/fault_schedule.h"
#include "net/link_model.h"
#include "net/topology.h"

namespace netmax::core {


// How an engine treats a neighbor that is dead (left/crashed) or stalled
// when a round needs it (net/fault_schedule.h faults):
//  * kWait — block the round on the peer, re-probing at a deterministic
//    virtual-time cadence (peer_poll_seconds) until it returns. Matches the
//    synchronous semantics of the paper's algorithms; a peer that never
//    returns parks the worker until the run's time cap.
//  * kTimeoutAndContinue — wait at most peer_timeout_seconds of virtual
//    time, then degrade gracefully: pull-based engines fall back to a local
//    step, round-based engines drop the peer from the round's membership.
// Both policies are pure virtual-time control flow, so fault runs stay
// bit-identical across backends, threads, and shards.
enum class PeerPolicy {
  kWait,
  kTimeoutAndContinue,
};

// Strict parse of a --peer-policy / NETMAX_PEER_POLICY value ("wait",
// "timeout"); returns false on anything else, leaving *policy untouched.
bool ParsePeerPolicy(std::string_view text, PeerPolicy* policy);

// The flag spelling of `policy` (inverse of ParsePeerPolicy).
std::string_view PeerPolicyName(PeerPolicy policy);

// --- harness-owned event tags ----------------------------------------------
// Engines tag their events with small non-negative ints; the harness claims
// a far-away range for the events it schedules itself (fault injections,
// checkpoint cadence), so the two namespaces can never collide and the
// harness can route restore-time rebuilding without consulting the engine.
inline constexpr int64_t kHarnessFaultTag = int64_t{1} << 40;
// args: [worker, factor] — reverts a slowdown at its end time.
inline constexpr int64_t kHarnessSlowdownEndTag = kHarnessFaultTag + 1;
// args: [tick_index] — one periodic-checkpoint cadence tick.
inline constexpr int64_t kHarnessCadenceTag = kHarnessFaultTag + 2;
// args: [at_seconds] — the one-shot checkpoint_at_seconds event.
inline constexpr int64_t kHarnessCheckpointTag = kHarnessFaultTag + 3;

enum class PartitionScheme {
  kUniform,     // Sections V-B..E
  kSegments,    // Section V-F: worker w holds segments[w] data segments
  kLostLabels,  // Tables IV/VII non-IID
};

// Largest worker count the flat complete topology accepts before Validate
// demands a hierarchical shape: beyond this the O(n^2) all-pairs edge and
// link tables stop being a sane default.
inline constexpr int kMaxCompleteTopologyWorkers = 4096;

enum class NetworkScenario {
  kHeterogeneousDynamic,  // Section V-A: slow link re-drawn every 5 minutes
  kHeterogeneousStatic,   // same placement, no dynamic slowdown
  kHomogeneous,           // single server, 10 Gbps virtual switch
  kWan,                   // Appendix G: six EC2 regions
};

struct ExperimentConfig {
  // --- workload ---
  ml::SyntheticSpec dataset = ml::Cifar10SimSpec();
  PartitionScheme partition = PartitionScheme::kUniform;
  std::vector<int> segments;                  // for kSegments
  std::vector<std::vector<int>> lost_labels;  // for kLostLabels

  // --- trainable proxy model (hidden layer widths of the MLP) ---
  std::vector<int> hidden_layers = {32};

  // --- time-domain cost model ---
  ml::ModelProfile profile = ml::ResNet18Profile();
  // Batch size that profile.compute_seconds refers to.
  int profile_batch = 128;
  double compute_multiplier = 1.0;  // >1 for CPU-only WAN instances

  // --- cluster / network ---
  int num_workers = 8;
  NetworkScenario network = NetworkScenario::kHeterogeneousDynamic;
  bool two_server_placement = false;  // Section V-F placement
  double slowdown_period_seconds = 300.0;
  double slowdown_min_factor = 2.0;
  double slowdown_max_factor = 100.0;
  // Communication-graph shape (net/topology.h). kComplete is the paper's
  // flat all-pairs setting and keeps the pairwise StaticLinkModel presets;
  // kHierarchical builds clusters-of-clusters (complete intra-cluster, hub
  // ring inter-cluster) over the O(1)-memory HierarchicalLinkModel — the
  // only shape that scales to 10^5+ workers, where a flat graph's O(n^2)
  // edge and link tables are intractable. Excludes the kWan scenario (whose
  // six-region placement is its own shape).
  net::TopologySpec topology;

  // --- optimization (paper defaults) ---
  int batch_size = 32;
  double learning_rate = 0.1;
  double momentum = 0.9;
  double weight_decay = 1e-4;
  int plateau_patience = 3;             // LR /10 on plateau if no milestones
  std::vector<int64_t> lr_milestones;   // LR /10 at these epochs if non-empty

  // --- stopping ---
  int max_epochs = 30;                 // per-worker epochs
  double max_virtual_seconds = 1e7;    // safety cap on simulated time

  // --- NetMax / monitor knobs ---
  double monitor_period_seconds = 120.0;  // Ts
  double ema_beta = 0.5;                  // iteration-time EMA smoothing
  // generator.alpha is overwritten from learning_rate.
  PolicyGeneratorOptions generator;
  // Initial consensus strength: rho_0 chosen so that
  // alpha * rho_0 * (M-1) = initial_consensus_coefficient (uniform policy).
  double initial_consensus_coefficient = 0.3;
  bool overlap_communication = true;  // Fig. 7: parallel vs serial
  bool adaptive_policy = true;        // Fig. 7: adaptive vs uniform
  // Apply the consensus step as a symmetric exchange: when i pulls from m,
  // m applies the mirrored update, so the pair moves toward each other and
  // the fleet-wide parameter mean is preserved (the update matrix becomes
  // doubly stochastic in the first moment, strengthening the paper's
  // E[D^T D] condition). The literal one-sided pull of Algorithm 2 is
  // row-stochastic only; every pull then discards a fraction of the puller's
  // fresh gradient progress from the mean, which measurably slows per-epoch
  // convergence in this scaled-down high-gradient-noise regime. Disable to
  // run the paper-literal variant.
  bool symmetric_consensus = true;

  // --- measurement ---
  // Evaluate test accuracy every this many global epochs (0 = only at end).
  int eval_every_epochs = 0;
  uint64_t seed = 1;

  // --- execution (real machine, not simulated time) ---
  // Worker threads for the parallel simulation runtime: compute halves of
  // ready events run concurrently on a pool while virtual-time ordering (and
  // therefore every result bit) is unchanged. 0 = one thread per hardware
  // core; 1 = fully serial dispatch through the same two-phase code path.
  int threads = 0;
  // Intra-worker gradient sharding: upper bound on concurrent shard tasks
  // per EvalBatchGradient, nested inside the distinct-worker reorder window.
  // 0 = auto (ceil(threads / num_workers), so sharding kicks in exactly when
  // there are more cores than workers); 1 = one serial shard task. Never
  // affects results: the gradient is defined over a fixed leaf decomposition
  // and tree reduction (ml/sharding.h), so RunResult is bit-identical across
  // the whole {threads, shards} grid.
  int shards = 0;
  // Execution backend for the simulator's compute halves
  // (core/execution_backend.h): serial dispatch or the async bounded-reorder
  // commit pipeline (default). With threads <= 1 there is no pool and both
  // kinds run serially. Like threads/shards, purely an execution choice —
  // RunResult is bit-identical for every backend.
  ExecutionBackendKind backend = ExecutionBackendKind::kAsyncPipeline;
  // Priority-queue implementation behind the simulator (net/event_queue.h).
  // Purely an execution choice: (time, sequence) is a strict total order, so
  // RunResult is bit-identical for every kind. The sorted-vector default is
  // fastest at the paper's O(10) worker scale; the calendar queue is the
  // scale-frontier choice at 10^5+ workers (see bench_scale_frontier).
  net::EventQueueKind event_queue = net::EventQueueKind::kSortedVector;
  // Async backend only: bound on in-flight compute evaluations (the reorder
  // window). 0 (default) = auto, two per thread (2 x threads). Ignored by the
  // serial backend.
  int reorder_window = 0;
  // Async backend only: let the backend re-size the reorder window at
  // runtime from its own stall/backpressure/re-dispatch counters (useful
  // under straggler faults, where the profitable window depth changes
  // mid-run). Still bit-identical — window depth never affects results.
  bool adaptive_reorder_window = false;

  // --- fault injection / graceful degradation (net/fault_schedule.h) ---
  // Worker lifecycle faults injected as first-class virtual-time events. An
  // empty schedule (the default) adds no events, no RNG draws, and no extra
  // sequence numbers, so fault-free runs are bit-identical to builds without
  // the subsystem.
  net::FaultSchedule faults;
  // How engines treat dead/stalled neighbors (see PeerPolicy above).
  PeerPolicy peer_policy = PeerPolicy::kWait;
  // kTimeoutAndContinue: virtual seconds a round waits on a peer before
  // degrading without it.
  double peer_timeout_seconds = 30.0;
  // kWait: virtual-time cadence at which a blocked worker re-probes a dead
  // peer.
  double peer_poll_seconds = 5.0;

  // --- communication compression (ml/compression.h) ---
  // What each model-sized exchange puts on the wire. The default (none)
  // charges exactly profile.message_bytes() per message and transforms
  // nothing, so uncompressed runs are byte-identical — stdout and golden
  // traces — to builds without the subsystem. Active variants derive both
  // the transfer seconds and the RunResult byte counters from the encoding
  // (net/wire_format.h), and apply the matching lossy transform to every
  // exchanged delta/gradient; int8's stochastic rounding draws from the
  // committing worker's RNG stream, so results stay bit-identical across the
  // whole {backend, reorder window, threads, shards, event queue} grid.
  ml::CompressionSpec compress;

  // --- checkpoint / restore (core/checkpoint.h) ---
  // When > 0, the harness arms a checkpoint at this virtual time: the run is
  // quiesced, the full experiment state (workers, RNG streams, event queue,
  // series) is serialized, and the run continues. Resuming from that state
  // finishes with a bit-identical RunResult.
  double checkpoint_at_seconds = 0.0;
  // When > 0, the harness also checkpoints periodically, every this many
  // virtual seconds, to checkpoint_path (always the latest bytes) plus a
  // rotating `<path>.t<k>` history and/or checkpoint_sink. Crash-restore
  // recovery builds on this: a run killed by a `crash` fault can resume from
  // the newest periodic checkpoint and finish bit-identically to a run that
  // never crashed.
  double checkpoint_every_seconds = 0.0;
  // How many `<path>.t<k>` history files the periodic cadence keeps.
  int checkpoint_retain = 3;
  // Where the checkpoint bytes go: a file path, an in-memory buffer, or both
  // (ignored when neither checkpoint_at_seconds nor checkpoint_every_seconds
  // is set).
  std::string checkpoint_path;
  std::vector<uint8_t>* checkpoint_sink = nullptr;
  // When either is set, the engine restores from the checkpoint instead of
  // scheduling its initial events. At most one may be set.
  std::string restore_path;
  const std::vector<uint8_t>* restore_source = nullptr;

  // Checks every config invariant Init depends on; Init calls this first, so
  // benches can validate up front and report the error without building
  // anything.
  Status Validate() const;
};

// Per-epoch cost attribution averaged over workers and epochs. Communication
// cost is the part of the iteration wall time not covered by compute
// (wall - compute, >= 0), so the two parts stack to the epoch time as in the
// paper's Fig. 5/6 bars.
struct EpochCostBreakdown {
  double compute_seconds = 0.0;
  double communication_seconds = 0.0;
  double total_seconds() const {
    return compute_seconds + communication_seconds;
  }
};

struct RunResult {
  std::string algorithm;
  // Mean (over workers) per-epoch training loss vs virtual seconds / epochs.
  ml::Series loss_vs_time;
  ml::Series loss_vs_epoch;
  // Test accuracy of a reference model vs virtual seconds (only when
  // eval_every_epochs > 0).
  ml::Series accuracy_vs_time;
  double final_train_loss = 0.0;
  double final_accuracy = 0.0;  // mean over worker models at the end
  double total_virtual_seconds = 0.0;
  EpochCostBreakdown avg_epoch_cost;
  int64_t total_local_iterations = 0;
  // max_i || x_i - mean(x) ||, a consensus diagnostic.
  double consensus_distance = 0.0;
  // NetMax diagnostics: number of policies the monitor produced.
  int64_t policies_generated = 0;
  // Execution-backend diagnostics (all zero on the serial threads=1 path;
  // excluded from the bit-identity contract, which covers simulation outputs
  // only): the backend that ran the simulation, window batches
  // dispatched, compute halves evaluated ahead of their turn, invalidated
  // evaluations re-dispatched onto the pool, the defensive inline recomputes
  // (expected zero), and the async pipeline's head-of-window stalls and
  // full-window backpressure events (stalls are real-timing dependent; the
  // other counters are deterministic per config).
  std::string backend;
  // Event-queue implementation the run used ("vector", "heap", "calendar",
  // "pairing");
  // diagnostics only — the queue never affects simulation output.
  std::string event_queue;
  int64_t parallel_batches = 0;
  int64_t computes_speculated = 0;
  int64_t computes_redispatched = 0;
  int64_t computes_recomputed = 0;
  int64_t window_stalls = 0;
  int64_t window_backpressure = 0;
  int64_t window_resizes = 0;
  // Fault-injection diagnostics (all zero on fault-free runs; part of the
  // simulation output, so bit-identical across backends/threads/shards):
  // lifecycle events applied, rounds that degraded because a peer was dead
  // or stalled, and peers abandoned by a timeout-and-continue deadline.
  int64_t faults_injected = 0;
  int64_t rounds_degraded = 0;
  int64_t peers_timed_out = 0;
  // Wire accounting (part of the simulation output, so bit-identical across
  // backends/threads/shards): logical messages sent, bytes actually on the
  // wire (derived from the message encoding, net/wire_format.h), and the
  // dense-f32-baseline bytes the compression variant avoided (exactly zero
  // with compression off).
  int64_t messages_sent = 0;
  int64_t bytes_sent = 0;
  int64_t bytes_saved = 0;
};

// Interface implemented by NetMax and every baseline.
class TrainingAlgorithm {
 public:
  virtual ~TrainingAlgorithm() = default;
  virtual std::string name() const = 0;
  virtual StatusOr<RunResult> Run(const ExperimentConfig& config) const = 0;
};

// Mutable per-worker training state.
struct WorkerRuntime {
  int id = -1;
  ml::Dataset shard;
  std::unique_ptr<ml::Model> model;
  std::unique_ptr<ml::SgdOptimizer> optimizer;
  std::unique_ptr<ml::BatchSampler> sampler;
  std::unique_ptr<ml::LrSchedule> lr_schedule;
  Rng rng;
  std::vector<double> gradient;     // scratch buffer
  std::vector<int> batch_indices;   // scratch buffer (sampler output)
  ml::TrainingWorkspace workspace;  // batched forward/backward scratch
  int batch_size = 0;
  double compute_seconds_per_batch = 0.0;

  // Epoch bookkeeping.
  double epoch_loss_sum = 0.0;
  int64_t epoch_batches = 0;
  int64_t epochs_completed = 0;
  double latest_epoch_loss = 0.0;
  bool has_epoch_loss = false;

  // Cost accounting.
  double compute_cost_total = 0.0;
  double comm_cost_total = 0.0;
  int64_t iterations = 0;
  // Communication rounds this worker has initiated (the compressor's
  // schedule index: layer-wise sync masks are a function of it). Claimed via
  // ExperimentHarness::NextCommRound in commit contexts, carried in reified
  // event args, and checkpointed — the compression subsystem's only evolving
  // state.
  int64_t comm_rounds = 0;
  bool finished = false;

  WorkerRuntime(int worker_id, ml::Dataset worker_shard, uint64_t rng_seed)
      : id(worker_id), shard(std::move(worker_shard)), rng(rng_seed) {}
};

// Builds and owns everything an engine needs for one run.
class ExperimentHarness {
 public:
  // `algorithm_name` labels the RunResult.
  ExperimentHarness(const ExperimentConfig& config, std::string algorithm_name);

  // Materializes datasets, workers, link model, topology. Must be called
  // exactly once before anything else; fails on inconsistent configs.
  Status Init();

  const ExperimentConfig& config() const { return config_; }
  net::EventSimulator& sim() { return sim_; }
  net::LinkModel& links() { return *links_; }
  const net::Topology& topology() const { return *topology_; }
  int num_workers() const { return config_.num_workers; }
  WorkerRuntime& worker(int w) { return workers_[static_cast<size_t>(w)]; }
  const ml::Dataset& test_set() const { return test_set_; }

  // Compute time for one batch of `batch_size` examples.
  double ComputeSeconds(int batch_size) const;

  // Transfer time for one model pull from `src` to `dst` starting now,
  // charging the dense baseline profile.message_bytes(). Accounting-free and
  // const: measurement probes (SAPS's link survey) and the compression-off
  // send path share it.
  double PullSeconds(int src, int dst) const;

  // --- communication compression (ml/compression.h) --------------------------
  // True when config.compress names an active (non-none) variant. Engines
  // branch on this so the compression-off path keeps its exact historical
  // arithmetic (byte-identical traces).
  bool compression_enabled() const { return config_.compress.enabled(); }

  // Claims worker w's next communication-round index (post-increments
  // worker.comm_rounds). Commit contexts only; the index rides in reified
  // event args so a restored run replays the same compression schedule.
  int64_t NextCommRound(int w) {
    return workers_[static_cast<size_t>(w)].comm_rounds++;
  }

  // Accounts one model-sized message from src to dst in communication round
  // `round` and returns its transfer seconds from the *derived* wire bytes
  // (net/wire_format.h). With compression off this charges and returns
  // exactly what PullSeconds always has. Commit contexts only (it mutates
  // the byte counters).
  double SendSeconds(int src, int dst, int64_t round);

  // Encoded payload bytes of one model-sized message in round `round`
  // (profile.message_bytes() with compression off). Accounting-free, for
  // engines that do their own multi-chunk timing (ring allreduce).
  int64_t MessagePayloadBytes(int64_t round) const;

  // Adds `messages` sends totalling `payload_bytes` on the wire against a
  // dense baseline of `baseline_bytes` to the wire counters (commit contexts
  // only). SendSeconds is a convenience over this.
  void AccountWire(int64_t messages, int64_t payload_bytes,
                   int64_t baseline_bytes) {
    messages_sent_ += messages;
    bytes_sent_ += payload_bytes;
    bytes_saved_ += baseline_bytes - payload_bytes;
  }

  // In-place lossy transform of a model-sized delta/gradient: what the
  // receiver decodes from round `round`'s encoding. No-op with compression
  // off. int8's stochastic rounding draws from worker `rng_worker`'s stream,
  // so this is a commit-context-only call like every other RNG use.
  void ApplyCompression(int rng_worker, int64_t round,
                        std::span<double> delta) {
    compressor_.Transform(delta, round,
                          workers_[static_cast<size_t>(rng_worker)].rng);
  }

  // Scratch sized to the proxy model's parameter count, for engines that
  // build a delta to compress (commits are strictly serial per run, so one
  // buffer suffices).
  std::span<double> CompressionScratch() { return compression_scratch_; }

  // --- two-phase gradient step (the engines' unit of work) ---
  // One serial local step splits into three halves that map onto
  // net::EventSimulator::ScheduleCompute:
  //   SampleBatch(w)        at schedule time (commit context: advances the
  //                         worker's sampler stream deterministically),
  //   EvalBatchGradient(w)  as the pure compute half (reads w's parameters
  //                         and batch, writes w's gradient/workspace scratch;
  //                         idempotent, safe on a pool thread),
  //   CommitBatchStats(w)   in the commit half (epoch bookkeeping, series
  //                         points, LR schedule — strictly ordered).

  // Draws the next batch for worker w into worker.batch_indices.
  void SampleBatch(int w);

  // Loss + gradient over the sampled batch at w's current parameters, into
  // worker.gradient. Touches only worker-local state; re-running it on
  // unchanged state reproduces the same bits (speculation-safe). When the
  // run has a pool and shards() > 1, the batch's gradient leaves evaluate as
  // up to shards() concurrent tasks nested inside the reorder window
  // (ml/sharding.h) — the result bits never depend on it.
  double EvalBatchGradient(int w);

  // Epoch bookkeeping for one computed batch of loss `loss`: when w finishes
  // an epoch this records series points, applies the LR schedule, and may
  // mark the worker finished.
  void CommitBatchStats(int w, double loss);

  // Serial convenience: SampleBatch + EvalBatchGradient + CommitBatchStats.
  // The gradient is left in worker.gradient without applying it (engines that
  // apply gradients after communication, e.g. AD-PSGD's average-then-step
  // order).
  double ComputeGradientOnly(int w);

  // Serial convenience: ComputeGradientOnly + ApplyStoredGradient.
  double LocalGradientStep(int w);

  // Applies worker w's stored gradient through its optimizer (and notifies
  // the simulator of the parameter write for speculation tracking).
  void ApplyStoredGradient(int w);

  // Adds one iteration's cost to worker w's account. `wall_seconds` is the
  // iteration duration; compute cost is capped at wall.
  void AccountIteration(int w, double compute_seconds, double wall_seconds);

  // True once worker w has trained for config.max_epochs epochs, the time
  // cap has been reached, or the worker is currently dead (left via a fault;
  // a later join fault revives it and the engine's fault listener restarts
  // it).
  bool WorkerDone(int w) const;
  bool AllDone() const;

  // --- fault injection / peer liveness (net/fault_schedule.h) ---
  // The per-engine liveness view: false while worker w is dead (a leave
  // fault fired and no join has yet). Always true on fault-free runs.
  bool WorkerAlive(int w) const { return alive_[static_cast<size_t>(w)]; }

  // compute_seconds_per_batch under the worker's current slowdown factor
  // (exactly equal to worker.compute_seconds_per_batch while no slowdown is
  // active, so fault-free runs are bit-identical). Engines schedule all
  // compute delays through this.
  double EffectiveComputeSeconds(int w) const {
    return workers_[static_cast<size_t>(w)].compute_seconds_per_batch *
           compute_factor_[static_cast<size_t>(w)];
  }

  // Called by the harness after applying each fault, on the simulator thread
  // at the fault's virtual time. Engines use it to restart a rejoining
  // worker (kJoin) or drop a dead one from waiting rooms (kLeave). Must be
  // (re-)registered on every run, including restored ones — listeners are
  // not checkpointed.
  using FaultListener = std::function<void(const net::FaultEvent&)>;
  void set_fault_listener(FaultListener listener) {
    fault_listener_ = std::move(listener);
  }

  // Degradation accounting, surfaced in RunResult. Engines call these when a
  // round proceeds without (or delayed by) a dead/stalled peer and when a
  // timeout-and-continue deadline abandons one.
  void CountDegradedRound() { ++rounds_degraded_; }
  void CountPeerTimeout() { ++peers_timed_out_; }
  int64_t faults_injected() const { return faults_injected_; }
  int64_t rounds_degraded() const { return rounds_degraded_; }
  int64_t peers_timed_out() const { return peers_timed_out_; }

  // Resolved worker-thread count (config.threads with 0 mapped to the
  // hardware concurrency) and the pool backing the parallel runtime; the pool
  // is null when running serially (threads == 1). Engines hand the pool to
  // the policy generator so monitor ticks parallelize their grid search too.
  int threads() const { return threads_; }
  ThreadPool* pool() { return pool_.get(); }
  // Resolved intra-worker shard-task bound (config.shards with 0 mapped to
  // ceil(threads / num_workers)).
  int shards() const { return shards_; }

  // For NetMax diagnostics.
  void set_policies_generated(int64_t n) { policies_generated_ = n; }
  int64_t policies_generated() const { return policies_generated_; }

  // --- checkpoint / restore (implemented in core/checkpoint.cc) ---
  // Serializes/restores the engine's own state blob within the checkpoint.
  using EngineStateSaver = std::function<Status(Serializer&)>;
  using EngineStateRestorer = std::function<Status(Deserializer&)>;

  // True when the config asks this run to resume from a checkpoint.
  bool restore_requested() const {
    return !config_.restore_path.empty() || config_.restore_source != nullptr;
  }

  // Restores harness + simulator + engine state from the configured source.
  // The engine calls this after Init() and after rebuilding its deterministic
  // setup (policies, monitors, topologies), INSTEAD of scheduling its initial
  // events: the restored queue already holds them. `restore_engine` reads the
  // engine state blob; `rebuilder` maps saved events back to closures.
  Status Restore(const EngineStateRestorer& restore_engine,
                 const net::EventRebuilder& rebuilder);

  // Arms the configured checkpoints (no-op when none are):
  //  * one-shot — a tagged plain event at config.checkpoint_at_seconds that
  //    quiesces in-flight speculation, serializes the full experiment state
  //    plus the engine blob from `save_engine`, and writes it to the
  //    configured sink/path. A checkpoint time past the run's last event
  //    fails via checkpoint_status() rather than write a dead checkpoint.
  //  * periodic cadence — a self-rechaining tick every
  //    config.checkpoint_every_seconds that writes the latest bytes to
  //    checkpoint_path (plus a `<path>.t<k>` history of checkpoint_retain
  //    files) and/or the sink; a tick that lands past the run's last event
  //    silently ends the cadence. On restored runs the cadence resumes
  //    seamlessly: the next tick is re-armed here (or was restored with the
  //    queue), consuming the exact sequence number the uninterrupted run
  //    would have, so restored and uninterrupted runs stay bit-identical.
  // The run continues after every save. Failures surface through
  // checkpoint_status(), which engines propagate after the run completes.
  void ArmCheckpoint(EngineStateSaver save_engine);

  // Ok unless an armed checkpoint failed to serialize or write.
  const Status& checkpoint_status() const { return checkpoint_status_; }

  // Assembles the RunResult (final accuracy over all worker models, cost
  // averages, consensus distance).
  RunResult Finalize();

 private:
  void OnEpochCompleted(int w, double epoch_loss);
  void RecordGlobalEpochPoint();

  // --- fault injection (experiment.cc) ---
  // Schedules every config_.faults event as a tagged plain event (skipped on
  // restored runs: the restored queue already carries the pending ones).
  void ScheduleFaults();
  // The fault handlers, run at their virtual time on the simulator thread.
  void ApplyFault(const net::FaultEvent& fault);
  void EndSlowdown(int worker, double factor);

  // core/checkpoint.cc.
  // Maps a harness-tagged SavedEvent (faults, cadence ticks, the one-shot
  // checkpoint event) back to its closure; Restore wraps the engine's
  // rebuilder with this so engines never see harness tags.
  StatusOr<net::RebuiltEvent> BuildHarnessEvent(const net::SavedEvent& saved);
  // Schedules a harness event through BuildHarnessEvent, so live scheduling
  // and restore-time rebuilding share one closure definition per tag.
  void ScheduleHarnessEvent(double time, net::EventPayload payload);
  void OneShotCheckpoint(double at);
  void CadenceTick(int64_t tick_index);
  StatusOr<std::vector<uint8_t>> SerializeCheckpoint(
      const EngineStateSaver& save_engine);
  Status SaveCheckpoint(const EngineStateSaver& save_engine);
  Status SavePeriodicCheckpoint(int64_t tick_index);
  void SaveWorker(Serializer& out, const WorkerRuntime& worker) const;
  Status RestoreWorker(Deserializer& in, WorkerRuntime& worker);

  ExperimentConfig config_;
  std::string algorithm_name_;
  bool initialized_ = false;

  int threads_ = 1;
  int shards_ = 1;
  std::unique_ptr<ThreadPool> pool_;  // created by Init when threads_ > 1
  // Execution strategy for sim_'s compute halves; owned here, borrowed by
  // the simulator (declared before sim_ only for grouping — the simulator
  // never touches the backend after RunUntilIdle returns).
  std::unique_ptr<net::ExecutionBackend> backend_;
  net::EventSimulator sim_;
  std::unique_ptr<net::Topology> topology_;
  std::unique_ptr<net::LinkModel> links_;
  // One contiguous slab (PR-2 workspace discipline applied to the harness):
  // per-worker state lives in one allocation, reserved once in Init, instead
  // of num_workers separate heap nodes — at 10^5 workers the pointer chase
  // and allocator traffic of one-unique_ptr-per-worker are measurable.
  std::vector<WorkerRuntime> workers_;
  ml::Dataset test_set_{1, 2};
  // Shared by every test-set evaluation (all worker models have identical
  // shapes, so one set of buffers serves Finalize and the periodic
  // accuracy-vs-time points without reallocating).
  ml::TrainingWorkspace eval_workspace_;

  // Recording state.
  ml::Series loss_vs_time_;
  ml::Series loss_vs_epoch_;
  ml::Series accuracy_vs_time_;
  int64_t total_epochs_completed_ = 0;
  int64_t policies_generated_ = 0;

  // Fault-injection state (checkpointed, so restored fault runs resume with
  // the same liveness view and counters).
  std::vector<bool> alive_;
  std::vector<double> compute_factor_;  // 1.0 while no slowdown is active
  int64_t faults_injected_ = 0;
  int64_t rounds_degraded_ = 0;
  int64_t peers_timed_out_ = 0;
  // Wire accounting (checkpointed next to the fault counters; incremented
  // only from commit contexts, so bit-identical like every simulation
  // output).
  int64_t messages_sent_ = 0;
  int64_t bytes_sent_ = 0;
  int64_t bytes_saved_ = 0;
  // Stateless compressor for config_.compress, built in Init from the proxy
  // model's layer geometry; plus the shared delta scratch.
  ml::GradientCompressor compressor_;
  std::vector<double> compression_scratch_;
  FaultListener fault_listener_;  // not checkpointed; re-registered per run

  // Outcome of the armed checkpoint(s), if any.
  Status checkpoint_status_;
  // Periodic-cadence state: the saver ArmCheckpoint captured, the index the
  // next tick will carry (checkpointed, so a restored run's `<path>.t<k>`
  // history continues where the crashed run's left off), and whether the
  // restored queue already holds a pending tick (in which case ArmCheckpoint
  // must not arm a duplicate).
  EngineStateSaver checkpoint_saver_;
  int64_t cadence_next_index_ = 1;
  bool cadence_tick_restored_ = false;
};

// Helper shared by benches/examples: builds the per-worker shards for the
// configured partition scheme (exposed for tests).
StatusOr<std::vector<ml::Dataset>> BuildShards(const ExperimentConfig& config,
                                               const ml::Dataset& train);

// Per-worker batch size: config.batch_size, scaled by segments[w] for the
// kSegments scheme (paper: batch = 64 * segment count).
int WorkerBatchSize(const ExperimentConfig& config, int worker);

}  // namespace netmax::core

#endif  // NETMAX_CORE_EXPERIMENT_H_
