#include "core/experiment.h"

#include <algorithm>
#include <cmath>
#include <thread>

#include "linalg/vector_ops.h"
#include "ml/mlp.h"
#include "ml/sharding.h"

namespace netmax::core {

StatusOr<std::vector<ml::Dataset>> BuildShards(const ExperimentConfig& config,
                                               const ml::Dataset& train) {
  const uint64_t shard_seed = config.seed * 7919 + 13;
  switch (config.partition) {
    case PartitionScheme::kUniform:
      return ml::PartitionUniform(train, config.num_workers, shard_seed);
    case PartitionScheme::kSegments: {
      if (static_cast<int>(config.segments.size()) != config.num_workers) {
        return InvalidArgumentError("segments.size() != num_workers");
      }
      return ml::PartitionBySegments(train, config.segments, shard_seed);
    }
    case PartitionScheme::kLostLabels: {
      if (static_cast<int>(config.lost_labels.size()) != config.num_workers) {
        return InvalidArgumentError("lost_labels.size() != num_workers");
      }
      return ml::PartitionWithLostLabels(train, config.lost_labels, shard_seed);
    }
  }
  return InternalError("unknown partition scheme");
}

int WorkerBatchSize(const ExperimentConfig& config, int worker) {
  if (config.partition == PartitionScheme::kSegments) {
    return config.batch_size * config.segments[static_cast<size_t>(worker)];
  }
  return config.batch_size;
}

bool ParsePeerPolicy(std::string_view text, PeerPolicy* policy) {
  if (text == "wait") {
    *policy = PeerPolicy::kWait;
    return true;
  }
  if (text == "timeout") {
    *policy = PeerPolicy::kTimeoutAndContinue;
    return true;
  }
  return false;
}

std::string_view PeerPolicyName(PeerPolicy policy) {
  switch (policy) {
    case PeerPolicy::kWait:
      return "wait";
    case PeerPolicy::kTimeoutAndContinue:
      return "timeout";
  }
  return "unknown";
}

Status ExperimentConfig::Validate() const {
  if (num_workers < 2) {
    return InvalidArgumentError("need at least 2 workers");
  }
  if (batch_size < 1) return InvalidArgumentError("batch_size < 1");
  if (max_epochs < 1) return InvalidArgumentError("max_epochs < 1");
  if (learning_rate <= 0.0) {
    return InvalidArgumentError("learning_rate <= 0");
  }
  // The dataset spec comes straight from bench/user config; reject it here so
  // the generator's internal NETMAX_CHECKs stay pure programmer-error guards.
  if (dataset.feature_dim < 1) {
    return InvalidArgumentError("dataset.feature_dim < 1");
  }
  if (dataset.num_classes < 2) {
    return InvalidArgumentError(
        "dataset.num_classes < 2 (need a classification task)");
  }
  if (dataset.num_train < 1) {
    return InvalidArgumentError("dataset.num_train < 1");
  }
  if (dataset.num_test < 1) {
    return InvalidArgumentError("dataset.num_test < 1");
  }
  if (network == NetworkScenario::kWan && num_workers != 6) {
    return InvalidArgumentError("the WAN scenario models exactly 6 regions");
  }
  if (topology.shape == net::TopologyShape::kHierarchical) {
    if (network == NetworkScenario::kWan) {
      return InvalidArgumentError(
          "hierarchical topology is incompatible with the WAN scenario "
          "(its six-region placement is its own shape)");
    }
    if (topology.cluster_size < 1 || topology.cluster_size > num_workers) {
      return InvalidArgumentError(
          "hierarchical topology cluster_size must be in [1, num_workers], "
          "got " +
          std::to_string(topology.cluster_size));
    }
  } else if (num_workers > kMaxCompleteTopologyWorkers) {
    return InvalidArgumentError(
        "complete topology at " + std::to_string(num_workers) +
        " workers would build O(n^2) edge and link tables; use a "
        "hierarchical topology (--topology=hier:<cluster_size>) beyond " +
        std::to_string(kMaxCompleteTopologyWorkers) + " workers");
  }
  if (threads < 0) return InvalidArgumentError("threads < 0");
  if (shards < 0) return InvalidArgumentError("shards < 0");
  if (reorder_window < 0) {
    return InvalidArgumentError("reorder_window < 0");
  }
  if (checkpoint_at_seconds > 0.0 && checkpoint_path.empty() &&
      checkpoint_sink == nullptr) {
    return InvalidArgumentError(
        "checkpoint_at_seconds is set but neither checkpoint_path nor "
        "checkpoint_sink is");
  }
  if (checkpoint_every_seconds < 0.0) {
    return InvalidArgumentError("checkpoint_every_seconds < 0");
  }
  if (checkpoint_every_seconds > 0.0 && checkpoint_path.empty() &&
      checkpoint_sink == nullptr) {
    return InvalidArgumentError(
        "checkpoint_every_seconds is set but neither checkpoint_path nor "
        "checkpoint_sink is");
  }
  if (checkpoint_retain < 1) {
    return InvalidArgumentError("checkpoint_retain < 1");
  }
  if (!restore_path.empty() && restore_source != nullptr) {
    return InvalidArgumentError(
        "restore_path and restore_source are mutually exclusive");
  }
  // Fault specs come straight from the --faults flag: reject out-of-range
  // worker ids and non-monotone event times here, per-entry, rather than
  // crash (or silently misbehave) mid-run.
  NETMAX_RETURN_IF_ERROR(faults.Validate(num_workers));
  if (peer_timeout_seconds <= 0.0) {
    return InvalidArgumentError("peer_timeout_seconds <= 0");
  }
  if (peer_poll_seconds <= 0.0) {
    return InvalidArgumentError("peer_poll_seconds <= 0");
  }
  NETMAX_RETURN_IF_ERROR(compress.Validate());
  return Status::Ok();
}

ExperimentHarness::ExperimentHarness(const ExperimentConfig& config,
                                     std::string algorithm_name)
    : config_(config), algorithm_name_(std::move(algorithm_name)) {}

Status ExperimentHarness::Init() {
  NETMAX_CHECK(!initialized_) << "Init called twice";
  NETMAX_RETURN_IF_ERROR(config_.Validate());

  // Parallel runtime: the simulator thread participates in every compute
  // phase, so a budget of T threads needs a pool of T-1 workers. threads == 1
  // keeps the pool-free serial dispatch (same code path, inline computes).
  threads_ = config_.threads;
  if (threads_ == 0) {
    const unsigned hw = std::thread::hardware_concurrency();
    threads_ = hw == 0 ? 1 : static_cast<int>(hw);
  }
  if (threads_ > 1) pool_ = std::make_unique<ThreadPool>(threads_ - 1);
  // Execution backend: how compute halves overlap the ordered commit drain.
  // Without a pool every kind degrades to serial dispatch; either way the
  // result bits are identical (core/execution_backend.h).
  backend_ = MakeExecutionBackend(config_.backend, pool_.get(),
                                  config_.reorder_window,
                                  config_.adaptive_reorder_window);
  sim_.set_backend(backend_.get());
  // Event-queue implementation (net/event_queue.h): like the backend, a pure
  // execution choice — every kind pops the identical (time, sequence) stream.
  sim_.ReplaceQueue(net::MakeEventQueue(config_.event_queue));
  // Intra-worker sharding bound: auto (0) shards only the cores left over
  // after the distinct-worker window has one thread per worker, so
  // paper-scale runs (workers >= cores) stay unsharded while wide-model
  // scale-up runs (cores > workers) split each batch. Purely an execution
  // choice — results are bit-identical for any value (ml/sharding.h).
  shards_ = config_.shards;
  if (shards_ == 0) {
    shards_ = (threads_ + config_.num_workers - 1) / config_.num_workers;
  }

  // Dataset and shards.
  ml::SyntheticSpec dataset_spec = config_.dataset;
  dataset_spec.seed ^= config_.seed * 0x9E3779B97F4A7C15ULL;
  ml::DatasetPair pair = ml::GenerateSynthetic(dataset_spec);
  test_set_ = std::move(pair.test);
  StatusOr<std::vector<ml::Dataset>> shards = BuildShards(config_, pair.train);
  if (!shards.ok()) return shards.status();
  for (const ml::Dataset& shard : *shards) {
    if (shard.empty()) {
      return InvalidArgumentError("a worker received an empty shard");
    }
  }

  // Network.
  if (config_.topology.shape == net::TopologyShape::kHierarchical) {
    // Clusters-of-clusters: complete intra-cluster, hub ring inter-cluster,
    // over the two-class O(1)-memory link model (the flat presets below
    // build O(n^2) pairwise tables, intractable at 10^5+ workers). The
    // machine-local/cross-machine classes of the heterogeneous presets map
    // onto intra/inter-cluster links; the homogeneous scenario keeps its one
    // uniform class.
    const bool homogeneous = config_.network == NetworkScenario::kHomogeneous;
    const net::LinkClass intra = homogeneous ? net::HomogeneousLinkClass()
                                             : net::IntraMachineLinkClass();
    const net::LinkClass inter = homogeneous ? net::HomogeneousLinkClass()
                                             : net::InterMachineLinkClass();
    auto base = std::make_unique<net::HierarchicalLinkModel>(
        config_.num_workers, config_.topology.cluster_size, intra, inter);
    if (config_.network == NetworkScenario::kHeterogeneousDynamic) {
      net::DynamicSlowdownLinkModel::Options slow;
      slow.change_period_seconds = config_.slowdown_period_seconds;
      slow.min_factor = config_.slowdown_min_factor;
      slow.max_factor = config_.slowdown_max_factor;
      slow.seed = config_.seed * 31 + 7;
      links_ = std::make_unique<net::DynamicSlowdownLinkModel>(
          std::move(base), slow);
    } else {
      links_ = std::move(base);
    }
    topology_ = std::make_unique<net::Topology>(net::Topology::Hierarchical(
        config_.num_workers, config_.topology.cluster_size));
  } else {
    switch (config_.network) {
      case NetworkScenario::kHeterogeneousDynamic: {
        net::DynamicSlowdownLinkModel::Options slow;
        slow.change_period_seconds = config_.slowdown_period_seconds;
        slow.min_factor = config_.slowdown_min_factor;
        slow.max_factor = config_.slowdown_max_factor;
        slow.seed = config_.seed * 31 + 7;
        const net::ClusterConfig cluster =
            config_.two_server_placement
                ? net::HeterogeneousClusterTwoServers(config_.num_workers)
                : net::HeterogeneousCluster(config_.num_workers);
        links_ = net::BuildDynamicHeterogeneousLinkModel(cluster, slow);
        break;
      }
      case NetworkScenario::kHeterogeneousStatic: {
        const net::ClusterConfig cluster =
            config_.two_server_placement
                ? net::HeterogeneousClusterTwoServers(config_.num_workers)
                : net::HeterogeneousCluster(config_.num_workers);
        links_ = net::BuildStaticLinkModel(cluster);
        break;
      }
      case NetworkScenario::kHomogeneous:
        links_ = net::BuildStaticLinkModel(
            net::HomogeneousCluster(config_.num_workers));
        break;
      case NetworkScenario::kWan:
        links_ = net::BuildCloudWanLinkModel();
        break;
    }
    topology_ =
        std::make_unique<net::Topology>(
            net::Topology::Complete(config_.num_workers));
  }

  // Workers: identical initial replicas (x^0), forked RNG/sampler streams.
  Rng root(config_.seed);
  const int feature_dim = dataset_spec.feature_dim;
  const int num_classes = dataset_spec.num_classes;
  std::vector<int> layers;
  layers.push_back(feature_dim);
  for (int h : config_.hidden_layers) layers.push_back(h);
  layers.push_back(num_classes);

  // One contiguous slab, reserved once: per-worker state stays in a single
  // allocation at any worker count (no per-worker heap node).
  workers_.clear();
  workers_.reserve(static_cast<size_t>(config_.num_workers));
  for (int w = 0; w < config_.num_workers; ++w) {
    workers_.emplace_back(w, std::move((*shards)[static_cast<size_t>(w)]),
                          root.Fork(static_cast<uint64_t>(w)).Next64());
    WorkerRuntime& worker = workers_.back();
    worker.model = std::make_unique<ml::Mlp>(layers);
    worker.model->InitializeParameters(config_.seed);  // same x^0 everywhere
    ml::SgdOptions sgd;
    sgd.learning_rate = config_.learning_rate;
    sgd.momentum = config_.momentum;
    sgd.weight_decay = config_.weight_decay;
    worker.optimizer =
        std::make_unique<ml::SgdOptimizer>(worker.model->num_parameters(),
                                           sgd);
    worker.batch_size = WorkerBatchSize(config_, w);
    worker.sampler = std::make_unique<ml::BatchSampler>(
        &worker.shard, worker.batch_size,
        root.Fork(1000 + static_cast<uint64_t>(w)).Next64());
    if (!config_.lr_milestones.empty()) {
      worker.lr_schedule = std::make_unique<ml::StepDecayLr>(
          config_.learning_rate, 0.1, config_.lr_milestones);
    } else {
      worker.lr_schedule = std::make_unique<ml::PlateauDecayLr>(
          config_.learning_rate, 0.1, config_.plateau_patience);
    }
    worker.gradient.assign(
        static_cast<size_t>(worker.model->num_parameters()), 0.0);
    worker.compute_seconds_per_batch = ComputeSeconds(worker.batch_size);
  }

  // Communication compression: one compressor per harness, built over the
  // proxy model's layer geometry (identical across replicas), plus one
  // model-sized delta scratch. Commits are strictly serial, so sharing the
  // scratch across workers is safe and keeps sends allocation-free.
  compressor_ = ml::GradientCompressor(
      config_.compress, workers_.front().model->LayerSegments());
  compression_scratch_.assign(
      static_cast<size_t>(workers_.front().model->num_parameters()), 0.0);

  // Fault injection: everyone starts alive at full speed; the configured
  // schedule goes into the queue as tagged plain events, BEFORE the engine's
  // initial events so the sequence-number shift relative to a fault-free run
  // is uniform across every engine event. Restored runs skip this — the
  // restored queue already carries the pending fault events.
  alive_.assign(static_cast<size_t>(config_.num_workers), true);
  compute_factor_.assign(static_cast<size_t>(config_.num_workers), 1.0);
  if (!config_.faults.empty() && !restore_requested()) ScheduleFaults();

  initialized_ = true;
  return Status::Ok();
}

void ExperimentHarness::ScheduleFaults() {
  for (const net::FaultEvent& fault : config_.faults.events()) {
    net::EventPayload payload;
    payload.tag = kHarnessFaultTag;
    payload.args = {static_cast<double>(static_cast<int>(fault.kind)),
                    static_cast<double>(fault.worker), fault.factor,
                    fault.duration};
    ScheduleHarnessEvent(fault.time, std::move(payload));
  }
}

void ExperimentHarness::ApplyFault(const net::FaultEvent& fault) {
  ++faults_injected_;
  switch (fault.kind) {
    case net::FaultKind::kLeave:
      alive_[static_cast<size_t>(fault.worker)] = false;
      break;
    case net::FaultKind::kJoin:
      alive_[static_cast<size_t>(fault.worker)] = true;
      break;
    case net::FaultKind::kCrash:
      // The whole run stops at this event: RunUntilIdle discards everything
      // still pending once this handler returns. Recovery goes through the
      // periodic checkpoints (checkpoint_every_seconds).
      sim_.RequestHalt();
      break;
    case net::FaultKind::kSlowdown: {
      compute_factor_[static_cast<size_t>(fault.worker)] *= fault.factor;
      net::EventPayload payload;
      payload.tag = kHarnessSlowdownEndTag;
      payload.args = {static_cast<double>(fault.worker), fault.factor};
      ScheduleHarnessEvent(sim_.Now() + fault.duration, std::move(payload));
      break;
    }
  }
  if (fault_listener_) fault_listener_(fault);
}

void ExperimentHarness::EndSlowdown(int worker, double factor) {
  // Inverse of the multiply in ApplyFault. For non-overlapping slowdowns the
  // factor goes 1.0 -> f -> f/f == 1.0 bit-exactly, so an elapsed slowdown
  // leaves no residue; overlapping same-worker slowdowns may leave rounding
  // residue, deterministically (the same bits on every backend).
  compute_factor_[static_cast<size_t>(worker)] /= factor;
}

double ExperimentHarness::ComputeSeconds(int batch_size) const {
  return config_.profile.compute_seconds * config_.compute_multiplier *
         static_cast<double>(batch_size) /
         static_cast<double>(config_.profile_batch);
}

double ExperimentHarness::PullSeconds(int src, int dst) const {
  return links_->TransferSeconds(src, dst, sim_.Now(),
                                 config_.profile.message_bytes());
}

int64_t ExperimentHarness::MessagePayloadBytes(int64_t round) const {
  if (!compression_enabled()) return config_.profile.message_bytes();
  return compressor_.Describe(config_.profile.num_parameters, round)
      .PayloadBytes();
}

double ExperimentHarness::SendSeconds(int src, int dst, int64_t round) {
  if (!compression_enabled()) {
    // kDenseF32 is headerless, so the charged bytes are exactly
    // profile.message_bytes() and bytes_saved stays identically zero —
    // uncompressed runs keep their pre-accounting transfer times bit-exactly.
    const int64_t bytes = config_.profile.message_bytes();
    AccountWire(1, bytes, bytes);
    return PullSeconds(src, dst);
  }
  const net::WireMessage message =
      compressor_.Describe(config_.profile.num_parameters, round);
  AccountWire(1, message.PayloadBytes(), message.DenseBaselineBytes());
  return links_->TransferSeconds(src, dst, sim_.Now(), message.PayloadBytes());
}

void ExperimentHarness::SampleBatch(int w) {
  WorkerRuntime& worker = workers_[static_cast<size_t>(w)];
  worker.sampler->NextBatch(worker.batch_indices);
}

double ExperimentHarness::EvalBatchGradient(int w) {
  WorkerRuntime& worker = workers_[static_cast<size_t>(w)];
  return ml::ShardedLossAndGradient(*worker.model, worker.shard,
                                    worker.batch_indices, worker.gradient,
                                    worker.workspace, pool_.get(), shards_);
}

void ExperimentHarness::CommitBatchStats(int w, double loss) {
  WorkerRuntime& worker = workers_[static_cast<size_t>(w)];
  worker.epoch_loss_sum += loss;
  ++worker.epoch_batches;
  ++worker.iterations;
  if (worker.sampler->epochs_completed() > worker.epochs_completed) {
    const double epoch_loss =
        worker.epoch_loss_sum / static_cast<double>(worker.epoch_batches);
    worker.epoch_loss_sum = 0.0;
    worker.epoch_batches = 0;
    ++worker.epochs_completed;
    OnEpochCompleted(w, epoch_loss);
  }
}

double ExperimentHarness::ComputeGradientOnly(int w) {
  SampleBatch(w);
  const double loss = EvalBatchGradient(w);
  CommitBatchStats(w, loss);
  return loss;
}

void ExperimentHarness::ApplyStoredGradient(int w) {
  WorkerRuntime& worker = workers_[static_cast<size_t>(w)];
  sim_.NotifyStateWrite(w);
  worker.optimizer->Step(worker.model->parameters(), worker.gradient);
}

double ExperimentHarness::LocalGradientStep(int w) {
  const double loss = ComputeGradientOnly(w);
  ApplyStoredGradient(w);
  return loss;
}

void ExperimentHarness::AccountIteration(int w, double compute_seconds,
                                         double wall_seconds) {
  WorkerRuntime& worker = workers_[static_cast<size_t>(w)];
  const double compute = std::min(compute_seconds, wall_seconds);
  worker.compute_cost_total += compute;
  worker.comm_cost_total += std::max(0.0, wall_seconds - compute);
}

void ExperimentHarness::OnEpochCompleted(int w, double epoch_loss) {
  WorkerRuntime& worker = workers_[static_cast<size_t>(w)];
  worker.latest_epoch_loss = epoch_loss;
  worker.has_epoch_loss = true;
  const double new_lr =
      worker.lr_schedule->OnEpochEnd(worker.epochs_completed, epoch_loss);
  worker.optimizer->set_learning_rate(new_lr);
  ++total_epochs_completed_;
  if (total_epochs_completed_ % config_.num_workers == 0) {
    RecordGlobalEpochPoint();
  }
  if (worker.epochs_completed >= config_.max_epochs) worker.finished = true;
}

void ExperimentHarness::RecordGlobalEpochPoint() {
  double loss_sum = 0.0;
  int count = 0;
  for (const auto& worker : workers_) {
    if (worker.has_epoch_loss) {
      loss_sum += worker.latest_epoch_loss;
      ++count;
    }
  }
  if (count == 0) return;
  const double mean_loss = loss_sum / static_cast<double>(count);
  const double global_epoch =
      static_cast<double>(total_epochs_completed_) /
      static_cast<double>(config_.num_workers);
  loss_vs_time_.push_back({sim_.Now(), mean_loss});
  loss_vs_epoch_.push_back({global_epoch, mean_loss});
  if (config_.eval_every_epochs > 0 &&
      static_cast<int64_t>(global_epoch) % config_.eval_every_epochs == 0) {
    accuracy_vs_time_.push_back(
        {sim_.Now(),
         ml::Accuracy(*workers_[0].model, test_set_, eval_workspace_)});
  }
}

bool ExperimentHarness::WorkerDone(int w) const {
  const WorkerRuntime& worker = workers_[static_cast<size_t>(w)];
  return worker.finished || !alive_[static_cast<size_t>(w)] ||
         sim_.Now() >= config_.max_virtual_seconds;
}

bool ExperimentHarness::AllDone() const {
  for (int w = 0; w < config_.num_workers; ++w) {
    if (!WorkerDone(w)) return false;
  }
  return true;
}

RunResult ExperimentHarness::Finalize() {
  RunResult result;
  result.algorithm = algorithm_name_;
  result.loss_vs_time = loss_vs_time_;
  result.loss_vs_epoch = loss_vs_epoch_;
  result.accuracy_vs_time = accuracy_vs_time_;
  result.total_virtual_seconds = sim_.Now();
  result.policies_generated = policies_generated_;
  result.backend = std::string(backend_->name());
  result.event_queue = std::string(sim_.queue_name());
  const net::ExecutionStats stats = sim_.execution_stats();
  result.parallel_batches = stats.parallel_batches;
  result.computes_speculated = stats.computes_speculated;
  result.computes_redispatched = stats.computes_redispatched;
  result.computes_recomputed = stats.computes_recomputed;
  result.window_stalls = stats.window_stalls;
  result.window_backpressure = stats.window_backpressure;
  result.window_resizes = stats.window_resizes;
  result.faults_injected = faults_injected_;
  result.rounds_degraded = rounds_degraded_;
  result.peers_timed_out = peers_timed_out_;
  result.messages_sent = messages_sent_;
  result.bytes_sent = bytes_sent_;
  result.bytes_saved = bytes_saved_;

  double loss_sum = 0.0;
  int loss_count = 0;
  double accuracy_sum = 0.0;
  double compute_total = 0.0;
  double comm_total = 0.0;
  int64_t epochs_total = 0;
  for (const auto& worker : workers_) {
    if (worker.has_epoch_loss) {
      loss_sum += worker.latest_epoch_loss;
      ++loss_count;
    }
    accuracy_sum += ml::Accuracy(*worker.model, test_set_, eval_workspace_);
    compute_total += worker.compute_cost_total;
    comm_total += worker.comm_cost_total;
    epochs_total += worker.epochs_completed;
    result.total_local_iterations += worker.iterations;
  }
  result.final_train_loss =
      loss_count > 0 ? loss_sum / static_cast<double>(loss_count) : 0.0;
  result.final_accuracy =
      accuracy_sum / static_cast<double>(config_.num_workers);
  if (epochs_total > 0) {
    result.avg_epoch_cost.compute_seconds =
        compute_total / static_cast<double>(epochs_total);
    result.avg_epoch_cost.communication_seconds =
        comm_total / static_cast<double>(epochs_total);
  }

  // Consensus distance: max_i || x_i - mean(x) ||.
  const int num_params = workers_[0].model->num_parameters();
  std::vector<double> mean(static_cast<size_t>(num_params), 0.0);
  for (const auto& worker : workers_) {
    linalg::AddInPlace(worker.model->parameters(), mean);
  }
  linalg::Scale(1.0 / static_cast<double>(config_.num_workers), mean);
  double max_dist = 0.0;
  for (const auto& worker : workers_) {
    const std::vector<double> diff =
        linalg::Sub(worker.model->parameters(), mean);
    max_dist = std::max(max_dist, linalg::Norm(diff));
  }
  result.consensus_distance = max_dist;
  return result;
}

}  // namespace netmax::core
