#include "algos/prague.h"

#include <algorithm>
#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/checkpoint.h"
#include "linalg/vector_ops.h"
#include "net/fault_schedule.h"

namespace netmax::algos {
namespace {

using core::ExperimentConfig;
using core::ExperimentHarness;
using core::RunResult;

class PragueEngine {
 public:
  PragueEngine(const ExperimentConfig& config, int group_size)
      : harness_(config, "Prague"), group_size_(group_size) {}

  StatusOr<RunResult> Run() {
    NETMAX_RETURN_IF_ERROR(harness_.Init());
    const int n = harness_.num_workers();
    if (group_size_ <= 1) group_size_ = n <= 4 ? 2 : 4;
    group_size_ = std::min(group_size_, n);
    iteration_start_.assign(static_cast<size_t>(n), 0.0);
    ready_since_.assign(static_cast<size_t>(n), -1.0);
    parked_.assign(static_cast<size_t>(n), 0);
    builder_ = [this](const net::SavedEvent& event) {
      return BuildEvent(event);
    };
    if (harness_.restore_requested()) {
      NETMAX_RETURN_IF_ERROR(harness_.Restore(
          [this](Deserializer& in) { return RestoreEngineState(in); },
          builder_));
    } else {
      for (int w = 0; w < n; ++w) StartIteration(w);
    }
    harness_.ArmCheckpoint([this](Serializer& out) {
      out.WriteIntVec(ready_);
      out.WriteDoubleVec(iteration_start_);
      out.WriteInt(active_groups_);
      out.WriteDoubleVec(ready_since_);
      for (const uint8_t parked : parked_) out.WriteBool(parked != 0);
      return Status::Ok();
    });
    // A leaving worker is evicted from the waiting room (a dead member must
    // not be averaged into a group); a rejoining worker's chain restarts iff
    // it parked. Either way the remaining ready workers are re-examined —
    // the active-worker count just changed.
    harness_.set_fault_listener([this](const net::FaultEvent& fault) {
      const size_t w = static_cast<size_t>(fault.worker);
      if (fault.kind == net::FaultKind::kLeave) {
        auto it = std::find(ready_.begin(), ready_.end(), fault.worker);
        if (it != ready_.end()) {
          ready_.erase(it);
          ready_since_[w] = -1.0;
          parked_[w] = 1;
          harness_.CountDegradedRound();
        }
        MaybeFormGroup(/*flush=*/false);
      } else if (fault.kind == net::FaultKind::kJoin && parked_[w] != 0) {
        StartIteration(fault.worker);
      }
    });
    harness_.sim().RunUntilIdle();
    NETMAX_RETURN_IF_ERROR(harness_.checkpoint_status());
    return harness_.Finalize();
  }

 private:
  // Checkpoint reification tags (core/checkpoint.h). An in-flight group
  // reduce checkpoints as its kGroupFinish event (the member models were
  // already averaged at launch); the waiting room (`ready_`), per-worker
  // iteration starts, and the in-flight group count ride in the engine blob.
  enum Tag : int64_t {
    kCompute = 0,       // compute event: args []
    kGroupFinish = 1,   // plain event: args [reduce_seconds, members...]
    kReadyTimeout = 2,  // plain event: args [worker, ready_since]
  };

  void Emit(double delay, int worker_key, net::EventPayload payload) {
    core::ScheduleReified(harness_.sim(), delay, worker_key,
                          std::move(payload), builder_);
  }

  StatusOr<net::RebuiltEvent> BuildEvent(const net::SavedEvent& event) {
    const std::vector<double>& args = event.payload.args;
    const int n = harness_.num_workers();
    net::RebuiltEvent rebuilt;
    switch (event.payload.tag) {
      case kCompute: {
        const int w = event.worker_key;
        if (w < 0 || w >= n || !args.empty()) break;
        rebuilt.compute = [this, w] { return harness_.EvalBatchGradient(w); };
        rebuilt.commit = [this, w](double loss) {
          // Local SGD step, then wait for a partial-allreduce group.
          harness_.CommitBatchStats(w, loss);
          harness_.ApplyStoredGradient(w);
          if (!harness_.WorkerAlive(w)) {
            // The worker left while this batch was in flight: the local step
            // counts, but it must not enter the waiting room.
            parked_[static_cast<size_t>(w)] = 1;
            harness_.CountDegradedRound();
            MaybeFormGroup(/*flush=*/false);
            return;
          }
          EnterWaitingRoom(w);
        };
        return rebuilt;
      }
      case kGroupFinish: {
        if (event.worker_key >= 0 || args.size() < 2) break;
        const double reduce_seconds = args[0];
        std::vector<int> group;
        group.reserve(args.size() - 1);
        bool valid = true;
        for (size_t i = 1; i < args.size(); ++i) {
          const int w = static_cast<int>(args[i]);
          if (w < 0 || w >= n) valid = false;
          group.push_back(w);
        }
        if (!valid) break;
        rebuilt.plain = [this, group = std::move(group), reduce_seconds] {
          --active_groups_;
          for (int w : group) FinishGroupMember(w, reduce_seconds);
        };
        return rebuilt;
      }
      case kReadyTimeout: {
        if (event.worker_key >= 0 || args.size() != 2) break;
        const int w = static_cast<int>(args[0]);
        if (w < 0 || w >= n) break;
        const double since = args[1];
        rebuilt.plain = [this, w, since] { ReadyTimeout(w, since); };
        return rebuilt;
      }
      default:
        break;
    }
    return InvalidArgumentError("malformed Prague event (tag " +
                                std::to_string(event.payload.tag) + ")");
  }

  Status RestoreEngineState(Deserializer& in) {
    NETMAX_RETURN_IF_ERROR(in.ReadIntVec(&ready_));
    for (int w : ready_) {
      if (w < 0 || w >= harness_.num_workers()) {
        return InvalidArgumentError("ready worker out of range");
      }
    }
    NETMAX_RETURN_IF_ERROR(in.ReadDoubleSpan(iteration_start_));
    NETMAX_ASSIGN_OR_RETURN(active_groups_, in.ReadInt());
    if (active_groups_ < 0) {
      return InvalidArgumentError("negative active group count");
    }
    NETMAX_RETURN_IF_ERROR(in.ReadDoubleSpan(ready_since_));
    for (size_t w = 0; w < parked_.size(); ++w) {
      NETMAX_ASSIGN_OR_RETURN(const bool parked, in.ReadBool());
      parked_[w] = parked ? 1 : 0;
    }
    return Status::Ok();
  }

  void StartIteration(int w) {
    if (harness_.WorkerDone(w)) {
      parked_[static_cast<size_t>(w)] = 1;
      // A finished worker no longer joins groups; flush stragglers so the
      // remaining ready workers are not stranded waiting for it.
      MaybeFormGroup(/*flush=*/true);
      return;
    }
    parked_[static_cast<size_t>(w)] = 0;
    iteration_start_[static_cast<size_t>(w)] = harness_.sim().Now();
    const double compute = harness_.EffectiveComputeSeconds(w);
    harness_.SampleBatch(w);
    Emit(compute, w, {kCompute, {}});
  }

  // The worker's local step committed: it waits for a group. Under
  // kTimeoutAndContinue it also arms a deadline — if it is still waiting
  // (same episode, identified by the entry time) when the deadline fires, it
  // gives up on group formation and continues alone.
  void EnterWaitingRoom(int w) {
    ready_.push_back(w);
    ready_since_[static_cast<size_t>(w)] = harness_.sim().Now();
    if (harness_.config().peer_policy ==
        core::PeerPolicy::kTimeoutAndContinue) {
      Emit(harness_.config().peer_timeout_seconds, core::kPlainEvent,
           {kReadyTimeout,
            {static_cast<double>(w), ready_since_[static_cast<size_t>(w)]}});
    }
    MaybeFormGroup(/*flush=*/false);
  }

  void ReadyTimeout(int w, double since) {
    // Stale deadline: the worker was grouped (or evicted) since it was
    // armed. Entry times are strictly increasing per worker, so equality
    // identifies the episode exactly.
    if (ready_since_[static_cast<size_t>(w)] != since) return;
    auto it = std::find(ready_.begin(), ready_.end(), w);
    if (it == ready_.end()) return;
    ready_.erase(it);
    ready_since_[static_cast<size_t>(w)] = -1.0;
    harness_.CountPeerTimeout();
    harness_.CountDegradedRound();
    FinishGroupMember(w, 0.0);
  }

  // Number of workers that can still produce a ready event.
  int ActiveWorkers() const {
    int active = 0;
    for (int w = 0; w < harness_.num_workers(); ++w) {
      if (!harness_.WorkerDone(w)) ++active;
    }
    return active;
  }

  void MaybeFormGroup(bool flush) {
    while (static_cast<int>(ready_.size()) >= group_size_) {
      std::vector<int> group(ready_.begin(), ready_.begin() + group_size_);
      ready_.erase(ready_.begin(), ready_.begin() + group_size_);
      LaunchGroup(group);
    }
    // When too few active workers remain to ever fill a group, reduce what is
    // left (pairs at minimum) or let singletons continue alone.
    if (!ready_.empty() &&
        (flush || ActiveWorkers() < group_size_) &&
        static_cast<int>(ready_.size()) >= ActiveWorkers()) {
      std::vector<int> group = ready_;
      ready_.clear();
      if (group.size() >= 2) {
        LaunchGroup(group);
      } else {
        ready_since_[static_cast<size_t>(group[0])] = -1.0;
        FinishGroupMember(group[0], 0.0);
      }
    }
  }

  void LaunchGroup(const std::vector<int>& group) {
    for (int w : group) ready_since_[static_cast<size_t>(w)] = -1.0;
    const double now = harness_.sim().Now();
    // Ring allreduce within the group: 2(G-1) steps of 1/G model chunks over
    // the slowest intra-group link. Concurrent groups share the physical
    // network: the paper attributes Prague's congestion to exactly this, so
    // each step is stretched by the number of in-flight groups.
    const int g = static_cast<int>(group.size());
    const int64_t baseline_chunk =
        harness_.config().profile.message_bytes() / g;
    int64_t chunk_bytes = baseline_chunk;
    int64_t round = 0;
    if (harness_.compression_enabled()) {
      // One communication round per group reduce, indexed by the first
      // member's counter (groups always have >= 2 members here).
      round = harness_.NextCommRound(group.front());
      chunk_bytes = harness_.MessagePayloadBytes(round) / g;
    }
    const int64_t chunk_messages = static_cast<int64_t>(g) * 2 * (g - 1);
    harness_.AccountWire(chunk_messages, chunk_messages * chunk_bytes,
                         chunk_messages * baseline_chunk);
    double step_seconds = 0.0;
    double latency_seconds = 0.0;
    for (int k = 0; k < g; ++k) {
      const int a = group[static_cast<size_t>(k)];
      const int b = group[static_cast<size_t>((k + 1) % g)];
      const double latency = harness_.links().TransferSeconds(a, b, now, 0);
      const double chunk =
          harness_.links().TransferSeconds(a, b, now, chunk_bytes);
      step_seconds = std::max(step_seconds, chunk - latency);
      latency_seconds = std::max(latency_seconds, latency);
    }
    ++active_groups_;
    const double contention = static_cast<double>(active_groups_);
    const double reduce_seconds =
        (2.0 * (g - 1) * step_seconds + 2.0 * latency_seconds) * contention;

    // Average the group's models.
    std::vector<std::vector<double>> params;
    params.reserve(group.size());
    for (int w : group) {
      const auto p = harness_.worker(w).model->parameters();
      params.emplace_back(p.begin(), p.end());
    }
    const std::vector<double> mean = linalg::Mean(params);
    for (int w : group) {
      // Group members are idle (their next compute event is scheduled only in
      // FinishGroupMember), so no backend window can hold an evaluation for
      // them here; notify anyway: the write contract is cheap and
      // engine-evolution-proof.
      harness_.sim().NotifyStateWrite(w);
      auto p = harness_.worker(w).model->parameters();
      if (!harness_.compression_enabled()) {
        std::copy(mean.begin(), mean.end(), p.begin());
      } else {
        // Each member receives C(mean - x_w): it moves onto the group mean
        // exactly where the encoding is lossless and as far as the decoded
        // difference carries it elsewhere.
        std::span<double> diff = harness_.CompressionScratch();
        for (size_t j = 0; j < p.size(); ++j) diff[j] = mean[j] - p[j];
        harness_.ApplyCompression(w, round, diff);
        for (size_t j = 0; j < p.size(); ++j) p[j] += diff[j];
      }
    }

    std::vector<double> finish_args;
    finish_args.reserve(1 + group.size());
    finish_args.push_back(reduce_seconds);
    for (int w : group) finish_args.push_back(static_cast<double>(w));
    Emit(reduce_seconds, core::kPlainEvent,
         {kGroupFinish, std::move(finish_args)});
  }

  void FinishGroupMember(int w, double /*reduce_seconds*/) {
    const double wall =
        harness_.sim().Now() - iteration_start_[static_cast<size_t>(w)];
    harness_.AccountIteration(w, harness_.EffectiveComputeSeconds(w), wall);
    StartIteration(w);
  }

  ExperimentHarness harness_;
  int group_size_;
  std::vector<int> ready_;
  std::vector<double> iteration_start_;
  int active_groups_ = 0;
  // Waiting-room entry time per worker (-1 while not waiting): the episode
  // identity for kReadyTimeout deadlines.
  std::vector<double> ready_since_;
  // Per-worker "iteration chain is parked" flag (see the fault listener).
  std::vector<uint8_t> parked_;
  net::EventRebuilder builder_;
};

}  // namespace

StatusOr<core::RunResult> PragueAlgorithm::Run(
    const core::ExperimentConfig& config) const {
  PragueEngine engine(config, group_size_);
  return engine.Run();
}

}  // namespace netmax::algos
