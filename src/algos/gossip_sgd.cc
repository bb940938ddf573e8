#include "algos/gossip_sgd.h"

#include <algorithm>
#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/checkpoint.h"
#include "net/fault_schedule.h"

namespace netmax::algos {
namespace {

using core::ExperimentConfig;
using core::ExperimentHarness;
using core::RunResult;

class GossipEngine {
 public:
  explicit GossipEngine(const ExperimentConfig& config)
      : harness_(config, "GoSGD") {}

  StatusOr<RunResult> Run() {
    NETMAX_RETURN_IF_ERROR(harness_.Init());
    const int n = harness_.num_workers();
    push_busy_until_.assign(static_cast<size_t>(n), 0.0);
    parked_.assign(static_cast<size_t>(n), 0);
    builder_ = [this](const net::SavedEvent& event) {
      return BuildEvent(event);
    };
    if (harness_.restore_requested()) {
      NETMAX_RETURN_IF_ERROR(harness_.Restore(
          [this](Deserializer& in) {
            NETMAX_RETURN_IF_ERROR(in.ReadDoubleSpan(push_busy_until_));
            for (size_t w = 0; w < parked_.size(); ++w) {
              NETMAX_ASSIGN_OR_RETURN(const bool parked, in.ReadBool());
              parked_[w] = parked ? 1 : 0;
            }
            return Status::Ok();
          },
          builder_));
    } else {
      for (int w = 0; w < n; ++w) StartIteration(w);
    }
    harness_.ArmCheckpoint([this](Serializer& out) {
      out.WriteDoubleVec(push_busy_until_);
      for (const uint8_t parked : parked_) out.WriteBool(parked != 0);
      return Status::Ok();
    });
    // Restart a rejoining worker's iteration chain iff it parked.
    harness_.set_fault_listener([this](const net::FaultEvent& fault) {
      if (fault.kind == net::FaultKind::kJoin &&
          parked_[static_cast<size_t>(fault.worker)] != 0) {
        StartIteration(fault.worker);
      }
    });
    harness_.sim().RunUntilIdle();
    NETMAX_RETURN_IF_ERROR(harness_.checkpoint_status());
    return harness_.Finalize();
  }

 private:
  // Checkpoint reification tags (core/checkpoint.h).
  enum Tag : int64_t {
    kIterate = 0,  // compute event: args [compute_seconds]
    kArrival = 1,  // plain event: args [receiver, round, sender snapshot...]
  };

  void Emit(double delay, int worker_key, net::EventPayload payload) {
    core::ScheduleReified(harness_.sim(), delay, worker_key,
                          std::move(payload), builder_);
  }

  StatusOr<net::RebuiltEvent> BuildEvent(const net::SavedEvent& event) {
    const std::vector<double>& args = event.payload.args;
    net::RebuiltEvent rebuilt;
    switch (event.payload.tag) {
      case kIterate: {
        const int w = event.worker_key;
        if (w < 0 || w >= harness_.num_workers() || args.size() != 1) break;
        const double compute = args[0];
        rebuilt.compute = [this, w] { return harness_.EvalBatchGradient(w); };
        rebuilt.commit = [this, w, compute](double loss) {
          harness_.CommitBatchStats(w, loss);
          harness_.ApplyStoredGradient(w);
          MaybePush(w);
          // The push does not block the training loop: wall time is compute
          // only.
          harness_.AccountIteration(w, compute, compute);
          StartIteration(w);
        };
        return rebuilt;
      }
      case kArrival: {
        const size_t num_params = harness_.worker(0).gradient.size();
        if (event.worker_key >= 0 || args.size() != 2 + num_params) break;
        const int m = static_cast<int>(args[0]);
        const int64_t round = static_cast<int64_t>(args[1]);
        if (m < 0 || m >= harness_.num_workers()) break;
        rebuilt.plain = [this, m, round,
                         snapshot = std::vector<double>(args.begin() + 2,
                                                        args.end())] {
          if (!harness_.WorkerAlive(m)) {
            // The receiver died while the push was in flight: drop it.
            harness_.CountDegradedRound();
            return;
          }
          // Arrival writes the receiver's parameters — invalidate whatever
          // the backend ran ahead for m (an async window entry; an
          // in-flight evaluation is waited out first).
          harness_.sim().NotifyStateWrite(m);
          auto x_m = harness_.worker(m).model->parameters();
          if (!harness_.compression_enabled()) {
            for (size_t j = 0; j < x_m.size(); ++j) {
              x_m[j] = 0.5 * (x_m[j] + snapshot[j]);
            }
          } else {
            // The push carried C(snapshot - x_m^push); decode against the
            // receiver's current parameters (arrivals are ordered, so this
            // is the deterministic gossip analogue of the exact average).
            // Int8's stochastic rounding draws from the receiver's stream —
            // the worker whose state this plain event commits.
            std::span<double> diff = harness_.CompressionScratch();
            for (size_t j = 0; j < x_m.size(); ++j) {
              diff[j] = snapshot[j] - x_m[j];
            }
            harness_.ApplyCompression(m, round, diff);
            for (size_t j = 0; j < x_m.size(); ++j) {
              x_m[j] += 0.5 * diff[j];
            }
          }
        };
        return rebuilt;
      }
      default:
        break;
    }
    return InvalidArgumentError("malformed GoSGD event (tag " +
                                std::to_string(event.payload.tag) + ")");
  }

  void StartIteration(int w) {
    if (harness_.WorkerDone(w)) {
      parked_[static_cast<size_t>(w)] = 1;
      return;
    }
    parked_[static_cast<size_t>(w)] = 0;
    const double compute = harness_.EffectiveComputeSeconds(w);
    harness_.SampleBatch(w);
    Emit(compute, w, {kIterate, {compute}});
  }

  void MaybePush(int w) {
    const double now = harness_.sim().Now();
    if (now < push_busy_until_[static_cast<size_t>(w)]) return;  // NIC busy
    core::WorkerRuntime& worker = harness_.worker(w);
    const auto& neighbors = harness_.topology().Neighbors(w);
    const int m = neighbors[static_cast<size_t>(worker.rng.UniformInt(
        0, static_cast<int64_t>(neighbors.size()) - 1))];
    if (!harness_.WorkerAlive(m)) {
      // Push-gossip never blocks: a dead target just means no push this
      // iteration (the NIC stays free for the next draw).
      harness_.CountDegradedRound();
      return;
    }
    const int64_t round = harness_.NextCommRound(w);
    const double transfer = harness_.SendSeconds(w, m, round);  // w -> m push
    push_busy_until_[static_cast<size_t>(w)] = now + transfer;
    // Snapshot the sender's parameters at push time; the snapshot rides in
    // the event payload so an in-flight push checkpoints/restores losslessly.
    const auto p = worker.model->parameters();
    std::vector<double> args;
    args.reserve(2 + p.size());
    args.push_back(static_cast<double>(m));
    args.push_back(static_cast<double>(round));
    args.insert(args.end(), p.begin(), p.end());
    Emit(transfer, core::kPlainEvent, {kArrival, std::move(args)});
  }

  ExperimentHarness harness_;
  std::vector<double> push_busy_until_;
  // Per-worker "iteration chain is parked" flag (see the join listener).
  std::vector<uint8_t> parked_;
  net::EventRebuilder builder_;
};

}  // namespace

StatusOr<core::RunResult> GossipSgdAlgorithm::Run(
    const core::ExperimentConfig& config) const {
  GossipEngine engine(config);
  return engine.Run();
}

}  // namespace netmax::algos
