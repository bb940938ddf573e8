#include "core/execution_backend.h"

#include <sys/resource.h>

#include <algorithm>
#include <utility>

#include "common/thread_pool.h"

namespace netmax::core {
namespace {

using net::EventSimulator;

// Dispatch scan bound: how many queue entries a backend examines per
// Dispatch call while looking for compute halves to run ahead (plain events
// count toward the cap). Bounds the cost of skipping over plain events.
constexpr int64_t kMaxScannedEvents = 256;

// Involuntary context switches of the calling thread so far; 0 where the
// platform does not report them (the auto-window throttle then never
// engages).
int64_t CallingThreadPreemptions() {
#ifdef RUSAGE_THREAD
  rusage usage{};
  if (getrusage(RUSAGE_THREAD, &usage) == 0) return usage.ru_nivcsw;
#endif
  return 0;
}

}  // namespace

bool ParseExecutionBackendKind(std::string_view text,
                               ExecutionBackendKind* kind) {
  if (text == "serial") {
    *kind = ExecutionBackendKind::kSerial;
    return true;
  }
  if (text == "async") {
    *kind = ExecutionBackendKind::kAsyncPipeline;
    return true;
  }
  return false;
}

std::string_view ExecutionBackendKindName(ExecutionBackendKind kind) {
  switch (kind) {
    case ExecutionBackendKind::kSerial:
      return "serial";
    case ExecutionBackendKind::kAsyncPipeline:
      return "async";
  }
  return "unknown";
}

std::unique_ptr<ExecutionBackend> MakeExecutionBackend(
    ExecutionBackendKind kind, ThreadPool* pool, int reorder_window,
    bool adaptive_window) {
  NETMAX_CHECK_GE(reorder_window, 0);
  if (pool == nullptr || kind == ExecutionBackendKind::kSerial) {
    return std::make_unique<SerialBackend>();
  }
  return std::make_unique<AsyncPipelineBackend>(pool, reorder_window,
                                                adaptive_window);
}

// --- SerialBackend ----------------------------------------------------------

void SerialBackend::Dispatch(EventSimulator& /*sim*/) {}

int64_t SerialBackend::DrainCommits(EventSimulator& sim) {
  return sim.StepWith(nullptr) ? 1 : 0;
}

void SerialBackend::OnStateWrite(EventSimulator& /*sim*/, int /*worker_key*/) {}

// --- AsyncPipelineBackend ---------------------------------------------------

AsyncPipelineBackend::AsyncPipelineBackend(ThreadPool* pool, int reorder_window,
                                           bool adaptive_window)
    : pool_(pool),
      reorder_window_(reorder_window),
      adaptive_window_(adaptive_window) {
  NETMAX_CHECK(pool_ != nullptr) << "AsyncPipelineBackend needs a pool";
  NETMAX_CHECK_GE(reorder_window_, 0);
  if (reorder_window_ == 0) {
    reorder_window_ = 2 * (pool_->num_threads() + 1);
    // With --adaptive-window the adaptive controller sizes it instead.
    if (!adaptive_window_) auto_window_bound_ = reorder_window_;
  }
  if (reorder_window_ > kMaxAdaptiveWindow && adaptive_window_) {
    reorder_window_ = kMaxAdaptiveWindow;
  }
}

bool AsyncPipelineBackend::RunIfQueued(Job& job) {
  int expected = Job::kQueued;
  if (!job.state.compare_exchange_strong(expected, Job::kRunning,
                                         std::memory_order_acq_rel)) {
    return false;
  }
  job.value = (*job.compute)();
  job.state.store(Job::kDone, std::memory_order_release);
  job.state.notify_all();
  return true;
}

bool AsyncPipelineBackend::CancelIfQueued(Job& job) {
  int expected = Job::kQueued;
  return job.state.compare_exchange_strong(expected, Job::kCancelled,
                                           std::memory_order_acq_rel);
}

void AsyncPipelineBackend::Submit(Entry& entry) {
  entry.job = std::make_shared<Job>(&entry.compute);
  // A no-op if the job was cancelled or the drain ran it first.
  pool_->Submit([job = entry.job] { RunIfQueued(*job); });
}

void AsyncPipelineBackend::Settle(Job& job, bool compute) {
  // Nobody started it: run it here rather than wait for a pool thread to
  // reach it, or drop it unrun.
  if (compute ? RunIfQueued(job) : CancelIfQueued(job)) return;
  while (job.state.load(std::memory_order_acquire) == Job::kRunning) {
    // The drain works on the window while the pool finishes this job rather
    // than leave one of the run's threads asleep at each commit. Only the
    // drain helps: it runs between handlers, never inside one.
    if (!compute || !HelpOne()) {
      job.state.wait(Job::kRunning, std::memory_order_acquire);
    }
  }
}

bool AsyncPipelineBackend::HelpOne() {
  while (true) {
    Entry* earliest = nullptr;
    for (auto& [key, entry] : window_) {
      if (entry->invalidated ||
          entry->job->state.load(std::memory_order_relaxed) != Job::kQueued) {
        continue;
      }
      if (earliest == nullptr ||
          std::make_pair(entry->time, entry->sequence) <
              std::make_pair(earliest->time, earliest->sequence)) {
        earliest = entry.get();
      }
    }
    if (earliest == nullptr) return false;
    if (RunIfQueued(*earliest->job)) return true;
    // A pool thread took it first: look again.
  }
}

void AsyncPipelineBackend::Dispatch(EventSimulator& sim) {
  // Admit pending compute halves into the window in (time, sequence) order.
  // A key already resident is skipped — its later same-key events must
  // observe the resident event's commit — but the scan continues past it, so
  // one busy worker never blocks the pipeline for the others.
  int64_t admitted = 0;
  if (reorder_window_ > 0) {  // 0: the throttle stopped all run-ahead
    sim.ScanPendingComputes(
        kMaxScannedEvents,
        [&](const EventSimulator::PendingComputeView& view) {
          if (window_.find(view.worker_key) != window_.end()) {
            return EventSimulator::ScanAction::kContinue;
          }
          if (static_cast<int>(window_.size()) >= reorder_window_) {
            ++stats_.window_backpressure;  // runnable work held back: full
            return EventSimulator::ScanAction::kStop;
          }
          auto entry = std::make_unique<Entry>();
          entry->sequence = view.sequence;
          entry->worker_key = view.worker_key;
          entry->time = view.time;
          entry->compute = view.compute;
          Submit(*entry);
          window_.emplace(view.worker_key, std::move(entry));
          ++stats_.computes_speculated;
          ++admitted;
          return EventSimulator::ScanAction::kContinue;
        });
  }
  if (admitted > 0 && window_.size() >= 2) ++stats_.parallel_batches;
  if (adaptive_window_) {
    MaybeAdaptWindow();
  } else if (auto_window_bound_ > 0) {
    MaybeThrottleWindow();
  }
}

void AsyncPipelineBackend::MaybeThrottleWindow() {
  if (++adapt_dispatches_ < kAdaptPeriod) return;
  adapt_dispatches_ = 0;
  // Preemption of the simulator thread is the contention signal: the run's
  // threads (and whatever else the host runs) outnumber the cores, so
  // run-ahead evaluations compete with the commit stream instead of filling
  // idle cores. The first step only takes the baseline.
  const int64_t preemptions = CallingThreadPreemptions();
  const bool preempted =
      preemptions_seen_ >= 0 && preemptions > preemptions_seen_;
  preemptions_seen_ = preemptions;
  if (preempted) {
    reorder_window_ /= 2;
  } else if (reorder_window_ < auto_window_bound_) {
    ++reorder_window_;
  }
}

void AsyncPipelineBackend::MaybeAdaptWindow() {
  // Re-size at a coarse cadence so each decision sees a meaningful sample of
  // the straggler behaviour, not one noisy dispatch.
  if (++adapt_dispatches_ < kAdaptPeriod) return;
  adapt_dispatches_ = 0;
  const int64_t backpressure =
      stats_.window_backpressure - adapt_baseline_.window_backpressure;
  const int64_t stalls = stats_.window_stalls - adapt_baseline_.window_stalls;
  const int64_t redispatched =
      stats_.computes_redispatched - adapt_baseline_.computes_redispatched;
  adapt_baseline_ = stats_;
  // Backpressure means runnable work sat behind a full window: grow. Stalls
  // and invalidation re-dispatches mean speculation ran ahead of what the
  // commit stream could consume: shrink. Window size never affects result
  // bits (the backend invariant), so this chases throughput only.
  if (backpressure > stalls + redispatched &&
      reorder_window_ < kMaxAdaptiveWindow) {
    ++reorder_window_;
    ++stats_.window_resizes;
  } else if (stalls + redispatched > backpressure && reorder_window_ > 1) {
    --reorder_window_;
    ++stats_.window_resizes;
  }
}

int64_t AsyncPipelineBackend::DrainCommits(EventSimulator& sim) {
  const EventSimulator::SpeculationProvider provider =
      [this](int64_t sequence, int worker_key, double* value) {
        const auto it = window_.find(worker_key);
        if (it == window_.end()) return false;  // not resident: run inline
        if (it->second->sequence != sequence) {
          // A different same-key event is resident — only possible when two
          // same-key computes were pending at once, which engines never do
          // (one outstanding compute per worker). Defensive: finish the
          // resident evaluation before this event's inline compute can race
          // its scratch writes; its value stays usable because any commit
          // that writes the key must notify (invalidating it) anyway.
          Settle(*it->second->job, /*compute=*/true);
          return false;
        }
        Entry& entry = *it->second;
        if (entry.invalidated) {
          ++stats_.computes_recomputed;  // defensive fallback
          Settle(*entry.job, /*compute=*/false);
          window_.erase(it);
          return false;
        }
        // The head of the window is the only compute the drain ever waits
        // for — later in-flight entries keep running while this commit (and
        // everything it schedules) applies. A head no pool thread has
        // started yet is computed right here instead.
        if (entry.job->state.load(std::memory_order_acquire) != Job::kDone) {
          ++stats_.window_stalls;
        }
        Settle(*entry.job, /*compute=*/true);
        *value = entry.job->value;
        window_.erase(it);
        return true;
      };
  const bool stepped = sim.StepWith(provider);
  // Handlers queue invalidated keys; re-dispatch them now that the handler's
  // writes are complete, so the recompute reads post-write state.
  FlushRedispatches();
  return stepped ? 1 : 0;
}

void AsyncPipelineBackend::OnStateWrite(EventSimulator& /*sim*/,
                                        int worker_key) {
  const auto it = window_.find(worker_key);
  if (it == window_.end() || it->second->invalidated) return;
  // A window-resident evaluation may still be RUNNING when a handler writes
  // its state: finish it before the caller's write can race its reads (or
  // cancel it if no thread has started it), then discard the stale value by
  // queueing a re-dispatch (flushed after the handler returns).
  Settle(*it->second->job, /*compute=*/false);
  it->second->invalidated = true;
  pending_redispatch_keys_.push_back(worker_key);
}

void AsyncPipelineBackend::FlushRedispatches() {
  if (pending_redispatch_keys_.empty()) return;
  std::vector<int> keys;
  keys.swap(pending_redispatch_keys_);
  // Re-submit in (time, sequence) order of their events so the pool starts
  // the earliest-committing recompute first.
  std::sort(keys.begin(), keys.end(), [this](int a, int b) {
    const Entry& x = *window_.at(a);
    const Entry& y = *window_.at(b);
    return std::make_pair(x.time, x.sequence) <
           std::make_pair(y.time, y.sequence);
  });
  for (const int key : keys) {
    Entry& entry = *window_.at(key);
    entry.invalidated = false;
    Submit(entry);
    ++stats_.computes_redispatched;
  }
}

void AsyncPipelineBackend::OnIdle(EventSimulator& /*sim*/) {
  NETMAX_CHECK(window_.empty()) << "window entry outlived its event";
  NETMAX_CHECK(pending_redispatch_keys_.empty())
      << "re-dispatch queued after the last handler";
}

void AsyncPipelineBackend::OnHalt(EventSimulator& /*sim*/) {
  // Cancel or wait out every window-resident evaluation (a running one reads
  // the Entry being destroyed here), then discard the window. None of it was
  // committed, so the halted result is untouched.
  for (auto& [key, entry] : window_) Settle(*entry->job, /*compute=*/false);
  window_.clear();
  pending_redispatch_keys_.clear();
}

}  // namespace netmax::core
