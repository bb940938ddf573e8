#ifndef NETMAX_CORE_EXECUTION_BACKEND_H_
#define NETMAX_CORE_EXECUTION_BACKEND_H_

// Concrete execution backends for the event simulator, plus the selection
// plumbing (kind enum, flag parsing, factory) the experiment harness and the
// benches share. The abstract net::ExecutionBackend interface is declared in
// net/event_sim.h, beside the simulator it drives (the net layer cannot
// depend on core); everything that picks or implements a strategy lives
// here.
//
// Two strategies, bit-identical to each other by the soundness contract in
// net/event_sim.h:
//
//  * SerialBackend — every event runs inline at its turn on the simulator
//    thread. The reference semantics; also what the pooled backend degrades
//    to without a pool.
//  * AsyncPipelineBackend — compute halves stream through a bounded reorder
//    window of in-flight evaluations on the pool. The commit drain waits
//    only for the entry at the head of the window, never for the slowest
//    in-flight compute, and computes the head itself when no pool thread has
//    started it; dispatch applies backpressure when the window fills, and
//    NotifyStateWrite invalidation covers every window-resident evaluation
//    (queued ones are cancelled and running ones waited out before the
//    caller's write, then re-dispatched).

#include <atomic>
#include <cstdint>
#include <memory>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "net/event_sim.h"

namespace netmax {
class ThreadPool;
}  // namespace netmax

namespace netmax::core {

// The seam interface, re-exported under the layer that implements it.
using net::ExecutionBackend;
using net::ExecutionStats;

enum class ExecutionBackendKind {
  kSerial,
  kAsyncPipeline,  // default: bounded-reorder-window commit pipeline
};

// Strict parse of a --backend / NETMAX_BACKEND value ("serial", "async");
// returns false on anything else, leaving *kind untouched.
bool ParseExecutionBackendKind(std::string_view text,
                               ExecutionBackendKind* kind);

// The flag spelling of `kind` (inverse of ParseExecutionBackendKind).
std::string_view ExecutionBackendKindName(ExecutionBackendKind kind);

// Builds the backend for one simulator run. `pool` is borrowed and must
// outlive the backend; with a null pool every kind degrades to SerialBackend
// (there is nothing to overlap with). `reorder_window` is the async
// backend's in-flight bound (0 = auto) and `adaptive_window` lets the async
// backend re-size that bound at runtime from its own stall/backpressure
// counters; both are ignored by the serial kind.
std::unique_ptr<ExecutionBackend> MakeExecutionBackend(
    ExecutionBackendKind kind, ThreadPool* pool, int reorder_window,
    bool adaptive_window = false);

// Fully serial dispatch: Dispatch is a no-op and every compute half runs
// inline at its turn. Stats stay zero.
class SerialBackend : public ExecutionBackend {
 public:
  std::string_view name() const override { return "serial"; }
  void Dispatch(net::EventSimulator& sim) override;
  int64_t DrainCommits(net::EventSimulator& sim) override;
  void OnStateWrite(net::EventSimulator& sim, int worker_key) override;
};

// Bounded-reorder commit pipeline: up to `reorder_window` compute halves are
// in flight on the pool at once, entering in (time, sequence) order and
// leaving at their commit. There is no batch barrier — the drain waits only
// for the head entry's own evaluation, so one slow compute never stalls the
// commits (or re-dispatches) of everything behind it; it only occupies one
// window slot. A head no pool thread has started yet is computed by the
// drain itself, and while the head is running elsewhere the drain computes
// other not-yet-started entries instead of sleeping.
//
// reorder_window == 0 means auto: up to two in-flight evaluations per thread
// of the run's budget (the pool's workers plus the simulator thread), so
// every thread has a queued compute while a head-of-window wait is served.
// Running ahead only pays off on otherwise idle cores: on an oversubscribed
// host the run-ahead evaluations take CPU from the commit stream, and the
// ones a later commit invalidates are pure waste. So the auto window throttles
// itself: every kAdaptPeriod dispatches it samples how often the simulator
// thread was preempted; any preemption halves the window (down to 0, where
// every compute runs inline at its turn as under SerialBackend), a quiet
// period grows it back by one, up to the auto bound.
//
// With `adaptive_window` set, the backend consumes its own diagnostics to
// auto-size the window under straggler load: sustained backpressure (runnable
// work held back by a full window) grows it, sustained head-of-window stalls
// or invalidation re-dispatches (speculation running ahead of what the commit
// stream can use) shrink it, within [1, kMaxAdaptiveWindow]. The window size
// never affects simulation output — that is the backend bit-identity
// invariant — so the controller is free to chase real-machine throughput.
class AsyncPipelineBackend : public ExecutionBackend {
 public:
  AsyncPipelineBackend(ThreadPool* pool, int reorder_window,
                       bool adaptive_window = false);

  // Upper bound the adaptive controller may grow the window to.
  static constexpr int kMaxAdaptiveWindow = 64;
  // Dispatches between two window-size decisions (adaptive controller and
  // auto throttle).
  static constexpr int64_t kAdaptPeriod = 64;

  std::string_view name() const override { return "async"; }
  int reorder_window() const { return reorder_window_; }
  bool adaptive_window() const { return adaptive_window_; }
  void Dispatch(net::EventSimulator& sim) override;
  int64_t DrainCommits(net::EventSimulator& sim) override;
  void OnStateWrite(net::EventSimulator& sim, int worker_key) override;

 protected:
  void OnIdle(net::EventSimulator& sim) override;
  void OnHalt(net::EventSimulator& sim) override;

 private:
  // One submission of a compute half to the pool. Whoever moves `state` out
  // of kQueued owns the evaluation: a pool thread (kRunning, then kDone), the
  // simulator thread claiming a head it needs now (it computes inline), or an
  // invalidator cancelling work nobody has started (kCancelled, no wait).
  // Shared with the pooled task so a cancelled submission may still sit in
  // the pool queue after its Entry is gone; `compute` is only dereferenced by
  // the claimant, which the Entry always outlives.
  struct Job {
    enum State : int { kQueued, kRunning, kDone, kCancelled };
    explicit Job(const net::EventSimulator::ComputeFn* fn) : compute(fn) {}
    std::atomic<int> state{kQueued};
    const net::EventSimulator::ComputeFn* compute;
    double value = 0.0;  // written by the claimant before kDone
  };

  // One window-resident evaluation. Heap-allocated so the job's `compute`
  // pointer stays valid while the map rehashes.
  struct Entry {
    int64_t sequence = 0;
    int worker_key = -1;
    double time = 0.0;
    net::EventSimulator::ComputeFn compute;  // copy, safe off-thread
    bool invalidated = false;  // awaiting re-dispatch after the handler
    std::shared_ptr<Job> job;
  };

  // Claims `job` if no thread has, computes it on the calling thread and
  // publishes the value; false if it was already claimed or cancelled.
  static bool RunIfQueued(Job& job);
  // Cancels `job` if no thread has claimed it; false otherwise.
  static bool CancelIfQueued(Job& job);
  void Submit(Entry& entry);
  // Leaves `job` settled. A job no thread has started is computed here when
  // `compute` is set (the drain needs its value now) and cancelled otherwise;
  // a running one is waited out, the drain computing other not-yet-started
  // window entries meanwhile (HelpOne).
  void Settle(Job& job, bool compute);
  // Claims the earliest window entry no thread has started and computes it
  // on the calling thread; false if there is none.
  bool HelpOne();
  void FlushRedispatches();
  // Adaptive controller step, run once per kAdaptPeriod dispatches: compares
  // the counter deltas accumulated since the last step and re-sizes the
  // window.
  void MaybeAdaptWindow();
  // Auto-window throttle step, run once per kAdaptPeriod dispatches: halves
  // the window if the simulator thread was preempted since the last step,
  // else grows it by one up to auto_window_bound_.
  void MaybeThrottleWindow();

  ThreadPool* pool_;
  int reorder_window_;
  const bool adaptive_window_;
  // Adaptive controller state: dispatch calls since the last adaptation and
  // the counter values it last saw.
  int64_t adapt_dispatches_ = 0;
  ExecutionStats adapt_baseline_;
  // Auto window: its bound (0 when the window was given explicitly) and the
  // simulator thread's involuntary context switches at the last throttle
  // step.
  int auto_window_bound_ = 0;
  int64_t preemptions_seen_ = -1;  // -1: no step taken yet
  // Window entries by worker key: at most one in-flight evaluation per key
  // (a same-key duplicate is skipped by the dispatch scan, preserving the
  // chained-commit order), at most reorder_window_ entries total.
  std::unordered_map<int, std::unique_ptr<Entry>> window_;
  std::vector<int> pending_redispatch_keys_;
};

}  // namespace netmax::core

#endif  // NETMAX_CORE_EXECUTION_BACKEND_H_
