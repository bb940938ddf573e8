// The ExecutionBackend seam (net/event_sim.h + core/execution_backend.h):
// the simulator delegates dispatch to whatever backend is attached, and
// every backend must keep commits in strict (time, sequence) order and
// results bit-identical to serial dispatch. The async pipeline additionally
// gets adversarial scripted-latency coverage: compute halves that finish
// far out of dispatch order, a window too small for the pending work
// (backpressure), invalidation of window-resident entries mid-flight, and
// entries no pool thread has started (computed by the drain or cancelled).

#include "core/execution_backend.h"

#include <chrono>
#include <functional>
#include <future>
#include <string_view>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/thread_pool.h"
#include "net/event_sim.h"

namespace netmax::core {
namespace {

using net::EventSimulator;

// --- the seam itself --------------------------------------------------------

// A fake backend that records every call the simulator forwards to it and
// runs all computes inline: proves the seam (RunUntilIdle delegation,
// NotifyStateWrite forwarding, the SpeculationProvider round trip) without
// any threading.
class RecordingBackend : public net::ExecutionBackend {
 public:
  std::string_view name() const override { return "recording"; }

  void Dispatch(EventSimulator& /*sim*/) override { ++dispatch_calls; }

  int64_t DrainCommits(EventSimulator& sim) override {
    const EventSimulator::SpeculationProvider provider =
        [this](int64_t /*sequence*/, int worker_key, double* value) {
          provided_keys.push_back(worker_key);
          *value = 1000.0 + worker_key;  // a value the compute never returns
          return true;
        };
    return sim.StepWith(provider) ? 1 : 0;
  }

  void OnStateWrite(EventSimulator& /*sim*/, int worker_key) override {
    notified_keys.push_back(worker_key);
  }

  int dispatch_calls = 0;
  std::vector<int> provided_keys;
  std::vector<int> notified_keys;
};

TEST(ExecutionBackendSeamTest, SimulatorDelegatesToAttachedBackend) {
  EventSimulator sim;
  RecordingBackend backend;
  sim.set_backend(&backend);
  std::vector<double> committed;
  sim.ScheduleCompute(
      1.0, /*worker_key=*/7, [] { return -1.0; },
      [&](double value) {
        committed.push_back(value);
        sim.NotifyStateWrite(3);
      });
  sim.ScheduleAt(2.0, [&] { sim.NotifyStateWrite(5); });
  sim.RunUntilIdle();
  // The provider's value reached the commit (the compute never ran), both
  // notifies were forwarded, and Dispatch ran before each drain step.
  EXPECT_EQ(committed, (std::vector<double>{1007.0}));
  EXPECT_EQ(backend.provided_keys, (std::vector<int>{7}));
  EXPECT_EQ(backend.notified_keys, (std::vector<int>{3, 5}));
  EXPECT_EQ(backend.dispatch_calls, 2);
}

TEST(ExecutionBackendSeamTest, NoBackendMeansSerialAndNotifyIsANoOp) {
  EventSimulator sim;
  int compute_runs = 0;
  double committed = 0.0;
  sim.ScheduleCompute(
      1.0, 0,
      [&] {
        ++compute_runs;
        return 4.0;
      },
      [&](double value) {
        sim.NotifyStateWrite(0);  // must be harmless without a backend
        committed = value;
      });
  sim.RunUntilIdle();
  EXPECT_EQ(compute_runs, 1);
  EXPECT_DOUBLE_EQ(committed, 4.0);
  EXPECT_EQ(sim.computes_speculated(), 0);
}

TEST(ExecutionBackendSeamTest, FactoryDegradesToSerialWithoutAPool) {
  EXPECT_EQ(MakeExecutionBackend(ExecutionBackendKind::kAsyncPipeline,
                                 /*pool=*/nullptr, /*reorder_window=*/0)
                ->name(),
            "serial");
  EXPECT_EQ(MakeExecutionBackend(ExecutionBackendKind::kAsyncPipeline,
                                 /*pool=*/nullptr, /*reorder_window=*/4)
                ->name(),
            "serial");
  ThreadPool pool(2);
  EXPECT_EQ(MakeExecutionBackend(ExecutionBackendKind::kSerial, &pool, 0)
                ->name(),
            "serial");
  EXPECT_EQ(
      MakeExecutionBackend(ExecutionBackendKind::kAsyncPipeline, &pool, 4)
          ->name(),
      "async");
}

TEST(ExecutionBackendSeamTest, KindParsingIsStrict) {
  ExecutionBackendKind kind = ExecutionBackendKind::kSerial;
  EXPECT_TRUE(ParseExecutionBackendKind("async", &kind));
  EXPECT_EQ(kind, ExecutionBackendKind::kAsyncPipeline);
  EXPECT_TRUE(ParseExecutionBackendKind("serial", &kind));
  EXPECT_EQ(kind, ExecutionBackendKind::kSerial);
  for (const std::string_view bad :
       {"", "Serial", "asink", "async ", "speculative", "speculative2",
        "process", "Process", "process "}) {
    ExecutionBackendKind untouched = ExecutionBackendKind::kAsyncPipeline;
    EXPECT_FALSE(ParseExecutionBackendKind(bad, &untouched)) << bad;
    EXPECT_EQ(untouched, ExecutionBackendKind::kAsyncPipeline) << bad;
  }
  for (const ExecutionBackendKind k :
       {ExecutionBackendKind::kSerial, ExecutionBackendKind::kAsyncPipeline}) {
    ExecutionBackendKind round_trip = ExecutionBackendKind::kSerial;
    ASSERT_TRUE(
        ParseExecutionBackendKind(ExecutionBackendKindName(k), &round_trip));
    EXPECT_EQ(round_trip, k);
  }
}

TEST(SerialBackendTest, RunsEverythingInlineInOrder) {
  EventSimulator sim;
  SerialBackend backend;
  sim.set_backend(&backend);
  std::vector<int> order;
  for (int key = 0; key < 4; ++key) {
    sim.ScheduleCompute(
        /*time=*/static_cast<double>(4 - key), key,
        [key] { return static_cast<double>(key); },
        [&order](double value) { order.push_back(static_cast<int>(value)); });
  }
  sim.RunUntilIdle();
  EXPECT_EQ(order, (std::vector<int>{3, 2, 1, 0}));
  EXPECT_EQ(backend.stats().computes_speculated, 0);
  EXPECT_EQ(backend.stats().parallel_batches, 0);
}

// --- async pipeline: scripted latencies -------------------------------------

// Schedules `n` compute events (distinct keys, ascending times) whose
// compute halves sleep for scripted durations, so completion order is
// whatever the script says — not dispatch order. Returns commit order.
std::vector<int> RunScriptedLatencies(net::ExecutionBackend* backend,
                                      const std::vector<int>& sleep_ms) {
  EventSimulator sim;
  sim.set_backend(backend);
  std::vector<int> commit_order;
  for (int key = 0; key < static_cast<int>(sleep_ms.size()); ++key) {
    const int ms = sleep_ms[static_cast<size_t>(key)];
    sim.ScheduleCompute(
        /*time=*/1.0 + key, key,
        [key, ms] {
          std::this_thread::sleep_for(std::chrono::milliseconds(ms));
          return static_cast<double>(key);
        },
        [&commit_order](double value) {
          commit_order.push_back(static_cast<int>(value));
        });
  }
  sim.RunUntilIdle();
  return commit_order;
}

TEST(AsyncPipelineBackendTest, OutOfOrderCompletionStillCommitsInOrder) {
  // The earliest event is the slowest by far: later window entries finish
  // long before it, yet every commit must wait its turn.
  ThreadPool pool(4);
  AsyncPipelineBackend backend(&pool, /*reorder_window=*/4);
  const std::vector<int> commit_order =
      RunScriptedLatencies(&backend, {30, 0, 5, 0});
  EXPECT_EQ(commit_order, (std::vector<int>{0, 1, 2, 3}));
  EXPECT_EQ(backend.stats().computes_speculated, 4);
  EXPECT_EQ(backend.stats().computes_recomputed, 0);
  // The slow head forces at least one genuine head-of-window wait.
  EXPECT_GE(backend.stats().window_stalls, 1);
}

TEST(AsyncPipelineBackendTest, WindowFullAppliesBackpressure) {
  // Five runnable computes, window of two: dispatch must hold work back
  // (counted) and still produce ordered commits with every compute
  // evaluated exactly once through the window.
  ThreadPool pool(4);
  AsyncPipelineBackend backend(&pool, /*reorder_window=*/2);
  const std::vector<int> commit_order =
      RunScriptedLatencies(&backend, {2, 0, 2, 0, 1});
  EXPECT_EQ(commit_order, (std::vector<int>{0, 1, 2, 3, 4}));
  EXPECT_EQ(backend.stats().computes_speculated, 5);
  EXPECT_GE(backend.stats().window_backpressure, 1);
}

TEST(AsyncPipelineBackendTest, WindowZeroIsTwoPerThread) {
  // A pool of 3 workers plus the simulator thread is a 4-thread budget.
  ThreadPool pool(3);
  AsyncPipelineBackend backend(&pool, /*reorder_window=*/0);
  EXPECT_EQ(backend.reorder_window(), 2 * 4);
  const std::vector<int> commit_order =
      RunScriptedLatencies(&backend, {0, 0, 0});
  EXPECT_EQ(commit_order, (std::vector<int>{0, 1, 2}));
  EXPECT_EQ(backend.stats().computes_speculated, 3);
}

TEST(AsyncPipelineBackendTest, InvalidatedWindowEntryIsRedispatched) {
  // Event A's commit writes the state B's compute reads while B is
  // window-resident (and kept deliberately in flight by a sleep): the
  // notify must wait B's evaluation out, discard it, and re-dispatch, so
  // B's commit observes A's write — never the stale pre-write read.
  ThreadPool pool(4);
  AsyncPipelineBackend backend(&pool, /*reorder_window=*/4);
  EventSimulator sim;
  sim.set_backend(&backend);
  // Plain double on purpose: the notify-before-write protocol (the invalidator
  // waits out the in-flight read) is what makes this race-free; TSan on this
  // test verifies the protocol itself.
  double b_state = 1.0;
  double b_saw = 0.0;
  sim.ScheduleCompute(
      1.0, /*worker_key=*/0, [] { return 0.0; },
      [&](double) {
        sim.NotifyStateWrite(1);
        b_state = 100.0;
      });
  sim.ScheduleCompute(
      2.0, /*worker_key=*/1,
      [&b_state] {
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
        return b_state;
      },
      [&](double value) { b_saw = value; });
  sim.RunUntilIdle();
  EXPECT_DOUBLE_EQ(b_saw, 100.0);
  EXPECT_EQ(backend.stats().computes_speculated, 2);
  EXPECT_EQ(backend.stats().computes_redispatched, 1);
  EXPECT_EQ(backend.stats().computes_recomputed, 0);
}

TEST(AsyncPipelineBackendTest, DoubleInvalidationStaysOrdered) {
  // Two earlier commits both write key 3's state; each invalidation must
  // wait out the in-flight (re-)evaluation and trigger a fresh one, so the
  // final commit sees the value after the SECOND write.
  ThreadPool pool(4);
  AsyncPipelineBackend backend(&pool, /*reorder_window=*/4);
  EventSimulator sim;
  sim.set_backend(&backend);
  double state = 1.0;  // owned by key 3; protected by the notify protocol
  double d_saw = 0.0;
  sim.ScheduleCompute(
      1.0, /*worker_key=*/0, [] { return 0.0; },
      [&](double) {
        sim.NotifyStateWrite(3);
        state = 10.0;
      });
  sim.ScheduleCompute(
      2.0, /*worker_key=*/1, [] { return 0.0; },
      [&](double) {
        sim.NotifyStateWrite(3);
        state = 20.0;
      });
  sim.ScheduleCompute(
      3.0, /*worker_key=*/2, [] { return 0.0; }, [](double) {});
  sim.ScheduleCompute(
      4.0, /*worker_key=*/3,
      [&state] { return state; },
      [&](double value) { d_saw = value; });
  sim.RunUntilIdle();
  EXPECT_DOUBLE_EQ(d_saw, 20.0);
  EXPECT_EQ(backend.stats().computes_redispatched, 2);
  EXPECT_EQ(backend.stats().computes_recomputed, 0);
}

TEST(AsyncPipelineBackendTest, DrainComputesOrCancelsUnstartedEntries) {
  // The pool's only thread is held busy for the whole run, so no window
  // entry ever starts off-thread: the drain must compute each head itself,
  // and A's invalidation of B must cancel B's unstarted evaluation instead
  // of waiting for it — B's state is read once, after A's write.
  ThreadPool pool(1);
  std::promise<void> release;
  pool.Submit([released = release.get_future().share()] { released.wait(); });
  AsyncPipelineBackend backend(&pool, /*reorder_window=*/4);
  EventSimulator sim;
  sim.set_backend(&backend);
  const std::thread::id simulator_thread = std::this_thread::get_id();
  bool all_on_simulator_thread = true;
  double b_state = 1.0;
  std::vector<double> b_reads;
  sim.ScheduleCompute(
      1.0, /*worker_key=*/0,
      [&] {
        all_on_simulator_thread &=
            std::this_thread::get_id() == simulator_thread;
        return 0.0;
      },
      [&](double) {
        sim.NotifyStateWrite(1);
        b_state = 100.0;
      });
  sim.ScheduleCompute(
      2.0, /*worker_key=*/1,
      [&] {
        all_on_simulator_thread &=
            std::this_thread::get_id() == simulator_thread;
        b_reads.push_back(b_state);
        return b_state;
      },
      [](double) {});
  sim.RunUntilIdle();
  release.set_value();
  pool.Wait();  // the stale pooled tasks find their jobs settled
  EXPECT_TRUE(all_on_simulator_thread);
  EXPECT_EQ(b_reads, (std::vector<double>{100.0}));
  EXPECT_EQ(backend.stats().computes_speculated, 2);
  EXPECT_EQ(backend.stats().computes_redispatched, 1);
  EXPECT_EQ(backend.stats().computes_recomputed, 0);
}

TEST(AsyncPipelineBackendTest, SameKeyChainsNeverOverlapInTheWindow) {
  // Three chained computes on one key (each reads what the previous commit
  // wrote) with a distinct-key event interleaved: the window must never
  // evaluate a same-key successor before its predecessor commits, so the
  // chain sees 0, 1, 2 exactly like serial dispatch.
  ThreadPool pool(4);
  AsyncPipelineBackend backend(&pool, /*reorder_window=*/4);
  EventSimulator sim;
  sim.set_backend(&backend);
  double state = 0.0;  // owned by key 0; only key-0 halves touch it
  std::vector<double> seen;
  for (int i = 0; i < 3; ++i) {
    sim.ScheduleCompute(
        /*time=*/1.0 + i, /*worker_key=*/0, [&state] { return state; },
        [&sim, &state, &seen](double value) {
          seen.push_back(value);
          sim.NotifyStateWrite(0);
          state += 1.0;
        });
  }
  sim.ScheduleCompute(
      1.5, /*worker_key=*/1, [] { return -1.0; },
      [&seen](double value) { seen.push_back(value); });
  sim.RunUntilIdle();
  EXPECT_EQ(seen, (std::vector<double>{0.0, -1.0, 1.0, 2.0}));
  EXPECT_EQ(backend.stats().computes_recomputed, 0);
}

// --- cross-backend bit-identity on a chained mini workload ------------------

// Per-key compute chains whose commits couple neighboring keys (like
// consensus pulls) with skewed per-key sleep times: the event trace must be
// identical across serial dispatch and every async window size.
std::vector<double> RunChainedWorkload(net::ExecutionBackend* backend) {
  EventSimulator sim;
  sim.set_backend(backend);
  std::vector<double> state(4, 1.0);
  std::vector<double> trace;
  std::function<void(int, int)> chain = [&](int key, int remaining) {
    if (remaining == 0) return;
    sim.ScheduleComputeAfter(
        0.5 + 0.25 * key, key,
        [&state, key] {
          std::this_thread::sleep_for(std::chrono::microseconds(
              key == 1 ? 500 : 50));  // key 1 is the straggler
          return state[static_cast<size_t>(key)] * 3.0;
        },
        [&, key, remaining](double value) {
          trace.push_back(value);
          const int peer = (key + 1) % 4;
          sim.NotifyStateWrite(key);
          sim.NotifyStateWrite(peer);
          state[static_cast<size_t>(key)] =
              0.5 * (value + state[static_cast<size_t>(peer)]);
          state[static_cast<size_t>(peer)] += 0.125;
          chain(key, remaining - 1);
        });
  };
  for (int key = 0; key < 4; ++key) chain(key, 6);
  sim.RunUntilIdle();
  return trace;
}

TEST(ExecutionBackendDeterminismTest, AllBackendsProduceTheSerialTrace) {
  const std::vector<double> reference = RunChainedWorkload(nullptr);
  ThreadPool pool(4);
  std::vector<std::unique_ptr<net::ExecutionBackend>> backends;
  backends.push_back(std::make_unique<SerialBackend>());
  for (const int window : {0, 1, 4}) {
    backends.push_back(std::make_unique<AsyncPipelineBackend>(&pool, window));
  }
  for (const auto& backend : backends) {
    const std::vector<double> trace = RunChainedWorkload(backend.get());
    ASSERT_EQ(trace.size(), reference.size()) << backend->name();
    for (size_t i = 0; i < trace.size(); ++i) {
      EXPECT_EQ(trace[i], reference[i]) << backend->name() << "[" << i << "]";
    }
    EXPECT_EQ(backend->stats().computes_recomputed, 0) << backend->name();
  }
}

}  // namespace
}  // namespace netmax::core
