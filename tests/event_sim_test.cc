#include "net/event_sim.h"

#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/thread_pool.h"
#include "core/execution_backend.h"

namespace netmax::net {
namespace {

TEST(EventSimTest, RunsEventsInTimeOrder) {
  EventSimulator sim;
  std::vector<int> order;
  sim.ScheduleAt(3.0, [&] { order.push_back(3); });
  sim.ScheduleAt(1.0, [&] { order.push_back(1); });
  sim.ScheduleAt(2.0, [&] { order.push_back(2); });
  sim.RunUntilIdle();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(sim.Now(), 3.0);
}

TEST(EventSimTest, TiesBrokenByInsertionOrder) {
  EventSimulator sim;
  std::vector<int> order;
  sim.ScheduleAt(1.0, [&] { order.push_back(0); });
  sim.ScheduleAt(1.0, [&] { order.push_back(1); });
  sim.ScheduleAt(1.0, [&] { order.push_back(2); });
  sim.RunUntilIdle();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

TEST(EventSimTest, ScheduleAfterIsRelative) {
  EventSimulator sim;
  double fired_at = -1.0;
  sim.ScheduleAt(5.0, [&] {
    sim.ScheduleAfter(2.5, [&] { fired_at = sim.Now(); });
  });
  sim.RunUntilIdle();
  EXPECT_DOUBLE_EQ(fired_at, 7.5);
}

TEST(EventSimTest, CallbackMaySpawnEvents) {
  EventSimulator sim;
  int count = 0;
  // A self-perpetuating chain of 10 events.
  std::function<void()> tick = [&] {
    ++count;
    if (count < 10) sim.ScheduleAfter(1.0, tick);
  };
  sim.ScheduleAt(0.0, tick);
  sim.RunUntilIdle();
  EXPECT_EQ(count, 10);
  EXPECT_DOUBLE_EQ(sim.Now(), 9.0);
}

TEST(EventSimTest, RunUntilStopsAtLimit) {
  EventSimulator sim;
  std::vector<int> fired;
  sim.ScheduleAt(1.0, [&] { fired.push_back(1); });
  sim.ScheduleAt(2.0, [&] { fired.push_back(2); });
  sim.ScheduleAt(3.0, [&] { fired.push_back(3); });
  const int64_t processed = sim.RunUntil(2.0);
  EXPECT_EQ(processed, 2);
  EXPECT_EQ(fired, (std::vector<int>{1, 2}));
  EXPECT_DOUBLE_EQ(sim.Now(), 2.0);
  EXPECT_FALSE(sim.empty());
  sim.RunUntilIdle();
  EXPECT_EQ(fired, (std::vector<int>{1, 2, 3}));
}

TEST(EventSimTest, RunUntilAdvancesClockWhenIdle) {
  EventSimulator sim;
  sim.RunUntil(42.0);
  EXPECT_DOUBLE_EQ(sim.Now(), 42.0);
}

TEST(EventSimTest, StepReturnsFalseWhenEmpty) {
  EventSimulator sim;
  EXPECT_FALSE(sim.Step());
  EXPECT_TRUE(sim.empty());
}

TEST(EventSimTest, CountsProcessedEvents) {
  EventSimulator sim;
  for (int i = 0; i < 5; ++i) sim.ScheduleAt(static_cast<double>(i), [] {});
  sim.RunUntilIdle();
  EXPECT_EQ(sim.num_events_processed(), 5);
}

TEST(EventSimTest, SchedulingIntoThePastDies) {
  EventSimulator sim;
  sim.ScheduleAt(5.0, [] {});
  sim.RunUntilIdle();
  EXPECT_DEATH({ sim.ScheduleAt(1.0, [] {}); }, "past");
}

TEST(EventSimTest, NegativeDelayDies) {
  EventSimulator sim;
  EXPECT_DEATH({ sim.ScheduleAfter(-1.0, [] {}); }, "Check failed");
}

// --- two-phase compute/commit events ----------------------------------------

TEST(ComputeEventTest, SerialDispatchRunsComputeThenCommit) {
  EventSimulator sim;
  std::vector<std::pair<char, double>> trace;
  sim.ScheduleCompute(
      1.0, /*worker_key=*/0,
      [&] {
        trace.push_back({'c', 0.0});
        return 42.0;
      },
      [&](double value) { trace.push_back({'k', value}); });
  sim.RunUntilIdle();
  ASSERT_EQ(trace.size(), 2u);
  EXPECT_EQ(trace[0].first, 'c');
  EXPECT_EQ(trace[1].first, 'k');
  EXPECT_DOUBLE_EQ(trace[1].second, 42.0);
}

TEST(ComputeEventTest, CommitsRunInTimeSequenceOrderOnThePool) {
  ThreadPool pool(4);
  EventSimulator sim;
  core::AsyncPipelineBackend backend(&pool, /*reorder_window=*/0);
  sim.set_backend(&backend);
  std::vector<int> commit_order;
  for (int key = 0; key < 8; ++key) {
    sim.ScheduleCompute(
        /*time=*/static_cast<double>(8 - key), key,
        [key] { return static_cast<double>(key); },
        [&commit_order](double value) {
          commit_order.push_back(static_cast<int>(value));
        });
  }
  sim.RunUntilIdle();
  // Scheduled in reverse time order: commits must come back time-sorted.
  EXPECT_EQ(commit_order, (std::vector<int>{7, 6, 5, 4, 3, 2, 1, 0}));
  EXPECT_GT(sim.computes_speculated(), 0);
}

TEST(ComputeEventTest, SameKeyEventsSeeEachOthersCommitsInOrder) {
  // Adversarial interleaving: three compute events on the SAME worker key,
  // plus a distinct-key event in between. Each same-key compute reads state
  // its predecessor's commit wrote, so any speculation across the chain
  // would return stale values.
  ThreadPool pool(4);
  EventSimulator sim;
  core::AsyncPipelineBackend backend(&pool, /*reorder_window=*/0);
  sim.set_backend(&backend);
  double state = 0.0;  // owned by key 0
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
  // Serial semantics: key-0 computes observe 0, then 1, then 2 commits.
  EXPECT_EQ(seen, (std::vector<double>{0.0, -1.0, 1.0, 2.0}));
}

TEST(ComputeEventTest, NotifyStateWriteInvalidatesStaleSpeculation) {
  // Event A (earlier) commits a write into the state event B's compute
  // reads. Both are speculated in one window; B's speculation is stale and
  // must be discarded and re-dispatched onto the pool after A's commit,
  // observing A's write.
  ThreadPool pool(4);
  EventSimulator sim;
  core::AsyncPipelineBackend backend(&pool, /*reorder_window=*/0);
  sim.set_backend(&backend);
  double shared_b_state = 1.0;  // owned by key 1
  double b_saw = 0.0;
  sim.ScheduleCompute(
      1.0, /*worker_key=*/0, [] { return 0.0; },
      [&](double) {
        sim.NotifyStateWrite(1);
        shared_b_state = 100.0;
      });
  sim.ScheduleCompute(
      2.0, /*worker_key=*/1, [&] { return shared_b_state; },
      [&](double value) { b_saw = value; });
  sim.RunUntilIdle();
  EXPECT_DOUBLE_EQ(b_saw, 100.0);
  EXPECT_EQ(sim.computes_speculated(), 2);
  EXPECT_EQ(sim.computes_redispatched(), 1);
  EXPECT_EQ(sim.computes_recomputed(), 0);
}

TEST(ComputeEventTest, RedispatchedComputeInvalidatedAgainStaysOrdered) {
  // Double invalidation: two earlier commits both write the state event D's
  // compute reads. The first invalidation re-dispatches D's compute (reading
  // the first write); the second invalidation must wait out that in-flight
  // recompute, discard it, and re-dispatch again — D's commit sees exactly
  // the value a serial run would produce, after the SECOND write.
  ThreadPool pool(4);
  EventSimulator sim;
  core::AsyncPipelineBackend backend(&pool, /*reorder_window=*/0);
  sim.set_backend(&backend);
  double state = 1.0;  // owned by key 3
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
      4.0, /*worker_key=*/3, [&] { return state; },
      [&](double value) { d_saw = value; });
  sim.RunUntilIdle();
  EXPECT_DOUBLE_EQ(d_saw, 20.0);
  EXPECT_EQ(sim.computes_speculated(), 4);
  EXPECT_EQ(sim.computes_redispatched(), 2);  // once per invalidation
  EXPECT_EQ(sim.computes_recomputed(), 0);
}

TEST(ComputeEventTest, RedispatchWithinOneHandlerReadsPostHandlerState) {
  // The notify-before-write contract: a commit notifies BOTH its writes
  // before performing them, and the single re-dispatch (flushed after the
  // handler returns) must observe both — not the state mid-handler.
  ThreadPool pool(4);
  EventSimulator sim;
  core::AsyncPipelineBackend backend(&pool, /*reorder_window=*/0);
  sim.set_backend(&backend);
  double b_state = 1.0;  // owned by key 1
  double b_saw = 0.0;
  sim.ScheduleCompute(
      1.0, /*worker_key=*/0, [] { return 0.0; },
      [&](double) {
        sim.NotifyStateWrite(1);
        sim.NotifyStateWrite(1);  // duplicate notify in one handler
        b_state = 5.0;
        b_state += 2.0;
      });
  sim.ScheduleCompute(
      2.0, /*worker_key=*/1, [&] { return b_state; },
      [&](double value) { b_saw = value; });
  sim.RunUntilIdle();
  EXPECT_DOUBLE_EQ(b_saw, 7.0);
  EXPECT_EQ(sim.computes_redispatched(), 1);  // deduplicated
  EXPECT_EQ(sim.computes_recomputed(), 0);
}

TEST(ComputeEventTest, PlainEventsInterleaveAtExactPositions) {
  ThreadPool pool(2);
  EventSimulator sim;
  core::AsyncPipelineBackend backend(&pool, /*reorder_window=*/0);
  sim.set_backend(&backend);
  std::vector<int> order;
  sim.ScheduleCompute(
      1.0, 0, [] { return 1.0; },
      [&](double v) { order.push_back(static_cast<int>(v)); });
  sim.ScheduleAt(1.5, [&] { order.push_back(15); });
  sim.ScheduleCompute(
      2.0, 1, [] { return 2.0; },
      [&](double v) { order.push_back(static_cast<int>(v)); });
  sim.ScheduleAt(2.5, [&] { order.push_back(25); });
  sim.RunUntilIdle();
  EXPECT_EQ(order, (std::vector<int>{1, 15, 2, 25}));
}

TEST(ComputeEventTest, CommitMayScheduleEarlierThanLaterFrontierMembers) {
  // A's commit (t=1) schedules a plain event at t=1.5 that writes state read
  // by B's compute (t=2), while B is already speculated. The new event must
  // run before B's commit and invalidate B's speculation.
  ThreadPool pool(4);
  EventSimulator sim;
  core::AsyncPipelineBackend backend(&pool, /*reorder_window=*/0);
  sim.set_backend(&backend);
  double b_state = 1.0;
  double b_saw = 0.0;
  sim.ScheduleCompute(
      1.0, 0, [] { return 0.0; },
      [&](double) {
        sim.ScheduleAfter(0.5, [&] {
          sim.NotifyStateWrite(1);
          b_state = 7.0;
        });
      });
  sim.ScheduleCompute(
      2.0, 1, [&] { return b_state; }, [&](double value) { b_saw = value; });
  sim.RunUntilIdle();
  EXPECT_DOUBLE_EQ(b_saw, 7.0);
}

TEST(ComputeEventTest, ChainedComputeEventsMatchSerialBits) {
  // A mini workload in both modes: per-key chains whose commits couple
  // neighboring keys (like consensus pulls). The event trace must be
  // identical with and without a pool.
  const auto run = [](ExecutionBackend* backend) {
    EventSimulator sim;
    sim.set_backend(backend);
    std::vector<double> state(4, 1.0);
    std::vector<double> trace;
    std::function<void(int, int)> chain = [&](int key, int remaining) {
      if (remaining == 0) return;
      sim.ScheduleComputeAfter(
          0.5 + 0.25 * key, key, [&state, key] { return state[key] * 3.0; },
          [&, key, remaining](double value) {
            trace.push_back(value);
            const int peer = (key + 1) % 4;
            sim.NotifyStateWrite(key);
            sim.NotifyStateWrite(peer);
            state[key] = 0.5 * (value + state[peer]);
            state[peer] += 0.125;
            chain(key, remaining - 1);
          });
    };
    for (int key = 0; key < 4; ++key) chain(key, 6);
    sim.RunUntilIdle();
    return trace;
  };
  const std::vector<double> serial = run(nullptr);
  ThreadPool pool(4);
  core::AsyncPipelineBackend backend(&pool, /*reorder_window=*/0);
  const std::vector<double> parallel = run(&backend);
  ASSERT_EQ(serial.size(), parallel.size());
  for (size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i], parallel[i]) << i;
  }
}

TEST(ComputeEventTest, NegativeWorkerKeyDies) {
  EventSimulator sim;
  EXPECT_DEATH(
      {
        sim.ScheduleCompute(
            1.0, -1, [] { return 0.0; }, [](double) {});
      },
      "worker_key");
}

}  // namespace
}  // namespace netmax::net
