// Bit-exact checkpoint/restore (core/checkpoint.h): for every registered
// algorithm and every execution backend, a run that (a) checkpoints mid-run
// and keeps going, or (b) restores from that checkpoint and finishes, must
// produce a RunResult bit-identical to the uninterrupted run. Also covers the
// wire-format error paths: truncation, corruption, fingerprint mismatches,
// and the file round trip.

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "algos/registry.h"
#include "core/checkpoint.h"
#include "core/execution_backend.h"
#include "core/experiment.h"
#include "net/fault_schedule.h"

namespace netmax {
namespace {

using core::ExecutionBackendKind;
using core::ExperimentConfig;
using core::NetworkScenario;
using core::RunResult;

// Lean but representative: heterogeneous static network, monitor ticks, an
// accuracy series, and enough iterations that the checkpoint lands between
// events with a non-trivial queue.
ExperimentConfig BaseConfig() {
  ExperimentConfig config;
  config.dataset.name = "checkpoint";
  config.dataset.num_classes = 4;
  config.dataset.feature_dim = 12;
  config.dataset.num_train = 256;
  config.dataset.num_test = 64;
  config.dataset.class_separation = 4.0;
  config.hidden_layers = {12};
  config.num_workers = 8;
  config.batch_size = 16;
  config.max_epochs = 2;
  config.network = NetworkScenario::kHeterogeneousStatic;
  config.monitor_period_seconds = 5.0;
  config.generator.outer_rounds = 4;
  config.generator.inner_rounds = 4;
  config.eval_every_epochs = 1;
  config.seed = 13;
  config.threads = 1;
  return config;
}

RunResult MustRun(const std::string& name, const ExperimentConfig& config) {
  auto algorithm = algos::MakeAlgorithm(name);
  NETMAX_CHECK_OK(algorithm.status());
  auto result = (*algorithm)->Run(config);
  NETMAX_CHECK_OK(result.status());
  return std::move(result.value());
}

Status TryRun(const std::string& name, const ExperimentConfig& config) {
  auto algorithm = algos::MakeAlgorithm(name);
  NETMAX_CHECK_OK(algorithm.status());
  return (*algorithm)->Run(config).status();
}

void ExpectSeriesIdentical(const ml::Series& a, const ml::Series& b,
                           const std::string& label) {
  ASSERT_EQ(a.size(), b.size()) << label;
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].x, b[i].x) << label << "[" << i << "].x";
    EXPECT_EQ(a[i].y, b[i].y) << label << "[" << i << "].y";
  }
}

// The simulation-output subset of RunResult (exec-stat counters depend on the
// backend by design and are excluded, as in parallel_determinism_test).
void ExpectBitIdentical(const RunResult& a, const RunResult& b) {
  ExpectSeriesIdentical(a.loss_vs_time, b.loss_vs_time, "loss_vs_time");
  ExpectSeriesIdentical(a.loss_vs_epoch, b.loss_vs_epoch, "loss_vs_epoch");
  ExpectSeriesIdentical(a.accuracy_vs_time, b.accuracy_vs_time,
                        "accuracy_vs_time");
  EXPECT_EQ(a.final_train_loss, b.final_train_loss);
  EXPECT_EQ(a.final_accuracy, b.final_accuracy);
  EXPECT_EQ(a.total_virtual_seconds, b.total_virtual_seconds);
  EXPECT_EQ(a.avg_epoch_cost.compute_seconds, b.avg_epoch_cost.compute_seconds);
  EXPECT_EQ(a.avg_epoch_cost.communication_seconds,
            b.avg_epoch_cost.communication_seconds);
  EXPECT_EQ(a.total_local_iterations, b.total_local_iterations);
  EXPECT_EQ(a.consensus_distance, b.consensus_distance);
  EXPECT_EQ(a.policies_generated, b.policies_generated);
}

class CheckpointRoundTrip : public ::testing::TestWithParam<std::string> {};

// The acceptance grid: for each algorithm, each backend's checkpointed run
// and its restored continuation must match the uninterrupted serial
// reference bit for bit.
TEST_P(CheckpointRoundTrip, AllBackendsBitIdentical) {
  const ExperimentConfig base = BaseConfig();
  const RunResult reference = MustRun(GetParam(), base);
  ASSERT_GT(reference.total_virtual_seconds, 0.0);
  const double checkpoint_at = 0.5 * reference.total_virtual_seconds;

  struct BackendPoint {
    ExecutionBackendKind backend;
    int threads;
    int reorder_window;
  };
  const BackendPoint points[] = {
      {ExecutionBackendKind::kSerial, 1, 0},
      {ExecutionBackendKind::kAsyncPipeline, 8, 0},
      {ExecutionBackendKind::kAsyncPipeline, 8, 4},
  };
  for (const BackendPoint& point : points) {
    SCOPED_TRACE(static_cast<int>(point.backend));
    std::vector<uint8_t> checkpoint;
    ExperimentConfig with_checkpoint = base;
    with_checkpoint.backend = point.backend;
    with_checkpoint.threads = point.threads;
    with_checkpoint.reorder_window = point.reorder_window;
    with_checkpoint.checkpoint_at_seconds = checkpoint_at;
    with_checkpoint.checkpoint_sink = &checkpoint;
    const RunResult checkpointed = MustRun(GetParam(), with_checkpoint);
    ExpectBitIdentical(reference, checkpointed);
    ASSERT_FALSE(checkpoint.empty());

    ExperimentConfig resumed = base;
    resumed.backend = point.backend;
    resumed.threads = point.threads;
    resumed.reorder_window = point.reorder_window;
    resumed.restore_source = &checkpoint;
    const RunResult restored = MustRun(GetParam(), resumed);
    ExpectBitIdentical(reference, restored);
  }
}

// A checkpoint written by the serial backend restores bit-identically on the
// pooled backend: the bytes carry no execution-strategy state.
TEST_P(CheckpointRoundTrip, CheckpointsAreBackendPortable) {
  const ExperimentConfig base = BaseConfig();
  const RunResult reference = MustRun(GetParam(), base);
  std::vector<uint8_t> checkpoint;
  ExperimentConfig with_checkpoint = base;
  with_checkpoint.checkpoint_at_seconds =
      0.5 * reference.total_virtual_seconds;
  with_checkpoint.checkpoint_sink = &checkpoint;
  MustRun(GetParam(), with_checkpoint);

  ExperimentConfig resumed = base;
  resumed.backend = ExecutionBackendKind::kAsyncPipeline;
  resumed.threads = 8;
  resumed.reorder_window = 4;
  resumed.restore_source = &checkpoint;
  ExpectBitIdentical(reference, MustRun(GetParam(), resumed));
}

// Cross-config restore: a checkpoint written by the pooled backend under a
// full thread pool with the auto reorder window restores bit-identically
// under a different pooled config (two threads, window 1) and back under
// serial. The checkpoint fingerprint covers the simulation config only —
// backend, threads and window are real-machine choices — so both restores
// must accept the bytes and finish on the reference's bits.
TEST_P(CheckpointRoundTrip, SpeculativeCheckpointRestoresUnderProcessBackend) {
  const ExperimentConfig base = BaseConfig();
  const RunResult reference = MustRun(GetParam(), base);
  ASSERT_GT(reference.total_virtual_seconds, 0.0);

  std::vector<uint8_t> checkpoint;
  ExperimentConfig with_checkpoint = base;
  with_checkpoint.backend = ExecutionBackendKind::kAsyncPipeline;
  with_checkpoint.threads = 8;
  with_checkpoint.reorder_window = 0;  // auto: 2 x threads
  with_checkpoint.checkpoint_at_seconds =
      0.5 * reference.total_virtual_seconds;
  with_checkpoint.checkpoint_sink = &checkpoint;
  MustRun(GetParam(), with_checkpoint);
  ASSERT_FALSE(checkpoint.empty());

  ExperimentConfig under_small_pool = base;
  under_small_pool.backend = ExecutionBackendKind::kAsyncPipeline;
  under_small_pool.threads = 2;
  under_small_pool.reorder_window = 1;
  under_small_pool.restore_source = &checkpoint;
  const RunResult pool_restored = MustRun(GetParam(), under_small_pool);
  EXPECT_EQ(pool_restored.backend, "async");
  ExpectBitIdentical(reference, pool_restored);

  ExperimentConfig under_serial = base;
  under_serial.restore_source = &checkpoint;
  ExpectBitIdentical(reference, MustRun(GetParam(), under_serial));
}

// The crash-recovery contract: a run killed by a crash@T fault, restored
// from the newest periodic (checkpoint_every_seconds) checkpoint, finishes
// bit-identical to the run that never crashed — for every algorithm. The
// uninterrupted reference runs the same cadence (ticks are virtual-time
// events, so the reference must consume them too), and the cadence itself
// must be transparent: the uninterrupted cadenced run matches the plain run.
TEST_P(CheckpointRoundTrip, CrashRestoreFromPeriodicCheckpoint) {
  const ExperimentConfig base = BaseConfig();
  const RunResult plain = MustRun(GetParam(), base);
  ASSERT_GT(plain.total_virtual_seconds, 0.0);
  const double cadence = 0.2 * plain.total_virtual_seconds;
  const double crash_at = 0.5 * plain.total_virtual_seconds;

  // Uninterrupted reference, cadence armed. The cadence is transparent to
  // training — same losses, same iterations — but it owns its tick events:
  // the final tick can stretch total_virtual_seconds past the last real
  // event, so the clock is compared only between the cadenced runs below.
  std::vector<uint8_t> reference_sink;
  ExperimentConfig uninterrupted = base;
  uninterrupted.checkpoint_every_seconds = cadence;
  uninterrupted.checkpoint_sink = &reference_sink;
  const RunResult want = MustRun(GetParam(), uninterrupted);
  ExpectSeriesIdentical(plain.loss_vs_time, want.loss_vs_time,
                        "loss_vs_time");
  ExpectSeriesIdentical(plain.loss_vs_epoch, want.loss_vs_epoch,
                        "loss_vs_epoch");
  EXPECT_EQ(plain.final_train_loss, want.final_train_loss);
  EXPECT_EQ(plain.total_local_iterations, want.total_local_iterations);
  ASSERT_FALSE(reference_sink.empty());

  // Crashed run: halts at crash_at; the sink keeps the newest periodic
  // checkpoint written before the crash.
  std::vector<uint8_t> crash_sink;
  ExperimentConfig crashed = uninterrupted;
  net::FaultEvent crash;
  crash.kind = net::FaultKind::kCrash;
  crash.time = crash_at;
  crashed.faults.push_back(crash);
  crashed.checkpoint_sink = &crash_sink;
  const RunResult halted = MustRun(GetParam(), crashed);
  EXPECT_LE(halted.total_virtual_seconds, crash_at);
  ASSERT_FALSE(crash_sink.empty());

  // Restore into the no-crash config and finish: the crash is absent from
  // the checkpoint's fingerprint and its pending event was filtered from
  // the serialized queue, so the continuation must reproduce the
  // uninterrupted bits — fault counters included.
  std::vector<uint8_t> restored_sink;
  ExperimentConfig restored = uninterrupted;
  restored.checkpoint_sink = &restored_sink;
  restored.restore_source = &crash_sink;
  const RunResult got = MustRun(GetParam(), restored);
  ExpectBitIdentical(want, got);
  EXPECT_EQ(want.faults_injected, got.faults_injected);
  EXPECT_EQ(want.rounds_degraded, got.rounds_degraded);
  EXPECT_EQ(want.peers_timed_out, got.peers_timed_out);
}

INSTANTIATE_TEST_SUITE_P(AllAlgorithms, CheckpointRoundTrip,
                         ::testing::ValuesIn(algos::AlgorithmNames()));

// --- wire-format and plumbing error paths (one algorithm suffices) ---

std::vector<uint8_t> MakeCheckpoint(const ExperimentConfig& base,
                                    const std::string& name = "gossip") {
  const RunResult reference = MustRun(name, base);
  std::vector<uint8_t> checkpoint;
  ExperimentConfig with_checkpoint = base;
  with_checkpoint.checkpoint_at_seconds =
      0.5 * reference.total_virtual_seconds;
  with_checkpoint.checkpoint_sink = &checkpoint;
  MustRun(name, with_checkpoint);
  NETMAX_CHECK(!checkpoint.empty());
  return checkpoint;
}

TEST(CheckpointErrors, TruncatedBytesAreRejected) {
  const ExperimentConfig base = BaseConfig();
  std::vector<uint8_t> checkpoint = MakeCheckpoint(base);
  checkpoint.resize(checkpoint.size() / 2);
  ExperimentConfig resumed = base;
  resumed.restore_source = &checkpoint;
  const Status status = TryRun("gossip", resumed);
  EXPECT_FALSE(status.ok());
}

TEST(CheckpointErrors, BadMagicIsRejected) {
  const ExperimentConfig base = BaseConfig();
  std::vector<uint8_t> checkpoint = MakeCheckpoint(base);
  checkpoint[0] ^= 0xFF;
  ExperimentConfig resumed = base;
  resumed.restore_source = &checkpoint;
  const Status status = TryRun("gossip", resumed);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("magic"), std::string::npos);
}

TEST(CheckpointErrors, TrailingGarbageIsRejected) {
  const ExperimentConfig base = BaseConfig();
  std::vector<uint8_t> checkpoint = MakeCheckpoint(base);
  checkpoint.push_back(0x00);
  ExperimentConfig resumed = base;
  resumed.restore_source = &checkpoint;
  const Status status = TryRun("gossip", resumed);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
}

TEST(CheckpointErrors, AlgorithmFingerprintMismatch) {
  const ExperimentConfig base = BaseConfig();
  const std::vector<uint8_t> checkpoint = MakeCheckpoint(base, "gossip");
  ExperimentConfig resumed = base;
  resumed.restore_source = &checkpoint;
  const Status status = TryRun("adpsgd", resumed);
  EXPECT_EQ(status.code(), StatusCode::kFailedPrecondition);
}

TEST(CheckpointErrors, ConfigFingerprintMismatches) {
  const ExperimentConfig base = BaseConfig();
  const std::vector<uint8_t> checkpoint = MakeCheckpoint(base);

  ExperimentConfig wrong_seed = base;
  wrong_seed.seed = base.seed + 1;
  wrong_seed.restore_source = &checkpoint;
  EXPECT_EQ(TryRun("gossip", wrong_seed).code(),
            StatusCode::kFailedPrecondition);

  ExperimentConfig wrong_workers = base;
  wrong_workers.num_workers = base.num_workers / 2;
  wrong_workers.restore_source = &checkpoint;
  EXPECT_EQ(TryRun("gossip", wrong_workers).code(),
            StatusCode::kFailedPrecondition);

  ExperimentConfig wrong_epochs = base;
  wrong_epochs.max_epochs = base.max_epochs + 1;
  wrong_epochs.restore_source = &checkpoint;
  EXPECT_EQ(TryRun("gossip", wrong_epochs).code(),
            StatusCode::kFailedPrecondition);
}

TEST(CheckpointErrors, RestorePathAndSourceAreMutuallyExclusive) {
  const ExperimentConfig base = BaseConfig();
  const std::vector<uint8_t> checkpoint = MakeCheckpoint(base);
  ExperimentConfig resumed = base;
  resumed.restore_source = &checkpoint;
  resumed.restore_path = "/nonexistent/also-set";
  EXPECT_FALSE(TryRun("gossip", resumed).ok());
}

TEST(CheckpointFiles, FileRoundTripRestoresBitIdentically) {
  const ExperimentConfig base = BaseConfig();
  const RunResult reference = MustRun("gossip", base);
  const std::string path =
      ::testing::TempDir() + "/netmax_checkpoint_test.ckpt";

  ExperimentConfig with_checkpoint = base;
  with_checkpoint.checkpoint_at_seconds =
      0.5 * reference.total_virtual_seconds;
  with_checkpoint.checkpoint_path = path;
  ExpectBitIdentical(reference, MustRun("gossip", with_checkpoint));

  ExperimentConfig resumed = base;
  resumed.restore_path = path;
  ExpectBitIdentical(reference, MustRun("gossip", resumed));
  std::remove(path.c_str());
}

TEST(CheckpointFiles, PeriodicCadenceRotatesHistory) {
  // The periodic cadence keeps `<path>` pointing at the newest snapshot —
  // what --restore-path naturally resumes from after a crash — plus a
  // `<path>.t<k>` history trimmed to checkpoint_retain files.
  const ExperimentConfig base = BaseConfig();
  const RunResult reference = MustRun("gossip", base);
  const std::string path =
      ::testing::TempDir() + "/netmax_cadence_test.ckpt";

  ExperimentConfig cadenced = base;
  cadenced.checkpoint_every_seconds = 0.15 * reference.total_virtual_seconds;
  cadenced.checkpoint_path = path;
  cadenced.checkpoint_retain = 2;
  const RunResult want = MustRun("gossip", cadenced);
  // Transparent to training (the tick chain may stretch the clock itself).
  ExpectSeriesIdentical(reference.loss_vs_time, want.loss_vs_time,
                        "loss_vs_time");
  EXPECT_EQ(reference.final_train_loss, want.final_train_loss);

  auto newest = core::ReadCheckpointFile(path);
  NETMAX_EXPECT_OK(newest);
  int kept = 0;
  std::vector<uint8_t> newest_history;
  for (int tick = 1; tick <= 32; ++tick) {
    auto bytes = core::ReadCheckpointFile(path + ".t" + std::to_string(tick));
    if (!bytes.ok()) continue;
    ++kept;
    newest_history = *bytes;
    std::remove((path + ".t" + std::to_string(tick)).c_str());
  }
  // ~6 ticks fired; only the retained tail survives, and `<path>` holds the
  // same bytes as the newest history file.
  EXPECT_GT(kept, 0);
  EXPECT_LE(kept, cadenced.checkpoint_retain);
  EXPECT_EQ(*newest, newest_history);
  std::remove(path.c_str());

  // The newest periodic snapshot restores and finishes bit-identically. The
  // resumed run keeps the cadence armed (into a sink, not the file): the
  // tick chain consumes simulator sequence numbers, so dropping it would
  // diverge from the uninterrupted cadenced run.
  std::vector<uint8_t> snapshot = *newest;
  std::vector<uint8_t> resumed_sink;
  ExperimentConfig resumed = cadenced;
  resumed.checkpoint_path.clear();
  resumed.checkpoint_sink = &resumed_sink;
  resumed.restore_source = &snapshot;
  ExpectBitIdentical(want, MustRun("gossip", resumed));
}

TEST(CheckpointFiles, MissingFileIsNotFound) {
  ExperimentConfig resumed = BaseConfig();
  resumed.restore_path = "/nonexistent/netmax.ckpt";
  EXPECT_EQ(TryRun("gossip", resumed).code(), StatusCode::kNotFound);
}

TEST(CheckpointFiles, WriteToUnwritablePathSurfacesThroughRunStatus) {
  // An armed checkpoint that cannot write its file must fail the run (via
  // Harness::checkpoint_status), not crash it or silently drop the bytes.
  ExperimentConfig config = BaseConfig();
  config.checkpoint_at_seconds = 1.0;
  config.checkpoint_path = "/nonexistent-dir/netmax.ckpt";
  const Status status = TryRun("gossip", config);
  EXPECT_FALSE(status.ok());
}

TEST(CheckpointFiles, RawFileHelpersRoundTrip) {
  const std::vector<uint8_t> bytes = {0x01, 0x02, 0xFF, 0x00, 0x7E};
  const std::string path = ::testing::TempDir() + "/netmax_raw_bytes.bin";
  NETMAX_EXPECT_OK(core::WriteCheckpointFile(path, bytes));
  auto read_back = core::ReadCheckpointFile(path);
  NETMAX_EXPECT_OK(read_back);
  EXPECT_EQ(*read_back, bytes);
  std::remove(path.c_str());
}

TEST(CheckpointArming, CheckpointPastEndOfRunFailsLoudly) {
  // A checkpoint time beyond the end of training would produce a dead
  // checkpoint and (when past the last event) drag the virtual clock with
  // it; the harness fails the run instead of doing either silently.
  std::vector<uint8_t> checkpoint;
  ExperimentConfig late = BaseConfig();
  late.checkpoint_at_seconds = 1e6;  // beyond the run's end, below the cap
  late.checkpoint_sink = &checkpoint;
  const Status status = TryRun("gossip", late);
  EXPECT_EQ(status.code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(status.message().find("past the end"), std::string::npos);
  EXPECT_TRUE(checkpoint.empty());
}

}  // namespace
}  // namespace netmax
