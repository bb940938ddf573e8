#ifndef NETMAX_BENCH_BENCH_UTIL_H_
#define NETMAX_BENCH_BENCH_UTIL_H_

// Shared plumbing for the reproduction benches. Every bench binary prints the
// rows/series of one paper table or figure: a human-readable aligned table
// plus a "#CSV <name> ... #END" block for scraping. Independent experiment
// runs execute in parallel on a thread pool, and each run additionally
// parallelizes its own per-worker compute via the two-phase simulation
// runtime (bit-identical to serial dispatch at any thread count; the machine
// budget is split between concurrent runs).

#include <functional>
#include <ostream>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/experiment.h"
#include "ml/metrics.h"

namespace netmax::bench {

// Parses bench command-line flags; call first from the main() of every
// figure/table bench (bench_micro_substrates is Google-Benchmark-driven and
// uses its own flags instead). Recognized flags:
//   --smoke              shrink experiments (corpus, epochs, policy
//                        refinement) so the bench finishes in seconds; CI
//                        runs benches this way.
//   --threads=N          per-run simulation threads (overrides
//                        ExperimentConfig::threads for every run; N=1 forces
//                        the serial dispatch, results are bit-identical
//                        either way).
//   --shards=N           intra-worker gradient shard tasks (overrides
//                        ExperimentConfig::shards; 0 = auto from the per-run
//                        thread budget, results are bit-identical for any
//                        value).
//   --backend=K          execution backend: async | serial (overrides
//                        ExperimentConfig::backend; results are
//                        bit-identical for both).
//   --reorder-window=N   async backend's in-flight compute bound (overrides
//                        ExperimentConfig::reorder_window; 0 = auto, two
//                        per thread).
//   --checkpoint-at=S    arm a checkpoint S virtual seconds into every run
//                        (overrides ExperimentConfig::checkpoint_at_seconds;
//                        pair with --checkpoint-path).
//   --checkpoint-path=P  checkpoint file prefix: each run writes
//                        P.b<batch>.<run name> (sanitized), where <batch>
//                        numbers the bench's RunAlgorithms/RunConfigs calls,
//                        so several parallel runs — and several panels using
//                        the same algorithm names — keep their checkpoints
//                        apart.
//   --restore-path=P     start every run from its P.b<batch>.<run name>
//                        checkpoint instead of from scratch.
//   --faults=SPEC        inject a deterministic worker-lifecycle fault
//                        schedule into every run (ExperimentConfig::faults).
//                        SPEC is either the scripted grammar of
//                        net::FaultSchedule::Parse — e.g.
//                        "slow@2+6x4:w1;leave@4:w2;join@9:w2" — or "seed:K"
//                        for a seed-derived churn/straggler mix
//                        (FaultSchedule::FromSeed with the run's worker
//                        count). Results stay bit-identical across backends,
//                        threads, and shards for any schedule.
//   --peer-policy=P      how engines treat a dead or stalled peer: "wait"
//                        (block and re-probe; the paper's synchronous
//                        semantics) or "timeout" (degrade after
//                        ExperimentConfig::peer_timeout_seconds and
//                        continue without the peer).
//   --checkpoint-every=S arm the periodic checkpoint cadence: every S
//                        virtual seconds each run rewrites its
//                        P.b<batch>.<run name> file (plus a rotating .t<k>
//                        history; pair with --checkpoint-path). This is the
//                        crash-recovery workflow: a crash@T fault halts the
//                        run, and --restore-path resumes from the newest
//                        periodic checkpoint bit-identically.
//   --adaptive-window    let the async backend re-size its reorder window at
//                        runtime from stall/backpressure counters
//                        (ExperimentConfig::adaptive_reorder_window; results
//                        are bit-identical either way).
//   --event-queue=K      simulator event-queue backend: vector | heap |
//                        calendar | pairing (overrides
//                        ExperimentConfig::event_queue; pop order — and
//                        therefore every result — is bit-identical for all
//                        four; they differ only in real-machine cost, see
//                        bench_scale_frontier).
//   --workers=N          simulated worker count (overrides
//                        ExperimentConfig::num_workers; N >= 2). Applied
//                        before a seed-derived --faults=seed:K schedule is
//                        resolved, so the churn mix targets the overridden
//                        fleet.
//   --topology=SPEC      gossip topology: "complete" or "hier:<cluster_size>"
//                        for the hierarchical clusters-of-clusters graph
//                        (overrides ExperimentConfig::topology; see
//                        net/topology.h).
//   --compress=SPEC      gradient compression: "none", "topk:<frac>",
//                        "int8", or "layerwise:<period>" (overrides
//                        ExperimentConfig::compress; see ml/compression.h).
//                        Results for a given spec are bit-identical across
//                        backends, threads, shards, and reorder windows.
// Every flag has a NETMAX_* environment fallback (see PrintUsage in
// bench_util.cc for the single authoritative list); an explicit flag wins
// over its environment variable.
//
// Returns true to proceed, false when --help was printed (the caller should
// exit 0), and kInvalidArgument — naming the offending flag — on an unknown
// flag or a malformed value (--threads=4x, --backend=asink), so typos don't
// silently run the full bench on the wrong configuration. Never exits or
// aborts; BenchMain below turns the outcome into the process exit code.
StatusOr<bool> InitBench(int argc, char** argv);

// The standard fallible-bench main: parses flags via InitBench, runs `body`,
// and maps the outcomes to exit codes — 0 on success (or --help), 2 with the
// error and usage on stderr for flag errors, 2 with the error on stderr when
// `body` fails. The only place a bench process turns a Status into an exit
// code:
//   int main(int argc, char** argv) {
//     return netmax::bench::BenchMain(argc, argv, [] { return netmax::Run(); });
//   }
int BenchMain(int argc, char** argv, const std::function<Status()>& body);

// The --threads/NETMAX_THREADS override, or -1 when unset.
int ThreadsOverride();

// The --shards/NETMAX_SHARDS override, or -1 when unset.
int ShardsOverride();

// The --reorder-window/NETMAX_REORDER_WINDOW override, or -1 when unset.
// (The --backend override has no accessor: benches that run experiments by
// hand pin their backends per leg — bench_scale32 compares both — and
// RunAlgorithms/RunConfigs apply the override internally.)
int ReorderWindowOverride();

// The --workers/NETMAX_WORKERS override, or -1 when unset.
int WorkersOverride();

// True once InitBench has seen --smoke (or NETMAX_SMOKE=1 in the
// environment). RunAlgorithms/RunConfigs apply the shrink to their configs
// at execution time — after any per-bench overrides — so benches only need
// this (and MaybeApplySmoke) when they run experiments by hand.
bool SmokeMode();

// Applies the smoke-mode shrink to `config` in place (no-op unless
// SmokeMode()). Exposed for benches that run experiments without
// RunAlgorithms/RunConfigs.
void MaybeApplySmoke(core::ExperimentConfig& config);

struct NamedResult {
  std::string name;
  core::RunResult result;
};

// Runs the registry algorithms named in `names` on `config`, in parallel;
// results come back in input order. Returns the first failure — an unknown
// name (kNotFound) or a failed run, prefixed with the run's name — with no
// partial results.
StatusOr<std::vector<NamedResult>> RunAlgorithms(
    const std::vector<std::string>& names,
    const core::ExperimentConfig& config);

// Runs one registry algorithm per config variant (paired by index).
StatusOr<std::vector<NamedResult>> RunConfigs(
    const std::string& algorithm,
    const std::vector<core::ExperimentConfig>& configs,
    const std::vector<std::string>& labels);

// Downsamples `series` to at most `max_points` evenly spaced points
// (always keeps the last point).
ml::Series Downsample(const ml::Series& series, int max_points);

// Prints one column per result: the chosen series downsampled onto its own
// x values. Layout: blocks of "algo, x, y" rows (long format), which is what
// the paper's curves digitize to.
void PrintSeries(std::ostream& os, const std::string& title,
                 const std::string& x_label, const std::string& y_label,
                 const std::vector<NamedResult>& results,
                 ml::Series core::RunResult::* series, int max_points = 12);

// Loss threshold that every run in `results` reaches: slightly above the
// largest of the per-run minimum losses.
double CommonLossThreshold(const std::vector<NamedResult>& results);

// Virtual seconds for `result` to first reach `loss_threshold`; falls back to
// the total runtime if never reached (should not happen with
// CommonLossThreshold).
double ConvergenceSeconds(const core::RunResult& result,
                          double loss_threshold);

// Prints time-to-threshold and the speedup of the *last* entry (NetMax by
// convention) over every other entry — the paper's "3.7x over Prague" rows.
void PrintSpeedups(std::ostream& os, const std::string& title,
                   const std::vector<NamedResult>& results);

// Prints the per-epoch computation/communication cost split (Fig. 5/6 bars).
void PrintEpochCostSplit(std::ostream& os, const std::string& title,
                         const std::vector<NamedResult>& results);

// Prints the execution-backend health table for `results`: backend, window
// batches, speculated / re-dispatched / inline-recomputed compute
// halves, and the async window's stall/backpressure counters. When any run
// reports fault or adaptive-window activity (window_resizes,
// faults_injected, rounds_degraded, peers_timed_out), four extra columns
// carry those counters; fault-free batches suppress the all-zero columns so
// their stderr table keeps the exact pre-fault shape. Likewise, when any run
// compressed its gradients (bytes_saved != 0), three extra columns report
// messages / bytes_sent / bytes_saved; uncompressed batches suppress them so
// existing benches' stderr tables are unchanged. RunAlgorithms and
// RunConfigs emit this to stderr after every batch of runs (so speculation
// health is visible without a Debug rebuild) — stderr, because the counters
// vary with the {threads, backend} execution point while the benches' stdout
// must stay byte-identical across all of them (the CI determinism lane
// diffs it).
void PrintExecutionDiagnostics(std::ostream& os,
                               const std::vector<NamedResult>& results);

// The paper's default Section V-A experiment: 8 workers, heterogeneous
// dynamic network, CIFAR10-sim, ResNet18 profile, paper hyper-parameters —
// scaled down (smaller synthetic corpus / epoch budget) to keep the full
// bench suite runnable in minutes. Override fields per bench as needed.
core::ExperimentConfig PaperBaseConfig();

// Section V-F non-uniform setup: 8 workers across exactly two servers with
// segment weights <1,1,1,1, 2,1,2,1> (second server holds more data) and
// per-worker batch size proportional to the segment count, step LR decay.
core::ExperimentConfig NonUniformConfig(const ml::SyntheticSpec& dataset,
                                        const ml::ModelProfile& profile);

}  // namespace netmax::bench

#endif  // NETMAX_BENCH_BENCH_UTIL_H_
