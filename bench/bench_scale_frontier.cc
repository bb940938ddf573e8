// Scale frontier of the simulator core: how many simulated events per second
// each event-queue backend sustains as the worker count grows, and where the
// queue choice starts to dominate a run's wall clock.
//
// Three panels:
//
//  1. Queue frontier — a synthetic self-rescheduling tick workload (every
//     worker always has exactly one pending event, so the queue holds N
//     entries in steady state) driven through the real EventSimulator for a
//     fixed wall-clock budget per cell. The sorted vector pays an O(N)
//     memmove per insert, the heap O(log N), the pairing heap O(1) insert
//     with an amortized O(log N) pop, the calendar queue O(1); at 10^5+
//     workers the frontier separates them by orders of magnitude.
//  2. Queue x backend matrix — one real training experiment per
//     {event queue, execution backend} pair, wall clock measured and results
//     verified bit-identical across all eight runs (the queue and the
//     backend are real-machine choices only; virtual results never move).
//     Serial cells run at threads = 1, async cells at threads = max(2,
//     cores); each cell records the backend that actually ran, and the bench
//     fails if it is not the one requested.
//  3. Hierarchical gossip at scale — 10^5+ workers on the
//     clusters-of-clusters topology with the O(1)-memory hierarchical link
//     model, each worker gossiping rounds to its neighbors through the
//     calendar queue. A complete graph at this scale would need ~10^10 edges;
//     the hierarchical topology keeps the whole run in memory.
//
// Wall-clock numbers vary by machine, so this bench's stdout is NOT part of
// the CI determinism diff; CI runs it with --smoke for coverage only. Set
// NETMAX_SCALE_JSON=path to also write the panels as JSON — BENCH_scale.json
// in the repo root is a committed full-mode snapshot (see README).

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "algos/registry.h"
#include "bench/bench_util.h"
#include "common/logging.h"
#include "common/random.h"
#include "common/table.h"
#include "core/execution_backend.h"
#include "core/experiment.h"
#include "net/cluster.h"
#include "net/event_queue.h"
#include "net/event_sim.h"
#include "net/link_model.h"
#include "net/topology.h"

namespace netmax {
namespace {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// --- Panel 1: synthetic queue frontier --------------------------------------

struct TickContext {
  net::EventSimulator* sim = nullptr;
  // Per-worker tick period, drawn once up front so the measured loop does no
  // RNG work; the spread keeps steady-state insert positions scattered
  // across the whole queue (the adversarial case for the sorted vector).
  std::vector<double> periods;
};

void TickStep(TickContext* ctx, int worker) {
  net::EventSimulator& sim = *ctx->sim;
  sim.ScheduleAfter(ctx->periods[static_cast<size_t>(worker)],
                    [ctx, worker] { TickStep(ctx, worker); });
}

struct FrontierCell {
  int workers = 0;
  net::EventQueueKind queue = net::EventQueueKind::kSortedVector;
  int64_t events = 0;
  double wall_seconds = 0.0;
  double events_per_sec = 0.0;
};

FrontierCell MeasureQueueFrontier(int workers, net::EventQueueKind kind,
                                  double budget_seconds) {
  net::EventSimulator sim;
  sim.ReplaceQueue(net::MakeEventQueue(kind));
  TickContext ctx;
  ctx.sim = &sim;
  ctx.periods.resize(static_cast<size_t>(workers));
  Rng rng(20260808);
  for (double& period : ctx.periods) period = rng.Uniform(0.5, 1.5);
  // Seed one pending event per worker, scheduled in DESCENDING time order so
  // the fill itself is O(N) for every queue (each new event is the earliest
  // so far; ascending order would cost the sorted vector an O(N) memmove per
  // seed event before the measurement even starts).
  for (int w = workers - 1; w >= 0; --w) {
    const double phase =
        1.0 + static_cast<double>(w) * (1.0 / static_cast<double>(workers));
    sim.ScheduleAt(phase, [&ctx, w] { TickStep(&ctx, w); });
  }
  // Steady state: every pop schedules exactly one replacement, so the queue
  // holds `workers` entries throughout. Run until the wall budget is spent,
  // checking the clock every few events so even a queue managing only
  // hundreds of events per second stops on time.
  const auto start = Clock::now();
  int64_t events = 0;
  while (sim.Step()) {
    ++events;
    if ((events & 63) == 0 && SecondsSince(start) >= budget_seconds) break;
  }
  FrontierCell cell;
  cell.workers = workers;
  cell.queue = kind;
  cell.events = events;
  cell.wall_seconds = SecondsSince(start);
  cell.events_per_sec =
      cell.wall_seconds > 0.0 ? static_cast<double>(events) / cell.wall_seconds
                              : 0.0;
  return cell;
}

// --- Panel 2: queue x backend matrix on a real experiment --------------------

struct MatrixCell {
  net::EventQueueKind queue = net::EventQueueKind::kSortedVector;
  std::string backend;  // RunResult::backend: the backend that actually ran
  int threads = 1;
  double wall_seconds = 0.0;
  double virtual_seconds = 0.0;
  bool bit_identical = true;
};

void CheckBitIdentical(const std::string& label, const core::RunResult& a,
                       const core::RunResult& b) {
  NETMAX_CHECK_EQ(a.loss_vs_time.size(), b.loss_vs_time.size()) << label;
  for (size_t i = 0; i < a.loss_vs_time.size(); ++i) {
    NETMAX_CHECK_EQ(a.loss_vs_time[i].x, b.loss_vs_time[i].x) << label;
    NETMAX_CHECK_EQ(a.loss_vs_time[i].y, b.loss_vs_time[i].y) << label;
  }
  NETMAX_CHECK_EQ(a.final_train_loss, b.final_train_loss) << label;
  NETMAX_CHECK_EQ(a.final_accuracy, b.final_accuracy) << label;
  NETMAX_CHECK_EQ(a.total_virtual_seconds, b.total_virtual_seconds) << label;
  NETMAX_CHECK_EQ(a.consensus_distance, b.consensus_distance) << label;
}

StatusOr<std::vector<MatrixCell>> RunQueueBackendMatrix(std::ostream& os) {
  core::ExperimentConfig config = bench::PaperBaseConfig();
  config.max_epochs = 8;  // the matrix is 8 runs; keep full mode in minutes
  bench::MaybeApplySmoke(config);
  config.shards = 1;
  // Async cells get a real pool even on a single-core machine, so the
  // pooled path is what they measure.
  const int pooled_threads =
      std::max(2, static_cast<int>(std::thread::hardware_concurrency()));
  std::vector<MatrixCell> cells;
  const core::RunResult* reference = nullptr;
  std::vector<core::RunResult> results;
  results.reserve(8);
  TablePrinter table(
      {"queue", "backend", "threads", "wall_s", "virtual_s", "identical"});
  for (const net::EventQueueKind queue :
       {net::EventQueueKind::kSortedVector, net::EventQueueKind::kBinaryHeap,
        net::EventQueueKind::kCalendar, net::EventQueueKind::kPairingHeap}) {
    for (const core::ExecutionBackendKind backend :
         {core::ExecutionBackendKind::kSerial,
          core::ExecutionBackendKind::kAsyncPipeline}) {
      core::ExperimentConfig cell_config = config;
      cell_config.event_queue = queue;
      cell_config.backend = backend;
      cell_config.threads =
          backend == core::ExecutionBackendKind::kSerial ? 1 : pooled_threads;
      NETMAX_ASSIGN_OR_RETURN(const auto algorithm,
                              algos::MakeAlgorithm("netmax"));
      const auto start = Clock::now();
      auto result = algorithm->Run(cell_config);
      const double wall = SecondsSince(start);
      if (!result.ok()) {
        return Status(result.status().code(),
                      std::string(net::EventQueueKindName(queue)) + "/" +
                          result.status().message());
      }
      results.push_back(std::move(result.value()));
      const core::RunResult& run = results.back();
      if (reference == nullptr) reference = &results.front();
      const std::string label = std::string(net::EventQueueKindName(queue)) +
                                "/" + std::string(run.backend);
      if (run.backend != core::ExecutionBackendKindName(backend)) {
        return InternalError(
            label + ": requested backend " +
            std::string(core::ExecutionBackendKindName(backend)) +
            " but the run reports " + run.backend);
      }
      CheckBitIdentical(label, *reference, run);
      MatrixCell cell;
      cell.queue = queue;
      cell.backend = run.backend;
      cell.threads = cell_config.threads;
      cell.wall_seconds = wall;
      cell.virtual_seconds = run.total_virtual_seconds;
      cells.push_back(cell);
      table.AddRow({std::string(net::EventQueueKindName(queue)), run.backend,
                    std::to_string(cell.threads), Fmt(wall, 3),
                    Fmt(run.total_virtual_seconds, 1), "yes"});
    }
  }
  os << "\n== Queue x backend matrix (netmax, 8 workers; all eight runs "
        "verified bit-identical) ==\n";
  table.Print(os);
  table.PrintCsv(os, "Queue x backend matrix");
  return cells;
}

// --- Panel 3: hierarchical gossip at scale ------------------------------------

struct GossipContext {
  net::EventSimulator* sim = nullptr;
  const net::Topology* topology = nullptr;
  const net::HierarchicalLinkModel* links = nullptr;
  std::vector<int> rounds_left;
  std::vector<int> next_neighbor;
  int64_t payload_bytes = 0;
};

void GossipStep(GossipContext* ctx, int worker) {
  const size_t w = static_cast<size_t>(worker);
  if (ctx->rounds_left[w] == 0) return;
  --ctx->rounds_left[w];
  const std::vector<int>& neighbors = ctx->topology->Neighbors(worker);
  const int peer = neighbors[static_cast<size_t>(ctx->next_neighbor[w]) %
                             neighbors.size()];
  ++ctx->next_neighbor[w];
  const double transfer = ctx->links->TransferSeconds(
      worker, peer, ctx->sim->Now(), ctx->payload_bytes);
  ctx->sim->ScheduleAfter(transfer, [ctx, worker] { GossipStep(ctx, worker); });
}

struct GossipResult {
  int workers = 0;
  int cluster_size = 0;
  int clusters = 0;
  int64_t edges = 0;
  int rounds = 0;
  int64_t events = 0;
  double build_seconds = 0.0;
  double run_seconds = 0.0;
  double events_per_sec = 0.0;
  double virtual_seconds = 0.0;
};

GossipResult RunHierarchicalGossip(int workers, int cluster_size, int rounds) {
  GossipResult out;
  out.workers = workers;
  out.cluster_size = cluster_size;
  out.clusters = net::NumClusters(workers, cluster_size);
  out.rounds = rounds;
  const auto build_start = Clock::now();
  const net::Topology topology =
      net::Topology::Hierarchical(workers, cluster_size);
  const net::HierarchicalLinkModel links(
      workers, cluster_size, net::IntraMachineLinkClass(),
      net::InterMachineLinkClass());
  out.build_seconds = SecondsSince(build_start);
  out.edges = topology.num_edges();
  net::EventSimulator sim;
  sim.ReplaceQueue(net::MakeEventQueue(net::EventQueueKind::kCalendar));
  GossipContext ctx;
  ctx.sim = &sim;
  ctx.topology = &topology;
  ctx.links = &links;
  ctx.rounds_left.assign(static_cast<size_t>(workers), rounds);
  ctx.next_neighbor.assign(static_cast<size_t>(workers), 0);
  ctx.payload_bytes = 1 << 20;  // 1 MiB gossip payload per round
  // Stagger the first round across a second (descending order: O(N) seed
  // fill, same as the frontier panel).
  for (int w = workers - 1; w >= 0; --w) {
    const double phase =
        static_cast<double>(w) / static_cast<double>(workers);
    sim.ScheduleAt(phase, [&ctx, w] { GossipStep(&ctx, w); });
  }
  const auto run_start = Clock::now();
  out.events = sim.RunUntilIdle();
  out.run_seconds = SecondsSince(run_start);
  out.events_per_sec = out.run_seconds > 0.0
                           ? static_cast<double>(out.events) / out.run_seconds
                           : 0.0;
  out.virtual_seconds = sim.Now();
  return out;
}

// --- JSON snapshot ------------------------------------------------------------

std::string JsonReport(bool smoke, const std::vector<FrontierCell>& frontier,
                       const std::vector<MatrixCell>& matrix,
                       const GossipResult& gossip) {
  std::ostringstream os;
  os << "{\n";
  os << "  \"bench\": \"bench_scale_frontier\",\n";
  os << "  \"smoke\": " << (smoke ? "true" : "false") << ",\n";
  os << "  \"queue_frontier\": [\n";
  for (size_t i = 0; i < frontier.size(); ++i) {
    const FrontierCell& c = frontier[i];
    os << "    {\"workers\": " << c.workers << ", \"queue\": \""
       << net::EventQueueKindName(c.queue) << "\", \"events\": " << c.events
       << ", \"wall_seconds\": " << Fmt(c.wall_seconds, 4)
       << ", \"events_per_sec\": " << Fmt(c.events_per_sec, 1) << "}"
       << (i + 1 < frontier.size() ? "," : "") << "\n";
  }
  os << "  ],\n";
  os << "  \"queue_backend_matrix\": [\n";
  for (size_t i = 0; i < matrix.size(); ++i) {
    const MatrixCell& c = matrix[i];
    os << "    {\"queue\": \"" << net::EventQueueKindName(c.queue)
       << "\", \"backend\": \"" << c.backend << "\", \"threads\": " << c.threads
       << ", \"wall_seconds\": " << Fmt(c.wall_seconds, 3)
       << ", \"virtual_seconds\": " << Fmt(c.virtual_seconds, 1)
       << ", \"bit_identical\": true}"
       << (i + 1 < matrix.size() ? "," : "") << "\n";
  }
  os << "  ],\n";
  os << "  \"hierarchical_gossip\": {\"workers\": " << gossip.workers
     << ", \"cluster_size\": " << gossip.cluster_size
     << ", \"clusters\": " << gossip.clusters
     << ", \"edges\": " << gossip.edges << ", \"rounds\": " << gossip.rounds
     << ", \"events\": " << gossip.events
     << ", \"build_seconds\": " << Fmt(gossip.build_seconds, 3)
     << ", \"run_seconds\": " << Fmt(gossip.run_seconds, 3)
     << ", \"events_per_sec\": " << Fmt(gossip.events_per_sec, 1)
     << ", \"virtual_seconds\": " << Fmt(gossip.virtual_seconds, 2) << "},\n";
  // Headline: the acceptance reading — calendar vs sorted vector at the
  // largest worker count in the frontier grid.
  double vector_eps = 0.0;
  double calendar_eps = 0.0;
  int max_workers = 0;
  for (const FrontierCell& c : frontier) {
    max_workers = std::max(max_workers, c.workers);
  }
  for (const FrontierCell& c : frontier) {
    if (c.workers != max_workers) continue;
    if (c.queue == net::EventQueueKind::kSortedVector) {
      vector_eps = c.events_per_sec;
    }
    if (c.queue == net::EventQueueKind::kCalendar) {
      calendar_eps = c.events_per_sec;
    }
  }
  os << "  \"headline\": {\"workers\": " << max_workers
     << ", \"vector_events_per_sec\": " << Fmt(vector_eps, 1)
     << ", \"calendar_events_per_sec\": " << Fmt(calendar_eps, 1)
     << ", \"calendar_vs_vector_speedup\": "
     << Fmt(vector_eps > 0.0 ? calendar_eps / vector_eps : 0.0, 2) << "}\n";
  os << "}\n";
  return os.str();
}

Status Run() {
  const bool smoke = bench::SmokeMode();
  // Smoke keeps every panel's shape but shrinks the grid and the budgets so
  // CI finishes in seconds; full mode is the committed BENCH_scale.json run.
  const std::vector<int> worker_grid =
      smoke ? std::vector<int>{256, 2048}
            : std::vector<int>{1024, 8192, 32768, 131072};
  const double cell_budget = smoke ? 0.05 : 0.4;

  std::vector<FrontierCell> frontier;
  TablePrinter frontier_table(
      {"workers", "queue", "events", "wall_s", "events_per_sec"});
  for (const int workers : worker_grid) {
    for (const net::EventQueueKind kind :
         {net::EventQueueKind::kSortedVector, net::EventQueueKind::kBinaryHeap,
          net::EventQueueKind::kCalendar,
          net::EventQueueKind::kPairingHeap}) {
      const FrontierCell cell =
          MeasureQueueFrontier(workers, kind, cell_budget);
      frontier.push_back(cell);
      frontier_table.AddRow({std::to_string(cell.workers),
                             std::string(net::EventQueueKindName(cell.queue)),
                             std::to_string(cell.events),
                             Fmt(cell.wall_seconds, 3),
                             Fmt(cell.events_per_sec, 0)});
    }
  }
  std::cout << "\n== Queue frontier (self-rescheduling tick workload; queue "
               "holds one event per worker) ==\n";
  frontier_table.Print(std::cout);
  frontier_table.PrintCsv(std::cout, "Queue frontier");

  NETMAX_ASSIGN_OR_RETURN(const std::vector<MatrixCell> matrix,
                          RunQueueBackendMatrix(std::cout));

  const GossipResult gossip =
      smoke ? RunHierarchicalGossip(/*workers=*/4096, /*cluster_size=*/64,
                                    /*rounds=*/2)
            : RunHierarchicalGossip(/*workers=*/131072, /*cluster_size=*/64,
                                    /*rounds=*/3);
  TablePrinter gossip_table({"workers", "cluster_size", "clusters", "edges",
                             "rounds", "events", "build_s", "run_s",
                             "events_per_sec"});
  gossip_table.AddRow(
      {std::to_string(gossip.workers), std::to_string(gossip.cluster_size),
       std::to_string(gossip.clusters), std::to_string(gossip.edges),
       std::to_string(gossip.rounds), std::to_string(gossip.events),
       Fmt(gossip.build_seconds, 3), Fmt(gossip.run_seconds, 3),
       Fmt(gossip.events_per_sec, 0)});
  std::cout << "\n== Hierarchical gossip at scale (calendar queue, "
               "clusters-of-clusters topology, O(1)-memory link model) ==\n";
  gossip_table.Print(std::cout);
  gossip_table.PrintCsv(std::cout, "Hierarchical gossip at scale");

  const std::string json = JsonReport(smoke, frontier, matrix, gossip);
  const char* json_path = std::getenv("NETMAX_SCALE_JSON");
  if (json_path != nullptr && json_path[0] != '\0') {
    std::ofstream out(json_path);
    if (!out) {
      return InvalidArgumentError(std::string("cannot write JSON to ") +
                                  json_path);
    }
    out << json;
  }
  std::cout << "\n#JSON bench_scale_frontier\n" << json << "#END\n";
  return Status::Ok();
}

}  // namespace
}  // namespace netmax

int main(int argc, char** argv) {
  return netmax::bench::BenchMain(argc, argv, [] { return netmax::Run(); });
}
