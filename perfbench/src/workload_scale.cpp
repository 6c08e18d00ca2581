// scale: HierarchicalPlacer on 1000-task x 100-device sparse-topology
// instances. One operation places one graph: the placer's constructor
// (partition_tasks), place_clusters (policy search on the coarse cluster
// graph, sparse gpNet), expand and refine — the stages place() runs, called
// one by one so the traced run can time each.
//
// An operation takes seconds, so a run places only about as many graphs as
// fit in its time, and these graphs differ a lot: one graph's
// hierarchical/HEFT makespan ratio ranges from 2 to 12. A round therefore
// places each graph of a fixed pool once, in an order the seed rotates, and
// quality_ratio covers the pool: the metrics then measure the program, not
// the draw of graphs.

#include <memory>

#include "checks.hpp"
#include "core/giph_agent.hpp"
#include "core/hierarchical.hpp"
#include "gen/device_network_gen.hpp"
#include "gen/task_graph_gen.hpp"
#include "graph/topology.hpp"
#include "heft/heft.hpp"
#include "replay.hpp"
#include "serve/snapshot.hpp"
#include "sim/latency_model.hpp"
#include "verify/oracle.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace giph;

namespace {

constexpr int kTasks = 1000;
constexpr int kDevices = 100;
constexpr int kTopK = 8;            // sparse gpNet on the coarse graph
constexpr long kPool = 3;           // graphs in the pool: one round
constexpr std::uint64_t kPoolSeed = 0x5ca1e;
constexpr int kApplyReplays = 32;   // traced: sampled fine-instance applies per op

struct Instance {
  TaskGraph g;
  DeviceNetwork n;
  std::uint64_t search_seed = 0;
};

/// Sparse topology: a random spanning tree plus 2m chords, projected onto the
/// full link model (the generator perf_scale uses).
Instance make_instance(std::uint64_t seed, long index, int tasks, int devices) {
  std::mt19937_64 rng(mix_seed(seed, static_cast<std::uint64_t>(index)));
  TaskGraphParams gp;
  gp.num_tasks = tasks;
  gp.alpha = 0.8;
  gp.p_connect = 2.0 / tasks;
  Instance inst;
  inst.g = generate_task_graph(gp, rng);
  NetworkParams np;
  np.num_devices = devices;
  inst.n = generate_device_network(np, rng);
  std::vector<PhysicalLink> links;
  std::uniform_real_distribution<double> bw(20.0, 80.0);
  std::uniform_real_distribution<double> dl(0.1, 2.0);
  for (int i = 1; i < devices; ++i) {
    const int j = static_cast<int>(rng() % static_cast<std::uint64_t>(i));
    links.push_back({j, i, bw(rng), dl(rng), true});
  }
  for (int c = 0; c < 2 * devices; ++c) {
    const int a = static_cast<int>(rng() % static_cast<std::uint64_t>(devices));
    const int b = static_cast<int>(rng() % static_cast<std::uint64_t>(devices));
    if (a == b) continue;
    links.push_back({a, b, bw(rng), dl(rng), true});
  }
  apply_topology(inst.n, links);
  ensure_feasible(inst.g, inst.n, rng);
  inst.search_seed = rng();
  return inst;
}

HierarchicalOptions placer_options(int tasks) {
  HierarchicalOptions h;
  h.partition.num_clusters = std::max(8, tasks / 20);
  return h;
}

struct Placed {
  std::unique_ptr<HierarchicalPlacer> placer;
  Placement fine;
  HierarchicalStats stats;
};

Placed place_one(const Instance& inst, SearchPolicy& policy, const LatencyModel& lat) {
  Placed out;
  {
    ScopedSpan s("gen.partition");
    out.placer = std::make_unique<HierarchicalPlacer>(inst.g, inst.n, lat,
                                                      placer_options(inst.g.num_tasks()));
  }
  std::mt19937_64 rng(inst.search_seed);
  out.stats.num_clusters = out.placer->partition().num_clusters();
  Placement coarse;
  {
    ScopedSpan s("core.place_clusters");
    coarse = out.placer->place_clusters(policy, rng, &out.stats.coarse_objective);
  }
  out.fine = out.placer->expand(coarse);
  {
    ScopedSpan s("core.refine");
    out.placer->refine(out.fine, &out.stats);
  }
  return out;
}

}  // namespace

RunResult run_scale(const RunConfig& cfg) {
  RunResult r;
  const DefaultLatencyModel lat;

  // Set-up: load the snapshot, build the sparse-gpNet agent from it, and pay
  // the first call on a small instance of the same shape.
  const Instance warm = make_instance(kSetupSeed, 0, 200, 20);
  std::vector<double> setup_s;
  std::unique_ptr<GiPHAgent> agent;
  for (int k = 0; k < kSetupRepeats; ++k) {
    const Clock::time_point t0 = Clock::now();
    const auto snap = serve::load_policy_snapshot(cfg.snapshot_path);
    GiPHOptions o = snap->options;
    o.gpnet_topk = kTopK;
    agent = agent_with_options(*snap->agent, o);
    (void)place_one(warm, *agent, lat);
    setup_s.push_back(ms_between(t0, Clock::now()) / 1e3);
  }
  // Coarse-search applies are named apart: sim.apply on this workload times
  // the fine-instance applies that refinement makes.
  TracedPolicy policy(*agent, 0, 0.0, 0.0, "sim.apply_coarse");
  std::vector<Instance> pool;
  for (long i = 0; i < kPool; ++i) pool.push_back(make_instance(kPoolSeed, i, kTasks, kDevices));
  const long start = static_cast<long>(mix_seed(cfg.seed, 0) % kPool);

  std::vector<double> latencies, untraced_latencies, quality;
  long index = 0;
  const auto run_phase = [&](double seconds, bool traced_phase, std::vector<double>& lat_out) {
    const Clock::time_point phase_start = Clock::now();
    do {
      const Instance& inst = pool[static_cast<std::size_t>((start + index) % kPool)];
      tracer().enabled = traced_phase;
      tracer().set_op(index);
      ++r.attempted;
      const std::uint64_t sims0 = simulation_count();
      const std::uint64_t delta0 = delta_simulation_count();
      const double replay0 = policy.replay_ms();
      Placed placed;
      const Clock::time_point t0 = Clock::now();
      try {
        ScopedSpan s("scale.place");
        placed = place_one(inst, policy, lat);
      } catch (const std::exception& e) {
        ++r.failed;
        r.fail_check(std::string("placement threw: ") + e.what());
        tracer().enabled = false;
        ++index;
        continue;
      }
      const Clock::time_point t1 = Clock::now();
      lat_out.push_back(ms_between(t0, t1) - (policy.replay_ms() - replay0));
      const std::uint64_t sims = simulation_count() - sims0;
      const std::uint64_t delta = delta_simulation_count() - delta0;

      const HierarchicalPlacer& placer = *placed.placer;
      const double oracle = oracle_simulate(inst.g, inst.n, placed.fine, lat).makespan;
      std::string err = check_partition(inst.g, placer.partition());
      if (err.empty()) {
        err = check_hierarchical(inst.g, inst.n, placed.fine, placed.stats,
                                 placer.objective_of(placed.fine), oracle,
                                 placer.fine_normalizer());
      }
      if (!err.empty()) r.fail_check("graph " + std::to_string(index) + ": " + err);
      if (index < kPool) {
        const double heft =
            oracle_simulate(inst.g, inst.n, heft_schedule(inst.g, inst.n, lat).placement, lat)
                .makespan;
        quality.push_back(oracle / heft);
      }

      if (traced_phase) {
        Tracer& t = tracer();
        t.count("sim.sims_per_op", static_cast<double>(sims));
        if (sims > 0) t.count("sim.delta_hit_ratio", static_cast<double>(delta) / sims);
        t.count("core.refine_moves_tried", static_cast<double>(placed.stats.refine_moves_tried));
        t.count("core.refine_moves_kept", static_cast<double>(placed.stats.refine_moves_kept));
        // Refinement's applies run inside the placer; time the same kind of
        // apply (one-task move and its revert on the fine instance) on a
        // benchmark-side environment holding the refined placement.
        ScopedSpan s("replay");
        PlacementSearchEnv env(inst.g, inst.n, lat, makespan_objective(lat), placed.fine,
                               placer.fine_normalizer());
        const auto feasible = feasible_sets(inst.g, inst.n);
        std::mt19937_64 rng(inst.search_seed ^ 0xa991);
        for (int k = 0; k < kApplyReplays; ++k) {
          const int v = static_cast<int>(rng() % static_cast<std::uint64_t>(kTasks));
          const auto& devs = feasible[static_cast<std::size_t>(v)];
          const int d = devs[rng() % devs.size()];
          const int back = env.placement().device_of(v);
          if (d == back) continue;
          {
            ScopedSpan a("sim.apply");
            env.apply(SearchAction{v, d});
          }
          ScopedSpan a("sim.apply");
          env.apply(SearchAction{v, back});
        }
      }
      tracer().enabled = false;
      ++index;
    } while (ms_between(phase_start, Clock::now()) < seconds * 1e3 || index % kPool != 0);
  };

  if (cfg.trace) {
    run_phase(cfg.seconds / 3.0, false, untraced_latencies);
    run_phase(cfg.seconds * 2.0 / 3.0, true, latencies);
    Tracer& t = tracer();
    add_layer_median(r, "gen.partition_ms", "ms", t.durations_ms("gen.partition"));
    add_layer_median(r, "core.place_clusters_ms", "ms", t.durations_ms("core.place_clusters"));
    add_layer_median(r, "core.refine_ms", "ms", t.durations_ms("core.refine"));
    add_layer_mean(r, "core.refine_moves_tried", "count", t.count_values("core.refine_moves_tried"));
    add_layer_mean(r, "core.refine_moves_kept", "count", t.count_values("core.refine_moves_kept"));
    if (policy.mismatches() > 0) {
      r.fail_check(std::to_string(policy.mismatches()) + " replayed decisions differ");
    }
    finish_per_layer(r, latencies, untraced_latencies);
  } else {
    run_phase(cfg.seconds, false, latencies);
    double timed_s = 0.0;
    for (double ms : latencies) timed_s += ms / 1e3;
    add_end_to_end(r, latencies, timed_s, setup_s, quality);
  }
  return r;
}

}  // namespace perfbench
