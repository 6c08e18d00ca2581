// stream: greedy GiPH search for 2|V| steps under streaming_p99_objective on
// sensor-fusion snapshots (32 frames, arrival jitter off, steady-state
// detection on), from a seeded random placement as `giph_cli stream` does.
// One operation plans one snapshot's pipeline: environment construction plus
// the search.
//
// The snapshots are the first kPool populated ones of one fixed scenario
// (the world of `giph_cli stream --seed 1`), and a round plans each once;
// the run seed draws every initial placement. Different worlds, or
// different stretches of one world's trace, differ in traffic enough to move
// the median operation by a third, which would drown the program's own
// changes. quality_ratio comes from planning the pool once more after the
// timed phase, from initial placements of a fixed seed.

#include <memory>
#include <optional>

#include "casestudy/sensor_fusion.hpp"
#include "checks.hpp"
#include "core/giph_agent.hpp"
#include "heft/heft.hpp"
#include "replay.hpp"
#include "serve/snapshot.hpp"
#include "sim/latency_model.hpp"
#include "sim/stream.hpp"
#include "verify/oracle.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace giph;

namespace {

constexpr int kFrames = 32;
constexpr long kPool = 16;  // snapshots planned per round
constexpr std::uint64_t kWorldSeed = 1;

/// Populated snapshots of one seeded world, in trace order.
class Snapshots {
 public:
  explicit Snapshots(std::uint64_t seed) : world_(params(seed)) {}

  casestudy::SensorFusionCase next() {
    for (int tries = 0; tries < 1000; ++tries) {
      std::optional<casestudy::SensorFusionCase> c = world_.next_case();
      if (c) return std::move(*c);
    }
    throw std::runtime_error("stream: world produced no populated snapshot");
  }

 private:
  static casestudy::CaseStudyParams params(std::uint64_t seed) {
    casestudy::CaseStudyParams p;
    p.seed = seed;
    return p;
  }
  casestudy::SensorFusionWorld world_;
};

StreamOptions stream_options(const casestudy::SensorFusionCase& c) {
  StreamOptions o = casestudy::streaming_options(c, kFrames);
  o.detect_steady_state = true;
  return o;
}

/// The p99 objective; traced, each evaluation is a sim.stream_eval span and
/// its placement is kept, so the frames it simulated can be counted after
/// the operation by evaluating it again.
ScheduleObjective objective(const LatencyModel& lat, const StreamOptions& sopt,
                            std::vector<Placement>* evaluated) {
  ScheduleObjective inner = streaming_p99_objective(lat, sopt);
  if (!tracer().enabled) return inner;
  return [inner, evaluated](const TaskGraph& g, const DeviceNetwork& n, const Placement& p,
                            const Schedule& s) {
    ScopedSpan span("sim.stream_eval");
    evaluated->push_back(p);
    return inner(g, n, p, s);
  };
}

}  // namespace

RunResult run_stream(const RunConfig& cfg) {
  RunResult r;
  const DefaultLatencyModel lat;

  // Set-up: load the snapshot, build the agent, and pay the first call (a
  // short search on a first snapshot).
  std::vector<double> setup_s;
  std::unique_ptr<GiPHAgent> agent;
  for (int k = 0; k < kSetupRepeats; ++k) {
    const Clock::time_point t0 = Clock::now();
    const auto snap = serve::load_policy_snapshot(cfg.snapshot_path);
    agent = agent_with_options(*snap->agent, snap->options);
    Snapshots warm(kSetupSeed);
    const casestudy::SensorFusionCase c = warm.next();
    std::mt19937_64 rng(1);
    PlacementSearchEnv env(c.graph, c.network, lat,
                           streaming_p99_objective(lat, stream_options(c)),
                           random_placement(c.graph, c.network, rng), 1.0);
    run_search(*agent, env, 8, rng, true);
    setup_s.push_back(ms_between(t0, Clock::now()) / 1e3);
  }
  TracedPolicy policy(*agent);

  /// Plans one snapshot from a random placement drawn with `rng`, checks the
  /// result, and returns the operation time (ms, replay excluded) and the
  /// p99 ratio to HEFT's placement; a negative time marks a failed operation.
  const auto plan_one = [&](const casestudy::SensorFusionCase& c, std::mt19937_64& rng,
                            bool traced_phase, long op, double* ratio) {
    const TaskGraph& g = c.graph;
    const DeviceNetwork& n = c.network;
    const StreamOptions sopt = stream_options(c);
    const Placement initial = random_placement(g, n, rng);
    tracer().enabled = traced_phase;
    tracer().set_op(op);
    ++r.attempted;
    std::vector<Placement> evaluated;
    const double replay0 = policy.replay_ms();
    const std::uint64_t sims0 = simulation_count();
    const std::uint64_t delta0 = delta_simulation_count();
    std::optional<PlacementSearchEnv> env;
    double initial_objective = 0.0;
    const Clock::time_point t0 = Clock::now();
    try {
      ScopedSpan s("stream.plan");
      env.emplace(g, n, lat, objective(lat, sopt, &evaluated), initial, 1.0);
      initial_objective = env->objective();
      run_search(policy, *env, 2 * g.num_tasks(), rng, true);
    } catch (const std::exception& e) {
      tracer().enabled = false;
      ++r.failed;
      r.fail_check(std::string("search threw: ") + e.what());
      return -1.0;
    }
    const Clock::time_point t1 = Clock::now();
    const double ms = ms_between(t0, t1) - (policy.replay_ms() - replay0);
    if (traced_phase) {
      const std::uint64_t sims = simulation_count() - sims0;
      const std::uint64_t delta = delta_simulation_count() - delta0;
      tracer().count("sim.sims_per_op", static_cast<double>(sims));
      if (sims > 0) tracer().count("sim.delta_hit_ratio", static_cast<double>(delta) / sims);
      for (const Placement& p : evaluated) {
        tracer().count("sim.stream_frames_per_eval",
                       simulate_streaming(g, n, p, lat, sopt).frames);
      }
    }
    tracer().enabled = false;

    const StreamResult oracle =
        oracle_simulate_streaming(g, n, env->best_placement(), lat, sopt);
    std::string err = check_hardware_sets(g, n, env->best_placement());
    if (err.empty()) err = check_stream(env->best_objective(), oracle, sopt.frames);
    if (err.empty() && !(env->best_objective() <= initial_objective)) {
      err = "best p99 worse than the initial placement's";
    }
    if (!err.empty()) r.fail_check("snapshot op " + std::to_string(op) + ": " + err);
    if (ratio != nullptr) {
      const StreamResult heft =
          oracle_simulate_streaming(g, n, heft_schedule(g, n, lat).placement, lat, sopt);
      *ratio = oracle.p99_latency / heft.p99_latency;
    }
    return ms;
  };

  std::vector<casestudy::SensorFusionCase> pool;
  Snapshots snapshots(kWorldSeed);
  for (long k = 0; k < kPool; ++k) pool.push_back(snapshots.next());
  std::vector<double> latencies, untraced_latencies;
  long index = 0;
  const auto run_phase = [&](double seconds, bool traced_phase, std::vector<double>& lat_out) {
    const Clock::time_point start = Clock::now();
    do {
      for (long k = 0; k < kPool; ++k, ++index) {
        std::mt19937_64 rng(mix_seed(cfg.seed, 7000 + static_cast<std::uint64_t>(index)));
        const double ms =
            plan_one(pool[static_cast<std::size_t>(k)], rng, traced_phase, index, nullptr);
        if (ms >= 0.0) lat_out.push_back(ms);
      }
    } while (ms_between(start, Clock::now()) < seconds * 1e3);
  };

  if (cfg.trace) {
    run_phase(cfg.seconds / 3.0, false, untraced_latencies);
    run_phase(cfg.seconds * 2.0 / 3.0, true, latencies);
    Tracer& t = tracer();
    add_layer_median(r, "sim.stream_eval_ms", "ms", t.durations_ms("sim.stream_eval"));
    add_layer_mean(r, "sim.stream_frames_per_eval", "count",
                   t.count_values("sim.stream_frames_per_eval"));
    if (policy.mismatches() > 0) {
      r.fail_check(std::to_string(policy.mismatches()) + " replayed decisions differ");
    }
    finish_per_layer(r, latencies, untraced_latencies);
  } else {
    run_phase(cfg.seconds, false, latencies);
    // Quality: the pool once more, from initial placements of a fixed seed,
    // so quality_ratio is the same in every run of the same program.
    std::vector<double> quality;
    for (long e = 0; e < kPool; ++e) {
      std::mt19937_64 rng(mix_seed(kEvalSeed, static_cast<std::uint64_t>(e)));
      double ratio = 0.0;
      if (plan_one(pool[static_cast<std::size_t>(e)], rng, false, index + e, &ratio) >= 0.0) {
        quality.push_back(ratio);
      }
    }
    double timed_s = 0.0;
    for (double ms : latencies) timed_s += ms / 1e3;
    add_end_to_end(r, latencies, timed_s, setup_s, quality);
  }
  return r;
}

}  // namespace perfbench
