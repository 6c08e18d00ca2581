// train: sequential REINFORCE (one rollout worker, batched updates) on
// generated 20-task x 8-device instances from random initial placements. One
// operation is one training episode; a round is one train_reinforce call of
// kEpisodes episodes from a freshly initialized agent, seeded by the run seed
// and the round. The dataset is one fixed scenario, so runs differ in the
// episodes drawn from it, not in the instances' sizes. quality_ratio comes
// from an evaluation round with a fixed seed after the timed phase: train
// a fresh agent the same way, then search the fixed held-out set greedily.

#include <algorithm>
#include <memory>

#include "checks.hpp"
#include "core/giph_agent.hpp"
#include "gen/dataset.hpp"
#include "heft/heft.hpp"
#include "replay.hpp"
#include "sim/latency_model.hpp"
#include "verify/oracle.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace giph;

namespace {

constexpr int kTasks = 20;
constexpr int kDevices = 8;
constexpr int kGraphs = 40;  // the `giph_cli generate` defaults
constexpr int kNetworks = 4;
constexpr int kHeldOut = 16;
constexpr int kEpisodes = 16;  // per round
constexpr int kBatch = 4;      // episodes per optimizer step

struct Inputs {
  Dataset train;
  Dataset held_out;  ///< graph i runs on network i
  GiPHOptions agent_options;
};

Inputs make_inputs() {
  Inputs in;
  std::mt19937_64 rng(mix_seed(kSetupSeed, 0x7a1));
  TaskGraphParams gp;
  gp.num_tasks = kTasks;
  NetworkParams np;
  np.num_devices = kDevices;
  in.train = generate_dataset({gp}, {np}, kGraphs, kNetworks, rng);
  in.held_out = generate_dataset({gp}, {np}, kHeldOut, kHeldOut, rng);
  in.agent_options.seed = rng();
  return in;
}

TrainOptions train_options(std::uint64_t seed, long round) {
  // The repository's training defaults (giph_cli train), one worker.
  TrainOptions t;
  t.episodes = kEpisodes;
  t.batch_episodes = kBatch;
  t.rollout_workers = 1;
  t.lr = 0.003;
  t.gamma = 0.1;
  t.discount_state_weight = false;
  t.seed = mix_seed(seed, 1000 + static_cast<std::uint64_t>(round));
  return t;
}

}  // namespace

RunResult run_train(const RunConfig& cfg) {
  RunResult r;
  const DefaultLatencyModel lat;

  // Set-up: build the dataset, the held-out set and the agent, and pay the
  // first call (one training episode of a copy of the agent).
  std::vector<double> setup_s;
  Inputs in;
  std::unique_ptr<GiPHAgent> setup_agent;
  for (int k = 0; k < kSetupRepeats; ++k) {
    const Clock::time_point t0 = Clock::now();
    in = make_inputs();
    setup_agent = std::make_unique<GiPHAgent>(in.agent_options);
    auto warm = agent_with_options(*setup_agent, in.agent_options);
    TrainOptions w = train_options(kSetupSeed, 0);
    w.episodes = 1;
    w.batch_episodes = 1;
    const Dataset& ds = in.train;
    train_reinforce(*warm, lat, [&ds](std::mt19937_64&) {
      return ProblemInstance{&ds.graphs[0], &ds.networks[0]};
    }, w);
    setup_s.push_back(ms_between(t0, Clock::now()) / 1e3);
  }
  // Episodes walk every graph x network pair in an order shuffled by the
  // seed, so every run trains on the same mix of instances; drawn at random,
  // the mix, and the median episode with it, differed between seeds.
  const auto pair_order = [&in](std::uint64_t seed) {
    std::vector<ProblemInstance> pairs;
    for (const TaskGraph& g : in.train.graphs) {
      for (const DeviceNetwork& n : in.train.networks) pairs.push_back({&g, &n});
    }
    std::mt19937_64 rng(mix_seed(seed, 0x5a));
    std::shuffle(pairs.begin(), pairs.end(), rng);
    return pairs;
  };
  const std::vector<ProblemInstance> timed_pairs = pair_order(cfg.seed);
  const std::vector<ProblemInstance> eval_pairs = pair_order(kEvalSeed);
  std::size_t next_pair = 0;

  std::vector<double> latencies, untraced_latencies, quality;
  long round = 0;
  long mismatches = 0;
  // One round; with `evaluate` (untimed, fixed seed) it also runs the
  // held-out evaluation that gives quality_ratio.
  const auto run_round = [&](bool traced_phase, std::vector<double>& lat_out, bool evaluate) {
    tracer().enabled = traced_phase;
    auto agent = agent_with_options(*setup_agent, in.agent_options);
    const TrainOptions topt =
        train_options(evaluate ? kEvalSeed : cfg.seed, evaluate ? 0 : round);
    TracedPolicy policy(*agent, kBatch, topt.grad_clip, topt.lr);
    policy.number_episodes(r.attempted);
    r.attempted += kEpisodes;
    // Episode e runs from its begin_episode to the next one (or to the end
    // of the call); the last episode of each batch also carries the update.
    // TrainOptions::on_episode cannot time single episodes: with batched
    // updates it fires for a whole batch after the batch has finished.
    const std::vector<ProblemInstance>& pairs = evaluate ? eval_pairs : timed_pairs;
    std::size_t eval_next = 0;
    std::size_t& next = evaluate ? eval_next : next_pair;
    const InstanceSampler sampler = [&pairs, &next](std::mt19937_64&) {
      return pairs[next++ % pairs.size()];
    };
    TrainStats stats;
    const std::uint64_t sims0 = simulation_count();
    const std::uint64_t delta0 = delta_simulation_count();
    try {
      stats = train_reinforce(policy, lat, sampler, topt);
      const std::uint64_t sims = simulation_count() - sims0;
      if (traced_phase && sims > 0) {
        tracer().count("sim.sims_per_op", static_cast<double>(sims) / kEpisodes);
        tracer().count("sim.delta_hit_ratio",
                       static_cast<double>(delta_simulation_count() - delta0) / sims);
      }
      policy.end_training();
    } catch (const std::exception& e) {
      r.failed += kEpisodes;
      r.fail_check(std::string("training threw: ") + e.what());
      tracer().enabled = false;
      return;
    }
    const Clock::time_point end = Clock::now();
    // Traced rounds take the replay's time out of the episode it ran in.
    const auto& marks = policy.episodes();
    for (std::size_t e = 0; e < marks.size(); ++e) {
      const bool last = e + 1 == marks.size();
      const Clock::time_point stop = last ? end : marks[e + 1].start;
      const double replay = (last ? policy.replay_ms() : marks[e + 1].replay_ms) -
                            marks[e].replay_ms;
      lat_out.push_back(ms_between(marks[e].start, stop) - replay);
    }
    mismatches += policy.mismatches();
    tracer().enabled = false;

    std::string err = check_training(stats, agent->parameters());
    if (static_cast<int>(marks.size()) != kEpisodes) err = "episode count mismatch";
    if (!err.empty()) r.fail_check("round " + std::to_string(round) + ": " + err);

    if (evaluate) {
      // Greedy held-out evaluation from seeded random initial placements.
      for (int h = 0; h < kHeldOut; ++h) {
        const TaskGraph& g = in.held_out.graphs[static_cast<std::size_t>(h)];
        const DeviceNetwork& n = in.held_out.networks[static_cast<std::size_t>(h)];
        std::mt19937_64 rng(mix_seed(kEvalSeed, 5000 + static_cast<std::uint64_t>(h)));
        PlacementSearchEnv env(g, n, lat, makespan_objective(lat), random_placement(g, n, rng));
        run_search(*agent, env, 2 * g.num_tasks(), rng, true);
        const double oracle =
            oracle_simulate(g, n, env.best_placement(), lat).makespan;
        std::string e = check_hardware_sets(g, n, env.best_placement());
        if (e.empty()) e = check_objective_equals(env.best_objective(), oracle, "held-out makespan");
        if (!e.empty()) r.fail_check("held-out " + std::to_string(h) + ": " + e);
        const double heft =
            oracle_simulate(g, n, heft_schedule(g, n, lat).placement, lat).makespan;
        quality.push_back(env.best_objective() / heft);
      }
      return;
    }
    ++round;
  };

  const auto run_phase = [&](double seconds, bool traced_phase, std::vector<double>& out) {
    const Clock::time_point start = Clock::now();
    do {
      run_round(traced_phase, out, false);
    } while (ms_between(start, Clock::now()) < seconds * 1e3);
  };

  if (cfg.trace) {
    run_phase(cfg.seconds / 3.0, false, untraced_latencies);
    run_phase(cfg.seconds * 2.0 / 3.0, true, latencies);
    if (mismatches > 0) {
      r.fail_check(std::to_string(mismatches) + " replayed decisions differ");
    }
    finish_per_layer(r, latencies, untraced_latencies);
  } else {
    run_phase(cfg.seconds, false, latencies);
    std::vector<double> eval_latencies;
    run_round(false, eval_latencies, true);
    double timed_s = 0.0;
    for (double ms : latencies) timed_s += ms / 1e3;
    add_end_to_end(r, latencies, timed_s, setup_s, quality);
  }
  return r;
}

}  // namespace perfbench
