// Microbenchmark of the REINFORCE rollout engine (not a paper figure). One
// GiPH agent is trained twice on the same options - sequentially and with 8
// rollout workers - measuring episodes/sec for each and checking that the
// per-episode stats and the final parameters are bitwise identical, the
// trainer's determinism contract (reinforce.hpp).
//
// The exit code gates the parallel path within the run, by the speedup
// ratio, which does not depend on the machine's shape: >= 2x on 8+-thread
// hardware, >= 1.3x on 4-7 threads, informational below that. The bitwise
// check is enforced everywhere. Single-thread training throughput is
// measured by perfbench's `train` workload.

#include <chrono>
#include <cstdio>
#include <thread>

#include "bench/common.hpp"
#include "core/giph_agent.hpp"

using namespace giph;
using namespace giph::bench;

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct TrainRun {
  TrainStats stats;
  std::vector<nn::Matrix> params;
  double seconds = 0.0;
};

TrainRun run_training(const TrainOptions& topt, const Dataset& train,
                      const LatencyModel& lat) {
  GiPHOptions go;
  go.seed = 17;
  GiPHAgent agent(go);
  const auto t0 = Clock::now();
  TrainRun run;
  run.stats = train_reinforce(agent, lat, dataset_sampler(train), topt);
  run.seconds = seconds_since(t0);
  for (const nn::Var& p : agent.parameters()) run.params.push_back(p->value);
  return run;
}

bool bitwise_equal(const TrainRun& a, const TrainRun& b) {
  if (a.stats.episode_final != b.stats.episode_final ||
      a.stats.episode_initial != b.stats.episode_initial ||
      a.stats.episode_best != b.stats.episode_best) {
    return false;
  }
  if (a.params.size() != b.params.size()) return false;
  for (std::size_t k = 0; k < a.params.size(); ++k) {
    const nn::Matrix& ma = a.params[k];
    const nn::Matrix& mb = b.params[k];
    if (ma.rows() != mb.rows() || ma.cols() != mb.cols()) return false;
    for (std::size_t i = 0; i < ma.size(); ++i) {
      if (ma.data()[i] != mb.data()[i]) return false;
    }
  }
  return true;
}

}  // namespace

int main() {
  const Scale scale = Scale::from_env();
  const DefaultLatencyModel lat;
  std::printf("Rollout-engine microbenchmark (scale: %s)\n",
              scale.full ? "full" : "quick");

  std::mt19937_64 gen_rng(4242);
  TaskGraphParams gp;
  gp.num_tasks = scale.full ? 50 : 20;
  NetworkParams np;
  np.num_devices = scale.full ? 20 : 8;
  const Dataset train = generate_dataset({gp}, {np}, 8, 2, gen_rng);

  TrainOptions topt = train_options(scale);
  topt.episodes = scale.full ? 48 : 16;
  topt.batch_episodes = 8;
  topt.seed = 91;

  // Warmup: one tiny run so first-touch allocations and code paths are paid
  // before the clock starts.
  {
    TrainOptions w = topt;
    w.episodes = 2;
    w.batch_episodes = 2;
    run_training(w, train, lat);
  }

  topt.rollout_workers = 1;
  const TrainRun sequential = run_training(topt, train, lat);
  topt.rollout_workers = 8;
  const TrainRun parallel = run_training(topt, train, lat);

  const bool bitwise = bitwise_equal(sequential, parallel);
  const double seq_eps = topt.episodes / sequential.seconds;
  const double par_eps = topt.episodes / parallel.seconds;
  const double speedup = par_eps / seq_eps;
  const int threads = static_cast<int>(std::thread::hardware_concurrency());

  print_header("REINFORCE training throughput");
  std::printf("%-32s %d tasks, %d devices, %d episodes, batch %d\n", "config",
              gp.num_tasks, np.num_devices, topt.episodes, topt.batch_episodes);
  std::printf("%-32s %14.2f episodes/sec\n", "sequential (1 worker)", seq_eps);
  std::printf("%-32s %14.2f episodes/sec\n", "parallel (8 workers)", par_eps);
  std::printf("%-32s %13.2fx (%d hardware threads)\n", "speedup", speedup, threads);
  std::printf("%-32s %14s\n", "bitwise identical", bitwise ? "yes" : "NO");
  const double speedup_floor = threads >= 8 ? 2.0 : (threads >= 4 ? 1.3 : 0.0);
  if (speedup_floor > 0.0 && speedup < speedup_floor) {
    std::printf("speedup BELOW the %.1fx floor on %d-thread hardware\n",
                speedup_floor, threads);
  }

  return bitwise && (speedup_floor == 0.0 || speedup >= speedup_floor) ? 0 : 1;
}
