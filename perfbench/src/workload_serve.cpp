// serve: a closed loop with one client and one PlacementServer worker. The
// client sends a fresh giph-request v1 frame, waits for the response, then
// sends the next. One operation is one request through read_request ->
// PlacementServer::submit -> response sink -> write_response.

#include <future>
#include <memory>
#include <sstream>

#include "checks.hpp"
#include "core/giph_agent.hpp"
#include "gen/device_network_gen.hpp"
#include "gen/task_graph_gen.hpp"
#include "heft/heft.hpp"
#include "replay.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "sim/latency_model.hpp"
#include "verify/oracle.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace giph;
using namespace giph::serve;

namespace {

constexpr int kSteps = 32;         // fixed per-request search budget
// A round is one request of every size: 10-40 tasks x 4-16 devices. Each
// run then serves the same mix of sizes, and the seed draws the graphs and
// networks of those sizes.
constexpr int kTaskSizes[] = {10, 20, 30, 40};
constexpr int kDeviceSizes[] = {4, 8, 12, 16};
constexpr int kRound = 16;
constexpr long kEvalRequests = 64;  // fixed evaluation set of quality_ratio

struct Instance {
  TaskGraph g;
  DeviceNetwork n;
  std::uint64_t search_seed = 0;
  std::string frame;  ///< the giph-request v1 frame the client sends
};

Instance make_instance(std::uint64_t seed, long index) {
  std::mt19937_64 rng(mix_seed(seed, static_cast<std::uint64_t>(index)));
  TaskGraphParams gp;
  gp.num_tasks = kTaskSizes[index % 4];
  NetworkParams np;
  np.num_devices = kDeviceSizes[(index / 4) % 4];
  np.num_hw_kinds = gp.num_hw_kinds;
  Instance inst;
  inst.g = generate_task_graph(gp, rng);
  inst.n = generate_device_network(np, rng);
  ensure_feasible(inst.g, inst.n, rng);
  inst.search_seed = rng();
  PlacementRequest req;
  req.id = std::to_string(index);
  req.steps = kSteps;
  req.seed = inst.search_seed;
  req.graph = inst.g;
  req.network = inst.n;
  std::ostringstream out;
  write_request(out, req);
  inst.frame = out.str();
  return inst;
}

struct Served {
  PlacementResponse resp;
  std::string frame;  ///< the giph-response v1 frame written back
};

/// One request, client side: parse the frame, submit, wait, write back.
Served serve_one(PlacementServer& server, const std::string& frame) {
  Served out;
  PlacementRequest req;
  {
    ScopedSpan s("serve.parse");
    std::istringstream in(frame);
    if (!read_request(in, req)) throw std::runtime_error("empty request frame");
  }
  {
    ScopedSpan s("serve.server");
    std::promise<PlacementResponse> done;
    std::future<PlacementResponse> fut = done.get_future();
    server.submit(std::move(req),
                  [&done](const PlacementResponse& r) { done.set_value(r); });
    out.resp = fut.get();
  }
  {
    ScopedSpan s("serve.write");
    std::ostringstream w;
    write_response(w, out.resp);
    out.frame = w.str();
  }
  return out;
}

}  // namespace

RunResult run_serve(const RunConfig& cfg) {
  RunResult r;
  const DefaultLatencyModel lat;
  ServerOptions sopt;
  sopt.workers = 1;
  sopt.queue_capacity = 4;

  // Set-up: load and checksum the snapshot, build the server, and serve one
  // first request (the worker's arena and policy clone are built lazily).
  const Instance warm = make_instance(kSetupSeed, kRound - 1);  // the largest size
  std::vector<double> setup_s;
  std::unique_ptr<SnapshotStore> store;
  std::unique_ptr<PlacementServer> server;
  for (int k = 0; k < kSetupRepeats; ++k) {
    server.reset();
    const Clock::time_point t0 = Clock::now();
    store = std::make_unique<SnapshotStore>();
    std::string err;
    if (!store->load(cfg.snapshot_path, &err)) {
      throw std::runtime_error("serve: cannot load policy snapshot: " + err);
    }
    server = std::make_unique<PlacementServer>(sopt, *store);
    const Served first = serve_one(*server, warm.frame);
    setup_s.push_back(ms_between(t0, Clock::now()) / 1e3);
    if (first.resp.status != ResponseStatus::kOk) {
      throw std::runtime_error("serve: set-up request failed: " + first.resp.error);
    }
  }

  // The traced run's per-step breakdown re-runs each request's search on a
  // benchmark-side copy of the snapshot policy: the server's policy clone
  // is not reachable from outside.
  std::unique_ptr<GiPHAgent> replay_agent;
  std::unique_ptr<TracedPolicy> traced;
  if (cfg.trace) {
    const auto snap = store->current();
    replay_agent = agent_with_options(*snap->agent, snap->options);
    traced = std::make_unique<TracedPolicy>(*replay_agent);
  }

  /// Serves one request and checks the response; returns the operation
  /// time (ms), or a negative value for a failed operation. With `ratio`
  /// also returns the makespan ratio to the HEFT placement.
  const auto request = [&](const Instance& inst, bool traced_phase, long op, double* ratio) {
    tracer().set_op(op);
    ++r.attempted;
    const long faults0 = minor_faults();
    const std::uint64_t sims0 = simulation_count();
    const std::uint64_t delta0 = delta_simulation_count();
    Served served;
    const Clock::time_point t0 = Clock::now();
    try {
      ScopedSpan s("serve.request");
      served = serve_one(*server, inst.frame);
    } catch (const std::exception& e) {
      ++r.failed;
      r.fail_check(std::string("request threw: ") + e.what());
      return -1.0;
    }
    const Clock::time_point t1 = Clock::now();
    const long faults1 = minor_faults();
    const std::uint64_t sims = simulation_count() - sims0;
    const std::uint64_t delta = delta_simulation_count() - delta0;
    if (served.resp.status != ResponseStatus::kOk) {
      ++r.failed;
      r.fail_check("request " + served.resp.id + ": " + served.resp.error);
      return -1.0;
    }

    HeftResult heft;
    {
      ScopedSpan s("heft.schedule");
      heft = heft_schedule(inst.g, inst.n, lat);
    }
    const double heft_ms = oracle_simulate(inst.g, inst.n, heft.placement, lat).makespan;
    const double oracle_ms =
        served.resp.placement
            ? oracle_simulate(inst.g, inst.n, *served.resp.placement, lat).makespan
            : 0.0;
    const std::string err =
        check_serve_response(inst.g, inst.n, served.resp, oracle_ms, heft_ms);
    if (!err.empty()) r.fail_check(served.resp.id + ": " + err);
    if (ratio != nullptr) *ratio = served.resp.makespan / heft_ms;

    if (traced_phase && err.empty()) {
      Tracer& t = tracer();
      t.count("serve.queue_ms", served.resp.queue_ms);
      t.count("serve.minor_faults_per_op", static_cast<double>(faults1 - faults0));
      t.count("sim.sims_per_op", static_cast<double>(sims));
      if (sims > 0) t.count("sim.delta_hit_ratio", static_cast<double>(delta) / sims);
      ScopedSpan s("replay");
      PlacementSearchEnv env(inst.g, inst.n, lat, makespan_objective(lat), heft.placement);
      std::mt19937_64 rng(inst.search_seed);
      run_search_anytime(*traced, env, kSteps, rng, true, nullptr);
      if (!(env.best_placement() == *served.resp.placement) ||
          env.best_objective() != served.resp.makespan) {
        r.fail_check(served.resp.id + ": search replay diverged from the server");
      }
    }
    return ms_between(t0, t1);
  };

  std::vector<double> latencies, untraced_latencies;
  long index = 0;
  const auto run_phase = [&](double seconds, bool traced_phase,
                             std::vector<double>& lat_out) {
    tracer().enabled = traced_phase;
    const Clock::time_point start = Clock::now();
    do {
      for (int k = 0; k < kRound; ++k, ++index) {
        const double ms = request(make_instance(cfg.seed, index), traced_phase, index, nullptr);
        if (ms >= 0.0) lat_out.push_back(ms);
      }
    } while (ms_between(start, Clock::now()) < seconds * 1e3);
    tracer().enabled = false;
  };

  if (cfg.trace) {
    run_phase(cfg.seconds / 3.0, false, untraced_latencies);
    run_phase(cfg.seconds * 2.0 / 3.0, true, latencies);
    Tracer& t = tracer();
    add_layer_median(r, "serve.parse_ms", "ms", t.durations_ms("serve.parse"));
    add_layer_median(r, "serve.write_ms", "ms", t.durations_ms("serve.write"));
    add_layer_median(r, "serve.server_ms", "ms", t.durations_ms("serve.server"));
    add_layer_median(r, "serve.queue_ms", "ms", t.count_values("serve.queue_ms"));
    add_layer_mean(r, "serve.minor_faults_per_op", "count",
                   t.count_values("serve.minor_faults_per_op"));
    add_layer_median(r, "heft.schedule_ms", "ms", t.durations_ms("heft.schedule"));
    if (traced->mismatches() > 0) {
      r.fail_check(std::to_string(traced->mismatches()) + " replayed decisions differ");
    }
    finish_per_layer(r, latencies, untraced_latencies);
  } else {
    run_phase(cfg.seconds, false, latencies);
    // Quality: a fixed set of requests served after the timed phase, so
    // quality_ratio is the same in every run of the same program.
    std::vector<double> quality;
    for (long e = 0; e < kEvalRequests; ++e) {
      double ratio = 0.0;
      if (request(make_instance(kEvalSeed, e), false, index + e, &ratio) >= 0.0) {
        quality.push_back(ratio);
      }
    }
    double timed_s = 0.0;
    for (double ms : latencies) timed_s += ms / 1e3;
    add_end_to_end(r, latencies, timed_s, setup_s, quality);
  }
  server.reset();
  return r;
}

}  // namespace perfbench
