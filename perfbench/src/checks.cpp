#include "checks.hpp"

#include <cmath>
#include <cstring>
#include <cstdio>
#include <functional>
#include <limits>
#include <random>
#include <sstream>

#include "gen/device_network_gen.hpp"
#include "gen/task_graph_gen.hpp"
#include "heft/heft.hpp"
#include "sim/latency_model.hpp"
#include "verify/oracle.hpp"

namespace perfbench {

using namespace giph;

namespace {

std::string bits(double x) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", x);
  return buf;
}

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

std::string check_round_trip(const serve::PlacementResponse& resp,
                             const std::string& frame) {
  std::istringstream in(frame);
  serve::PlacementResponse back;
  try {
    if (!serve::read_response(in, back)) return "round trip: empty frame";
  } catch (const std::exception& e) {
    return std::string("round trip: ") + e.what();
  }
  if (back.id != resp.id || back.status != resp.status || back.mode != resp.mode ||
      back.deadline_exceeded != resp.deadline_exceeded || back.steps != resp.steps ||
      back.error != resp.error || back.placement != resp.placement ||
      !same_bits(back.makespan, resp.makespan) ||
      !same_bits(back.queue_ms, resp.queue_ms) ||
      !same_bits(back.search_ms, resp.search_ms)) {
    return "round trip changed the response of " + resp.id;
  }
  return "";
}

}  // namespace

std::string check_hardware_sets(const TaskGraph& g, const DeviceNetwork& n,
                                const Placement& p) {
  if (p.num_tasks() != g.num_tasks()) {
    return "placement covers " + std::to_string(p.num_tasks()) + " of " +
           std::to_string(g.num_tasks()) + " tasks";
  }
  for (int v = 0; v < g.num_tasks(); ++v) {
    const int d = p.assignments()[static_cast<std::size_t>(v)];
    if (d < 0 || d >= n.num_devices()) {
      return "task " + std::to_string(v) + " on nonexistent device " + std::to_string(d);
    }
    const Task& t = g.task(v);
    if (t.pinned >= 0 && d != t.pinned) {
      return "task " + std::to_string(v) + " pinned to " + std::to_string(t.pinned) +
             " but placed on " + std::to_string(d);
    }
    const HwMask have = n.device(d).supports_hw;
    if ((t.requires_hw & ~have) != 0) {
      return "task " + std::to_string(v) + " needs hardware outside device " +
             std::to_string(d) + "'s set";
    }
  }
  return "";
}

std::string check_serve_response(const TaskGraph& g, const DeviceNetwork& n,
                                 const serve::PlacementResponse& resp,
                                 double oracle_makespan, double heft_makespan) {
  if (resp.status != serve::ResponseStatus::kOk) {
    return "status " + std::string(serve::to_string(resp.status)) + ": " + resp.error;
  }
  if (resp.mode != serve::ServeMode::kPolicy) {
    return "mode " + std::string(serve::to_string(resp.mode)) + ", expected policy";
  }
  if (!resp.placement) return "ok response without a placement";
  std::string err = check_hardware_sets(g, n, *resp.placement);
  if (!err.empty()) return err;
  if (!same_bits(resp.makespan, oracle_makespan)) {
    return "makespan " + bits(resp.makespan) + " != oracle " + bits(oracle_makespan);
  }
  if (!(resp.makespan <= heft_makespan)) {
    return "makespan " + bits(resp.makespan) + " worse than HEFT warm start " +
           bits(heft_makespan);
  }
  std::ostringstream frame;
  serve::write_response(frame, resp);
  return check_round_trip(resp, frame.str());
}

std::string check_training(const TrainStats& stats, const std::vector<nn::Var>& params) {
  if (stats.episode_best.size() != stats.episode_initial.size()) {
    return "training stats of unequal length";
  }
  for (std::size_t e = 0; e < stats.episode_best.size(); ++e) {
    if (!(stats.episode_best[e] <= stats.episode_initial[e])) {
      return "episode " + std::to_string(e) + " best " + bits(stats.episode_best[e]) +
             " worse than initial " + bits(stats.episode_initial[e]);
    }
  }
  for (std::size_t k = 0; k < params.size(); ++k) {
    const nn::Matrix& m = params[k]->value;
    for (std::size_t i = 0; i < m.size(); ++i) {
      if (!std::isfinite(m.data()[i])) {
        return "parameter " + std::to_string(k) + " holds a non-finite value";
      }
    }
  }
  return "";
}

std::string check_objective_equals(double reported, double oracle, const char* what) {
  if (!same_bits(reported, oracle)) {
    return std::string(what) + " " + bits(reported) + " != oracle " + bits(oracle);
  }
  return "";
}

std::string check_partition(const TaskGraph& g, const GraphPartition& part) {
  const int nt = g.num_tasks();
  if (static_cast<int>(part.members.size()) != part.num_clusters()) {
    return "member lists do not match the coarse graph";
  }
  std::vector<int> seen(static_cast<std::size_t>(nt), 0);
  for (const std::vector<int>& members : part.members) {
    for (int v : members) {
      if (v < 0 || v >= nt) return "a cluster holds bad task id " + std::to_string(v);
      ++seen[static_cast<std::size_t>(v)];
    }
  }
  for (int v = 0; v < nt; ++v) {
    if (seen[static_cast<std::size_t>(v)] != 1) {
      return "task " + std::to_string(v) + " lies in " +
             std::to_string(seen[static_cast<std::size_t>(v)]) + " clusters";
    }
  }
  for (int c = 0; c < part.num_clusters(); ++c) {
    double compute = 0.0;
    for (int v : part.members[static_cast<std::size_t>(c)]) compute += g.task(v).compute;
    const double coarse = part.coarse.task(c).compute;
    if (std::abs(coarse - compute) > 1e-9 * (1.0 + std::abs(compute))) {
      return "cluster " + std::to_string(c) + " compute " + bits(coarse) +
             " != member sum " + bits(compute);
    }
  }
  return "";
}

std::string check_hierarchical(const TaskGraph& g, const DeviceNetwork& n,
                               const Placement& fine, const HierarchicalStats& stats,
                               double objective_of, double oracle_makespan,
                               double normalizer) {
  std::string err = check_hardware_sets(g, n, fine);
  if (!err.empty()) return err;
  if (!(stats.refined_objective <= stats.expanded_objective)) {
    return "refined " + bits(stats.refined_objective) + " worse than expanded " +
           bits(stats.expanded_objective);
  }
  const double norm = normalizer > 0.0 ? normalizer : 1.0;
  err = check_objective_equals(objective_of, oracle_makespan / norm, "objective_of");
  if (!err.empty()) return err;
  return check_objective_equals(stats.refined_objective, objective_of,
                                "refined objective");
}

std::string check_stream(double best_objective, const StreamResult& oracle,
                         int requested_frames) {
  if (oracle.frames < 1 || oracle.frames > requested_frames) {
    return "oracle simulated " + std::to_string(oracle.frames) + " of " +
           std::to_string(requested_frames) + " requested frames";
  }
  return check_objective_equals(best_objective, oracle.p99_latency, "best p99");
}

int run_selfcheck(bool verbose) {
  // A small seeded instance and its (correct) outputs; each case corrupts one
  // output the way a faulty program could and expects its check to object.
  std::mt19937_64 rng(12345);
  TaskGraphParams gp;
  gp.num_tasks = 12;
  gp.p_task_requires = 0.6;
  NetworkParams np;
  np.num_devices = 5;
  np.p_hw_support = 0.4;
  const TaskGraph g = generate_task_graph(gp, rng);
  DeviceNetwork n = generate_device_network(np, rng);
  ensure_feasible(g, n, rng);
  const DefaultLatencyModel lat;
  const Placement good = heft_schedule(g, n, lat).placement;
  const double good_ms = oracle_simulate(g, n, good, lat).makespan;
  const double up = std::nextafter(good_ms, std::numeric_limits<double>::infinity());

  serve::PlacementResponse resp;
  resp.id = "selfcheck";
  resp.mode = serve::ServeMode::kPolicy;
  resp.makespan = good_ms;
  resp.steps = 3;
  resp.placement = good;

  // A task with a restricted hardware set, moved to a device outside it.
  Placement bad_hw = good;
  for (int v = 0; v < g.num_tasks() && bad_hw == good; ++v) {
    for (int d = 0; d < n.num_devices(); ++d) {
      if (!hw_compatible(g.task(v).requires_hw, n.device(d).supports_hw) ||
          (g.task(v).pinned >= 0 && d != g.task(v).pinned)) {
        bad_hw.set(v, d);
        break;
      }
    }
  }

  struct Case {
    const char* name;
    std::function<std::string()> clean;
    std::function<std::string()> corrupt;
  };
  std::vector<Case> cases;
  cases.push_back({"serve: task outside its hardware set",
                   [&] { return check_serve_response(g, n, resp, good_ms, good_ms); },
                   [&] {
                     serve::PlacementResponse r = resp;
                     r.placement = bad_hw;
                     return check_serve_response(g, n, r, good_ms, good_ms);
                   }});
  cases.push_back({"serve: makespan off by one ulp",
                   [&] { return check_serve_response(g, n, resp, good_ms, good_ms); },
                   [&] {
                     serve::PlacementResponse r = resp;
                     r.makespan = up;
                     return check_serve_response(g, n, r, good_ms, up);
                   }});
  cases.push_back({"serve: worse than the HEFT warm start",
                   [&] { return check_serve_response(g, n, resp, good_ms, good_ms); },
                   [&] {
                     return check_serve_response(
                         g, n, resp, good_ms,
                         std::nextafter(good_ms, -std::numeric_limits<double>::infinity()));
                   }});
  cases.push_back({"serve: round trip loses a digit",
                   [&] {
                     std::ostringstream f;
                     serve::write_response(f, resp);
                     return check_round_trip(resp, f.str());
                   },
                   [&] {
                     serve::PlacementResponse r = resp;
                     r.makespan = up;
                     std::ostringstream f;
                     serve::write_response(f, r);
                     return check_round_trip(resp, f.str());
                   }});

  std::vector<nn::Var> params{nn::parameter(nn::Matrix(2, 2))};
  TrainStats stats;
  stats.episode_initial = {2.0, 3.0};
  stats.episode_best = {1.5, 3.0};
  cases.push_back({"train: non-finite parameter",
                   [&] { return check_training(stats, params); },
                   [&] {
                     std::vector<nn::Var> p{nn::parameter(nn::Matrix(2, 2))};
                     p[0]->value.data()[3] = std::numeric_limits<double>::quiet_NaN();
                     return check_training(stats, p);
                   }});
  cases.push_back({"train: episode best worse than initial",
                   [&] { return check_training(stats, params); },
                   [&] {
                     TrainStats s = stats;
                     s.episode_best[1] = std::nextafter(3.0, 4.0);
                     return check_training(s, params);
                   }});
  cases.push_back({"train: held-out makespan off by one ulp",
                   [&] { return check_objective_equals(good_ms, good_ms, "held-out"); },
                   [&] { return check_objective_equals(up, good_ms, "held-out"); }});

  PartitionOptions popt;
  popt.num_clusters = 4;
  const GraphPartition part = partition_tasks(g, n, popt);
  cases.push_back({"scale: task in two clusters",
                   [&] { return check_partition(g, part); },
                   [&] {
                     GraphPartition p = part;
                     p.members[1].push_back(p.members[0].front());
                     return check_partition(g, p);
                   }});
  cases.push_back({"scale: cluster compute differs from its members",
                   [&] { return check_partition(g, part); },
                   [&] {
                     GraphPartition p = part;
                     p.coarse.task(0).compute += 1.0;
                     return check_partition(g, p);
                   }});
  HierarchicalStats hs;
  const double norm = 7.0;
  hs.expanded_objective = good_ms / norm;
  hs.refined_objective = good_ms / norm;
  cases.push_back({"scale: infeasible placement",
                   [&] {
                     return check_hierarchical(g, n, good, hs, good_ms / norm, good_ms, norm);
                   },
                   [&] {
                     return check_hierarchical(g, n, bad_hw, hs, good_ms / norm, good_ms,
                                               norm);
                   }});
  cases.push_back({"scale: refinement worsened the expansion",
                   [&] {
                     return check_hierarchical(g, n, good, hs, good_ms / norm, good_ms, norm);
                   },
                   [&] {
                     HierarchicalStats s = hs;
                     s.expanded_objective =
                         std::nextafter(hs.refined_objective, 0.0);
                     return check_hierarchical(g, n, good, s, good_ms / norm, good_ms, norm);
                   }});
  cases.push_back({"scale: objective_of off by one ulp",
                   [&] {
                     return check_hierarchical(g, n, good, hs, good_ms / norm, good_ms, norm);
                   },
                   [&] {
                     const double off = std::nextafter(good_ms / norm, 1e300);
                     HierarchicalStats s = hs;
                     s.refined_objective = off;
                     s.expanded_objective = off;
                     return check_hierarchical(g, n, good, s, off, good_ms, norm);
                   }});

  StreamOptions sopt;
  sopt.frames = 6;
  sopt.interval = good_ms / 3.0;
  const StreamResult sr = oracle_simulate_streaming(g, n, good, lat, sopt);
  cases.push_back({"stream: p99 off by one ulp",
                   [&] { return check_stream(sr.p99_latency, sr, sopt.frames); },
                   [&] {
                     return check_stream(std::nextafter(sr.p99_latency, 1e300), sr,
                                         sopt.frames);
                   }});
  cases.push_back({"stream: more frames than requested",
                   [&] { return check_stream(sr.p99_latency, sr, sopt.frames); },
                   [&] { return check_stream(sr.p99_latency, sr, sopt.frames - 1); }});

  int missed = 0;
  if (bad_hw == good) {
    std::fprintf(stderr, "selfcheck: instance has no restricted hardware set\n");
    ++missed;
  }
  for (const Case& c : cases) {
    const std::string clean = c.clean();
    const std::string corrupt = c.corrupt();
    const bool ok = clean.empty() && !corrupt.empty();
    if (!ok) ++missed;
    if (verbose || !ok) {
      std::fprintf(stderr, "selfcheck %-46s %s%s%s\n", c.name, ok ? "caught" : "MISSED",
                   clean.empty() ? "" : " (clean output rejected: ",
                   clean.empty() ? "" : (clean + ")").c_str());
      if (verbose && ok) std::fprintf(stderr, "    -> %s\n", corrupt.c_str());
    }
  }
  return missed;
}

}  // namespace perfbench
