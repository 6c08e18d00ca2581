#include "common.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <fstream>
#include <numeric>

namespace perfbench {

namespace {

struct LayerMetric {
  const char* name;
  const char* unit;
};

/// Every per-layer metric, in BENCHMARK.json order. A traced run reports
/// all of them; a layer a workload does not exercise reads 0.
constexpr LayerMetric kPerLayer[] = {
    {"serve.parse_ms", "ms"},
    {"serve.server_ms", "ms"},
    {"serve.write_ms", "ms"},
    {"serve.queue_ms", "ms"},
    {"serve.minor_faults_per_op", "count"},
    {"heft.schedule_ms", "ms"},
    {"core.decide_ms", "ms"},
    {"core.gpnet_ms", "ms"},
    {"core.features_ms", "ms"},
    {"core.encode_ms", "ms"},
    {"core.score_ms", "ms"},
    {"core.decide_unattributed_ms", "ms"},
    {"core.gpnet_nodes_per_step", "count"},
    {"core.place_clusters_ms", "ms"},
    {"core.refine_ms", "ms"},
    {"core.refine_moves_tried", "count"},
    {"core.refine_moves_kept", "count"},
    {"nn.tape_nodes_per_step", "count"},
    {"nn.backward_ms", "ms"},
    {"nn.optimizer_ms", "ms"},
    {"sim.apply_ms", "ms"},
    {"sim.delta_hit_ratio", "ratio"},
    {"sim.sims_per_op", "count"},
    {"sim.stream_eval_ms", "ms"},
    {"sim.stream_frames_per_eval", "count"},
    {"gen.partition_ms", "ms"},
    {"trace.latency_ms", "ms"},
    {"trace.overhead_ratio", "ratio"},
};

}  // namespace

double median(std::vector<double> xs) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const std::size_t n = xs.size();
  return n % 2 == 1 ? xs[n / 2] : 0.5 * (xs[n / 2 - 1] + xs[n / 2]);
}

double tail_value(std::vector<double> xs) {
  if (xs.size() < 40) return median(std::move(xs));
  std::sort(xs.begin(), xs.end());
  return xs[xs.size() - 11];
}

double mean(const std::vector<double>& xs) {
  if (xs.empty()) return 0.0;
  return std::accumulate(xs.begin(), xs.end(), 0.0) / static_cast<double>(xs.size());
}

double geomean(const std::vector<double>& xs) {
  if (xs.empty()) return 0.0;
  double logs = 0.0;
  for (double x : xs) logs += std::log(x);
  return std::exp(logs / static_cast<double>(xs.size()));
}

std::uint64_t mix_seed(std::uint64_t a, std::uint64_t b) {
  std::uint64_t z = a * 0x9e3779b97f4a7c15ULL + b + 0x632be59bd9b4e019ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

double peak_rss_mb() {
  // VmHWM is this program's own high-water mark. getrusage's ru_maxrss is
  // not: Linux carries the parent's resident size across fork and exec into
  // it, so a run launched from a large interpreter would report that.
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;  // kB
  }
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

long minor_faults() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return ru.ru_minflt;
}

void add_end_to_end(RunResult& r, const std::vector<double>& latencies_ms,
                    double timed_seconds, const std::vector<double>& setup_s,
                    const std::vector<double>& quality) {
  r.metrics["setup_s"] = {median(setup_s), "s"};
  r.metrics["throughput_per_s"] = {
      timed_seconds > 0.0 ? static_cast<double>(latencies_ms.size()) / timed_seconds : 0.0,
      "1/s"};
  r.metrics["latency_ms"] = {median(latencies_ms), "ms"};
  r.metrics["tail_ms"] = {tail_value(latencies_ms), "ms"};
  r.metrics["quality_ratio"] = {geomean(quality), "ratio"};
  r.metrics["peak_rss_mb"] = {peak_rss_mb(), "MiB"};
}

void add_layer_median(RunResult& r, const std::string& name, const std::string& unit,
                      const std::vector<double>& samples) {
  r.metrics[name] = {median(samples), unit};
}

void add_layer_mean(RunResult& r, const std::string& name, const std::string& unit,
                    const std::vector<double>& samples) {
  r.metrics[name] = {mean(samples), unit};
}

void finish_per_layer(RunResult& r, const std::vector<double>& traced_latency_ms,
                      const std::vector<double>& untraced_latency_ms) {
  const Tracer& t = tracer();
  const std::vector<double> decide = t.durations_ms("core.decide");
  add_layer_median(r, "core.decide_ms", "ms", decide);
  const char* parts[] = {"core.gpnet", "core.features", "core.encode", "core.score"};
  double parts_mean = 0.0;
  for (const char* p : parts) {
    const std::vector<double> d = t.durations_ms(p);
    add_layer_median(r, std::string(p) + "_ms", "ms", d);
    parts_mean += mean(d);
  }
  // What the replayed stages leave of a decision: masking, scale caching and
  // index building inside the agent, plus any drift between the two.
  r.metrics["core.decide_unattributed_ms"] = {decide.empty() ? 0.0 : mean(decide) - parts_mean,
                                              "ms"};
  add_layer_mean(r, "core.gpnet_nodes_per_step", "count",
                 t.count_values("core.gpnet_nodes_per_step"));
  add_layer_mean(r, "nn.tape_nodes_per_step", "count", t.count_values("nn.tape_nodes_per_step"));
  add_layer_median(r, "nn.backward_ms", "ms", t.durations_ms("nn.backward"));
  add_layer_median(r, "nn.optimizer_ms", "ms", t.durations_ms("nn.optimizer"));
  add_layer_median(r, "sim.apply_ms", "ms", t.durations_ms("sim.apply"));
  add_layer_mean(r, "sim.delta_hit_ratio", "ratio", t.count_values("sim.delta_hit_ratio"));
  add_layer_mean(r, "sim.sims_per_op", "count", t.count_values("sim.sims_per_op"));
  const double traced = median(traced_latency_ms);
  const double untraced = median(untraced_latency_ms);
  r.metrics["trace.latency_ms"] = {traced, "ms"};
  r.metrics["trace.overhead_ratio"] = {untraced > 0.0 ? traced / untraced : 0.0, "ratio"};
  for (const LayerMetric& m : kPerLayer) {
    if (r.metrics.find(m.name) == r.metrics.end()) r.metrics[m.name] = {0.0, m.unit};
  }
}

}  // namespace perfbench
