#pragma once

// Shared types of the benchmark program: run configuration, the per-run result
// every workload fills, and the order statistics the metrics are made of.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "trace.hpp"

namespace perfbench {

struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string snapshot_path;  ///< committed policy snapshot
  std::string trace_out;      ///< Chrome trace file of the traced run ("" = none)
};

struct Metric {
  double value = 0.0;
  std::string unit;
};

struct RunResult {
  bool correct = true;
  long attempted = 0;
  long failed = 0;
  std::map<std::string, Metric> metrics;
  std::vector<std::string> errors;  ///< first few check failures, for stderr

  void fail_check(const std::string& what) {
    correct = false;
    if (errors.size() < 8) errors.push_back(what);
  }
};

/// Set-up repetitions per run; setup_s is their median.
inline constexpr int kSetupRepeats = 5;
/// Seed of the set-up inputs (first-call warm-ups). Fixed, so that set-up
/// does the same work whatever the run seed.
inline constexpr std::uint64_t kSetupSeed = 0x5e7u;
/// Seed of the fixed evaluation inputs quality_ratio is measured on, so it
/// repeats exactly in every run of the same program.
inline constexpr std::uint64_t kEvalSeed = 0xe7a1u;

double median(std::vector<double> xs);
/// The highest percentile with at least ten samples beyond it: the 11th
/// largest sample. Below 40 samples that percentile is no tail, and the
/// median is returned instead.
double tail_value(std::vector<double> xs);
double mean(const std::vector<double>& xs);
double geomean(const std::vector<double>& xs);

/// splitmix64 of (a, b): decorrelated per-operation seeds from the run seed.
std::uint64_t mix_seed(std::uint64_t a, std::uint64_t b);

double peak_rss_mb();
long minor_faults();

/// End-to-end metrics shared by all workloads, from per-operation latencies
/// (ms), the timed-phase total (s) and the per-instance quality ratios of
/// the fixed evaluation set (quality_ratio is their geometric mean).
void add_end_to_end(RunResult& r, const std::vector<double>& latencies_ms,
                    double timed_seconds, const std::vector<double>& setup_s,
                    const std::vector<double>& quality);

/// Traced-run metric helpers: the median of the samples, or 0 when the layer
/// has no samples on this workload (it is not exercised there).
void add_layer_median(RunResult& r, const std::string& name, const std::string& unit,
                      const std::vector<double>& samples);
void add_layer_mean(RunResult& r, const std::string& name, const std::string& unit,
                    const std::vector<double>& samples);

/// Adds the per-layer metrics every workload derives the same way from the
/// spans, then zero entries for every listed metric the workload did not
/// produce, so each traced run reports the full per-layer set.
void finish_per_layer(RunResult& r, const std::vector<double>& traced_latency_ms,
                      const std::vector<double>& untraced_latency_ms);

}  // namespace perfbench
