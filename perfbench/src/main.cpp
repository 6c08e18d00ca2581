// giph_perfbench: runs one benchmark workload and prints its metrics.
//
//   giph_perfbench --workload serve|train|scale|stream --seed N --seconds S
//                  --trace 0|1 [--snapshot FILE] [--trace-out FILE]
//   giph_perfbench --selfcheck
//
// Every run first feeds each correctness check a corrupted output and stops
// if one is not caught. The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 the
// per-layer ones, derived from spans recorded around calls into the program.
// The exit code is 0 only when every operation succeeded and passed its
// checks.

#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <string>

#include "checks.hpp"
#include "workloads.hpp"

using namespace perfbench;

namespace {

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "giph_perfbench: %s\n"
               "usage: giph_perfbench --workload serve|train|scale|stream --seed N "
               "--seconds S --trace 0|1 [--snapshot FILE] [--trace-out FILE]\n"
               "       giph_perfbench --selfcheck\n",
               why.c_str());
  std::exit(2);
}

void print_result(const RunConfig& cfg, const RunResult& r) {
  std::printf("workload %s  seed %llu  %s  attempted %ld  failed %ld  correct %s\n",
              cfg.workload.c_str(), static_cast<unsigned long long>(cfg.seed),
              cfg.trace ? "traced" : "untraced", r.attempted, r.failed,
              r.correct ? "yes" : "NO");
  for (const auto& [name, m] : r.metrics) {
    std::printf("  %-30s %16.6f %s\n", name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %ld, \"failed\": %ld, \"metrics\": {",
              r.correct ? "true" : "false", r.attempted, r.failed);
  bool first = true;
  for (const auto& [name, m] : r.metrics) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", first ? "" : ", ",
                name.c_str(), m.value, m.unit.c_str());
    first = false;
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

}  // namespace

int main(int argc, char** argv) {
  RunConfig cfg;
  cfg.snapshot_path = "perfbench/policy.snapshot";
  bool selfcheck = false;
  bool have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--selfcheck") {
      selfcheck = true;
      continue;
    }
    if (i + 1 >= argc) usage("missing value for " + a);
    const std::string v = argv[++i];
    try {
      if (a == "--workload") {
        cfg.workload = v;
      } else if (a == "--seed") {
        cfg.seed = std::stoull(v);
      } else if (a == "--seconds") {
        cfg.seconds = std::stod(v);
      } else if (a == "--trace") {
        if (v != "0" && v != "1") usage("--trace takes 0 or 1");
        cfg.trace = v == "1";
        have_trace = true;
      } else if (a == "--snapshot") {
        cfg.snapshot_path = v;
      } else if (a == "--trace-out") {
        cfg.trace_out = v;
      } else {
        usage("unknown flag " + a);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + a + ": " + v);
    }
  }

  // The checks must be able to fail before their passing means anything.
  const int missed = run_selfcheck(selfcheck);
  if (selfcheck) {
    std::printf("selfcheck: %s\n", missed == 0 ? "every corruption caught" : "MISSED");
    return missed == 0 ? 0 : 1;
  }
  if (missed != 0) {
    std::fprintf(stderr, "giph_perfbench: %d checks missed their corrupted output\n", missed);
    return 3;
  }
  if (!have_trace) usage("--trace is required");
  if (!(cfg.seconds > 0.0)) usage("--seconds must be positive");

  RunResult r;
  try {
    if (cfg.workload == "serve") {
      r = run_serve(cfg);
    } else if (cfg.workload == "train") {
      r = run_train(cfg);
    } else if (cfg.workload == "scale") {
      r = run_scale(cfg);
    } else if (cfg.workload == "stream") {
      r = run_stream(cfg);
    } else {
      usage("unknown workload '" + cfg.workload + "'");
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "giph_perfbench: %s\n", e.what());
    return 1;
  }

  for (const std::string& e : r.errors) std::fprintf(stderr, "check failed: %s\n", e.c_str());
  if (cfg.trace) {
    std::fprintf(stderr, "%s", tracer().self_time_table().c_str());
    if (!cfg.trace_out.empty() && !tracer().write_chrome_json(cfg.trace_out)) {
      std::fprintf(stderr, "giph_perfbench: cannot write %s\n", cfg.trace_out.c_str());
    }
  }
  print_result(cfg, r);
  return r.correct && r.failed == 0 ? 0 : 1;
}
