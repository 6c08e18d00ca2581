#pragma once

// Independent correctness checks of every operation's output. Each compares
// against a computation made apart from the code under test (the reference
// oracle simulators of src/verify, a direct reading of the hardware sets) or
// against a property the method must have; none compares against a stored
// copy of earlier output. Every check returns "" when the output passes and a
// one-line reason otherwise.

#include <string>
#include <vector>

#include "core/hierarchical.hpp"
#include "core/reinforce.hpp"
#include "serve/protocol.hpp"
#include "sim/stream.hpp"

namespace perfbench {

/// Every task sits on a device whose hardware set covers the task's
/// requirement mask (and on its pin, when pinned), read from the task and
/// device records directly.
std::string check_hardware_sets(const giph::TaskGraph& g, const giph::DeviceNetwork& n,
                                const giph::Placement& p);

/// A served response: status ok in policy mode, a placement that satisfies
/// the request's hardware sets, a makespan bitwise equal to the reference
/// oracle's makespan of that placement and no worse than the HEFT warm
/// start's, and a write_response/read_response round trip that changes no
/// field.
std::string check_serve_response(const giph::TaskGraph& g, const giph::DeviceNetwork& n,
                                 const giph::serve::PlacementResponse& resp,
                                 double oracle_makespan, double heft_makespan);

/// A training round: every episode's best objective is no worse than its
/// initial one, and every parameter value is finite.
std::string check_training(const giph::TrainStats& stats,
                           const std::vector<giph::nn::Var>& params);

/// A held-out search result: the reported best objective equals the oracle
/// makespan of the reported placement, bitwise.
std::string check_objective_equals(double reported, double oracle, const char* what);

/// Partition invariants: every task lies in exactly one cluster, and every
/// cluster's compute equals the sum of its members' compute.
std::string check_partition(const giph::TaskGraph& g, const giph::GraphPartition& part);

/// A hierarchical placement: feasible, refined objective no worse than the
/// expanded one, and objective_of equal to oracle makespan / normalizer.
std::string check_hierarchical(const giph::TaskGraph& g, const giph::DeviceNetwork& n,
                               const giph::Placement& fine,
                               const giph::HierarchicalStats& stats,
                               double objective_of, double oracle_makespan,
                               double normalizer);

/// A streaming search: the best objective equals the oracle's p99 for the
/// best placement, and the oracle simulated at most the requested frames.
std::string check_stream(double best_objective, const giph::StreamResult& oracle,
                         int requested_frames);

/// Feeds every check one corrupted output and reports each that fails to
/// catch it; returns the number of checks that missed their corruption.
int run_selfcheck(bool verbose);

}  // namespace perfbench
