#pragma once

// Per-step tracing of a GiPH agent from outside the program.
//
// TracedPolicy wraps the agent the workload runs. Around each decide() it
// records a core.decide span, the tape size of the decision, and a
// sim.apply span covering the interval between one decision's return and the
// next decision's call, which the search loop spends in
// PlacementSearchEnv::apply plus O(1) bookkeeping. After the real decision it
// replays the decision pipeline (build_gpnet, build_gpnet_features,
// GraphEncoder::encode, ScorePolicy::act) on the same environment state with
// a copy of the agent's parameters, timing each stage; the replay must pick
// the agent's action, so drift between the replay and the agent is counted.
// Replay work is recorded under "replay" spans, which the workloads subtract
// from traced operation latencies.

#include <cstdint>
#include <memory>
#include <random>
#include <vector>

#include "core/features.hpp"
#include "core/giph_agent.hpp"
#include "core/gnn.hpp"
#include "nn/optimizer.hpp"
#include "trace.hpp"

namespace perfbench {

class DecisionReplay {
 public:
  explicit DecisionReplay(const giph::GiPHAgent& agent);

  /// Starts an episode like GiPHAgent::begin_episode (drops the cached
  /// feature scales) and copies the agent's current parameter values.
  void begin_episode(const giph::GiPHAgent& agent);

  struct Result {
    giph::SearchAction action;
    giph::nn::Var log_prob;
    int gpnet_nodes = 0;
  };
  /// Replays one decision on env's current state; `rng` must be a copy of
  /// the agent's RNG taken before its decision.
  Result run(const giph::PlacementSearchEnv& env, std::mt19937_64 rng, bool greedy);

  std::vector<giph::nn::Var> parameters() const { return reg_.params(); }

 private:
  giph::GiPHOptions opt_;
  giph::nn::ParamRegistry reg_;
  std::unique_ptr<giph::GraphEncoder> encoder_;
  std::unique_ptr<giph::ScorePolicy> score_;
  giph::FeatureScales scales_;
  const void* scales_graph_ = nullptr;
  const void* scales_net_ = nullptr;
  giph::EstSweepWorkspace sweep_;
};

class TracedPolicy final : public giph::SearchPolicy {
 public:
  /// `train_batch` > 0 turns on the training replay: the replay keeps each
  /// episode's log-probabilities and, when the next episode begins, times
  /// nn::backward over them (nn.backward span) and, every `train_batch`
  /// episodes, clip_grad_norm + Adam::step on the replay's own parameters
  /// (nn.optimizer span), mirroring the trainer's batched updates. The
  /// agent's parameters are never touched by the replay.
  /// `apply_span` names the spans between decisions.
  explicit TracedPolicy(giph::GiPHAgent& agent, int train_batch = 0,
                        double grad_clip = 10.0, double lr = 0.01,
                        const char* apply_span = "sim.apply");

  /// Delegates to the agent; with tracing on, also records the spans above.
  giph::ActionDecision decide(giph::PlacementSearchEnv& env, std::mt19937_64& rng,
                              bool greedy) override;
  std::vector<giph::nn::Var> parameters() override { return agent_.parameters(); }
  /// Records the episode boundary (always) and runs the pending training
  /// replay (tracing on).
  void begin_episode() override;
  std::string name() const override { return agent_.name(); }

  /// Runs the training replay of the last episode of a train_reinforce call.
  void end_training();

  /// Makes each begin_episode() set the tracer's operation id, starting at
  /// `first_op` (training, where an operation is an episode).
  void number_episodes(std::int64_t first_op) { next_op_ = first_op; }

  struct EpisodeMark {
    Clock::time_point start;
    double replay_ms = 0.0;  ///< replay_ms() when the episode began
  };
  /// One mark per begin_episode() call.
  const std::vector<EpisodeMark>& episodes() const { return episodes_; }

  long mismatches() const { return mismatches_; }
  /// Total wall time spent in replay work (ms), so workloads can take it out
  /// of traced operation latencies.
  double replay_ms() const { return replay_ms_; }

 private:
  void replay_update();

  giph::GiPHAgent& agent_;
  DecisionReplay replay_;
  int train_batch_;
  double grad_clip_;
  double lr_;
  const char* apply_span_;
  int episodes_replayed_ = 0;
  std::int64_t next_op_ = -1;
  std::vector<giph::nn::Var> episode_log_probs_;
  std::vector<giph::nn::Matrix> grad_accum_;
  std::unique_ptr<giph::nn::Adam> adam_;
  std::vector<EpisodeMark> episodes_;
  bool have_last_ = false;
  Clock::time_point last_end_;
  std::size_t spans_at_last_end_ = 0;
  long mismatches_ = 0;
  double replay_ms_ = 0.0;
};

/// Copies the agent's parameters into a fresh agent built from `options`
/// (for example the snapshot's architecture with gpnet_topk set).
std::unique_ptr<giph::GiPHAgent> agent_with_options(const giph::GiPHAgent& src,
                                                    const giph::GiPHOptions& options);

}  // namespace perfbench
