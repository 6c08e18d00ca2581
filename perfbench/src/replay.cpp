#include "replay.hpp"

#include <stdexcept>

namespace perfbench {

using namespace giph;

namespace {

void copy_prefix(const std::vector<nn::Var>& src, const std::vector<nn::Var>& dst) {
  // The agent registers encoder, then policy head, then (optionally) the
  // critic; the replay registers the first two in the same order.
  if (src.size() < dst.size()) throw std::logic_error("replay: parameter count mismatch");
  nn::copy_values(std::vector<nn::Var>(src.begin(), src.begin() + dst.size()), dst);
}

}  // namespace

DecisionReplay::DecisionReplay(const GiPHAgent& agent) : opt_(agent.options()) {
  if (!opt_.use_gpnet) throw std::invalid_argument("replay: gpNet agents only");
  std::mt19937_64 rng(opt_.seed);
  GnnConfig cfg;
  cfg.kind = opt_.gnn;
  cfg.embed_dim = opt_.embed_dim;
  cfg.k_steps = opt_.k_steps;
  const bool merged = uses_merged_edge_features(opt_.gnn);
  cfg.node_dim = merged ? kNodeFeatureDim + kEdgeFeatureDim : kNodeFeatureDim;
  cfg.edge_dim = merged ? 0 : kEdgeFeatureDim;
  encoder_ = std::make_unique<GraphEncoder>(reg_, cfg, rng);
  score_ = std::make_unique<ScorePolicy>(reg_, "policy", encoder_->out_dim(), rng);
  begin_episode(agent);
}

void DecisionReplay::begin_episode(const GiPHAgent& agent) {
  // A new instance may live at the previous one's address.
  scales_graph_ = scales_net_ = nullptr;
  copy_prefix(agent.registry().params(), reg_.params());
}

DecisionReplay::Result DecisionReplay::run(const PlacementSearchEnv& env,
                                           std::mt19937_64 rng, bool greedy) {
  if (scales_graph_ != &env.graph() || scales_net_ != &env.network()) {
    scales_ = compute_feature_scales(env.graph(), env.network(), env.latency());
    scales_graph_ = &env.graph();
    scales_net_ = &env.network();
  }
  GpNet net;
  const EstSweepWorkspace* shared = nullptr;
  {
    ScopedSpan s("core.gpnet");
    if (opt_.gpnet_topk > 0) {
      est_sweep(env.schedule(), env.graph(), env.network(), env.placement(),
                env.latency(), sweep_);
      net = build_gpnet_topk(env.graph(), env.network(), env.placement(), env.feasible(),
                             opt_.gpnet_topk, sweep_.est);
      shared = &sweep_;
    } else {
      net = build_gpnet(env.graph(), env.network(), env.placement(), env.feasible());
    }
  }
  GpNetFeatures feats;
  {
    ScopedSpan s("core.features");
    feats = build_gpnet_features(net, env.graph(), env.network(), env.placement(),
                                 env.latency(), env.schedule(), scales_,
                                 opt_.include_potential, &env.schedule_index(), shared);
  }
  std::vector<int> candidates;
  candidates.reserve(static_cast<std::size_t>(net.num_nodes()));
  const auto collect = [&](bool mask_noop, bool mask_repeat) {
    candidates.clear();
    for (int u = 0; u < net.num_nodes(); ++u) {
      if (mask_noop && net.is_pivot[static_cast<std::size_t>(u)]) continue;
      if (mask_repeat && net.node_task[static_cast<std::size_t>(u)] == env.last_moved_task())
        continue;
      candidates.push_back(u);
    }
  };
  collect(opt_.mask_noop, opt_.mask_repeat);
  if (candidates.empty()) collect(opt_.mask_noop, false);
  if (candidates.empty()) collect(false, false);

  nn::Var embeddings;
  {
    ScopedSpan s("core.encode");
    if (uses_merged_edge_features(opt_.gnn)) {
      embeddings = encoder_->encode(net.view, append_mean_out_edge_features(net, feats),
                                    nn::Matrix());
    } else {
      embeddings = encoder_->encode(net.view, feats.node, feats.edge);
    }
  }
  ScorePolicy::Sample sample;
  {
    ScopedSpan s("core.score");
    sample = score_->act(embeddings, candidates, rng, greedy);
  }
  Result r;
  r.action = SearchAction{net.node_task[static_cast<std::size_t>(sample.choice)],
                          net.node_device[static_cast<std::size_t>(sample.choice)]};
  r.log_prob = sample.log_prob;
  r.gpnet_nodes = net.num_nodes();
  return r;
}

TracedPolicy::TracedPolicy(GiPHAgent& agent, int train_batch, double grad_clip,
                           double lr, const char* apply_span)
    : agent_(agent),
      replay_(agent),
      train_batch_(train_batch),
      grad_clip_(grad_clip),
      lr_(lr),
      apply_span_(apply_span) {}

void TracedPolicy::begin_episode() {
  episodes_.push_back(EpisodeMark{Clock::now(), replay_ms_});
  if (next_op_ >= 0) tracer().set_op(next_op_++);
  agent_.begin_episode();
  have_last_ = false;
  if (!tracer().enabled) return;
  // The trainer ran the previous episode's backward (and, at a batch
  // boundary, its update) just before this episode began.
  const Clock::time_point start = Clock::now();
  if (train_batch_ > 0 && !episode_log_probs_.empty()) replay_update();
  replay_.begin_episode(agent_);
  replay_ms_ += ms_between(start, Clock::now());
}

void TracedPolicy::end_training() {
  if (!tracer().enabled || train_batch_ <= 0 || episode_log_probs_.empty()) return;
  const Clock::time_point start = Clock::now();
  replay_update();
  replay_ms_ += ms_between(start, Clock::now());
}

ActionDecision TracedPolicy::decide(PlacementSearchEnv& env, std::mt19937_64& rng,
                                    bool greedy) {
  Tracer& t = tracer();
  if (!t.enabled) return agent_.decide(env, rng, greedy);
  const Clock::time_point start = Clock::now();
  // Spans recorded since the last decision (objective calls inside apply)
  // become children of the apply span.
  if (have_last_) t.add(apply_span_, last_end_, start, spans_at_last_end_);
  const std::mt19937_64 rng_before = rng;
  ActionDecision d;
  {
    ScopedSpan s("core.decide");
    d = agent_.decide(env, rng, greedy);
  }
  const Clock::time_point replay_start = Clock::now();
  {
    ScopedSpan s("replay");
    if (d.log_prob) {
      t.count("nn.tape_nodes_per_step", static_cast<double>(nn::graph_size(d.log_prob)));
    }
    DecisionReplay::Result r = replay_.run(env, rng_before, greedy);
    t.count("core.gpnet_nodes_per_step", r.gpnet_nodes);
    if (r.action.task != d.action.task || r.action.device != d.action.device) {
      ++mismatches_;
    }
    if (train_batch_ > 0) episode_log_probs_.push_back(std::move(r.log_prob));
  }
  last_end_ = Clock::now();
  spans_at_last_end_ = t.spans().size();
  replay_ms_ += ms_between(replay_start, last_end_);
  have_last_ = true;
  return d;
}

void TracedPolicy::replay_update() {
  ScopedSpan outer("replay");
  const std::vector<nn::Var> params = replay_.parameters();
  // The weights do not change the work of the backward pass; a uniform
  // advantage keeps every path of the tape live.
  const std::vector<double> weights(episode_log_probs_.size(),
                                    -1.0 / static_cast<double>(episode_log_probs_.size()));
  const nn::Var loss = nn::weighted_sum(episode_log_probs_, weights);
  {
    ScopedSpan s("nn.backward");
    nn::backward(loss);
  }
  episode_log_probs_.clear();
  if (grad_accum_.empty()) grad_accum_.resize(params.size());
  nn::add_grads(grad_accum_, nn::take_grads(params));
  if (++episodes_replayed_ % train_batch_ == 0) {
    if (!adam_) adam_ = std::make_unique<nn::Adam>(params, lr_);
    nn::install_grads(params, std::move(grad_accum_));
    grad_accum_.assign(params.size(), nn::Matrix());
    ScopedSpan s("nn.optimizer");
    nn::clip_grad_norm(params, grad_clip_);
    adam_->step();
  }
}

std::unique_ptr<GiPHAgent> agent_with_options(const GiPHAgent& src,
                                              const GiPHOptions& options) {
  auto out = std::make_unique<GiPHAgent>(options);
  nn::copy_values(src.registry().params(), out->registry().params());
  return out;
}

}  // namespace perfbench
