#pragma once

// The one discrete-event core behind every simulator entry point:
// simulate_into() / simulate() and simulate_streaming() run it through
// simulate_core(), simulate_with_faults() adds its fault actions as engine
// events, and simulate_delta() reconstructs a mid-run state into the
// SimWorkspace and replays the suffix. Having exactly one copy of the event
// semantics is what makes the incremental path bitwise-identical to the full
// one, and the fault path a strict superset of simulate(), by construction.
// Internal header: not part of the public API.

#include <algorithm>
#include <limits>
#include <random>
#include <string>

#include "sim/faults.hpp"
#include "sim/simulator.hpp"

namespace giph::detail {

constexpr int kTaskDone = 0;
constexpr int kTransferDone = 1;
constexpr int kBreakpoint = 2;
constexpr int kFrameArrival = 3;
constexpr int kFaultAction = 4;

/// Streaming context for simulate_core(): the graph being simulated is F
/// frame-copies of a base graph (virtual task id = f * base_tasks + v, no
/// cross-frame edges), and frame f's entry tasks become runnable at
/// arrivals[f] instead of t = 0. Frame 0 always arrives at t = 0 and is
/// released exactly like simulate()'s entry tasks, so a 1-frame plan adds no
/// events and reproduces the one-shot run bitwise.
struct StreamPlan {
  int base_tasks = 0;  ///< V of the base (one-frame) graph
  /// Entry task ids of the base graph, ascending; frame f releases the copies
  /// f * base_tasks + v in this order.
  const std::vector<int>* entries = nullptr;
  /// Per-frame arrival times, non-decreasing, arrivals[0] == 0. One
  /// kFrameArrival event per frame >= 1 is pushed at init (after trace
  /// breakpoints), so an arrival coinciding with a sim event pops first.
  const std::vector<double>* arrivals = nullptr;
};

/// Fault-injection context for simulate_core() (simulate_with_faults only).
/// Plan event i becomes fault action 2i at its time and, when transient,
/// action 2i + 1 at its `until`; both carry seqs above every simulation
/// event, so they act after all simulation events of the same instant, in
/// plan order. `result` receives the stranded and failed-device lists; its
/// schedule is the engine's output.
struct FaultRun {
  const FaultPlan* plan = nullptr;
  FaultSimResult* result = nullptr;
};

// Later events sort before earlier ones so heap operations keep the earliest
// event at the front; ties break by creation order, making pop order fully
// deterministic (and identical to the std::priority_queue this replaced).
struct EventLater {
  bool operator()(const SimEvent& a, const SimEvent& b) const {
    if (a.time != b.time) return a.time > b.time;
    return a.seq > b.seq;
  }
};

inline double realize(double expected, const SimOptions& opt) {
  if (opt.noise <= 0.0) return expected;
  std::uniform_real_distribution<double> d(expected * (1.0 - opt.noise),
                                           expected * (1.0 + opt.noise));
  return d(*opt.rng);
}

/// The event loop of Appendix B.5 over externally prepared state. The caller
/// owns initialization: workspace buffers sized and seeded, `out` prefilled,
/// `seq` / `completed` / `runnable_rank` positioned, and the heap holding the
/// pending events (a fresh heap plus entry tasks for a full run; the events
/// crossing the dirty-time boundary for a delta replay).
struct SimEngine {
  const TaskGraph& g;
  const DeviceNetwork& n;
  const Placement& p;
  const LatencyModel& lat;
  SimWorkspace& ws;
  Schedule& out;
  const SimOptions& opt;
  const NetworkTrace* trace;    ///< collapsed: nullptr when absent or empty
  const SharedLinkMap* shared;  ///< nullptr when absent
  /// (trace link, segment) per kBreakpoint event id. Full runs only: a delta
  /// replay refuses windows containing breakpoints, so it passes nullptr.
  const std::vector<std::pair<int, int>>* breakpoints;
  /// Optional bookkeeping for simulate_delta(): event seqs, runnable ranks,
  /// and edge versions recorded as the run unfolds. May be null.
  DeltaSimState* rec;
  int nd = 0;
  /// Streaming runs only (simulate_core with a plan); null otherwise, which
  /// keeps the 12-value aggregate initializers of the one-shot paths valid.
  const StreamPlan* stream = nullptr;
  /// Fault runs only; null otherwise. Never combined with a trace or shared
  /// links (simulate_with_faults rejects both).
  const FaultRun* faults = nullptr;

  long seq = 0;
  int completed = 0;
  long runnable_rank = 0;

  void push_event(double time, int kind, int id, int version = 0) {
    push_event_at(time, seq++, kind, id, version);
  }

  /// Pushes an event with an explicit seq instead of the next creation seq.
  void push_event_at(double time, long at, int kind, int id, int version = 0) {
    ws.heap.push_back(SimEvent{time, at, kind, id, version});
    std::push_heap(ws.heap.begin(), ws.heap.end(), EventLater{});
  }

  /// Trace and fault runs track per-edge versions so rescales retire events.
  bool rescales_transfers() const noexcept {
    return trace != nullptr || faults != nullptr;
  }

  /// The startup (delay) portion of a transfer's realized time `c`. Noise is
  /// multiplicative, so it keeps the expected startup fraction de / ce.
  double realized_startup(int e, int d, int dl, double c) const {
    const double ce = lat.comm_time(g, n, e, d, dl);
    const double de = lat.comm_startup(g, n, e, d, dl);
    return ce > 0.0 ? de * (c / ce) : 0.0;
  }

  void start_task(int v, double t) {
    const int d = p.device_of(v);
    ++ws.running[d];
    out.tasks[v].start = t;
    double w = realize(lat.compute_time(g, n, v, d), opt);
    int version = 0;
    if (faults != nullptr) {
      w *= ws.device_scale[d];  // a slowdown in force stretches the whole task
      ws.task_finish_at[v] = t + w;
      version = ws.task_version[v];
    }
    if (rec != nullptr) rec->task_event_seq[v] = seq;
    push_event(t + w, kTaskDone, v, version);
  }

  void make_runnable(int v, double t) {
    if (rec != nullptr) rec->runnable_order[v] = runnable_rank;
    ++runnable_rank;
    const int d = p.device_of(v);
    // Inputs that reach a crashed or departed device strand the task.
    if (faults != nullptr && ws.device_up[d] == 0) return;
    if (ws.running[d] < n.device(d).cores && ws.fifo[d].empty()) {
      start_task(v, t);
    } else {
      ws.fifo[d].push_back(v);
    }
  }

  void run() {
    auto& heap = ws.heap;
    const EventLater later;
    while (!heap.empty()) {
      std::pop_heap(heap.begin(), heap.end(), later);
      const SimEvent ev = heap.back();
      heap.pop_back();
      if (ev.kind == kTaskDone) {
        const int v = ev.id;
        if (faults != nullptr && ev.version != ws.task_version[v]) {
          continue;  // stale: killed or rescaled
        }
        out.tasks[v].finish = ev.time;
        ++completed;
        const int d = p.device_of(v);
        // Outputs start transmitting to every child's device - concurrently in
        // the paper's model, back-to-back through the NIC under contention.
        for (int e : g.out_edges(v)) {
          const int dl = p.device_of(g.edge(e).dst);
          const double c = realize(lat.comm_time(g, n, e, d, dl), opt);
          double start = ev.time;
          if (dl != d) {
            if (opt.serialize_transfers) start = std::max(start, ws.nic_free[d]);
            if (shared != nullptr) {
              for (const int li : shared->links_on(d, dl)) {
                start = std::max(start, ws.link_free[li]);
              }
            }
          }
          double dur = c;
          const int tl =
              trace != nullptr ? ws.trace_link[static_cast<std::size_t>(d) * nd + dl]
                               : -1;
          if (faults != nullptr) {
            // A link degrade in force at dispatch scales the WHOLE transfer,
            // startup included, and adds its delay; the wire portion begins
            // once that scaled startup is over.
            const std::size_t pair = static_cast<std::size_t>(d) * nd + dl;
            const double lf = ws.link_factor[pair];
            const double ld = ws.link_delay[pair];
            dur = c * lf + ld;
            ws.edge_wire_begin[e] = start + realized_startup(e, d, dl, c) * lf + ld;
          } else if (tl >= 0) {
            // Split the realized time into startup (delay) and wire (bandwidth)
            // portions; only the wire portion scales with the link conditions.
            const double dr = realized_startup(e, d, dl, c);
            const TraceSegment& seg = ws.trace_cur[tl];
            const double startup = dr + seg.delay_add;
            dur = startup + (c - dr) * ws.trace_factor[tl];
            ws.edge_wire_begin[e] = start + startup;
            ws.edge_wire_factor[e] = ws.trace_factor[tl];
          } else if (trace != nullptr) {
            ws.edge_wire_begin[e] = start;
            ws.edge_wire_factor[e] = 1.0;
          }
          if (dl != d) {
            if (opt.serialize_transfers) ws.nic_free[d] = start + dur;
            if (shared != nullptr) {
              // Reserve every physical link on the route for the whole transfer
              // (store-and-forward is not modeled; the route is one pipe).
              for (const int li : shared->links_on(d, dl)) {
                ws.link_free[li] = start + dur;
              }
            }
          }
          if (rescales_transfers()) {
            ws.edge_inflight[e] = 1;
            ws.edge_finish_at[e] = start + dur;
          }
          out.edge_start[e] = start;
          if (rec != nullptr) rec->edge_event_seq[e] = seq;
          push_event(start + dur, kTransferDone, e,
                     rescales_transfers() ? ws.edge_version[e] : 0);
        }
        --ws.running[d];
        if (!ws.fifo[d].empty() && ws.running[d] < n.device(d).cores) {
          const int next = ws.fifo[d].front();
          ws.fifo[d].pop_front();
          start_task(next, ev.time);
        }
      } else if (ev.kind == kTransferDone) {
        const int e = ev.id;
        if (rescales_transfers()) {
          if (ev.version != ws.edge_version[e]) continue;  // stale: rescaled
          ws.edge_inflight[e] = 0;
        }
        out.edge_finish[e] = ev.time;
        const int child = g.edge(e).dst;
        if (--ws.remaining_inputs[child] == 0) make_runnable(child, ev.time);
      } else if (ev.kind == kFrameArrival) {
        // Frame ev.id enters the stream: its entry-task copies join their
        // device queues (or start) in base entry order, like frame 0 at t = 0.
        const int base = ev.id * stream->base_tasks;
        for (const int v : *stream->entries) make_runnable(base + v, ev.time);
      } else if (ev.kind == kFaultAction) {
        apply_fault(ev.id, ev.time);
      } else {  // kBreakpoint
        const auto [li, si] = (*breakpoints)[ev.id];
        const TraceSegment& seg = trace->links[li].segments[si];
        ws.trace_cur[li] = seg;
        const double f_new = wire_factor(seg);
        ws.trace_factor[li] = f_new;
        const int k = trace->links[li].src;
        const int l = trace->links[li].dst;
        // Rescale the remaining wire time of every in-flight transfer on this
        // link, in ascending edge-id order (the oracle mirrors this order).
        // delay_add changes never affect in-flight transfers: their startup was
        // committed at dispatch.
        const int ne = g.num_edges();
        for (int e = 0; e < ne; ++e) {
          if (ws.edge_inflight[e] == 0) continue;
          if (p.device_of(g.edge(e).src) != k || p.device_of(g.edge(e).dst) != l) {
            continue;
          }
          if (ws.edge_wire_factor[e] == f_new) continue;
          const double anchor = std::max(ev.time, ws.edge_wire_begin[e]);
          const double remaining = ws.edge_finish_at[e] - anchor;
          if (remaining <= 0.0) {
            // Wire already done (finishing this instant, or still in startup
            // with zero wire time): keep the pending event and its seq.
            ws.edge_wire_factor[e] = f_new;
            continue;
          }
          ws.edge_finish_at[e] = anchor + remaining * (f_new / ws.edge_wire_factor[e]);
          ws.edge_wire_factor[e] = f_new;
          if (rec != nullptr) rec->edge_event_seq[e] = seq;
          push_event(ws.edge_finish_at[e], kTransferDone, e, ++ws.edge_version[e]);
        }
      }
    }
  }

  /// Fault runs: sizes the fault state and pushes the plan's actions. Must
  /// run before any task starts. Defined in faults.cpp.
  void seed_faults();
  /// Fault action `id` (see FaultRun) taking effect at `t`. Defined in
  /// faults.cpp.
  void apply_fault(int id, double t);

  /// Completion check, makespan, and the recorded-state epilogue. A fault
  /// run instead lists whatever did not finish (killed, queued on or bound
  /// for a departed device, starved of an input) as stranded, spans the
  /// makespan over the completed tasks only, and sorts the failed devices.
  void finalize(const char* caller) {
    const int nv = g.num_tasks();
    if (faults == nullptr && completed != nv) {
      throw std::logic_error(std::string(caller) +
                             ": not all tasks completed (cyclic graph?)");
    }
    double first_start = std::numeric_limits<double>::infinity();
    double last_finish = -first_start;
    for (int v = 0; v < nv; ++v) {
      const TaskTiming& t = out.tasks[v];
      if (t.finish < 0.0) {  // fault runs only: every other task finished
        faults->result->stranded.push_back(v);
        continue;
      }
      first_start = std::min(first_start, t.start);
      last_finish = std::max(last_finish, t.finish);
    }
    out.makespan = last_finish >= first_start ? last_finish - first_start : 0.0;
    if (faults != nullptr) {
      std::vector<int>& failed = faults->result->failed_devices;
      std::sort(failed.begin(), failed.end());
      return;
    }
    if (rec != nullptr) {
      rec->total_seq = seq;
      rec->next_runnable_rank = runnable_rank;
      rec->trace_recorded = trace != nullptr;
      if (trace != nullptr) {
        rec->edge_final_version.assign(ws.edge_version.begin(),
                                       ws.edge_version.begin() + g.num_edges());
      }
      rec->valid = true;
    }
  }
};

/// The full init-run-finalize pipeline behind simulate_into(),
/// simulate_streaming() and simulate_with_faults(): validates options, resets
/// workspace buffers, seeds trace breakpoints / frame arrivals / fault
/// actions / entry tasks, and drives SimEngine. `plan == nullptr` and
/// `faults == nullptr` is exactly simulate_into(); with a plan, `g` and `p`
/// must be the frame-replicated instance the plan describes; with `faults`,
/// `out` must be faults->result->schedule and `opt` must carry neither a
/// trace nor shared links. `caller` prefixes every diagnostic.
void simulate_core(const TaskGraph& g, const DeviceNetwork& n, const Placement& p,
                   const LatencyModel& lat, SimWorkspace& ws, Schedule& out,
                   const SimOptions& opt, DeltaSimState* record,
                   const StreamPlan* plan, const char* caller,
                   const FaultRun* faults = nullptr);

}  // namespace giph::detail
