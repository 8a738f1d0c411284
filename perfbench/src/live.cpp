// Workloads live_closed, live_paced and live_tcp: one group of Paxos log
// replicas (net::GroupLogs) on the threaded net::Runtime, one event-loop
// thread per replica, loaded by a load-generator sub-protocol on the leader.
//
// The load generator sits where tools/gam_loadgen puts its own: protocol
// id 1 on the leader's ProtocolHost, ahead of the log (id 100) in idle-slot
// dispatch. The benchmark keeps that placement on purpose, so that
// live_paced shows how the runtime shares the leader's idle slots.
//
// Every replica's learn callback writes (op, time) into arrays preallocated
// for the rep and owned by that replica's thread; the load generator writes
// submit times the same way. All figures are computed after the run from
// those arrays, so quantiles are exact and only completions inside the
// measurement window count.
#include <atomic>
#include <memory>
#include <string>

#include "common.hpp"
#include "net/group_logs.hpp"
#include "net/runtime.hpp"
#include "net/tcp_transport.hpp"
#include "net/transport.hpp"
#include "objects/universal_log.hpp"

namespace perfbench {
namespace {

using namespace gam;

struct LiveSpec {
  const char* name;
  bool tcp;
  int replicas;
  int batch;              // UniversalLog ordered-batch size
  int window;             // UniversalLog pipelined instances
  double rate;            // paced: multicasts due per second; 0 = closed loop
  std::uint64_t outstanding;  // closed: multicasts in flight at the leader
  std::uint64_t ops;      // multicasts per rep
};

// Rep sizes give about half a second of load per rep on a 4-core x86 host.
constexpr LiveSpec kSpecs[] = {
    {"live_closed", false, 3, 256, 4, 0, 2048, 500'000},
    {"live_paced", false, 3, 256, 4, 50'000, 0, 50'000},
    {"live_tcp", true, 2, 32, 4, 0, 256, 125'000},
};

// Transport settings of tools/gam_loadgen's defaults.
constexpr std::uint64_t kNetWindow = 256;
constexpr std::size_t kRingBytes = std::size_t{1} << 20;
// Ops submitted in one idle slot at most (as in gam_loadgen).
constexpr std::uint64_t kBurst = 256;
// The first tenth of each rep warms caches and threads and is not measured.
constexpr double kWarmupShare = 0.1;
constexpr std::int64_t kOnTimeNs = 10'000'000;  // live_paced deadline
constexpr auto kRepTimeout = std::chrono::seconds(20);
// UniversalLog frame types (objects/universal_log.hpp).
constexpr std::int32_t kLogPrepare = 1;
constexpr std::int32_t kLogDecide = 5;
const sim::ProtocolId kLoadProtocol = sim::protocol_id(1);

// ---- traced-run layer accounting --------------------------------------------

// Counters of one process, written only by its event-loop thread.
struct alignas(64) LayerStats {
  std::uint64_t send_calls = 0, send_refused = 0, frames = 0, bytes = 0;
  std::uint64_t poll_calls = 0, poll_empty = 0, pump_calls = 0;
  std::int64_t send_ns = 0, poll_ns = 0, pump_ns = 0;
  std::uint64_t decide_frames = 0, prepare_frames = 0;
  std::uint64_t msg_steps = 0, idle_steps = 0, load_slots = 0;
  std::int64_t msg_ns = 0, idle_ns = 0, load_ns = 0;
  std::int64_t msg_child_ns = 0, idle_child_ns = 0;  // transport inside steps
  // Current actor step, if any.
  bool in_step = false;
  std::int64_t step_child_ns = 0;
  std::int32_t step_span = -1;
  SpanBuffer spans;
};

class Tracer {
 public:
  Tracer(int processes, std::size_t span_capacity) {
    for (int p = 0; p < processes; ++p) {
      stats_.emplace_back(std::make_unique<LayerStats>());
      stats_.back()->spans = SpanBuffer(span_capacity);
    }
  }
  // Span and counter times are relative to the rep start.
  void start(Clock::time_point t0) { t0_ = t0; }
  LayerStats& at(ProcessId p) { return *stats_[static_cast<std::size_t>(p)]; }
  std::int64_t now() const { return ns_since(t0_); }
  int processes() const { return static_cast<int>(stats_.size()); }

 private:
  Clock::time_point t0_;
  std::vector<std::unique_ptr<LayerStats>> stats_;
};

// Transport decorator: each call runs on the thread of the process it is made
// for (try_send on src's, poll/pump on self's), so per-process stats need no
// synchronization.
class TracedTransport final : public net::Transport {
 public:
  TracedTransport(net::Transport& inner, Tracer& tr, sim::ProtocolId log)
      : inner_(inner), tr_(tr), log_(sim::raw(log)) {}

  int process_count() const override { return inner_.process_count(); }

  bool try_send(ProcessId src, ProcessId dst, const net::WireHeader& h,
                const sim::Payload& payload) override {
    LayerStats& s = tr_.at(src);
    const std::int64_t a = tr_.now();
    const bool ok = inner_.try_send(src, dst, h, payload);
    const std::int64_t b = tr_.now();
    ++s.send_calls;
    s.send_ns += b - a;
    if (s.in_step) s.step_child_ns += b - a;
    if (!ok) {
      ++s.send_refused;
    } else {
      ++s.frames;
      s.bytes += net::frame_bytes(h);
      if (h.protocol == log_ && h.type == kLogDecide) ++s.decide_frames;
      if (h.protocol == log_ && h.type == kLogPrepare) ++s.prepare_frames;
    }
    s.spans.push({"net.transport.send", a, b, s.in_step ? s.step_span : -1, -1});
    return ok;
  }

  std::optional<net::Frame> poll(ProcessId self) override {
    LayerStats& s = tr_.at(self);
    const std::int64_t a = tr_.now();
    auto f = inner_.poll(self);
    const std::int64_t b = tr_.now();
    ++s.poll_calls;
    s.poll_ns += b - a;
    // Empty polls are counted, not stored: the loop spins on them.
    if (!f) ++s.poll_empty;
    else s.spans.push({"net.transport.poll", a, b, -1, -1});
    return f;
  }

  void pump(ProcessId self) override {
    LayerStats& s = tr_.at(self);
    const std::int64_t a = tr_.now();
    inner_.pump(self);
    ++s.pump_calls;
    s.pump_ns += tr_.now() - a;
  }

  bool idle(ProcessId self) override { return inner_.idle(self); }

 private:
  net::Transport& inner_;
  Tracer& tr_;
  std::int32_t log_;
};

// Actor decorator around one GroupLogs actor (a ProtocolHost).
class TracedActor final : public sim::Actor {
 public:
  TracedActor(std::unique_ptr<sim::Actor> inner, Tracer& tr, ProcessId p)
      : inner_(std::move(inner)), tr_(tr), s_(tr.at(p)) {}

  void on_step(sim::Context& ctx, const sim::Message* m) override {
    const std::int64_t a = tr_.now();
    s_.in_step = true;
    s_.step_child_ns = 0;
    s_.step_span =
        s_.spans.push({m ? "objects.host.step_msg" : "objects.host.step_idle",
                       a, a, -1, -1});
    inner_->on_step(ctx, m);
    const std::int64_t b = tr_.now();
    s_.in_step = false;
    if (Span* sp = s_.spans.at(s_.step_span)) sp->end_ns = b;
    if (m) {
      ++s_.msg_steps;
      s_.msg_ns += b - a;
      s_.msg_child_ns += s_.step_child_ns;
    } else {
      ++s_.idle_steps;
      s_.idle_ns += b - a;
      s_.idle_child_ns += s_.step_child_ns;
    }
  }

  bool wants_step() const override { return inner_->wants_step(); }

 private:
  std::unique_ptr<sim::Actor> inner_;
  Tracer& tr_;
  LayerStats& s_;
};

// ---- load ---------------------------------------------------------------------

// What one replica learned, in learn order; written only by its thread.
struct alignas(64) LearnLog {
  std::atomic<std::uint64_t> count{0};
  std::vector<std::int64_t> op;  // op index (op id minus the rep's base)
  std::vector<std::int64_t> ns;  // learn time since rep start
};

// The load generator: a sub-protocol on the leader's host that only consumes
// idle slots, submitting into the leader's log replica from the leader's own
// thread.
class Loader final : public objects::SubProtocol {
 public:
  Loader(const LiveSpec& spec, objects::UniversalLog* log, std::int64_t base,
         std::vector<std::int64_t>* submit_ns)
      : spec_(spec), log_(log), base_(base), submit_ns_(submit_ns) {}

  void start(Clock::time_point t0, LayerStats* trace) {
    t0_ = t0;
    trace_ = trace;
  }

  void on_message(sim::Context&, const sim::Message&) override {}
  bool wants_step() const override { return count_ < spec_.ops; }

  bool on_idle(sim::Context&) override {
    if (count_ >= spec_.ops) return false;
    const std::int64_t now = ns_since(t0_);
    std::uint64_t target;
    if (spec_.rate > 0) {
      // Ops due by now: op i is due at i / rate.
      target = static_cast<std::uint64_t>(static_cast<double>(now) * spec_.rate /
                                          1e9) + 1;
    } else {
      target = learned_ + spec_.outstanding;
    }
    target = std::min(target, spec_.ops);
    if (target <= count_) return false;
    const std::uint64_t first = count_;
    const std::uint64_t burst = std::min(target - count_, kBurst);
    for (std::uint64_t i = 0; i < burst; ++i) {
      (*submit_ns_)[count_] = now;
      log_->submit(base_ + static_cast<std::int64_t>(count_), nullptr);
      ++count_;
    }
    if (trace_) {
      const std::int64_t end = ns_since(t0_);
      ++trace_->load_slots;
      trace_->load_ns += end - now;
      trace_->spans.push({"bench.load.submit", now, end, trace_->step_span,
                          static_cast<std::int64_t>(first)});
    }
    return true;
  }

  void on_leader_learn() { ++learned_; }

 private:
  const LiveSpec& spec_;
  objects::UniversalLog* log_;
  std::int64_t base_;
  std::vector<std::int64_t>* submit_ns_;
  Clock::time_point t0_;
  LayerStats* trace_ = nullptr;
  std::uint64_t count_ = 0;
  std::uint64_t learned_ = 0;
};

// Arrays of one rep, allocated once per run and reused.
struct Arrays {
  Clock::time_point t0;  // rep start; set before the runtime's threads start
  Loader* loader = nullptr;
  std::vector<std::int64_t> submit_ns;
  std::vector<LearnLog> learn;
  std::vector<std::vector<std::int64_t>> pos;  // replica -> op index -> position

  explicit Arrays(const LiveSpec& spec)
      : submit_ns(spec.ops), learn(static_cast<std::size_t>(spec.replicas)),
        pos(static_cast<std::size_t>(spec.replicas),
            std::vector<std::int64_t>(spec.ops)) {
    for (auto& l : learn) {
      l.op.resize(spec.ops);
      l.ns.resize(spec.ops);
    }
  }
};

// One assembled system: logs, transport, runtime, load generator.
struct Instance {
  std::unique_ptr<net::GroupLogs> logs;
  std::unique_ptr<net::Transport> transport;
  std::unique_ptr<TracedTransport> traced_transport;
  std::unique_ptr<net::Runtime> rt;
  std::shared_ptr<Loader> loader;
  ProcessId leader = 0;
  int leader_index = 0;
  double groups_ms = 0, make_ms = 0;
};

Instance build(const LiveSpec& spec, std::int64_t base, Arrays& arr,
               Tracer* tracer) {
  Instance in;
  auto t = Clock::now();
  net::GroupLogsConfig cfg;
  cfg.groups = 1;
  cfg.group_size = spec.replicas;
  cfg.batch = spec.batch;
  cfg.window = spec.window;
  in.logs = std::make_unique<net::GroupLogs>(cfg);
  in.leader = in.logs->leader(0);
  in.groups_ms = seconds_since(t) * 1e3;

  t = Clock::now();
  const int n = in.logs->process_count();
  if (spec.tcp) {
    net::TcpTransport::Options o;
    o.window = kNetWindow;
    in.transport = std::make_unique<net::TcpTransport>(n, o);
  } else {
    net::InProcTransport::Options o;
    o.window = kNetWindow;
    o.ring_bytes = kRingBytes;
    in.transport = std::make_unique<net::InProcTransport>(n, o);
  }
  net::Transport* tp = in.transport.get();
  if (tracer) {
    in.traced_transport = std::make_unique<TracedTransport>(
        *in.transport, *tracer, in.logs->protocol(0));
    tp = in.traced_transport.get();
  }
  in.rt = std::make_unique<net::Runtime>(*tp, net::RuntimeOptions{});

  for (ProcessId p : in.logs->group(0)) {
    if (p == in.leader) break;
    ++in.leader_index;
  }
  const ProcessId leader = in.leader;
  auto actors = in.logs->make_actors(
      [&arr, base, leader](ProcessId p, int, std::int64_t op, std::int64_t) {
        LearnLog& l = arr.learn[static_cast<std::size_t>(p)];
        const std::uint64_t k = l.count.load(std::memory_order_relaxed);
        if (k < l.op.size()) {
          l.op[k] = op - base;
          l.ns[k] = ns_since(arr.t0);
        }
        l.count.store(k + 1, std::memory_order_release);
        if (p == leader) arr.loader->on_leader_learn();
      });
  in.loader = std::make_shared<Loader>(
      spec, &in.logs->replica(0, in.leader_index), base, &arr.submit_ns);
  arr.loader = in.loader.get();
  in.logs->host(in.leader).add(kLoadProtocol, in.loader);
  for (ProcessId p = 0; p < n; ++p) {
    auto a = std::move(actors[static_cast<std::size_t>(p)]);
    if (tracer) a = std::make_unique<TracedActor>(std::move(a), *tracer, p);
    in.rt->install(p, std::move(a));
  }
  in.make_ms = seconds_since(t) * 1e3;
  return in;
}

// Figures of one rep.
struct Rep {
  double setup_s = 0, groups_ms = 0, make_ms = 0, check_s = 0, run_s = 0;
  double mcast_per_s = 0;
  double lat_p50_us = 0, lat_p90_us = 0, lat_p99_us = 0;
  std::uint64_t lat_samples = 0;
  std::uint64_t on_time = 0, due_in_window = 0;
  double lag_p99_us = 0, late_p99_us = 0;
  std::uint64_t failed = 0;
  std::uint64_t steps = 0, backoff_cap_hits = 0, outbox_hwm = 0;
  bool completed = false;
  ProcessId leader = 0;
};

// Ops learned exactly once by every replica, at the same position everywhere;
// returns how many ops fail that. Fills arr.pos as a side effect.
std::uint64_t check_sequences(const LiveSpec& spec, Arrays& arr,
                              std::vector<char>& ok) {
  const std::size_t n = spec.ops;
  ok.assign(n, 1);
  for (std::size_t r = 0; r < arr.learn.size(); ++r) {
    auto& pos = arr.pos[r];
    std::fill(pos.begin(), pos.end(), -1);
    const LearnLog& l = arr.learn[r];
    const std::uint64_t count = l.count.load(std::memory_order_acquire);
    const std::uint64_t stored = std::min<std::uint64_t>(count, n);
    for (std::uint64_t k = 0; k < stored; ++k) {
      const std::int64_t op = l.op[k];
      if (op < 0 || static_cast<std::uint64_t>(op) >= n) continue;  // not ours
      auto& slot = pos[static_cast<std::size_t>(op)];
      if (slot >= 0) ok[static_cast<std::size_t>(op)] = 0;  // learned twice
      slot = static_cast<std::int64_t>(k);
    }
  }
  std::uint64_t failed = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const std::int64_t p0 = arr.pos[0][i];
    for (const auto& pos : arr.pos)
      if (pos[i] < 0 || pos[i] != p0) ok[i] = 0;  // missing or out of order
    if (!ok[i]) ++failed;
  }
  return failed;
}

Rep run_rep(const LiveSpec& spec, std::uint64_t seed, std::uint64_t rep_index,
            Arrays& arr, Tracer* tracer, std::vector<char>& ok) {
  Rep rep;
  // Op ids of a rep are seed-derived and distinct from every other rep's:
  // 14 bits of seed, 20 of rep index, 24 of op index, below 2^58.
  const std::int64_t base = static_cast<std::int64_t>(
      (((seed & 0x3fff) << 20) | (rep_index & 0xfffff)) << 24);
  for (auto& l : arr.learn) l.count.store(0);
  const auto t_setup = Clock::now();
  Instance in = build(spec, base, arr, tracer);
  rep.setup_s = seconds_since(t_setup);
  rep.groups_ms = in.groups_ms;
  rep.make_ms = in.make_ms;
  rep.leader = in.leader;

  arr.t0 = Clock::now();
  if (tracer) tracer->start(arr.t0);
  in.loader->start(arr.t0,
                   tracer ? &tracer->at(in.leader) : nullptr);
  auto done = [&arr, &spec] {
    for (const auto& l : arr.learn)
      if (l.count.load(std::memory_order_acquire) < spec.ops) return false;
    return true;
  };
  rep.completed = in.rt->run(done, std::chrono::duration_cast<
                                       std::chrono::milliseconds>(kRepTimeout));
  rep.run_s = seconds_since(arr.t0);
  for (ProcessId p = 0; p < in.rt->process_count(); ++p) {
    const auto st = in.rt->stats(p);
    rep.steps += st.steps;
    rep.backoff_cap_hits += st.idle_backoff_max_reached;
    rep.outbox_hwm = std::max(rep.outbox_hwm, st.outbox_hwm);
  }

  const auto t_check = Clock::now();
  rep.failed = check_sequences(spec, arr, ok);
  const std::size_t n = spec.ops;
  const std::size_t lead = static_cast<std::size_t>(in.leader_index);
  const std::size_t first = static_cast<std::size_t>(
      static_cast<double>(n) * kWarmupShare);
  // Completion of op i: its learn time at the last replica.
  auto completion = [&](std::size_t i) {
    std::int64_t c = 0;
    for (std::size_t r = 0; r < arr.learn.size(); ++r)
      c = std::max(c, arr.learn[r].ns[static_cast<std::size_t>(arr.pos[r][i])]);
    return c;
  };
  auto due = [&](std::size_t i) {
    return static_cast<std::int64_t>(static_cast<double>(i) * 1e9 / spec.rate);
  };
  std::vector<std::int64_t> lat, lag, late;
  lat.reserve(n - first);
  lag.reserve(n - first);
  if (spec.rate > 0) {
    // Open loop: latency from the due time; the window is the span of due
    // times after warm-up, and the delivered rate runs to the last delivery.
    late.reserve(n - first);
    std::int64_t last = 0;
    for (std::size_t i = first; i < n; ++i) {
      ++rep.due_in_window;
      late.push_back(arr.submit_ns[i] - due(i));
      if (!ok[i]) continue;
      const std::int64_t c = completion(i);
      last = std::max(last, c);
      lat.push_back(c - due(i));
      if (c - due(i) <= kOnTimeNs) ++rep.on_time;
    }
    rep.mcast_per_s =
        ratio(static_cast<double>(lat.size()),
              static_cast<double>(last - due(first)) / 1e9);
  } else {
    // Closed loop: the window runs from the first submit after warm-up to the
    // last submit, while the leader holds `outstanding` ops in flight.
    const std::int64_t wa = arr.submit_ns[first];
    const std::int64_t wb = arr.submit_ns[n - 1];
    std::uint64_t in_window = 0;
    for (std::size_t i = 0; i < n; ++i) {
      if (!ok[i]) continue;
      const std::int64_t c = completion(i);
      if (c >= wa && c <= wb) ++in_window;
      const std::int64_t s = arr.submit_ns[i];
      if (s >= wa && s <= wb) lat.push_back(c - s);
    }
    rep.mcast_per_s = ratio(static_cast<double>(in_window),
                            static_cast<double>(wb - wa) / 1e9);
  }
  for (std::size_t i = first; i < n; ++i)
    if (ok[i])
      lag.push_back(completion(i) -
                    arr.learn[lead].ns[static_cast<std::size_t>(arr.pos[lead][i])]);
  rep.lat_samples = lat.size();
  rep.lat_p50_us = static_cast<double>(quantile(lat, 0.5)) / 1e3;
  rep.lat_p90_us = static_cast<double>(quantile(lat, 0.9)) / 1e3;
  rep.lat_p99_us = static_cast<double>(quantile(lat, 0.99)) / 1e3;
  rep.lag_p99_us = static_cast<double>(quantile(lag, 0.99)) / 1e3;
  rep.late_p99_us = static_cast<double>(quantile(late, 0.99)) / 1e3;
  rep.check_s = seconds_since(t_check);
  return rep;
}

// Per-layer figures of one traced rep. Shares are of the replicas' summed
// thread time (replicas x run time): transport calls, log steps net of the
// transport calls and load-generator work inside them, load-generator work,
// and the rest —
// the runtime loop's own time, which also absorbs the timer reads.
std::vector<Metric> layer_figures(const LiveSpec& spec, Tracer& tr,
                                  const Rep& rep) {
  LayerStats t;  // totals
  for (int p = 0; p < tr.processes(); ++p) {
    const LayerStats& s = tr.at(p);
    t.send_calls += s.send_calls;
    t.send_refused += s.send_refused;
    t.frames += s.frames;
    t.bytes += s.bytes;
    t.poll_calls += s.poll_calls;
    t.poll_empty += s.poll_empty;
    t.pump_calls += s.pump_calls;
    t.send_ns += s.send_ns;
    t.poll_ns += s.poll_ns;
    t.pump_ns += s.pump_ns;
    t.decide_frames += s.decide_frames;
    t.prepare_frames += s.prepare_frames;
    t.msg_steps += s.msg_steps;
    t.idle_steps += s.idle_steps;
    t.load_slots += s.load_slots;
    t.msg_ns += s.msg_ns;
    t.idle_ns += s.idle_ns;
    t.load_ns += s.load_ns;
    t.msg_child_ns += s.msg_child_ns;
    t.idle_child_ns += s.idle_child_ns;
  }
  const LayerStats& lead = tr.at(rep.leader);
  const double ops = static_cast<double>(spec.ops);
  const double thread_ns = rep.run_s * 1e9 * spec.replicas;
  const double transport_ns = static_cast<double>(t.send_ns + t.poll_ns + t.pump_ns);
  const double log_idle_steps = static_cast<double>(t.idle_steps - t.load_slots);
  const double log_msg_self = static_cast<double>(t.msg_ns - t.msg_child_ns);
  const double log_idle_self =
      static_cast<double>(t.idle_ns - t.idle_child_ns - t.load_ns);
  const double steps = static_cast<double>(t.msg_steps + t.idle_steps);
  auto d = [](std::uint64_t v) { return static_cast<double>(v); };
  const double decisions = d(t.decide_frames) / spec.replicas;
  std::vector<Metric> m;
  m.push_back({"groups.build_ms", rep.groups_ms, "ms", 1, "GroupLogs construction"});
  m.push_back({"amcast.make_ms", rep.make_ms, "ms", 1,
               "transport + runtime + actors + load generator"});
  m.push_back({"bench.check_s", rep.check_s, "s", 1, "sequence check + figures"});
  m.push_back({"net.transport.send_calls_per_mcast", d(t.send_calls) / ops, "count",
               t.send_calls, ""});
  m.push_back({"net.transport.poll_calls_per_mcast", d(t.poll_calls) / ops, "count",
               t.poll_calls, ""});
  m.push_back({"net.transport.frames_per_mcast", d(t.frames) / ops, "count", t.frames,
               ""});
  m.push_back({"net.transport.bytes_per_mcast", d(t.bytes) / ops, "bytes", t.frames,
               "header + payload"});
  m.push_back({"net.transport.send_refused_ratio", ratio(d(t.send_refused), d(t.send_calls)),
               "ratio", t.send_calls, "window or ring full"});
  m.push_back({"net.transport.poll_empty_ratio", ratio(d(t.poll_empty), d(t.poll_calls)),
               "ratio", t.poll_calls, ""});
  m.push_back({"net.transport.send_ns_mean", ratio(d(t.send_ns), d(t.send_calls)), "ns",
               t.send_calls, ""});
  m.push_back({"net.transport.poll_ns_mean", ratio(d(t.poll_ns), d(t.poll_calls)), "ns",
               t.poll_calls, ""});
  m.push_back({"net.transport.pump_ns_mean", ratio(d(t.pump_ns), d(t.pump_calls)), "ns",
               t.pump_calls, ""});
  m.push_back({"net.transport.busy_share", ratio(transport_ns, thread_ns), "ratio",
               t.send_calls + t.poll_calls + t.pump_calls, "of replica thread time"});
  m.push_back({"net.runtime.steps_per_mcast", d(rep.steps) / ops, "count", rep.steps,
               "Runtime::stats"});
  m.push_back({"net.runtime.idle_step_ratio", ratio(d(t.idle_steps), steps), "ratio",
               t.msg_steps + t.idle_steps, "null-message steps / steps"});
  m.push_back({"net.runtime.backoff_cap_hits", d(rep.backoff_cap_hits), "count",
               static_cast<std::uint64_t>(spec.replicas), "Runtime::stats, summed"});
  m.push_back({"net.runtime.outbox_hwm", d(rep.outbox_hwm), "count",
               static_cast<std::uint64_t>(spec.replicas), "Runtime::stats, max"});
  m.push_back({"net.runtime.self_share",
               ratio(thread_ns - transport_ns - log_msg_self - log_idle_self -
                         static_cast<double>(t.load_ns),
                     thread_ns),
               "ratio", 1, "loop time outside transport, log and load generator"});
  m.push_back({"objects.log.msg_step_ns_mean", ratio(log_msg_self, d(t.msg_steps)), "ns",
               t.msg_steps, "net of transport sends"});
  m.push_back({"objects.log.idle_step_ns_mean", ratio(log_idle_self, log_idle_steps),
               "ns", t.idle_steps - t.load_slots,
               "idle slots the log took, net of sends"});
  m.push_back({"objects.log.busy_share", ratio(log_msg_self + log_idle_self, thread_ns),
               "ratio", t.msg_steps + t.idle_steps, "of replica thread time"});
  m.push_back({"objects.log.ops_per_decide", ratio(ops, decisions), "count",
               t.decide_frames, "decide frames / replicas = instances"});
  m.push_back({"objects.log.prepares_per_decide",
               ratio(d(t.prepare_frames), d(t.decide_frames)), "count",
               t.prepare_frames, "re-prepare waste"});
  m.push_back({"objects.host.log_idle_share",
               ratio(d(lead.idle_steps - lead.load_slots), d(lead.idle_steps)),
               "ratio", lead.idle_steps, "leader idle slots that reached the log"});
  m.push_back({"bench.driver.busy_share", ratio(d(t.load_ns), thread_ns), "ratio",
               t.load_slots, "load generator, of replica thread time"});
  return m;
}

// Median of each named figure across reps (the names and order of the first).
std::vector<Metric> median_figures(const std::vector<std::vector<Metric>>& reps) {
  std::vector<Metric> out;
  if (reps.empty()) return out;
  for (std::size_t k = 0; k < reps[0].size(); ++k) {
    Metric m = reps[0][k];
    std::vector<double> v;
    std::uint64_t samples = 0;
    for (const auto& r : reps) {
      v.push_back(r[k].value);
      samples += r[k].samples;
    }
    m.value = median(v);
    m.samples = samples;
    out.push_back(m);
  }
  return out;
}

}  // namespace

Result run_live(const RunArgs& args) {
  Result res;
  const LiveSpec* spec = nullptr;
  for (const auto& s : kSpecs)
    if (args.workload == s.name) spec = &s;
  GAM_EXPECTS(spec != nullptr);
  GAM_EXPECTS(spec->ops < (std::uint64_t{1} << 24));  // see the op id layout
  const auto start = Clock::now();
  Arrays arr(*spec);
  std::vector<char> ok;
  std::vector<Rep> plain, traced;
  std::vector<std::vector<Metric>> layers;
  std::unique_ptr<Tracer> tracer;
  std::uint64_t rep_index = 0;
  auto account = [&](const Rep& r) {
    res.attempted += spec->ops;
    res.failed += r.failed;
    if (!r.completed)
      res.fail(std::string(spec->name) + ": rep did not finish within " +
               std::to_string(kRepTimeout.count()) + " s");
    if (r.failed)
      res.fail(std::string(spec->name) + ": " + std::to_string(r.failed) +
               " ops not learned exactly once in agreed order by every replica");
  };
  // One unmeasured (but checked) rep first: it pays the first touch of the
  // arrays and of the allocator's pages, which later reps reuse.
  account(run_rep(*spec, args.seed, rep_index++, arr, nullptr, ok));
  while (plain.size() < 3 || (args.trace && traced.size() < 3) ||
         seconds_since(start) < args.seconds) {
    plain.push_back(run_rep(*spec, args.seed, rep_index++, arr, nullptr, ok));
    account(plain.back());
    if (args.trace) {
      // Only the first traced rep keeps spans; later ones add counts.
      if (!tracer)
        tracer = std::make_unique<Tracer>(spec->replicas, std::size_t{1} << 17);
      else
        tracer = std::make_unique<Tracer>(spec->replicas, 0);
      traced.push_back(
          run_rep(*spec, args.seed, rep_index++, arr, tracer.get(), ok));
      account(traced.back());
      layers.push_back(layer_figures(*spec, *tracer, traced.back()));
      if (traced.size() == 1) {
        std::vector<const SpanBuffer*> bufs;
        for (int p = 0; p < tracer->processes(); ++p)
          bufs.push_back(&tracer->at(p).spans);
        res.spans_file = args.out_dir + "/spans-" + spec->name + "-seed" +
                         std::to_string(args.seed) + ".tsv";
        if (!write_spans(res.spans_file,
                         {std::string(spec->name) +
                          " spans, first traced rep, one thread per replica; "
                          "times in ns from rep start"},
                         bufs))
          res.fail("cannot write " + res.spans_file);
      }
    }
    if (!res.correct) break;
  }

  // Set-up alone, a few more times: setup_s is a median of many samples.
  std::vector<double> setup;
  for (const Rep& r : plain) setup.push_back(r.setup_s);
  for (int i = 0; i < 8; ++i) {
    const auto t = Clock::now();
    Instance in = build(*spec, 0, arr, nullptr);
    setup.push_back(seconds_since(t));
  }

  // Per-rep figures, then their median over reps: a rep whose tail a host
  // hiccup stretched moves a pooled p99 far more than it moves this.
  std::vector<double> rate, p50, p90, p99, lag, late;
  std::uint64_t lat_n = 0, on_time = 0, due = 0;
  for (const Rep& r : plain) {
    rate.push_back(r.mcast_per_s);
    p50.push_back(r.lat_p50_us);
    p90.push_back(r.lat_p90_us);
    p99.push_back(r.lat_p99_us);
    lat_n += r.lat_samples;
    lag.push_back(r.lag_p99_us);
    late.push_back(r.late_p99_us);
    on_time += r.on_time;
    due += r.due_in_window;
  }
  const auto reps = static_cast<std::uint64_t>(plain.size());
  const bool paced = spec->rate > 0;
  auto& e2e = res.end_to_end;
  e2e.push_back({"setup_s", median(setup), "s", setup.size(),
                 "GroupLogs + transport + runtime + actors"});
  e2e.push_back({"delivered_ratio",
                 1.0 - ratio(static_cast<double>(res.failed),
                             static_cast<double>(res.attempted)),
                 "ratio", res.attempted, "learned once, in agreed order, everywhere"});
  e2e.push_back({"mcast_per_s", median(rate), "1/s", reps,
                 paced ? "delivered in window + drain (open loop)"
                       : "completions inside the window"});
  const char* from = paced ? "due time to last replica, median of reps"
                           : "submit to last replica, median of reps";
  e2e.push_back({"latency_us_p50", median(p50), "us", lat_n, from});
  e2e.push_back({"latency_us_p90", median(p90), "us", lat_n, from});

  auto& info = res.info;
  info.push_back({"latency_us_p99", median(p99), "us", lat_n, from});
  info.push_back({"failed_ratio",
                  ratio(static_cast<double>(res.failed),
                        static_cast<double>(res.attempted)),
                  "ratio", res.attempted, ""});
  if (paced)
    info.push_back({"on_time_ratio", ratio(static_cast<double>(on_time),
                                           static_cast<double>(due)),
                    "ratio", due, "delivered everywhere within 10 ms of due"});
  info.push_back({"net.replica_lag_us_p99", median(lag), "us", lat_n,
                  "leader learn to last replica learn, median of reps"});
  if (paced)
    info.push_back({"bench.driver.late_us_p99", median(late), "us", due,
                    "submit minus due, median of reps"});

  if (!args.trace) return res;
  res.per_layer = median_figures(layers);
  std::vector<double> traced_rate;
  for (const Rep& r : traced) traced_rate.push_back(r.mcast_per_s);
  res.per_layer.push_back({"bench.trace_overhead", median(traced_rate) / median(rate),
                           "ratio", traced.size(),
                           "traced / untraced mcast_per_s"});
  for (const auto& m : info) res.per_layer.push_back(m);
  return res;
}

}  // namespace perfbench
