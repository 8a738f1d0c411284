// Workload sim_ring: Algorithm 1 (`mu`) and White-Box atomic multicast
// (`whitebox`) on the deterministic simulator, same inputs, one thread.
//
// ring6x2 is a cyclic family of 6 groups over 12 processes, so γ and the
// cross-group logs do real work; conflict rate 1.0 makes every pair of
// messages conflict (total order per destination). 128 messages per group is
// where `mu`'s cost grows superlinearly with log length.
#include <map>
#include <memory>
#include <string>

#include "amcast/protocol.hpp"
#include "amcast/spec.hpp"
#include "amcast/workload.hpp"
#include "common.hpp"
#include "groups/generator.hpp"
#include "sim/world.hpp"
#include "util/rng.hpp"

namespace perfbench {
namespace {

using namespace gam;

constexpr int kRingGroups = 6;
constexpr int kRingWidth = 2;
constexpr int kPerGroup = 128;
constexpr double kConflictRate = 1.0;

// Wall-clock stamps of Algorithm 1's multicast and delivery events, indexed
// by message id. The protocol emits an event only at those two actions, so
// the sink costs two clock reads per message and delivery.
class WallStamps final : public sim::TraceSink {
 public:
  WallStamps(std::size_t messages, Clock::time_point t0)
      : t0_(t0), mcast_ns_(messages, -1), last_deliver_ns_(messages, -1) {}

  void on_event(const sim::TraceEvent& e) override {
    if (e.arg < 0 || static_cast<std::size_t>(e.arg) >= mcast_ns_.size()) return;
    const auto i = static_cast<std::size_t>(e.arg);
    if (e.kind == sim::TraceEventKind::kMulticast) mcast_ns_[i] = ns_since(t0_);
    if (e.kind == sim::TraceEventKind::kDeliver) last_deliver_ns_[i] = ns_since(t0_);
  }

  // Multicast-to-last-delivery latency per message, ns; skips messages the
  // run never delivered (the spec check reports those).
  void latencies_ns(std::vector<std::int64_t>& out) const {
    for (std::size_t i = 0; i < mcast_ns_.size(); ++i)
      if (mcast_ns_[i] >= 0 && last_deliver_ns_[i] >= 0)
        out.push_back(last_deliver_ns_[i] - mcast_ns_[i]);
  }

 private:
  Clock::time_point t0_;
  std::vector<std::int64_t> mcast_ns_;
  std::vector<std::int64_t> last_deliver_ns_;
};

// Decorator at the amcast::Protocol boundary: times run() and records it as
// a span. Everything else forwards.
class TracedProtocol final : public amcast::Protocol {
 public:
  TracedProtocol(std::unique_ptr<amcast::Protocol> inner, const char* span_name,
                 SpanBuffer* spans, Clock::time_point t0)
      : inner_(std::move(inner)), name_(span_name), spans_(spans), t0_(t0) {}

  void submit(const amcast::MulticastMessage& m) override { inner_->submit(m); }
  amcast::RunRecord run() override {
    const std::int64_t s = ns_since(t0_);
    amcast::RunRecord r = inner_->run();
    const std::int64_t e = ns_since(t0_);
    run_ns_ = e - s;
    if (spans_) spans_->push({name_, s, e, -1, -1});
    return r;
  }
  const amcast::RunRecord& record() const override { return inner_->record(); }
  const amcast::ProtocolOptions& options() const override {
    return inner_->options();
  }
  ProcessSet actors() const override { return inner_->actors(); }
  std::uint64_t wire_messages() const override { return inner_->wire_messages(); }
  void set_metrics(sim::Metrics* m) override { inner_->set_metrics(m); }
  void set_event_sink(sim::TraceSink* s) override { inner_->set_event_sink(s); }
  void set_span_sink(sim::SpanSink* s) override { inner_->set_span_sink(s); }
  sim::World* world() override { return inner_->world(); }

  std::int64_t run_ns() const { return run_ns_; }

 private:
  std::unique_ptr<amcast::Protocol> inner_;
  const char* name_;
  SpanBuffer* spans_;
  Clock::time_point t0_;
  std::int64_t run_ns_ = 0;
};

// Messages not delivered exactly once at every member of their destination.
std::uint64_t undelivered(const amcast::RunRecord& r,
                          const groups::GroupSystem& sys,
                          const std::vector<amcast::MulticastMessage>& wl) {
  std::map<std::pair<ProcessId, objects::MsgId>, int> seen;
  for (const auto& d : r.deliveries) ++seen[{d.p, d.m}];
  std::uint64_t bad = 0;
  for (const auto& m : wl) {
    bool ok = true;
    for (ProcessId p : sys.group(m.dst)) {
      auto it = seen.find({p, m.id});
      if (it == seen.end() || it->second != 1) ok = false;
    }
    if (!ok) ++bad;
  }
  return bad;
}

// Per-message latency in simulated steps from multicast_time to the last
// addressee's delivery.
std::vector<double> step_latencies(const amcast::RunRecord& r) {
  std::map<objects::MsgId, sim::Time> start, last;
  for (std::size_t i = 0; i < r.multicast.size(); ++i)
    start[r.multicast[i].id] = r.multicast_time[i];
  for (const auto& d : r.deliveries)
    last[d.m] = std::max(last[d.m], d.t);
  std::vector<double> out;
  for (const auto& [m, t] : last) {
    auto it = start.find(m);
    if (it != start.end()) out.push_back(static_cast<double>(t - it->second));
  }
  return out;
}

double counter_total(const sim::Metrics& m, const std::string& name,
                     const std::string& label) {
  double total = 0;
  for (const auto& [k, c] : m.counters())
    if (k.name == name && k.label == label) total += static_cast<double>(c.value);
  return total;
}

double gauge_hwm_max(const sim::Metrics& m, const std::string& name) {
  std::int64_t hwm = 0;
  for (const auto& [k, g] : m.gauges())
    if (k.name == name) hwm = std::max(hwm, g.hwm);
  return static_cast<double>(hwm);
}

bool same_record(const amcast::RunRecord& a, const amcast::RunRecord& b) {
  if (a.steps != b.steps || a.quiescent != b.quiescent ||
      a.deliveries.size() != b.deliveries.size() ||
      a.multicast.size() != b.multicast.size() ||
      a.multicast_time != b.multicast_time)
    return false;
  for (std::size_t i = 0; i < a.multicast.size(); ++i)
    if (a.multicast[i].id != b.multicast[i].id) return false;
  for (std::size_t i = 0; i < a.deliveries.size(); ++i) {
    const auto& x = a.deliveries[i];
    const auto& y = b.deliveries[i];
    if (x.p != y.p || x.m != y.m || x.t != y.t || x.local_seq != y.local_seq)
      return false;
  }
  return true;
}

// The workload: kPerGroup conflicting messages to every group.
std::vector<amcast::MulticastMessage> make_workload(const groups::GroupSystem& sys,
                                                    std::uint64_t seed) {
  std::vector<groups::GroupId> targets;
  for (groups::GroupId g = 0; g < sys.group_count(); ++g) targets.push_back(g);
  Rng rng(seed);
  return amcast::conflict_workload(sys, targets, kPerGroup, kConflictRate, rng);
}

// Runs the spec checker on a record and returns the messages that failed
// (all of them when ordering, not delivery, is what broke).
std::uint64_t check_record(const char* name, const amcast::RunRecord& rec,
                           std::uint64_t seed, Result& res) {
  const groups::GroupSystem sys = groups::ring_system(kRingGroups, kRingWidth);
  const sim::FailurePattern pattern(sys.process_count());
  const auto wl = make_workload(sys, seed);
  bool ok = true;
  if (!rec.quiescent) {
    res.fail(std::string("sim_ring ") + name + ": not quiescent");
    ok = false;
  }
  const auto spec = amcast::check_all(rec, sys, pattern);
  if (!spec.ok) {
    res.fail(std::string("sim_ring ") + name + ": " + spec.error);
    ok = false;
  }
  std::uint64_t bad = undelivered(rec, sys, wl);
  if (bad == 0 && !ok) bad = wl.size();
  return bad;
}

struct Rep {
  amcast::RunRecord mu_rec, wb_rec;
  double setup_s = 0, groups_ms = 0, make_ms = 0;
  double mu_run_s = 0, wb_run_s = 0;
  std::uint64_t mu_steps = 0, wb_steps = 0, wb_msgs = 0, wb_null = 0;
  std::vector<std::int64_t> mu_lat_ns;
  std::vector<double> mu_lat_steps, wb_lat_steps;
  // Traced reps only.
  sim::Metrics mu_metrics, wb_metrics;
};

// One rep: set up, run both protocols, collect figures. With setup_only it
// returns after the set-up, which it measures.
Rep run_rep(std::uint64_t seed, bool traced, SpanBuffer* spans,
            bool setup_only = false) {
  Rep rep;
  const auto t0 = Clock::now();
  const auto& reg = amcast::ProtocolRegistry::instance();

  auto t = Clock::now();
  groups::GroupSystem sys = groups::ring_system(kRingGroups, kRingWidth);
  rep.groups_ms = seconds_since(t) * 1e3;
  if (spans) spans->push({"groups.build", 0, ns_since(t0), -1, -1});

  const std::int64_t make_start = ns_since(t0);
  t = Clock::now();
  sim::FailurePattern pattern(sys.process_count());
  const auto wl = make_workload(sys, seed);
  amcast::ProtocolOptions popt;
  popt.seed = seed;
  auto make = [&](const char* name, const char* span) {
    const amcast::ProtocolDescriptor* d = reg.find(name);
    GAM_EXPECTS(d != nullptr);
    auto p = std::make_unique<TracedProtocol>(d->make(sys, pattern, popt), span,
                                              spans, t0);
    for (const auto& m : wl) p->submit(m);
    return p;
  };
  auto mu = make("mu", "amcast.mu.run");
  auto wb = make("whitebox", "sim.whitebox.run");
  rep.make_ms = seconds_since(t) * 1e3;
  rep.setup_s = (rep.groups_ms + rep.make_ms) / 1e3;
  if (spans) spans->push({"amcast.make", make_start, ns_since(t0), -1, -1});
  if (setup_only) return rep;

  WallStamps stamps(wl.size(), t0);
  if (traced) {
    mu->set_metrics(&rep.mu_metrics);
    wb->set_metrics(&rep.wb_metrics);
  } else {
    mu->set_event_sink(&stamps);
  }
  rep.mu_rec = mu->run();
  rep.mu_run_s = static_cast<double>(mu->run_ns()) / 1e9;
  rep.wb_rec = wb->run();
  rep.wb_run_s = static_cast<double>(wb->run_ns()) / 1e9;
  const amcast::RunRecord& mu_rec = rep.mu_rec;
  const amcast::RunRecord& wb_rec = rep.wb_rec;

  rep.mu_steps = mu_rec.steps;
  rep.wb_steps = wb_rec.steps;
  rep.wb_msgs = wb->wire_messages();
  if (sim::World* w = wb->world()) {
    const auto st = w->total_stats();
    rep.wb_null = st.steps - st.messages_received;
  }
  stamps.latencies_ns(rep.mu_lat_ns);
  rep.mu_lat_steps = step_latencies(mu_rec);
  rep.wb_lat_steps = step_latencies(wb_rec);
  return rep;
}

}  // namespace

Result run_sim_ring(const RunArgs& args) {
  Result res;
  const auto start = Clock::now();
  const std::size_t per_run = static_cast<std::size_t>(kRingGroups) * kPerGroup;
  std::vector<Rep> plain, traced;
  SpanBuffer spans(1024);
  // Inputs and schedule are a function of the seed alone, so every rep must
  // reproduce the first one's records exactly: the spec checker runs on the
  // first rep's records, and every later record is compared against them and
  // then dropped, so memory does not grow with the number of reps.
  double check_s = 0;
  auto add = [&](std::vector<Rep>& reps, Rep r) {
    res.attempted += 2 * per_run;
    if (plain.empty()) {
      const auto t = Clock::now();
      res.failed += check_record("mu", r.mu_rec, args.seed, res);
      res.failed += check_record("whitebox", r.wb_rec, args.seed, res);
      check_s = seconds_since(t);
    } else {
      const Rep& first = plain[0];
      if (!same_record(r.mu_rec, first.mu_rec) ||
          !same_record(r.wb_rec, first.wb_rec)) {
        res.fail("sim_ring: a rep's record differs from the first rep's");
        res.failed += check_record("mu", r.mu_rec, args.seed, res);
        res.failed += check_record("whitebox", r.wb_rec, args.seed, res);
      }
      r.mu_rec = {};
      r.wb_rec = {};
    }
    reps.push_back(std::move(r));
  };
  // At least three untraced reps (and three traced ones with --trace 1) so
  // every figure is a median; beyond that, reps until the time is used.
  while (plain.size() < 3 || (args.trace && traced.size() < 3) ||
         seconds_since(start) < args.seconds) {
    add(plain, run_rep(args.seed, false, nullptr));
    if (args.trace)
      add(traced, run_rep(args.seed, true, traced.empty() ? &spans : nullptr));
  }

  // Set-up alone, many more times: it takes well under a millisecond, and
  // setup_s is a median of many samples.
  std::vector<double> setup;
  for (int i = 0; i < 200; ++i)
    setup.push_back(run_rep(args.seed, false, nullptr, true).setup_s);

  std::vector<double> mu_rate, wb_rate;
  LatencyHistogram latency;
  for (Rep& r : plain) {
    setup.push_back(r.setup_s);
    mu_rate.push_back(static_cast<double>(per_run) / r.mu_run_s);
    wb_rate.push_back(static_cast<double>(per_run) / r.wb_run_s);
    for (std::int64_t ns : r.mu_lat_ns) latency.add_ns(ns);
  }
  const auto reps = static_cast<std::uint64_t>(plain.size());
  auto& e2e = res.end_to_end;
  e2e.push_back({"setup_s", median(setup), "s", setup.size(),
                 "ring6x2 build + both protocols made and loaded"});
  e2e.push_back({"delivered_ratio",
                 1.0 - ratio(static_cast<double>(res.failed),
                             static_cast<double>(res.attempted)),
                 "ratio", res.attempted, "mu and whitebox, every rep"});
  e2e.push_back({"mcast_per_s", median(mu_rate), "1/s", reps,
                 "mu (Algorithm 1) simulated multicasts per wall second"});
  e2e.push_back({"latency_us_p50", latency.quantile_us(0.5), "us", latency.count(),
                 "mu, multicast event to last delivery, all reps pooled"});
  e2e.push_back({"latency_us_p90", latency.quantile_us(0.9), "us", latency.count(),
                 "mu, multicast event to last delivery, all reps pooled"});

  // Deterministic figures: identical in every rep (checked above).
  const Rep& r0 = plain[0];
  std::vector<double> mu_ls = r0.mu_lat_steps, wb_ls = r0.wb_lat_steps;
  const auto n_mu = static_cast<std::uint64_t>(mu_ls.size());
  const auto n_wb = static_cast<std::uint64_t>(wb_ls.size());
  auto& info = res.info;
  info.push_back({"latency_us_p99", latency.quantile_us(0.99), "us", latency.count(),
                  "mu, multicast event to last delivery, all reps pooled"});
  info.push_back({"sim_mu_mcast_per_s", median(mu_rate), "1/s", reps, "wall clock"});
  info.push_back({"sim_whitebox_mcast_per_s", median(wb_rate), "1/s", reps,
                  "wall clock"});
  info.push_back({"sim_mu_latency_steps_p50", quantile(mu_ls, 0.5), "steps", n_mu,
                  "deterministic, from multicast_time"});
  info.push_back({"sim_mu_latency_steps_p99", quantile(mu_ls, 0.99), "steps", n_mu,
                  "deterministic, from multicast_time"});
  info.push_back({"sim_whitebox_latency_steps_p99", quantile(wb_ls, 0.99), "steps",
                  n_wb, "deterministic, from submission (multicast_time is 0)"});
  info.push_back({"sim_whitebox_msgs_per_mcast",
                  static_cast<double>(r0.wb_msgs) / static_cast<double>(per_run),
                  "count", 1, "deterministic"});
  info.push_back({"failed_ratio",
                  ratio(static_cast<double>(res.failed),
                        static_cast<double>(res.attempted)),
                  "ratio", res.attempted, ""});

  if (!args.trace) return res;

  // Per-layer figures, medians over the traced reps.
  std::vector<double> groups_ms, make_ms, mu_run, mu_ns_step, wb_ns_step,
      traced_rate;
  for (const Rep& r : traced) {
    groups_ms.push_back(r.groups_ms);
    make_ms.push_back(r.make_ms);
    mu_run.push_back(r.mu_run_s);
    mu_ns_step.push_back(r.mu_run_s * 1e9 / static_cast<double>(r.mu_steps));
    wb_ns_step.push_back(r.wb_run_s * 1e9 / static_cast<double>(r.wb_steps));
    traced_rate.push_back(static_cast<double>(per_run) / r.mu_run_s);
  }
  const auto tr = static_cast<std::uint64_t>(traced.size());
  const double n = static_cast<double>(per_run);
  const sim::Metrics& mm = traced[0].mu_metrics;
  const sim::Metrics& wm = traced[0].wb_metrics;
  auto hist = [&](const char* name, const char* label, double q) {
    sim::Histogram h;
    for (const auto& [k, v] : mm.histograms())
      if (k.name == name && (label == nullptr || k.label == label)) h.merge(v);
    return std::pair{static_cast<double>(h.count ? h.quantile_interp(q) : 0),
                     h.count};
  };
  auto& pl = res.per_layer;
  pl.push_back({"groups.build_ms", median(groups_ms), "ms", tr, "ring6x2"});
  pl.push_back({"amcast.make_ms", median(make_ms), "ms", tr,
                "registry make + submit, both protocols"});
  pl.push_back({"bench.check_s", check_s, "s", 1,
                "check_all on the first rep's two records"});
  pl.push_back({"bench.trace_overhead", median(traced_rate) / median(mu_rate),
                "ratio", tr, "mu rate with metrics attached / without"});
  pl.push_back({"amcast.mu.run_s", median(mu_run), "s", tr, ""});
  pl.push_back({"amcast.mu.ns_per_step", median(mu_ns_step), "ns", tr, ""});
  pl.push_back({"amcast.mu.steps_per_mcast", static_cast<double>(r0.mu_steps) / n,
                "count", 1, "deterministic"});
  pl.push_back({"objects.mu.log_len_max", gauge_hwm_max(mm, "log_size"), "count", 1,
                "deterministic"});
  pl.push_back({"objects.mu.consensus_per_mcast",
                counter_total(mm, "consensus_propose", "") / n, "count", 1,
                "deterministic"});
  for (const char* cls : {"gamma", "sigma", "omega"})
    pl.push_back({std::string("fd.mu.queries_per_mcast.") + cls,
                  counter_total(mm, "fd_query", cls) / n, "count", 1,
                  "deterministic"});
  for (const char* ph : {"pending", "commit", "stable"}) {
    auto [v, c] = hist("phase_latency", ph, 0.5);
    pl.push_back({std::string("amcast.mu.phase_steps_p50.") + ph, v, "steps", c,
                  "bucket-interpolated"});
  }
  {
    auto [v, c] = hist("convoy_wait", nullptr, 0.99);
    pl.push_back({"amcast.mu.convoy_wait_steps_p99", v, "steps", c,
                  "bucket-interpolated"});
  }
  pl.push_back({"sim.whitebox.ns_per_step", median(wb_ns_step), "ns", tr, ""});
  pl.push_back({"sim.whitebox.steps_per_mcast", static_cast<double>(r0.wb_steps) / n,
                "count", 1, "deterministic"});
  pl.push_back({"sim.whitebox.null_step_ratio",
                ratio(static_cast<double>(r0.wb_null), static_cast<double>(r0.wb_steps)),
                "ratio", r0.wb_steps, "steps without a message / all steps"});
  pl.push_back({"sim.whitebox.buffer_depth_max", gauge_hwm_max(wm, "buffer_depth"),
                "count", 1, "deterministic"});
  for (const auto& m : info) pl.push_back(m);

  std::vector<const SpanBuffer*> bufs{&spans};
  res.spans_file = args.out_dir + "/spans-sim_ring-seed" +
                   std::to_string(args.seed) + ".tsv";
  if (!write_spans(res.spans_file,
                   {"sim_ring spans, first traced rep; times in ns from rep start"},
                   bufs))
    res.fail("cannot write " + res.spans_file);
  return res;
}

}  // namespace perfbench
