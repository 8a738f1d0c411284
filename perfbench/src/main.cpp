// gam_perfbench — the repository benchmark. Usually started through
// perfbench/run.py, which builds it first:
//
//   gam_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                 [--git-rev REV] [--out-dir DIR]
//
// Prints a table of every figure (value, unit, sample count), a metadata
// line, and as the last line one JSON object with the end-to-end metrics
// (--trace 0) or the per-layer metrics (--trace 1). Exits 1 when a
// correctness check failed, 2 on a usage error.
#include <sys/resource.h>
#include <sys/stat.h>

#include <cstdlib>
#include <cstring>
#include <map>
#include <thread>

#include "common.hpp"

#ifndef GAM_BUILD_TYPE
#define GAM_BUILD_TYPE "unknown"
#endif
#ifndef GAM_METRICS_STATE
#define GAM_METRICS_STATE "unknown"
#endif
#ifndef GAM_PLANTED_STATE
#define GAM_PLANTED_STATE "unknown"
#endif

namespace {

using perfbench::Metric;

struct Workload {
  const char* name;
  perfbench::Result (*run)(const perfbench::RunArgs&);
  const char* params;
};

const Workload kWorkloads[] = {
    {"sim_ring", perfbench::run_sim_ring,
     "ring6x2 (12 processes, 6 groups), conflict_workload rate 1.0, 128 "
     "messages per group; mu and whitebox on identical inputs; 1 thread"},
    {"live_closed", perfbench::run_live,
     "in-process rings, 1 group x 3 replicas, batch 256, window 4, closed "
     "loop with 2048 outstanding at the leader, 500K multicasts per rep"},
    {"live_paced", perfbench::run_live,
     "in-process rings, 1 group x 3 replicas, batch 256, window 4, open loop "
     "at 50000 multicasts/s, 50K multicasts per rep"},
    {"live_tcp", perfbench::run_live,
     "loopback TCP, 1 group x 2 replicas (4 connections), batch 32, window 4, "
     "closed loop with 256 outstanding, 125K multicasts per rep"},
};

// The metric sets of BENCHMARK.json. Every workload reports all of them;
// a per-layer figure of a layer the workload does not run reads 0.
const char* const kEndToEnd[] = {"setup_s", "peak_rss_mb", "delivered_ratio",
                                 "mcast_per_s", "latency_us_p50",
                                 "latency_us_p90"};

struct LayerName {
  const char* name;
  const char* unit;
};
const LayerName kPerLayer[] = {
    {"groups.build_ms", "ms"},
    {"amcast.make_ms", "ms"},
    {"bench.check_s", "s"},
    {"bench.trace_overhead", "ratio"},
    {"failed_ratio", "ratio"},
    {"latency_us_p99", "us"},
    {"amcast.mu.run_s", "s"},
    {"amcast.mu.ns_per_step", "ns"},
    {"amcast.mu.steps_per_mcast", "count"},
    {"objects.mu.log_len_max", "count"},
    {"objects.mu.consensus_per_mcast", "count"},
    {"fd.mu.queries_per_mcast.gamma", "count"},
    {"fd.mu.queries_per_mcast.sigma", "count"},
    {"fd.mu.queries_per_mcast.omega", "count"},
    {"amcast.mu.phase_steps_p50.pending", "steps"},
    {"amcast.mu.phase_steps_p50.commit", "steps"},
    {"amcast.mu.phase_steps_p50.stable", "steps"},
    {"amcast.mu.convoy_wait_steps_p99", "steps"},
    {"sim_mu_mcast_per_s", "1/s"},
    {"sim_mu_latency_steps_p50", "steps"},
    {"sim_mu_latency_steps_p99", "steps"},
    {"sim.whitebox.ns_per_step", "ns"},
    {"sim.whitebox.steps_per_mcast", "count"},
    {"sim.whitebox.null_step_ratio", "ratio"},
    {"sim.whitebox.buffer_depth_max", "count"},
    {"sim_whitebox_mcast_per_s", "1/s"},
    {"sim_whitebox_latency_steps_p99", "steps"},
    {"sim_whitebox_msgs_per_mcast", "count"},
    {"net.transport.send_calls_per_mcast", "count"},
    {"net.transport.poll_calls_per_mcast", "count"},
    {"net.transport.frames_per_mcast", "count"},
    {"net.transport.bytes_per_mcast", "bytes"},
    {"net.transport.send_refused_ratio", "ratio"},
    {"net.transport.poll_empty_ratio", "ratio"},
    {"net.transport.send_ns_mean", "ns"},
    {"net.transport.poll_ns_mean", "ns"},
    {"net.transport.pump_ns_mean", "ns"},
    {"net.transport.busy_share", "ratio"},
    {"net.runtime.steps_per_mcast", "count"},
    {"net.runtime.idle_step_ratio", "ratio"},
    {"net.runtime.backoff_cap_hits", "count"},
    {"net.runtime.outbox_hwm", "count"},
    {"net.runtime.self_share", "ratio"},
    {"objects.log.msg_step_ns_mean", "ns"},
    {"objects.log.idle_step_ns_mean", "ns"},
    {"objects.log.busy_share", "ratio"},
    {"objects.log.ops_per_decide", "count"},
    {"objects.log.prepares_per_decide", "count"},
    {"objects.host.log_idle_share", "ratio"},
    {"net.replica_lag_us_p99", "us"},
    {"on_time_ratio", "ratio"},
    {"bench.driver.late_us_p99", "us"},
    {"bench.driver.busy_share", "ratio"},
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "gam_perfbench: %s\nusage: gam_perfbench --workload "
               "sim_ring|live_closed|live_paced|live_tcp --seed N --seconds S "
               "--trace 0|1 [--git-rev REV] [--out-dir DIR]\n",
               why);
  std::exit(2);
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out;
}

void print_table(const char* title, const std::vector<Metric>& ms) {
  std::printf("%s\n", title);
  for (const Metric& m : ms)
    std::printf("  %-38s %16.6g %-6s n=%-10llu %s\n", m.name.c_str(), m.value,
                m.unit.c_str(), static_cast<unsigned long long>(m.samples),
                m.note.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunArgs args;
  std::string git_rev = "unknown";
  bool have_workload = false, have_seed = false, have_seconds = false,
       have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const char* v = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = v;
      have_workload = true;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(v, &end, 10);
      if (*v == '\0' || *end != '\0') usage("--seed takes an unsigned integer");
      have_seed = true;
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(v, &end);
      if (*v == '\0' || *end != '\0' || !(args.seconds > 0 && args.seconds <= 120))
        usage("--seconds takes a number in (0, 120]");
      have_seconds = true;
    } else if (flag == "--trace") {
      if (std::strcmp(v, "0") != 0 && std::strcmp(v, "1") != 0)
        usage("--trace takes 0 or 1");
      args.trace = v[0] == '1';
      have_trace = true;
    } else if (flag == "--git-rev") {
      git_rev = v;
    } else if (flag == "--out-dir") {
      args.out_dir = v;
    } else {
      usage(("unknown flag " + flag).c_str());
    }
  }
  if (!have_workload || !have_seed || !have_seconds || !have_trace)
    usage("--workload, --seed, --seconds and --trace are required");
  const Workload* wl = nullptr;
  for (const auto& w : kWorkloads)
    if (args.workload == w.name) wl = &w;
  if (!wl) usage(("unknown workload " + args.workload).c_str());
  if (args.trace) ::mkdir(args.out_dir.c_str(), 0755);

  perfbench::Result res = wl->run(args);
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  res.end_to_end.insert(res.end_to_end.begin() + 1,
                        Metric{"peak_rss_mb", static_cast<double>(ru.ru_maxrss) / 1024.0,
                               "MB", 1, "whole benchmark process"});

  std::map<std::string, const Metric*> by_name;
  for (const auto* set : {&res.end_to_end, &res.per_layer})
    for (const Metric& m : *set) by_name[m.name] = &m;
  for (const char* name : kEndToEnd)
    if (!by_name.count(name)) res.fail(std::string("missing end-to-end metric ") + name);
  std::vector<Metric> layers;
  if (args.trace)
    for (const LayerName& l : kPerLayer) {
      auto it = by_name.find(l.name);
      if (it != by_name.end()) {
        layers.push_back(*it->second);
        layers.back().unit = l.unit;
      } else {
        layers.push_back({l.name, 0.0, l.unit, 0, "layer not run by this workload"});
      }
    }

  std::printf("# gam_perfbench workload=%s seed=%llu seconds=%g trace=%d\n",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed),
              args.seconds, args.trace ? 1 : 0);
  std::printf(
      "# meta {\"git_rev\": \"%s\", \"nproc\": %u, \"build_type\": \"%s\", "
      "\"gam_metrics\": \"%s\", \"planted_bug\": \"%s\", \"workload\": \"%s\", "
      "\"seed\": %llu, \"seconds\": %g, \"params\": \"%s\", \"note\": \"single "
      "1 s single-thread runs on a shared 4-core host vary about +-20%% in user "
      "time even pinned with ASLR off; the deterministic step and message "
      "counts corroborate wall-clock moves\"}\n",
      json_escape(git_rev).c_str(), std::thread::hardware_concurrency(),
      GAM_BUILD_TYPE, GAM_METRICS_STATE, GAM_PLANTED_STATE, wl->name,
      static_cast<unsigned long long>(args.seed), args.seconds, wl->params);
  print_table("end-to-end (untraced reps):", res.end_to_end);
  print_table("workload figures:", res.info);
  if (args.trace) {
    print_table("per-layer (traced reps):", layers);
    if (!res.spans_file.empty()) std::printf("spans: %s\n", res.spans_file.c_str());
  }
  for (const auto& e : res.errors) std::printf("CHECK FAILED: %s\n", e.c_str());

  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              res.correct ? "true" : "false",
              static_cast<unsigned long long>(res.attempted),
              static_cast<unsigned long long>(res.failed));
  bool first = true;
  auto emit = [&](const Metric& m) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", first ? "" : ", ",
                m.name.c_str(), m.value, m.unit.c_str());
    first = false;
  };
  if (args.trace) {
    for (const Metric& m : layers) emit(m);
  } else {
    for (const char* name : kEndToEnd)
      if (by_name.count(name)) emit(*by_name[name]);
  }
  std::printf("}}\n");
  return res.correct ? 0 : 1;
}
