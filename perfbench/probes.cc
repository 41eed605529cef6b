#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <malloc.h>
#include <sstream>
#include <string_view>

#include "bench.h"
#include "common/clock.h"
#include "common/metrics.h"

namespace perfbench {

using ray::trace::Stage;

double Percentile(std::vector<double> samples, double p) {
  if (samples.empty()) {
    return 0.0;
  }
  std::sort(samples.begin(), samples.end());
  double rank = p / 100.0 * static_cast<double>(samples.size() - 1);
  size_t lo = static_cast<size_t>(rank);
  size_t hi = std::min(lo + 1, samples.size() - 1);
  double frac = rank - static_cast<double>(lo);
  return samples[lo] + (samples[hi] - samples[lo]) * frac;
}

double Median(std::vector<double> samples) { return Percentile(std::move(samples), 50.0); }

double SupportedTailPercentile(size_t n) {
  for (double p : {99.9, 99.0, 95.0, 90.0}) {
    if (static_cast<double>(n) * (100.0 - p) / 100.0 >= 10.0) {
      return p;
    }
  }
  return 50.0;
}

WindowStats Summarize(const std::vector<Completion>& completions, int64_t start_us) {
  WindowStats w;
  int64_t last = start_us;
  for (const Completion& c : completions) {
    last = std::max(last, c.done_us);
  }
  if (last > start_us) {
    w.rate_per_s = static_cast<double>(completions.size()) * 1e6 /
                   static_cast<double>(last - start_us);
  }
  std::vector<double> latency = Latencies(completions);
  w.p50_us = Percentile(latency, 50.0);
  w.p99_us = Percentile(std::move(latency), 99.0);
  return w;
}

WindowStats MedianOf(const std::vector<WindowStats>& windows) {
  std::vector<double> rates;
  std::vector<double> p50s;
  std::vector<double> p99s;
  for (const WindowStats& w : windows) {
    rates.push_back(w.rate_per_s);
    p50s.push_back(w.p50_us);
    p99s.push_back(w.p99_us);
  }
  return {Median(rates), Median(p50s), Median(p99s)};
}

std::vector<double> Latencies(const std::vector<Completion>& completions) {
  std::vector<double> out;
  out.reserve(completions.size());
  for (const Completion& c : completions) {
    out.push_back(c.latency_us);
  }
  return out;
}

namespace {

// The "Threads:" count and "VmRSS:" kB of /proc/self/status.
void ReadStatus(long* threads, long* rss_kb) {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("Threads:", 0) == 0) {
      *threads = std::strtol(line.c_str() + 8, nullptr, 10);
    } else if (line.rfind("VmRSS:", 0) == 0) {
      *rss_kb = std::strtol(line.c_str() + 6, nullptr, 10);
    }
  }
}

}  // namespace

ProcessSampler::ProcessSampler() {
  Sample();
  thread_ = std::thread([this] {
    while (!stop_.load(std::memory_order_relaxed)) {
      Sample();
      ray::SleepMicros(5'000);
    }
  });
}

ProcessSampler::~ProcessSampler() {
  stop_.store(true, std::memory_order_relaxed);
  thread_.join();
}

void ProcessSampler::Sample() {
  long threads = 0;
  long rss_kb = 0;
  ReadStatus(&threads, &rss_kb);
  if (threads > peak_threads_.load(std::memory_order_relaxed)) {
    peak_threads_.store(static_cast<int>(threads), std::memory_order_relaxed);
  }
  long peak = window_peak_rss_kb_.load(std::memory_order_relaxed);
  while (rss_kb > peak && !window_peak_rss_kb_.compare_exchange_weak(peak, rss_kb)) {
  }
}

void ProcessSampler::StartRssWindow() {
  malloc_trim(0);
  long threads = 0;
  long rss_kb = 0;
  ReadStatus(&threads, &rss_kb);
  window_peak_rss_kb_.store(rss_kb, std::memory_order_relaxed);
}

double ProcessSampler::WindowPeakRssMb() const {
  long threads = 0;
  long rss_kb = 0;
  ReadStatus(&threads, &rss_kb);
  return static_cast<double>(std::max(rss_kb, window_peak_rss_kb_.load())) / 1024.0;
}

void WriteSpans(const std::vector<SpanRecord>& spans, const std::string& path) {
  if (path.empty()) {
    return;
  }
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "perfbench: cannot write spans to %s\n", path.c_str());
    return;
  }
  int64_t origin = spans.empty() ? 0 : spans.front().start_us;
  for (const SpanRecord& s : spans) {
    origin = std::min(origin, s.start_us);
  }
  out << "{\"traceEvents\":[";
  for (size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& s = spans[i];
    out << (i == 0 ? "" : ",") << "\n{\"name\":\"" << s.name << "\",\"ph\":\"X\",\"pid\":1,\"tid\":"
        << s.thread << ",\"ts\":" << (s.start_us - origin) << ",\"dur\":" << s.dur_us
        << ",\"args\":{\"id\":" << s.id << "}}";
  }
  out << "\n]}\n";
}

Counters Counters::Take(ray::Cluster& cluster, const ray::serve::Router* router) {
  Counters c;
  for (size_t i = 0; i < cluster.NumNodes(); ++i) {
    ray::Node& node = cluster.node(i);
    c.direct_submits += node.transport().NumDirectSubmits();
    c.fallbacks += node.transport().NumFallbacks();
    c.lineage_records += node.transport().lineage().NumRecords();
    c.lineage_failed_writes += node.transport().lineage().NumFailedWrites();
    ray::LocalScheduler& sched = node.scheduler();
    c.leases_granted += sched.NumLeasesGranted();
    c.leases_revoked += sched.NumLeasesRevoked();
    c.spilled += sched.NumSpilledToGlobal();
    c.tasks_executed += sched.NumTasksExecuted();
    c.actor_methods += node.NumActorMethodsExecuted();
    c.executed_per_node.push_back(sched.NumTasksExecuted() + node.NumActorMethodsExecuted());
    ray::PullManager& pulls = node.store().pull_manager();
    c.pulls_started += pulls.NumPullsStarted();
    c.pulls_deduped += pulls.NumPullsDeduped();
    c.chunks += pulls.NumChunksTransferred();
    ray::fiber::FiberScheduler& fibers = sched.fibers();
    c.fiber_switches += fibers.NumSwitches();
    c.fiber_parks += fibers.NumParks();
    c.fiber_peak_resident = std::max<uint64_t>(c.fiber_peak_resident, fibers.PeakResident());
  }
  c.net_bytes = cluster.net().TotalBytesTransferred();
  c.net_transfers = cluster.net().NumTransfers();
  auto& cp = ray::ControlPlaneMetrics::Instance();
  c.gcs_rounds = cp.gcs_batch_rounds.Value();
  c.gcs_ops = cp.gcs_batched_ops.Value();
  c.publishes = cp.publishes_delivered.Value();
  if (router != nullptr) {
    c.router_shed = router->NumShed();
    c.router_timed_out = router->NumTimedOut();
    c.router_rerouted = router->NumRerouted();
  }
  return c;
}

Counters Counters::Minus(const Counters& b) const {
  Counters d = *this;
  d.direct_submits -= b.direct_submits;
  d.fallbacks -= b.fallbacks;
  d.lineage_records -= b.lineage_records;
  d.lineage_failed_writes -= b.lineage_failed_writes;
  d.leases_granted -= b.leases_granted;
  d.leases_revoked -= b.leases_revoked;
  d.spilled -= b.spilled;
  d.tasks_executed -= b.tasks_executed;
  d.actor_methods -= b.actor_methods;
  for (size_t i = 0; i < d.executed_per_node.size() && i < b.executed_per_node.size(); ++i) {
    d.executed_per_node[i] -= b.executed_per_node[i];
  }
  d.pulls_started -= b.pulls_started;
  d.pulls_deduped -= b.pulls_deduped;
  d.chunks -= b.chunks;
  d.net_bytes -= b.net_bytes;
  d.net_transfers -= b.net_transfers;
  d.fiber_switches -= b.fiber_switches;
  d.fiber_parks -= b.fiber_parks;
  d.gcs_rounds -= b.gcs_rounds;
  d.gcs_ops -= b.gcs_ops;
  d.publishes -= b.publishes;
  d.router_shed -= b.router_shed;
  d.router_timed_out -= b.router_timed_out;
  d.router_rerouted -= b.router_rerouted;
  return d;
}

namespace {

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

std::string Base(const char* what, double n) {
  std::ostringstream s;
  s << "base " << what << " = " << static_cast<uint64_t>(n);
  return s.str();
}

std::string Count(double n) { return "n = " + std::to_string(static_cast<uint64_t>(n)); }

// Durations of every span with one of `names`, scaled by `scale`.
std::vector<double> SpanDurations(const std::vector<SpanRecord>& spans,
                                  std::initializer_list<std::string_view> names, double scale) {
  std::vector<double> out;
  for (const SpanRecord& s : spans) {
    for (std::string_view name : names) {
      if (name == s.name) {
        out.push_back(static_cast<double>(s.dur_us) * scale);
      }
    }
  }
  return out;
}

}  // namespace

std::vector<Metric> LayerMetrics(const TracedWindow& w) {
  const Counters& d = w.delta;
  const double tasks = static_cast<double>(d.tasks_executed + d.actor_methods);
  const double ops = static_cast<double>(w.ops);
  const double submits = static_cast<double>(d.direct_submits + d.fallbacks);
  const double pull_requests = static_cast<double>(d.pulls_started + d.pulls_deduped);
  std::vector<Metric> m;
  // Percentiles of the benchmark's own spans, scaled to `unit`.
  auto span_pct = [&](std::initializer_list<std::string_view> names, const char* metric,
                      double p, double scale, const char* unit) {
    std::vector<double> v = SpanDurations(w.spans, names, scale);
    m.push_back({metric, Percentile(v, p), unit, Count(static_cast<double>(v.size()))});
  };
  // Stage percentiles from the program's own kFull trace, scaled to `unit`.
  auto stage_pct = [&](Stage stage, const char* metric, bool p99, double scale,
                       const char* unit) {
    const ray::trace::StageStats* s = w.stages.Find(stage);
    double v = s == nullptr ? 0.0 : (p99 ? s->p99_us : s->p50_us) * scale;
    m.push_back({metric, v, unit, Count(s == nullptr ? 0.0 : static_cast<double>(s->count))});
  };

  // runtime: the benchmark's own spans around its submit and get calls.
  span_pct({"Ray::Call", "ActorHandle::Call"}, "runtime.submit_us_p50", 50.0, 1.0, "us");
  span_pct({"Ray::Call", "ActorHandle::Call"}, "runtime.submit_us_p99", 99.0, 1.0, "us");
  span_pct({"Ray::Get", "Ray::Wait"}, "runtime.get_wait_us_p50", 50.0, 1.0, "us");
  span_pct({"Ray::Get", "Ray::Wait"}, "runtime.get_wait_us_p99", 99.0, 1.0, "us");
  m.push_back({"runtime.direct_submit_frac", Ratio(static_cast<double>(d.direct_submits), submits),
               "fraction", Base("runtime.transport_submits", submits)});
  m.push_back({"runtime.transport_submits", submits, "count", "direct + fallback"});
  m.push_back({"runtime.lineage_records_per_task",
               Ratio(static_cast<double>(d.lineage_records), tasks), "count",
               Base("runtime.tasks_executed", tasks)});
  m.push_back({"runtime.lineage_failed_writes", static_cast<double>(d.lineage_failed_writes),
               "count", ""});
  stage_pct(Stage::kExec, "runtime.exec_us_p50", false, 1.0, "us");
  stage_pct(Stage::kExec, "runtime.exec_us_p99", true, 1.0, "us");
  stage_pct(Stage::kActorExec, "runtime.actor_exec_us_p50", false, 1.0, "us");
  stage_pct(Stage::kActorExec, "runtime.actor_exec_us_p99", true, 1.0, "us");
  m.push_back({"runtime.tasks_executed", tasks, "count", "plain tasks + actor methods"});

  // scheduler
  m.push_back({"scheduler.leases_granted", static_cast<double>(d.leases_granted), "count", ""});
  m.push_back({"scheduler.leases_revoked", static_cast<double>(d.leases_revoked), "count", ""});
  m.push_back({"scheduler.spilled_frac", Ratio(static_cast<double>(d.spilled), tasks), "fraction",
               Base("runtime.tasks_executed", tasks)});
  double max_node = 0.0;
  double sum_node = 0.0;
  for (uint64_t n : d.executed_per_node) {
    max_node = std::max(max_node, static_cast<double>(n));
    sum_node += static_cast<double>(n);
  }
  double mean_node = d.executed_per_node.empty() ? 0.0 : sum_node / d.executed_per_node.size();
  m.push_back({"scheduler.exec_imbalance", Ratio(max_node, mean_node), "ratio",
               "busiest node / mean over " + std::to_string(d.executed_per_node.size()) +
                   " nodes"});
  stage_pct(Stage::kQueue, "scheduler.queue_us_p50", false, 1.0, "us");
  stage_pct(Stage::kQueue, "scheduler.queue_us_p99", true, 1.0, "us");
  stage_pct(Stage::kDepWait, "scheduler.dep_wait_us_p50", false, 1.0, "us");
  stage_pct(Stage::kDepWait, "scheduler.dep_wait_us_p99", true, 1.0, "us");

  // gcs
  m.push_back({"gcs.chain_rounds_per_task", Ratio(static_cast<double>(d.gcs_rounds), tasks),
               "count", Base("runtime.tasks_executed", tasks)});
  m.push_back({"gcs.ops_per_round",
               Ratio(static_cast<double>(d.gcs_ops), static_cast<double>(d.gcs_rounds)), "count",
               Base("gcs.chain_rounds", static_cast<double>(d.gcs_rounds))});
  m.push_back({"gcs.chain_rounds", static_cast<double>(d.gcs_rounds), "count", ""});
  m.push_back({"gcs.publishes_per_task", Ratio(static_cast<double>(d.publishes), tasks), "count",
               Base("runtime.tasks_executed", tasks)});
  stage_pct(Stage::kGcsCommit, "gcs.commit_us_p50", false, 1.0, "us");
  stage_pct(Stage::kGcsCommit, "gcs.commit_us_p99", true, 1.0, "us");

  // objectstore
  m.push_back({"objectstore.pulls_started", static_cast<double>(d.pulls_started), "count", ""});
  m.push_back({"objectstore.pull_requests", pull_requests, "count", "started + deduped"});
  m.push_back({"objectstore.pull_dedup_frac",
               Ratio(static_cast<double>(d.pulls_deduped), pull_requests), "fraction",
               Base("objectstore.pull_requests", pull_requests)});
  m.push_back({"objectstore.chunks_per_pull",
               Ratio(static_cast<double>(d.chunks), static_cast<double>(d.pulls_started)), "count",
               Base("objectstore.pulls_started", static_cast<double>(d.pulls_started))});
  stage_pct(Stage::kFetch, "objectstore.fetch_ms_p50", false, 1e-3, "ms");
  stage_pct(Stage::kFetch, "objectstore.fetch_ms_p99", true, 1e-3, "ms");
  stage_pct(Stage::kPut, "objectstore.put_us_p50", false, 1.0, "us");
  stage_pct(Stage::kPut, "objectstore.put_us_p99", true, 1.0, "us");
  stage_pct(Stage::kChunkCopy, "objectstore.chunk_copy_us_p50", false, 1.0, "us");
  stage_pct(Stage::kChunkCopy, "objectstore.chunk_copy_us_p99", true, 1.0, "us");

  // net
  m.push_back({"net.bytes_per_round", Ratio(static_cast<double>(d.net_bytes), ops), "B",
               Base("workload.ops", ops)});
  m.push_back({"net.transfers_per_round", Ratio(static_cast<double>(d.net_transfers), ops),
               "count", Base("workload.ops", ops)});
  double wire_capacity = w.link_bandwidth_bytes_s * kNumNodes * w.seconds;
  m.push_back({"net.wire_busy_frac", Ratio(static_cast<double>(d.net_bytes), wire_capacity),
               "fraction", "bytes sent / (nodes x link bandwidth x window)"});
  stage_pct(Stage::kChunkTransfer, "net.chunk_transfer_us_p50", false, 1.0, "us");
  stage_pct(Stage::kChunkTransfer, "net.chunk_transfer_us_p99", true, 1.0, "us");

  // fiber runtime (common)
  m.push_back({"fiber.switches_per_task", Ratio(static_cast<double>(d.fiber_switches), tasks),
               "count", Base("runtime.tasks_executed", tasks)});
  m.push_back({"fiber.parks_per_task", Ratio(static_cast<double>(d.fiber_parks), tasks), "count",
               Base("runtime.tasks_executed", tasks)});
  m.push_back({"fiber.peak_resident", static_cast<double>(d.fiber_peak_resident), "count",
               "max over nodes"});

  // serve
  stage_pct(Stage::kServeQueue, "serve.queue_ms_p99", true, 1e-3, "ms");
  stage_pct(Stage::kServeRoute, "serve.route_ms_p99", true, 1e-3, "ms");
  m.push_back({"serve.shed_frac",
               Ratio(static_cast<double>(d.router_shed), static_cast<double>(w.offered)),
               "fraction", Base("loadgen.offered", static_cast<double>(w.offered))});
  m.push_back({"serve.rerouted", static_cast<double>(d.router_rerouted), "count", ""});
  m.push_back({"serve.timed_out", static_cast<double>(d.router_timed_out), "count", ""});
  m.push_back({"loadgen.behind_p99_us", w.behind_p99_us, "us", ""});
  m.push_back({"loadgen.offered", static_cast<double>(w.offered), "count", ""});

  // raylib: the benchmark's span around submitting one allreduce round.
  span_pct({"raylib::SubmitRingAllreduce"}, "raylib.ring_submit_ms_p50", 50.0, 1e-3, "ms");
  span_pct({"raylib::SubmitRingAllreduce"}, "raylib.ring_submit_ms_p99", 99.0, 1e-3, "ms");

  m.push_back({"workload.ops", ops, "count", "tasks, allreduce rounds or requests traced"});
  m.push_back({"trace.overhead_frac", Ratio(w.traced_p50_ms, w.untraced_p50_ms) - 1.0, "fraction",
               "traced / untraced latency_p50_ms - 1"});
  return m;
}

void StartFullTrace() {
  auto& tracer = ray::trace::Tracer::Instance();
  // Reconfigure while off: no emitter is inside a ring when the rings reset.
  ray::trace::TraceConfig config;
  config.mode = ray::trace::TraceMode::kOff;
  config.ring_capacity = 1 << 14;
  tracer.Configure(config);
  tracer.SetMode(ray::trace::TraceMode::kFull);
}

ray::trace::LatencyBreakdown StopTrace(uint64_t* dropped) {
  auto& tracer = ray::trace::Tracer::Instance();
  tracer.SetMode(ray::trace::TraceMode::kOff);
  ray::trace::Collector collector;
  auto events = collector.Snapshot();
  *dropped = tracer.EventsDropped();
  return ray::trace::Collector::Breakdown(events);
}

void EndToEnd::SetLatencies(const WindowStats& median, int windows,
                            const std::vector<double>& all_us, const std::string& what) {
  latency_p50_ms = median.p50_us / 1e3;
  latency_p99_ms = median.p99_us / 1e3;
  char tail[128];
  double p = SupportedTailPercentile(all_us.size());
  std::snprintf(tail, sizeof(tail), "; median of %d windows; whole run p%g %.3f ms", windows, p,
                Percentile(all_us, p) / 1e3);
  latency_base = Count(static_cast<double>(all_us.size())) + " " + what + tail;
}

std::vector<Metric> EndToEndMetrics(const EndToEnd& e) {
  std::vector<Metric> m;
  m.push_back({"throughput_tasks_per_s", e.throughput_tasks_per_s, "1/s", ""});
  m.push_back({"goodput_gbps", e.goodput_gbps, "Gb/s", "checked payload bytes"});
  m.push_back({"latency_p50_ms", e.latency_p50_ms, "ms", e.latency_base});
  m.push_back({"latency_p99_ms", e.latency_p99_ms, "ms", e.latency_base});
  m.push_back({"max_rate_at_slo_qps", e.max_rate_at_slo_qps, "1/s", ""});
  m.push_back({"setup_s", Median(e.setup_s), "s",
               "median of " + std::to_string(e.setup_s.size()) + " set-ups"});
  m.push_back({"peak_rss_mb", Median(e.peak_rss_mb), "MB",
               "VmRSS sampled every 5 ms; median over " + std::to_string(e.peak_rss_mb.size()) +
                   " clusters of each one's peak"});
  m.push_back({"os_threads_peak", static_cast<double>(e.os_threads_peak), "count",
               "sampled every 5 ms"});
  return m;
}

std::string PinTag(int node) { return "perfbench_node" + std::to_string(node); }

std::unique_ptr<ray::Cluster> MakeCluster() {
  ray::ClusterConfig config;
  config.num_nodes = 0;
  config.scheduler.total_resources = ray::ResourceSet::Cpu(kCpusPerNode);
  auto cluster = std::make_unique<ray::Cluster>(config);
  for (int i = 0; i < kNumNodes; ++i) {
    cluster->AddNodeWithResources(ray::ResourceSet{{"CPU", kCpusPerNode}, {PinTag(i), 1}});
  }
  return cluster;
}

}  // namespace perfbench
