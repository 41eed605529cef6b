// Shared pieces of the repository benchmark: run options, the metric record
// every workload returns, process probes (/proc/self/status), the
// benchmark's own span log, and the counter snapshot the traced run diffs
// across its measured window.
#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "objectstore/pull_manager.h"
#include "runtime/cluster.h"
#include "serve/load_gen.h"
#include "serve/router.h"
#include "trace/collector.h"

namespace perfbench {

constexpr int kNumNodes = 4;
constexpr int kCpusPerNode = 4;
// Independent set-ups per run. setup_s is their median; tasks_small and
// allreduce also measure each cluster for 1/kRepeats of the run and report
// the median over the clusters, so no single cluster's luck (which GCS shard
// its actors' keys hash to, where its leases land) decides the figure.
constexpr int kRepeats = 5;

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  // Where the traced run writes the benchmark's spans (chrome://tracing).
  std::string trace_out;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  // Human-readable base: sample count or the denominator of a ratio.
  std::string base;
};

struct Report {
  uint64_t attempted = 0;
  // Failed operations: wrong or missing outputs, plus requests the serving
  // layer refused (shed).
  uint64_t failed = 0;
  // Wrong or missing outputs only; any makes the run incorrect.
  uint64_t wrong = 0;
  std::vector<Metric> metrics;
  // Extra human-readable lines printed before the metrics.
  std::vector<std::string> notes;
};

// --- statistics ---

// Linear-interpolated percentile, p in [0, 100]. 0 for an empty sample.
double Percentile(std::vector<double> samples, double p);
double Median(std::vector<double> samples);
// Highest of p99.9 / p99 / p95 / p90 / p50 with at least ten samples beyond
// it, for the human-readable tail line.
double SupportedTailPercentile(size_t n);

struct Completion {
  int64_t done_us = 0;
  double latency_us = 0.0;
};

// One measured window: completion rate and latency percentiles.
struct WindowStats {
  double rate_per_s = 0.0;
  double p50_us = 0.0;
  double p99_us = 0.0;
};

// Rate = completions / (last completion - start_us); percentiles over the
// completions' latencies.
WindowStats Summarize(const std::vector<Completion>& completions, int64_t start_us);
// Field-wise median.
WindowStats MedianOf(const std::vector<WindowStats>& windows);
std::vector<double> Latencies(const std::vector<Completion>& completions);

// --- process probes ---

// Samples the process's thread count and resident memory (/proc/self/status)
// every 5 ms on one background thread, which counts in the thread peak,
// until destroyed.
class ProcessSampler {
 public:
  ProcessSampler();
  ~ProcessSampler();
  ProcessSampler(const ProcessSampler&) = delete;
  ProcessSampler& operator=(const ProcessSampler&) = delete;

  int PeakThreads() const { return peak_threads_.load(std::memory_order_relaxed); }
  // Starts a resident-memory window. Memory the allocator kept from earlier
  // clusters is returned to the OS first, so one cluster's peak does not
  // include the last one's garbage.
  void StartRssWindow();
  // Peak resident memory sampled since StartRssWindow, in MB.
  double WindowPeakRssMb() const;

 private:
  void Sample();

  std::atomic<bool> stop_{false};
  std::atomic<int> peak_threads_{0};
  std::atomic<long> window_peak_rss_kb_{0};
  std::thread thread_;
};

// --- the benchmark's own spans ---

// One span the benchmark recorded around a call into the system. Spans of
// one operation (a task, an allreduce round, a serve ladder step) share `id`;
// the operation's top-level span covers its children.
struct SpanRecord {
  const char* name = "";
  uint64_t id = 0;
  int64_t start_us = 0;
  int64_t dur_us = 0;
  uint32_t thread = 0;
};

// Per-thread span buffer; merged after the owning thread joins. Disabled
// logs record nothing, so untraced runs pay one branch per span.
class SpanLog {
 public:
  explicit SpanLog(bool enabled = false, uint32_t thread = 0)
      : enabled_(enabled), thread_(thread) {}
  void Add(const char* name, uint64_t id, int64_t start_us, int64_t end_us) {
    if (enabled_) {
      records_.push_back({name, id, start_us, end_us - start_us, thread_});
    }
  }
  std::vector<SpanRecord>& records() { return records_; }

 private:
  bool enabled_;
  uint32_t thread_;
  std::vector<SpanRecord> records_;
};

// Writes the spans as chrome://tracing JSON. Failures are reported, not fatal.
void WriteSpans(const std::vector<SpanRecord>& spans, const std::string& path);

// --- counter snapshot ---

// Public counters of every module, summed over the cluster's nodes. The
// traced run takes one before and one after its measured window and reports
// the difference.
struct Counters {
  uint64_t direct_submits = 0;
  uint64_t fallbacks = 0;
  uint64_t lineage_records = 0;
  uint64_t lineage_failed_writes = 0;
  uint64_t leases_granted = 0;
  uint64_t leases_revoked = 0;
  uint64_t spilled = 0;
  uint64_t tasks_executed = 0;  // plain tasks + actor creations
  uint64_t actor_methods = 0;
  std::vector<uint64_t> executed_per_node;  // tasks_executed + actor_methods
  uint64_t pulls_started = 0;
  uint64_t pulls_deduped = 0;
  uint64_t chunks = 0;
  uint64_t net_bytes = 0;
  uint64_t net_transfers = 0;
  uint64_t fiber_switches = 0;
  uint64_t fiber_parks = 0;
  uint64_t fiber_peak_resident = 0;  // max over nodes (not a delta)
  uint64_t gcs_rounds = 0;
  uint64_t gcs_ops = 0;
  uint64_t publishes = 0;
  uint64_t router_shed = 0;
  uint64_t router_timed_out = 0;
  uint64_t router_rerouted = 0;

  // `router` may be null (no serving layer in the workload).
  static Counters Take(ray::Cluster& cluster, const ray::serve::Router* router);
  // this - before; fiber_peak_resident keeps this snapshot's value.
  Counters Minus(const Counters& before) const;
};

// What the traced window measured, handed to LayerMetrics.
struct TracedWindow {
  Counters delta;
  ray::trace::LatencyBreakdown stages;
  std::vector<SpanRecord> spans;
  uint64_t ops = 0;  // workload operations: tasks, allreduce rounds or requests
  double seconds = 0.0;
  double link_bandwidth_bytes_s = 0.0;
  double behind_p99_us = 0.0;  // open-loop generator lateness; 0 for closed loops
  uint64_t offered = 0;        // open-loop arrivals; 0 for closed loops
  double untraced_p50_ms = 0.0;
  double traced_p50_ms = 0.0;
};

// Every per-layer metric, in BENCHMARK.json order; metrics a workload does
// not exercise read 0.
std::vector<Metric> LayerMetrics(const TracedWindow& w);

// Switches the process tracer to kFull with rings large enough for a
// traced window, after dropping anything buffered.
void StartFullTrace();
// Snapshots the tracer, returns the per-stage breakdown and turns tracing
// off again.
ray::trace::LatencyBreakdown StopTrace(uint64_t* dropped);

// The end-to-end metrics, in BENCHMARK.json order.
struct EndToEnd {
  double throughput_tasks_per_s = 0.0;
  double goodput_gbps = 0.0;
  double latency_p50_ms = 0.0;
  double latency_p99_ms = 0.0;
  std::string latency_base;  // sample count and what one sample is
  double max_rate_at_slo_qps = 0.0;
  std::vector<double> setup_s;
  std::vector<double> peak_rss_mb;  // one per cluster; the median is reported
  int os_threads_peak = 0;

  // Takes the latency percentiles from `median` (over `windows` windows);
  // `all_us` (every sample, microseconds) gives the count and whole-run
  // tail shown in the human-readable base.
  void SetLatencies(const WindowStats& median, int windows, const std::vector<double>& all_us,
                    const std::string& what);
};
std::vector<Metric> EndToEndMetrics(const EndToEnd& e);

// A cluster of kNumNodes nodes with kCpusPerNode CPUs each and the default
// network. Node i also carries one unit of the custom resource PinTag(i), so
// actors can be pinned one per node.
std::unique_ptr<ray::Cluster> MakeCluster();
std::string PinTag(int node);

Report RunTasksSmall(const Options& options);
Report RunAllreduce(const Options& options);
Report RunServeOpenLoop(const Options& options);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
