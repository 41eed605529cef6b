// tasks_small: the Fig. 8b per-task path. Closed loop: kDrivers driver
// threads, one homed on each node, each keep kWindow tiny tasks in flight.
// A task maps its seeded argument through Mix(); the driver checks every
// returned value. The control plane (submit, lease, lineage buffer, GCS
// chain commit, kDone and location publish) does nearly all the work; no
// object is larger than 16 bytes, so the data plane stays idle.
#include <deque>

#include "bench.h"
#include "common/clock.h"
#include "common/metrics.h"
#include "common/random.h"
#include "runtime/api.h"

namespace perfbench {
namespace {

using ray::NowMicros;

constexpr int kDrivers = kNumNodes;
constexpr int kWindow = 8;
// Tasks per driver in the untimed warm-up after each set-up.
constexpr int kWarmupTasks = 4 * kWindow;
// Latency limit behind max_rate_at_slo_qps for this closed loop.
constexpr double kP99LimitMs = 50.0;
constexpr int64_t kGetTimeoutUs = 20'000'000;
constexpr int kResultBytes = 8;

// Deterministic 64-bit mix (splitmix64 finalizer): the value a tasks_small
// task returns for its seeded argument.
inline int64_t Mix(int64_t x) {
  uint64_t z = static_cast<uint64_t>(x) + 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return static_cast<int64_t>(z ^ (z >> 31));
}

int64_t MixTask(int64_t x) { return Mix(x); }

struct DriverStats {
  std::vector<Completion> completions;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  int64_t last_done_us = 0;
};

// One driver's closed loop: keeps kWindow tasks in flight until `end_us`
// (or until `max_tasks` were submitted), checking each result.
void Drive(ray::Cluster& cluster, int driver, ray::Rng& rng, int64_t end_us, uint64_t max_tasks,
           SpanLog& spans, DriverStats& stats) {
  ray::Ray ray = ray::Ray::OnNode(cluster, static_cast<size_t>(driver % kNumNodes));
  struct InFlight {
    ray::ObjectRef<int64_t> ref;
    int64_t arg;
    int64_t start_us;
    uint64_t id;
  };
  std::deque<InFlight> window;
  uint64_t submitted = 0;
  auto submit = [&] {
    int64_t arg = static_cast<int64_t>(rng.Engine()());
    uint64_t id = (static_cast<uint64_t>(driver) << 48) | ++submitted;
    int64_t t0 = NowMicros();
    auto ref = ray.Call<int64_t>("perfbench_mix", arg);
    spans.Add("Ray::Call", id, t0, NowMicros());
    window.push_back({ref, arg, t0, id});
  };
  for (int i = 0; i < kWindow; ++i) {
    submit();
  }
  while (!window.empty()) {
    InFlight f = window.front();
    window.pop_front();
    int64_t g0 = NowMicros();
    auto value = ray.Get(f.ref, kGetTimeoutUs);
    int64_t done = NowMicros();
    spans.Add("Ray::Get", f.id, g0, done);
    spans.Add("task", f.id, f.start_us, done);
    ++stats.attempted;
    if (!value.ok() || *value != Mix(f.arg)) {
      ++stats.failed;
    }
    stats.completions.push_back({done, static_cast<double>(done - f.start_us)});
    stats.last_done_us = done;
    if (done < end_us && submitted < max_tasks) {
      submit();
    }
  }
}

struct Loop {
  std::vector<Completion> completions;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  int64_t start_us = 0;
  double seconds = 0.0;
  std::vector<SpanRecord> spans;
};

// Runs every driver for `seconds` (or `max_tasks` each) and merges results.
Loop RunDrivers(ray::Cluster& cluster, std::vector<ray::Rng>& rngs, double seconds,
                uint64_t max_tasks, bool traced) {
  std::vector<DriverStats> stats(kDrivers);
  std::vector<SpanLog> logs;
  for (int d = 0; d < kDrivers; ++d) {
    logs.emplace_back(traced, static_cast<uint32_t>(d));
  }
  const int64_t start = NowMicros();
  const int64_t end = start + static_cast<int64_t>(seconds * 1e6);
  std::vector<std::thread> threads;
  for (int d = 0; d < kDrivers; ++d) {
    threads.emplace_back(
        [&, d] { Drive(cluster, d, rngs[d], end, max_tasks, logs[d], stats[d]); });
  }
  for (auto& t : threads) {
    t.join();
  }
  Loop loop;
  int64_t last = start;
  for (int d = 0; d < kDrivers; ++d) {
    auto& s = stats[d];
    loop.completions.insert(loop.completions.end(), s.completions.begin(), s.completions.end());
    loop.attempted += s.attempted;
    loop.failed += s.failed;
    last = std::max(last, s.last_done_us);
    auto& r = logs[d].records();
    loop.spans.insert(loop.spans.end(), r.begin(), r.end());
  }
  loop.start_us = start;
  loop.seconds = static_cast<double>(last - start) / 1e6;
  return loop;
}

}  // namespace

Report RunTasksSmall(const Options& options) {
  ProcessSampler process;
  Report report;
  EndToEnd e2e;
  std::vector<ray::Rng> rngs;
  for (int d = 0; d < kDrivers; ++d) {
    rngs.emplace_back(options.seed * 1'000'003 + static_cast<uint64_t>(d));
  }
  auto account = [&](const Loop& loop) {
    report.attempted += loop.attempted;
    report.failed += loop.failed;
    report.wrong += loop.failed;
  };
  // Set-up: cluster start, registration, first heartbeats and the lease
  // grants (one task per driver). An untimed warm-up follows.
  auto set_up = [&] {
    int64_t t0 = NowMicros();
    auto cluster = MakeCluster();
    cluster->RegisterFunction("perfbench_mix", &MixTask);
    account(RunDrivers(*cluster, rngs, 60.0, 1, false));
    e2e.setup_s.push_back(static_cast<double>(NowMicros() - t0) / 1e6);
    account(RunDrivers(*cluster, rngs, 60.0, kWarmupTasks, false));
    return cluster;
  };

  if (!options.trace) {
    std::vector<WindowStats> windows;
    std::vector<double> all_us;
    for (int i = 0; i < kRepeats; ++i) {
      process.StartRssWindow();
      auto cluster = set_up();
      Loop loop = RunDrivers(*cluster, rngs, options.seconds / kRepeats, UINT64_MAX, false);
      account(loop);
      e2e.peak_rss_mb.push_back(process.WindowPeakRssMb());
      windows.push_back(Summarize(loop.completions, loop.start_us));
      std::vector<double> latency = Latencies(loop.completions);
      all_us.insert(all_us.end(), latency.begin(), latency.end());
    }
    WindowStats median = MedianOf(windows);
    e2e.throughput_tasks_per_s = median.rate_per_s;
    e2e.goodput_gbps = e2e.throughput_tasks_per_s * kResultBytes * 8 / 1e9;
    e2e.SetLatencies(median, kRepeats, all_us, "tasks, call to get");
    e2e.max_rate_at_slo_qps =
        e2e.latency_p99_ms <= kP99LimitMs ? e2e.throughput_tasks_per_s : 0.0;
    e2e.os_threads_peak = process.PeakThreads();
    report.metrics = EndToEndMetrics(e2e);
    report.notes.push_back("closed loop: " + std::to_string(kDrivers) + " drivers x window " +
                           std::to_string(kWindow) + ", p99 limit " +
                           std::to_string(static_cast<int>(kP99LimitMs)) + " ms");
    return report;
  }

  // Traced run: one cluster, half the time untraced, then the same loop
  // with every module's counters diffed and the program's trace in kFull.
  auto cluster = set_up();
  Loop plain = RunDrivers(*cluster, rngs, options.seconds / 2, UINT64_MAX, false);
  account(plain);
  TracedWindow w;
  w.untraced_p50_ms = Percentile(Latencies(plain.completions), 50.0) / 1e3;
  ray::ControlPlaneMetrics::Instance().Reset();
  Counters before = Counters::Take(*cluster, nullptr);
  StartFullTrace();
  Loop traced = RunDrivers(*cluster, rngs, options.seconds / 2, UINT64_MAX, true);
  uint64_t dropped = 0;
  w.stages = StopTrace(&dropped);
  w.delta = Counters::Take(*cluster, nullptr).Minus(before);
  account(traced);
  w.traced_p50_ms = Percentile(Latencies(traced.completions), 50.0) / 1e3;
  w.ops = traced.attempted;
  w.seconds = traced.seconds;
  w.link_bandwidth_bytes_s = cluster->net().config().link_bandwidth_bytes_s;
  w.spans = std::move(traced.spans);
  report.metrics = LayerMetrics(w);
  report.notes.push_back("trace events dropped by ring overwrite: " + std::to_string(dropped));
  report.notes.push_back(w.stages.Render());
  WriteSpans(w.spans, options.trace_out);
  return report;
}

}  // namespace perfbench
