// serve_open_loop: the Table 3 serving path. Open loop: seeded Poisson
// arrivals from serve::RunOpenLoopLoad at a ladder of fixed offered rates,
// against a serve::Router fronting a fixed set of spread-placed ServeReplica
// actors (autoscaler off). Each request is a read-only actor method call
// routed by the router and completed through an Object Table location
// subscription, so it exercises the actor path, GCS reads and pub-sub
// rather than leases and the lineage buffer. Latency runs from each
// request's scheduled arrival. Every ladder step gets a fresh cluster, so
// the router's all-time percentiles are that step's percentiles.
#include "bench.h"
#include "common/clock.h"
#include "runtime/api.h"
#include "serve/replica.h"

namespace perfbench {
namespace {

using ray::NowMicros;

constexpr int kReplicas = kNumNodes;
constexpr int kLoadThreads = 2;
constexpr int64_t kServiceUs = 2'000;
// The p99 limit (the serving SLO bench_serving defends): max_rate_at_slo_qps
// is the highest step that meets it.
constexpr double kP99LimitMs = 200.0;
// Offered rates, lowest first. The highest is under a third of what the 4
// replicas serve on an idle 4-core host, so a host whose CPUs are shared
// with other work still serves it without a queue building up. The last is
// the reference step whose latencies are the headline latency_p50_ms and
// latency_p99_ms.
constexpr double kRatesQps[] = {125.0, 250.0, 500.0};
constexpr int kReplyBytes = 8;
// Windows each step is split into for its latency percentiles: about 300
// requests each at the reference rate, so a few disturbed windows do not
// move the median.
constexpr int kWindows = 10;

struct Step {
  double qps = 0.0;
  double seconds = 0.0;
  double setup_s = 0.0;
  double peak_rss_mb = 0.0;
  ray::serve::LoadGenReport load;
  // Medians over kWindows consecutive windows of the router's windowed
  // percentiles.
  double window_p50_ms = 0.0;
  double window_p99_ms = 0.0;
  bool met_slo = false;
};

// Requests that got no reply: shed, timed out, or never completed.
uint64_t FailedRequests(const ray::serve::LoadGenReport& r) {
  return r.offered - std::min(r.offered, r.completed);
}

// Admitted requests that got no reply.
uint64_t MissingReplies(const ray::serve::LoadGenReport& r) {
  return r.admitted - std::min(r.admitted, r.completed);
}

// Samples the router's sliding-window percentiles at the end of each of
// kWindows windows tiling the offered load that starts at `start_us`.
void SampleWindows(const ray::serve::Router& router, int64_t start_us, int64_t window_us,
                   Step* step) {
  std::vector<double> p50s;
  std::vector<double> p99s;
  for (int k = 1; k <= kWindows; ++k) {
    int64_t at = start_us + k * window_us;
    int64_t now = NowMicros();
    if (at > now) {
      ray::SleepMicros(at - now);
    }
    auto snap = router.latency().Snap(NowMicros());
    if (snap.window_count > 0) {
      p50s.push_back(snap.window_p50_us);
      p99s.push_back(snap.window_p99_us);
    }
  }
  step->window_p50_ms = Median(p50s) / 1e3;
  step->window_p99_ms = Median(p99s) / 1e3;
}

// One ladder step on a fresh cluster. With `window` set, the step is traced:
// the program tracer runs in kFull and the module counters are diffed
// across the offered load.
Step RunStep(double qps, double seconds, uint64_t seed, ProcessSampler& process,
             TracedWindow* window) {
  Step step;
  step.qps = qps;
  step.seconds = seconds;
  const int64_t window_us = static_cast<int64_t>(seconds * 1e6) / kWindows;
  process.StartRssWindow();
  int64_t t0 = NowMicros();
  auto cluster = MakeCluster();
  ray::serve::RegisterServeSupport(*cluster);
  ray::serve::RouterConfig config;
  config.slo_us = static_cast<int64_t>(kP99LimitMs * 1e3);
  config.replica_service_us = kServiceUs;
  config.stats_window_us = window_us;
  ray::serve::Router router(ray::Ray::OnNode(*cluster, 0), config);
  ray::Status started = router.Start(kReplicas);
  step.setup_s = static_cast<double>(NowMicros() - t0) / 1e6;

  ray::serve::LoadGenConfig load;
  load.qps = qps;
  load.duration_us = static_cast<int64_t>(seconds * 1e6);
  load.threads = kLoadThreads;
  load.seed = seed;
  if (started.ok()) {
    Counters before;
    SpanLog spans(window != nullptr);
    if (window != nullptr) {
      ray::ControlPlaneMetrics::Instance().Reset();
      before = Counters::Take(*cluster, &router);
      StartFullTrace();
    }
    int64_t l0 = NowMicros();
    // RunOpenLoopLoad starts its schedule 10 ms after it is called.
    std::thread sampler(SampleWindows, std::cref(router), l0 + 10'000, window_us, &step);
    step.load = ray::serve::RunOpenLoopLoad(router, load);
    sampler.join();
    spans.Add("serve::RunOpenLoopLoad", 0, l0, NowMicros());
    if (window != nullptr) {
      uint64_t dropped = 0;
      window->stages = StopTrace(&dropped);
      window->delta = Counters::Take(*cluster, &router).Minus(before);
      window->seconds = static_cast<double>(NowMicros() - l0) / 1e6;
      window->link_bandwidth_bytes_s = cluster->net().config().link_bandwidth_bytes_s;
      window->spans = std::move(spans.records());
    }
  } else {
    // The replicas never came up: one request, admitted and unanswered.
    step.load.offered = 1;
    step.load.admitted = 1;
  }
  // A request that got no reply counts as missing the limit: the step meets
  // it when at least 99% of offered requests completed within the limit.
  const auto& r = step.load;
  const double unanswered =
      r.offered > 0 ? static_cast<double>(FailedRequests(r)) / static_cast<double>(r.offered) : 1;
  step.met_slo = started.ok() && unanswered <= 0.01 &&
                 router.latency().TotalPercentile(99.0 / (1.0 - unanswered)) / 1e3 <= kP99LimitMs;
  router.Stop();
  step.peak_rss_mb = process.WindowPeakRssMb();
  return step;
}

std::string StepLine(const Step& s) {
  char buf[320];
  std::snprintf(buf, sizeof(buf),
                "step %6.0f qps: offered %llu completed %llu shed %llu timed_out %llu  "
                "p50 %.3f ms p99 %.3f ms (n = %llu; window medians %.3f / %.3f ms)  "
                "behind_p99 %.0f us  setup %.3f s  %s",
                s.qps, static_cast<unsigned long long>(s.load.offered),
                static_cast<unsigned long long>(s.load.completed),
                static_cast<unsigned long long>(s.load.shed),
                static_cast<unsigned long long>(s.load.timed_out), s.load.p50_ms, s.load.p99_ms,
                static_cast<unsigned long long>(s.load.completed), s.window_p50_ms,
                s.window_p99_ms, s.load.behind_p99_us,
                s.setup_s, s.met_slo ? "meets SLO" : "misses SLO");
  return buf;
}

}  // namespace

Report RunServeOpenLoop(const Options& options) {
  ProcessSampler process;
  Report report;
  report.notes.push_back("open loop: Poisson arrivals, " + std::to_string(kLoadThreads) +
                         " generator threads, " + std::to_string(kReplicas) +
                         " replicas (autoscaler off), service " +
                         std::to_string(kServiceUs / 1000) + " ms, p99 limit " +
                         std::to_string(static_cast<int>(kP99LimitMs)) + " ms");
  const double top_qps = kRatesQps[std::size(kRatesQps) - 1];

  if (options.trace) {
    // The reference rate twice: untraced, then traced.
    Step plain = RunStep(top_qps, options.seconds / 2, options.seed, process, nullptr);
    TracedWindow w;
    Step traced = RunStep(top_qps, options.seconds / 2, options.seed + 1, process, &w);
    for (const Step* s : {&plain, &traced}) {
      report.attempted += s->load.offered;
      report.failed += FailedRequests(s->load);
      report.wrong += MissingReplies(s->load);
      report.notes.push_back(StepLine(*s));
    }
    w.untraced_p50_ms = plain.window_p50_ms;
    w.traced_p50_ms = traced.window_p50_ms;
    w.ops = traced.load.offered;
    w.offered = traced.load.offered;
    w.behind_p99_us = traced.load.behind_p99_us;
    report.metrics = LayerMetrics(w);
    report.notes.push_back(w.stages.Render());
    WriteSpans(w.spans, options.trace_out);
    return report;
  }

  EndToEnd e2e;
  const double step_seconds = options.seconds / std::size(kRatesQps);
  uint64_t completed = 0;
  double offered_seconds = 0.0;
  std::vector<Step> steps;
  for (size_t i = 0; i < std::size(kRatesQps); ++i) {
    Step s = RunStep(kRatesQps[i], step_seconds, options.seed * 16 + i, process, nullptr);
    report.attempted += s.load.offered;
    report.failed += FailedRequests(s.load);
    report.wrong += MissingReplies(s.load);
    completed += s.load.completed;
    offered_seconds += s.seconds;
    e2e.setup_s.push_back(s.setup_s);
    e2e.peak_rss_mb.push_back(s.peak_rss_mb);
    if (s.met_slo) {
      e2e.max_rate_at_slo_qps = s.load.achieved_qps;
    }
    report.notes.push_back(StepLine(s));
    steps.push_back(s);
  }
  const Step& top = steps.back();
  e2e.throughput_tasks_per_s = static_cast<double>(completed) / offered_seconds;
  e2e.goodput_gbps = e2e.throughput_tasks_per_s * kReplyBytes * 8 / 1e9;
  // The router reports percentiles, not samples: take the reference step's.
  e2e.latency_p50_ms = top.window_p50_ms;
  e2e.latency_p99_ms = top.window_p99_ms;
  e2e.latency_base = "n = " + std::to_string(top.load.completed) + " requests at " +
                     std::to_string(static_cast<int>(top.qps)) +
                     " qps, from scheduled arrival; median of " + std::to_string(kWindows) +
                     " windows";
  e2e.os_threads_peak = process.PeakThreads();
  report.metrics = EndToEndMetrics(e2e);
  return report;
}

}  // namespace perfbench
