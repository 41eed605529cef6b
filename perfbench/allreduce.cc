// allreduce: the Fig. 12a data-plane path. Closed loop: one driver runs
// back-to-back raylib ring allreduce rounds over kNumNodes VecWorker actors
// pinned one per node, on the default (undilated) network. A round is
// 4n(n-1) actor calls whose chunk objects of kElements/n floats cross nodes
// through the pull manager, so wire time and host copies both matter.
//
// Per round, outside the timed region: the seeded inputs are loaded into the
// workers (SetBuffer from objects put once at set-up, so after the first
// round they are node-local) and, after it, the reduced buffer is fetched
// from one worker (rotating) and compared element by element with the sum.
// The inputs are small integers, so every summation order is exact.
//
// raylib keeps no references to a round's objects, and the object store
// never frees on its own: each round leaves about 13 buffers' worth of chunk
// and result objects behind. After checking, the benchmark deletes the
// return objects of every method the round logged (the actor method log
// names them), so the working set stays within store memory and the run
// never evicts.
#include "bench.h"
#include "common/clock.h"
#include "common/random.h"
#include "raylib/allreduce.h"
#include "runtime/api.h"

namespace perfbench {
namespace {

using ray::NowMicros;

// 8 MB buffers, chunk objects of 2 MB. Set-up distributes the inputs, whose
// pulls (8 MB plus a header, so two chunk sizes) tune the pull chunk size.
constexpr int kElements = 1 << 21;
constexpr int kWarmupRounds = 2;
// Latency limit on one round behind max_rate_at_slo_qps for this closed loop.
constexpr double kP99LimitMs = 250.0;
constexpr int64_t kTimeoutUs = 30'000'000;
constexpr int kCallsPerRound = 4 * kNumNodes * (kNumNodes - 1);

struct Ring {
  std::unique_ptr<ray::Cluster> cluster;
  std::unique_ptr<ray::Ray> driver;
  std::unique_ptr<ray::raylib::RingAllreduce> ring;
  std::vector<ray::ObjectRef<std::vector<float>>> inputs;
  std::vector<size_t> freed;  // method-log entries already freed, per worker
};

struct Rounds {
  // Completions on a clock that only runs inside timed rounds, so load and
  // check time between rounds does not count toward the rates.
  std::vector<Completion> completions;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  int64_t busy_us = 0;  // sum of timed rounds
  std::vector<SpanRecord> spans;
};

Ring SetUp(const std::vector<std::vector<float>>& inputs) {
  Ring r;
  r.cluster = MakeCluster();
  ray::raylib::RegisterAllreduceSupport(*r.cluster);
  r.driver = std::make_unique<ray::Ray>(ray::Ray::OnNode(*r.cluster, 0));
  std::vector<ray::ResourceSet> placements;
  for (int i = 0; i < kNumNodes; ++i) {
    placements.push_back(ray::ResourceSet{{"CPU", 1}, {PinTag(i), 1}});
  }
  r.ring = std::make_unique<ray::raylib::RingAllreduce>(*r.driver, placements);
  for (const auto& input : inputs) {
    r.inputs.push_back(r.driver->Put(input));
  }
  r.freed.assign(kNumNodes, 0);
  return r;
}

// Deletes every replica of the return object of each method logged since
// the last call.
void FreeRoundObjects(Ring& r) {
  auto& workers = r.ring->workers();
  for (size_t w = 0; w < workers.size(); ++w) {
    auto log = r.cluster->tables().actors.GetMethodLog(workers[w].id());
    if (!log.ok()) {
      continue;
    }
    for (size_t i = r.freed[w]; i < log->size(); ++i) {
      ray::ObjectId object = ray::ObjectIdForReturn((*log)[i], 0);
      for (size_t n = 0; n < r.cluster->NumNodes(); ++n) {
        (void)r.cluster->node(n).store().DeleteLocal(object);
      }
    }
    r.freed[w] = log->size();
  }
}

// One round: load the inputs, the timed allreduce, then check and free.
void RunRound(Ring& r, uint64_t round, const std::vector<float>& expected, SpanLog& spans,
              Rounds& out) {
  auto& workers = r.ring->workers();
  ray::Ray& driver = *r.driver;
  std::vector<ray::ObjectRef<void>> loads;
  for (size_t i = 0; i < workers.size(); ++i) {
    int64_t t0 = NowMicros();
    loads.push_back(workers[i].Call<void>("SetBuffer", r.inputs[i]));
    spans.Add("ActorHandle::Call", round, t0, NowMicros());
  }
  int64_t w0 = NowMicros();
  bool ok = driver.Wait(loads, loads.size(), kTimeoutUs).size() == loads.size();
  spans.Add("Ray::Wait", round, w0, NowMicros());

  const int64_t start = NowMicros();
  auto last = ray::raylib::SubmitRingAllreduce(workers);
  int64_t submitted = NowMicros();
  spans.Add("raylib::SubmitRingAllreduce", round, start, submitted);
  for (const auto& ref : last) {
    ok = ok && driver.Get(ref, kTimeoutUs).ok();
  }
  const int64_t end = NowMicros();
  spans.Add("Ray::Get", round, submitted, end);
  spans.Add("round", round, start, end);
  out.busy_us += end - start;
  out.completions.push_back({out.busy_us, static_cast<double>(end - start)});

  size_t checked = round % workers.size();
  int64_t c0 = NowMicros();
  auto fetch = workers[checked].Call<std::vector<float>>("GetBuffer");
  spans.Add("ActorHandle::Call", round, c0, NowMicros());
  auto reduced = driver.Get(fetch, kTimeoutUs);
  ok = ok && reduced.ok() && *reduced == expected;
  FreeRoundObjects(r);
  ++out.attempted;
  if (!ok) {
    ++out.failed;
  }
}

Rounds RunRounds(Ring& r, const std::vector<float>& expected, double seconds, int max_rounds,
                 uint64_t* next_round, bool traced) {
  Rounds out;
  SpanLog spans(traced);
  const int64_t end = NowMicros() + static_cast<int64_t>(seconds * 1e6);
  for (int i = 0; i < max_rounds && NowMicros() < end; ++i) {
    RunRound(r, (*next_round)++, expected, spans, out);
  }
  out.spans = std::move(spans.records());
  return out;
}

}  // namespace

Report RunAllreduce(const Options& options) {
  ProcessSampler process;
  Report report;
  EndToEnd e2e;

  ray::Rng rng(options.seed * 1'000'003 + 17);
  std::vector<std::vector<float>> inputs(kNumNodes, std::vector<float>(kElements));
  std::vector<float> expected(kElements, 0.0f);
  for (auto& input : inputs) {
    for (int i = 0; i < kElements; ++i) {
      input[i] = static_cast<float>(rng.UniformInt(-1000, 1000));
      expected[i] += input[i];
    }
  }

  uint64_t next_round = 0;
  auto account = [&](const Rounds& rounds) {
    report.attempted += rounds.attempted;
    report.failed += rounds.failed;
    report.wrong += rounds.failed;
  };
  // Set-up: cluster start, registration, actor creation and placement, input
  // puts and their first pulls (which tune the pull chunk), and warm-up rounds.
  auto set_up = [&] {
    int64_t t0 = NowMicros();
    Ring ring = SetUp(inputs);
    account(RunRounds(ring, expected, 60.0, kWarmupRounds, &next_round, false));
    e2e.setup_s.push_back(static_cast<double>(NowMicros() - t0) / 1e6);
    return ring;
  };
  auto describe = [&](Ring& ring) {
    std::string pull_chunk_bytes;
    for (int i = 0; i < kNumNodes; ++i) {
      pull_chunk_bytes += (i ? "/" : "") + std::to_string(
          ring.cluster->node(i).store().pull_manager().CurrentChunkBytes());
    }
    report.notes.push_back(
        "closed loop: 1 driver, " + std::to_string(kNumNodes) + " pinned VecWorkers, buffer " +
        std::to_string(kElements) + " floats, chunk object " +
        std::to_string(kElements / kNumNodes * sizeof(float)) + " B, pull chunk " +
        pull_chunk_bytes + " B, p99 limit " + std::to_string(static_cast<int>(kP99LimitMs)) +
        " ms");
  };

  if (!options.trace) {
    std::vector<WindowStats> windows;
    std::vector<double> all_us;
    for (int i = 0; i < kRepeats; ++i) {
      process.StartRssWindow();
      Ring ring = set_up();
      if (i == 0) {
        describe(ring);
      }
      Rounds rounds =
          RunRounds(ring, expected, options.seconds / kRepeats, INT32_MAX, &next_round, false);
      account(rounds);
      e2e.peak_rss_mb.push_back(process.WindowPeakRssMb());
      windows.push_back(Summarize(rounds.completions, 0));
      std::vector<double> latency = Latencies(rounds.completions);
      all_us.insert(all_us.end(), latency.begin(), latency.end());
    }
    WindowStats median = MedianOf(windows);
    const double buffer_bytes = static_cast<double>(kElements) * sizeof(float);
    e2e.throughput_tasks_per_s = median.rate_per_s * kCallsPerRound;
    e2e.goodput_gbps = median.rate_per_s * buffer_bytes * 8 / 1e9;
    e2e.SetLatencies(median, kRepeats, all_us, "allreduce rounds");
    e2e.max_rate_at_slo_qps = e2e.latency_p99_ms <= kP99LimitMs ? median.rate_per_s : 0.0;
    e2e.os_threads_peak = process.PeakThreads();
    report.metrics = EndToEndMetrics(e2e);
    return report;
  }

  // Traced run: one cluster, half the time untraced, then the same rounds
  // with every module's counters diffed and the program's trace in kFull.
  Ring ring = set_up();
  describe(ring);
  Rounds plain = RunRounds(ring, expected, options.seconds / 2, INT32_MAX, &next_round, false);
  account(plain);
  TracedWindow w;
  w.untraced_p50_ms = Percentile(Latencies(plain.completions), 50.0) / 1e3;
  ray::ControlPlaneMetrics::Instance().Reset();
  Counters before = Counters::Take(*ring.cluster, nullptr);
  const int64_t t0 = NowMicros();
  StartFullTrace();
  Rounds traced = RunRounds(ring, expected, options.seconds / 2, INT32_MAX, &next_round, true);
  uint64_t dropped = 0;
  w.stages = StopTrace(&dropped);
  w.seconds = static_cast<double>(NowMicros() - t0) / 1e6;
  w.delta = Counters::Take(*ring.cluster, nullptr).Minus(before);
  account(traced);
  w.traced_p50_ms = Percentile(Latencies(traced.completions), 50.0) / 1e3;
  w.ops = traced.attempted;
  w.link_bandwidth_bytes_s = ring.cluster->net().config().link_bandwidth_bytes_s;
  w.spans = std::move(traced.spans);
  report.metrics = LayerMetrics(w);
  report.notes.push_back("trace events dropped by ring overwrite: " + std::to_string(dropped));
  report.notes.push_back(w.stages.Render());
  WriteSpans(w.spans, options.trace_out);
  return report;
}

}  // namespace perfbench
