// The repository benchmark driver binary. Usage:
//
//   perfbench --workload <tasks_small|allreduce|serve_open_loop> --seed <n>
//             --seconds <s> --trace <0|1> [--trace-out <spans.json>]
//
// --trace 0 measures the end-to-end metrics with the tracer off. --trace 1
// is the separate traced run: it reports the per-layer metrics instead.
// Human-readable lines come first; the last line of stdout is one JSON
// object {correct, attempted, failed, metrics}. Exit code 1 when any output
// was wrong or missing, 2 on bad arguments.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "bench.h"
#include "trace/trace.h"

namespace {

void Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <tasks_small|allreduce|serve_open_loop> --seed <n> "
               "--seconds <s> --trace <0|1> [--trace-out <path>]\n");
}

bool ParseArgs(int argc, char** argv, perfbench::Options* o) {
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    if (i + 1 >= argc) {
      return false;
    }
    const char* value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      o->workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      o->seed = std::strtoull(value, &end, 10);
    } else if (flag == "--seconds") {
      o->seconds = std::strtod(value, &end);
      if (!(o->seconds > 0 && o->seconds <= 600)) {
        return false;
      }
    } else if (flag == "--trace") {
      o->trace = std::strtol(value, &end, 10) != 0;
    } else if (flag == "--trace-out") {
      o->trace_out = value;
    } else {
      return false;
    }
    if (end != nullptr && *end != '\0') {
      return false;
    }
  }
  return have_workload;
}

// Full precision, JSON-safe (no NaN/inf).
std::string Num(double v) {
  if (!std::isfinite(v)) {
    v = 0.0;
  }
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options options;
  if (!ParseArgs(argc, argv, &options)) {
    Usage();
    return 2;
  }
  // Timed runs measure with instrumentation compiled in but off.
  ray::trace::TraceConfig trace_config;
  trace_config.mode = ray::trace::TraceMode::kOff;
  ray::trace::Tracer::Instance().Configure(trace_config);

  perfbench::Report report;
  if (options.workload == "tasks_small") {
    report = perfbench::RunTasksSmall(options);
  } else if (options.workload == "allreduce") {
    report = perfbench::RunAllreduce(options);
  } else if (options.workload == "serve_open_loop") {
    report = perfbench::RunServeOpenLoop(options);
  } else {
    Usage();
    return 2;
  }
  const bool correct = report.wrong == 0;

  std::printf("workload %s seed %llu seconds %g %s\n", options.workload.c_str(),
              static_cast<unsigned long long>(options.seed), options.seconds,
              options.trace ? "traced (per-layer metrics)" : "untraced (end-to-end metrics)");
  for (const std::string& note : report.notes) {
    std::printf("  %s\n", note.c_str());
  }
  double failed_frac = report.attempted > 0
                           ? static_cast<double>(report.failed) / report.attempted
                           : 1.0;
  std::printf("  %-36s %14.6g %-8s attempted %llu, failed %llu, wrong or missing %llu\n",
              "failed_frac", failed_frac, "fraction",
              static_cast<unsigned long long>(report.attempted),
              static_cast<unsigned long long>(report.failed),
              static_cast<unsigned long long>(report.wrong));
  for (const perfbench::Metric& m : report.metrics) {
    std::printf("  %-36s %14.6g %-8s %s\n", m.name.c_str(), m.value, m.unit.c_str(),
                m.base.c_str());
  }

  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(report.attempted);
  json += ", \"failed\": " + std::to_string(report.failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < report.metrics.size(); ++i) {
    const perfbench::Metric& m = report.metrics[i];
    json += (i == 0 ? "\"" : ", \"") + m.name + "\": {\"value\": " + Num(m.value) +
            ", \"unit\": \"" + m.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}
