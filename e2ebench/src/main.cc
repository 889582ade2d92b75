// End-to-end benchmark program for libmqd: the post path (text or
// label-mask posts through the Figure 1 pipeline into the multi-tenant
// stream engine and out as per-tenant emissions) and the `mqd serve`
// request path (solve/feed lines through parse, admission, queue, the
// degradation ladder and response formatting). See README.md.
//
//   mqd_e2e --workload <posts_text|posts_fanout|serve_mixed> --seed <n>
//           --seconds <s> --trace <0|1> [--scale <f>] [--revision <r>]
//
// The last line of stdout is one JSON object with keys correct,
// attempted, failed and metrics; earlier lines carry the host block
// and, for traced runs, the per-layer table.
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>

#include "common.h"
#include "util/simd.h"

#ifndef MQD_E2E_COMPILER
#define MQD_E2E_COMPILER "unknown"
#endif
#ifndef MQD_E2E_BUILD_TYPE
#define MQD_E2E_BUILD_TYPE "unknown"
#endif

namespace mqd::e2e {
namespace {

int Usage(const char* why) {
  std::fprintf(stderr,
               "error: %s\nusage: mqd_e2e --workload <posts_text|posts_fanout|"
               "serve_mixed> --seed <n> --seconds <s> --trace <0|1> "
               "[--scale <f>] [--revision <r>]\n",
               why);
  return 2;
}

/// Prints the result line. End-to-end metrics must all be present (a
/// missing one is a benchmark bug and fails the run); per-layer
/// metrics of layers the workload bypasses read 0.
template <size_t N>
void PrintResult(RunResult result, const MetricSpec (&specs)[N],
                 const std::map<std::string, double>& values, bool required) {
  std::string metrics;
  for (const MetricSpec& spec : specs) {
    double value = 0.0;
    if (auto it = values.find(spec.name); it != values.end()) {
      value = it->second;
    } else if (required) {
      result.Fail(std::string("metric not measured: ") + spec.name);
    }
    char buf[160];
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.10g, \"unit\": \"%s\"}",
                  metrics.empty() ? "" : ", ", spec.name, value, spec.unit);
    metrics += buf;
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {%s}}\n",
              result.correct ? "true" : "false",
              static_cast<unsigned long long>(result.attempted),
              static_cast<unsigned long long>(result.failed), metrics.c_str());
}

int Main(int argc, char** argv) {
  Options options;
  std::string revision = "unknown";
  bool have_workload = false, have_seed = false, have_seconds = false,
       have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return Usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      options.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = *end == '\0' && !value.empty();
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value.c_str(), &end);
      have_seconds = *end == '\0' && options.seconds > 0.0;
    } else if (flag == "--trace") {
      have_trace = value == "0" || value == "1";
      options.trace = value == "1";
    } else if (flag == "--scale") {
      options.scale = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(options.scale > 0.0 && options.scale <= 1.0)) {
        return Usage("--scale must be in (0, 1]");
      }
    } else if (flag == "--revision") {
      revision = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (!have_workload || !have_seed || !have_seconds || !have_trace) {
    return Usage("--workload, --seed, --seconds and --trace are required");
  }

  RunResult (*run)(const Options&) = nullptr;
  if (options.workload == "posts_text") {
    run = RunPostsText;
  } else if (options.workload == "posts_fanout") {
    run = RunPostsFanout;
  } else if (options.workload == "serve_mixed") {
    run = RunServeMixed;
  } else {
    return Usage(("unknown workload " + options.workload).c_str());
  }

  // The host block: results from different machines or builds must be
  // told apart at a glance.
  std::printf("host: {\"nproc\": %u, \"simd\": \"%s\", \"compiler\": \"%s\", "
              "\"build_type\": \"%s\", \"revision\": \"%s\"}\n",
              std::thread::hardware_concurrency(),
              std::string(simd::LevelName(simd::Active())).c_str(),
              MQD_E2E_COMPILER, MQD_E2E_BUILD_TYPE, revision.c_str());
  std::printf("run: {\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %g, "
              "\"trace\": %d, \"scale\": %g}\n",
              options.workload.c_str(),
              static_cast<unsigned long long>(options.seed), options.seconds,
              options.trace ? 1 : 0, options.scale);
  std::fflush(stdout);

  const RunResult result = run(options);
  if (options.trace) {
    PrintResult(result, kPerLayer, result.per_layer, /*required=*/false);
  } else {
    PrintResult(result, kEndToEnd, result.end_to_end, /*required=*/true);
  }
  return 0;
}

}  // namespace
}  // namespace mqd::e2e

int main(int argc, char** argv) { return mqd::e2e::Main(argc, argv); }
