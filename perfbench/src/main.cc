// perfbench — the repository benchmark program.
//
//   perfbench --workload <lubm_read|lubm_sharded|sensor_rw> --seed <n>
//             --seconds <s> --trace <0|1> [--out-dir <dir>]
//
// Prints one provenance line, then, as the last line of standard output,
// {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics
// with --trace 0, the per-layer metrics with --trace 1. Exits non-zero
// when any answer was wrong. perfbench/README.md describes the workloads
// and metrics.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <sys/stat.h>
#include <thread>

#include "common.h"
#include "sds/broadword.h"

namespace {

#ifdef __POPCNT__
constexpr bool kPopcntDefined = true;
#else
constexpr bool kPopcntDefined = false;
#endif

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out;
}

std::string ProvenanceJson(const perfbench::RunOptions& opts) {
  const char* commit = std::getenv("PERFBENCH_SOURCE_REVISION");
  char buf[2048];
  std::snprintf(
      buf, sizeof(buf),
      "{\"compiler\": \"%s\", \"build_type\": \"%s\", \"cxx_flags\": \"%s\", "
      "\"popcnt_defined\": %s, \"bmi2_select\": %s, "
      "\"hardware_concurrency\": %u, \"thread_budget\": %d, "
      "\"source_revision\": \"%s\", \"workload\": \"%s\", \"seed\": %llu, "
      "\"seconds\": %g, \"trace\": %d}",
      JsonEscape(PERFBENCH_COMPILER).c_str(),
      JsonEscape(PERFBENCH_BUILD_TYPE).c_str(),
      JsonEscape(PERFBENCH_CXX_FLAGS).c_str(),
      kPopcntDefined ? "true" : "false",
      sedge::sds::broadword::UsingBmi2Select() ? "true" : "false",
      std::thread::hardware_concurrency(), opts.threads,
      JsonEscape(commit != nullptr ? commit : "unknown").c_str(),
      opts.workload.c_str(), static_cast<unsigned long long>(opts.seed),
      opts.seconds, opts.trace ? 1 : 0);
  return buf;
}

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <lubm_read|lubm_sharded|"
               "sensor_rw> --seed <n> --seconds <s> --trace <0|1> "
               "[--out-dir <dir>]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunOptions opts;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      opts.workload = value;
    } else if (flag == "--seed") {
      opts.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      opts.seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      opts.trace = value == "1";
    } else if (flag == "--out-dir") {
      opts.out_dir = value;
    } else {
      return Usage();
    }
  }
  if (argc % 2 != 1 || opts.seconds <= 0) return Usage();
  opts.threads = static_cast<int>(
      std::clamp(std::thread::hardware_concurrency(), 1u, 4u));

  perfbench::WorkloadResult result;
  if (opts.workload == "lubm_read") {
    result = perfbench::RunLubm(opts, /*sharded=*/false);
  } else if (opts.workload == "lubm_sharded") {
    result = perfbench::RunLubm(opts, /*sharded=*/true);
  } else if (opts.workload == "sensor_rw") {
    result = perfbench::RunSensor(opts);
  } else {
    return Usage();
  }

  const std::string provenance = ProvenanceJson(opts);
  if (!result.correct) {
    std::fprintf(stderr, "perfbench: run is not correct: %s\n",
                 result.note.c_str());
  }
  const std::string line =
      "{\"correct\": " + std::string(result.correct ? "true" : "false") +
      ", \"attempted\": " + std::to_string(result.ops.attempted) +
      ", \"failed\": " + std::to_string(result.ops.failed()) +
      ", \"metrics\": " + result.metrics.ToJson() + "}";

  // The result file keeps provenance and metrics together for the ledger;
  // the spans of a traced run go beside it.
  ::mkdir(opts.out_dir.c_str(), 0755);
  const std::string stem = opts.out_dir + "/" + opts.workload + "-seed" +
                           std::to_string(opts.seed) +
                           (opts.trace ? "-trace" : "");
  if (std::FILE* f = std::fopen((stem + ".json").c_str(), "w")) {
    std::fprintf(f, "{\"provenance\": %s, \"result\": %s}\n",
                 provenance.c_str(), line.c_str());
    std::fclose(f);
  }
  if (opts.trace &&
      !perfbench::Trace::WriteJsonl(stem + ".spans.jsonl",
                                    "{\"provenance\": " + provenance + "}")) {
    std::fprintf(stderr, "perfbench: cannot write %s.spans.jsonl\n",
                 stem.c_str());
  }

  std::printf("{\"provenance\": %s}\n", provenance.c_str());
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
  return result.correct ? 0 : 1;
}
