// perfbench — the repository benchmark's binary. Runs one workload
// and prints two JSON lines: the provenance block, then the raw result
// (output checks, operation counts and every metric the run measured).
// perfbench/run.py builds this binary and turns the raw result into the
// benchmark's final line, with units from BENCHMARK.json.
//
//   perfbench --workload=serve_hot_exact --seed=1 --seconds=12 --trace=0
//             --threads=1 --hot_rate=200 --cold_rate=550
//             --stream_rate=2000 --span_rate=800 --beside_rate=400
//             --event_rate=1250 [--size=smoke]
#include <sys/stat.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "common.h"

namespace {

using perfbench::Options;
using perfbench::Result;

std::string JsonString(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string JsonNumber(double value) {
  if (!std::isfinite(value)) return "null";
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

std::string CpuModel() {
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

bool ParseFlag(const std::string& arg, const std::string& name,
               std::string* value) {
  const std::string prefix = "--" + name + "=";
  if (arg.rfind(prefix, 0) != 0) return false;
  *value = arg.substr(prefix.size());
  return true;
}

bool ParseOptions(int argc, char** argv, Options* options,
                  std::string* error) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    std::string value;
    char* end = nullptr;
    auto number = [&](double* out) {
      *out = std::strtod(value.c_str(), &end);
      return end != value.c_str() && *end == '\0';
    };
    double parsed = 0.0;
    if (ParseFlag(arg, "workload", &value)) {
      options->workload = value;
    } else if (ParseFlag(arg, "size", &value)) {
      options->size = value;
    } else if (ParseFlag(arg, "socket_dir", &value)) {
      options->socket_dir = value;
    } else if (ParseFlag(arg, "seed", &value) && number(&parsed)) {
      options->seed = static_cast<uint64_t>(parsed);
    } else if (ParseFlag(arg, "seconds", &value) && number(&parsed)) {
      options->seconds = parsed;
    } else if (ParseFlag(arg, "trace", &value) && number(&parsed)) {
      options->trace = parsed != 0.0;
    } else if (ParseFlag(arg, "threads", &value) && number(&parsed)) {
      options->threads = static_cast<int>(parsed);
    } else if (ParseFlag(arg, "hot_rate", &value) && number(&parsed)) {
      options->hot_rate = parsed;
    } else if (ParseFlag(arg, "cold_rate", &value) && number(&parsed)) {
      options->cold_rate = parsed;
    } else if (ParseFlag(arg, "stream_rate", &value) && number(&parsed)) {
      options->stream_rate = parsed;
    } else if (ParseFlag(arg, "span_rate", &value) && number(&parsed)) {
      options->span_rate = parsed;
    } else if (ParseFlag(arg, "beside_rate", &value) && number(&parsed)) {
      options->beside_rate = parsed;
    } else if (ParseFlag(arg, "event_rate", &value) && number(&parsed)) {
      options->event_rate = parsed;
    } else {
      *error = "bad argument: " + arg;
      return false;
    }
  }
  if (options->size != "full" && options->size != "smoke") {
    *error = "--size must be full or smoke";
    return false;
  }
  if (options->seconds <= 0.0 || options->threads < 1 ||
      options->hot_rate <= 0.0 || options->cold_rate <= 0.0 ||
      options->stream_rate <= 0.0 || options->span_rate <= 0.0 ||
      options->beside_rate <= 0.0 || options->event_rate <= 0.0) {
    *error = "--seconds, --threads and every --*_rate must be positive";
    return false;
  }
  return true;
}

void PrintProvenance(const Options& options) {
  const char* pool = std::getenv("IMSR_POOL");
  const char* simd = std::getenv("IMSR_SIMD");
#if defined(IMSR_OBS_DISABLED)
  const bool obs = false;
#else
  const bool obs = true;
#endif
#if defined(IMSR_POOL_DISABLED)
  const std::string pool_mode = "compiled-out";
#else
  const std::string pool_mode = pool != nullptr ? pool : "on";
#endif
  const std::string simd_mode =
      IMSR_SIMD_ENABLED ? (simd != nullptr ? simd : "on") : "compiled-out";
  // Client, I/O and shard threads plus the trainer (training workloads)
  // or client, I/O and two shards (serving workloads); the pool adds
  // threads - 1 workers.
  const int budget = 4 + (options.threads - 1);
  std::printf(
      "{\"provenance\": {\"workload\": %s, \"seed\": %llu, \"seconds\": %s, "
      "\"trace\": %d, \"size\": %s, \"nproc\": %ld, \"cpu_model\": %s, "
      "\"compiler\": %s, \"build_type\": %s, \"obs\": %s, \"simd\": %s, "
      "\"pool\": %s, \"pool_threads\": %d, \"thread_budget\": %d}}\n",
      JsonString(options.workload).c_str(),
      static_cast<unsigned long long>(options.seed),
      JsonNumber(options.seconds).c_str(), options.trace ? 1 : 0,
      JsonString(options.size).c_str(), ::sysconf(_SC_NPROCESSORS_ONLN),
      JsonString(CpuModel()).c_str(),
      JsonString(PERFBENCH_CXX_COMPILER).c_str(),
      JsonString(PERFBENCH_BUILD_TYPE).c_str(), obs ? "true" : "false",
      JsonString(simd_mode).c_str(), JsonString(pool_mode).c_str(),
      options.threads, budget);
}

void PrintResult(const Result& result) {
  std::ostringstream out;
  out << "{\"correct\": " << (result.failures().empty() ? "true" : "false")
      << ", \"attempted\": " << result.attempted
      << ", \"failed\": " << result.failed << ", \"failures\": [";
  for (size_t i = 0; i < result.failures().size(); ++i) {
    out << (i > 0 ? ", " : "") << JsonString(result.failures()[i]);
  }
  out << "], \"notes\": {";
  bool first = true;
  for (const auto& [key, value] : result.notes) {
    out << (first ? "" : ", ") << JsonString(key) << ": "
        << JsonString(value);
    first = false;
  }
  out << "}, \"metrics\": {";
  first = true;
  for (const auto& [name, value] : result.metrics()) {
    out << (first ? "" : ", ") << JsonString(name) << ": "
        << JsonNumber(value);
    first = false;
  }
  out << "}}\n";
  std::fputs(out.str().c_str(), stdout);
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  std::string error;
  if (!ParseOptions(argc, argv, &options, &error)) {
    std::fprintf(stderr, "perfbench: %s\n", error.c_str());
    return 2;
  }
  ::mkdir(options.socket_dir.c_str(), 0755);
  PrintProvenance(options);
  std::fflush(stdout);

  Result result;
  if (options.workload == "serve_hot_exact") {
    perfbench::RunServeHotExact(options, &result);
  } else if (options.workload == "serve_cold_ivf") {
    perfbench::RunServeColdIvf(options, &result);
  } else if (options.workload == "stream_live") {
    perfbench::RunStreamLive(options, &result);
  } else if (options.workload == "span_train") {
    perfbench::RunSpanTrain(options, &result);
  } else {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                 options.workload.c_str());
    return 2;
  }
  result.Set("peak_rss_mb", perfbench::PeakRssMb());
  result.Check(result.attempted > 0, "attempted at least one operation");
  result.Set("ok_share",
             result.attempted > 0
                 ? static_cast<double>(result.attempted - result.failed) /
                       static_cast<double>(result.attempted)
                 : 0.0);
  PrintResult(result);
  return result.failures().empty() ? 0 : 1;
}
