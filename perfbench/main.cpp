// Benchmark executable: runs one workload for a fixed host-time budget as a
// sequence of identical fixed-length episodes, checks every episode's
// outputs, and prints medians.
//
//   perfbench --workload sync_burst|tpcc|crash_mount --seed N --seconds S
//             --trace 0|1 [--tiny] [--plant-stale] [--commit SHA]
//
// --trace 0 reports end-to-end metrics from untraced episodes. --trace 1
// alternates untraced and traced episodes; the traced ones give the
// per-layer metrics, and the host-time ratio of the two gives
// trace.overhead_frac. Every episode of a seed must reproduce the same
// virtual-time fingerprint, traced or not.
#include <malloc.h>
#include <sys/resource.h>

#include <chrono>
#include <cstdio>
#include <set>
#include <stdexcept>

#include "bench.hpp"
#include "core/crc32.hpp"

namespace perfbench {
namespace {

double median(std::vector<double> v) { return percentile(v, 50); }

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

/// Median per metric name over episodes.
std::map<std::string, double> medians(const std::vector<Sample>& samples,
                                      std::map<std::string, double> Sample::*field) {
  std::map<std::string, std::vector<double>> by_name;
  for (const Sample& s : samples)
    for (const auto& [name, value] : s.*field) by_name[name].push_back(value);
  std::map<std::string, double> out;
  for (auto& [name, values] : by_name) out[name] = median(std::move(values));
  return out;
}

void print_metrics(const std::vector<MetricSpec>& specs, const std::map<std::string, double>& m,
                   std::string& json) {
  for (const MetricSpec& spec : specs) {
    const auto it = m.find(spec.name);
    if (it == m.end()) continue;
    std::printf("metric %-36s %16.6f %s\n", spec.name, it->second, spec.unit);
    char buf[256];
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  json.empty() ? "" : ", ", spec.name, it->second, spec.unit);
    json += buf;
  }
}

int run(int argc, char** argv) {
  // Keep freed heap memory in the process, as a long-running server's
  // allocator would: later episodes then reuse pages instead of faulting
  // fresh ones, so host time measures the program, not the kernel.
  mallopt(M_MMAP_THRESHOLD, 64 << 20);
  mallopt(M_TRIM_THRESHOLD, -1);
  std::string workload;
  std::string commit = "unknown";
  Options opt;
  double seconds = 10;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument("missing value for " + a);
      return argv[++i];
    };
    if (a == "--workload") workload = value();
    else if (a == "--seed") opt.seed = std::stoull(value());
    else if (a == "--seconds") seconds = std::stod(value());
    else if (a == "--trace") opt.trace = value() == "1";
    else if (a == "--commit") commit = value();
    else if (a == "--tiny") opt.tiny = true;
    else if (a == "--plant-stale") opt.plant_stale = true;
    else throw std::invalid_argument("unknown argument " + a);
  }
  Sample (*episode)(const Options&, Params&) = nullptr;
  if (workload == "sync_burst") episode = run_sync_burst;
  else if (workload == "tpcc") episode = run_tpcc;
  else if (workload == "crash_mount") episode = run_crash_mount;
  else throw std::invalid_argument("unknown workload '" + workload + "'");
  if (opt.plant_stale && episode != run_sync_burst)
    throw std::invalid_argument("--plant-stale applies to sync_burst only");

  // Episodes repeat until the budget is spent; at least three untraced
  // (and, when tracing, three traced) so every reported value is a median.
  const std::size_t min_each = opt.tiny ? 1 : 3;
  std::vector<Sample> plain;
  std::vector<Sample> traced;
  Params params;
  // The budget is wall-clock time: it bounds how long the run takes.
  const auto start = std::chrono::steady_clock::now();
  auto elapsed = [&] {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  };
  while (plain.size() < min_each || (opt.trace && traced.size() < min_each) ||
         elapsed() < seconds) {
    Options o = opt;
    o.trace = opt.trace && plain.size() > traced.size();
    (o.trace ? traced : plain).push_back(episode(o, params));
  }

  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  const std::string& reference = plain.front().fingerprint;
  std::set<std::string> checks = {"virtual-time fingerprint identical in every episode"};
  for (const auto* group : {&plain, &traced}) {
    for (const Sample& s : *group) {
      checks.insert(s.checks.begin(), s.checks.end());
      attempted += s.attempted;
      failed += s.failed;
      for (const std::string& e : s.errors) {
        std::printf("check FAIL %s\n", e.c_str());
        correct = false;
      }
      if (s.fingerprint != reference) {
        std::printf("check FAIL virtual-time fingerprint differs between episodes: [%s] vs [%s]\n",
                    s.fingerprint.c_str(), reference.c_str());
        correct = false;
      }
    }
  }
  for (const std::string& c : checks) std::printf("check ran %s\n", c.c_str());
  for (const auto* group : {&plain, &traced}) {
    if (group->empty()) continue;
    std::printf("episode_host_s[%s]", group == &plain ? "untraced" : "traced");
    for (const Sample& s : *group) std::printf(" %.4f", s.host_s);
    std::printf("\n");
  }
  const double fail_frac = ratio(static_cast<double>(failed), static_cast<double>(attempted));

  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  std::map<std::string, double> metrics;
  if (opt.trace) {
    metrics = medians(traced, &Sample::layer);
    // A layer the workload never reaches did no work: report it as 0.
    for (const MetricSpec& spec : kPerLayer) metrics.try_emplace(spec.name, 0.0);
    std::vector<double> traced_host;
    std::vector<double> plain_host;
    for (const Sample& s : traced) traced_host.push_back(s.host_s);
    for (const Sample& s : plain) plain_host.push_back(s.host_s);
    metrics["trace.overhead_frac"] = median(traced_host) / median(plain_host) - 1.0;
  } else {
    metrics = medians(plain, &Sample::e2e);
    metrics["peak_rss_mb"] = static_cast<double>(usage.ru_maxrss) / 1024.0;
  }
  metrics["fail_frac"] = fail_frac;

  std::string stamp = "\"workload\": \"" + workload + "\", \"seed\": " +
                      std::to_string(opt.seed) + ", \"trace\": " + (opt.trace ? "1" : "0") +
                      ", \"tiny\": " + (opt.tiny ? "1" : "0") +
                      ", \"episodes\": " + std::to_string(plain.size() + traced.size()) +
                      ", \"build_type\": \"" PERFBENCH_BUILD_TYPE "\", \"crc32_impl\": \"" +
                      core::crc32_impl_name() + "\", \"commit\": \"" + json_escape(commit) + "\"";
  for (const auto& [k, v] : params) stamp += ", \"" + k + "\": \"" + json_escape(v) + "\"";
  std::printf("config {%s}\n", stamp.c_str());

  std::string json;
  print_metrics(opt.trace ? kPerLayer : kEndToEnd, metrics, json);
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {%s}}\n",
              correct ? "true" : "false", static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed), json.c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
