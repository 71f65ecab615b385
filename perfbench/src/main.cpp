// perfbench: end-to-end and per-layer benchmark of the mcam stack.
//
//   perfbench --workload two-stage|fewshot|serve-mixed --seed N --seconds S --trace 0|1 [--small]
//   perfbench --reference --seed N      reference figures for the README
//   perfbench --oracle-selftest         every oracle must reject a corrupted answer
//
// The last line of standard output is one JSON object: {"correct",
// "attempted", "failed", "metrics"}. Untraced runs report the end-to-end
// metrics, traced runs the per-layer ones. A failed correctness check
// prints the reason to standard error and exits with code 1.
#include "common.hpp"

#include <cmath>
#include <cstdio>
#include <iostream>
#include <set>
#include <string>
#include <string_view>

namespace perfbench {
namespace {

struct MetricSpec {
  const char* name;
  const char* unit;
};

// Must match BENCHMARK.json.
constexpr MetricSpec kEndToEnd[] = {
    {"query_p50_ms", "ms"},   {"query_p90_ms", "ms"},        {"throughput_qps", "1/s"},
    {"episodes_per_s", "1/s"}, {"write_p50_ms", "ms"},       {"setup_s", "s"},
    {"energy_pj_per_query", "pJ"}, {"recall_at_10", "ratio"}, {"accuracy", "ratio"},
    {"peak_rss_mb", "MiB"},
};

constexpr MetricSpec kPerLayer[] = {
    {"cam.coarse_sweep_ms", "ms"},
    {"search.fine_rerank_ms", "ms"},
    {"search.nominate_us", "us"},
    {"sig.encode_us", "us"},
    {"search.coarse_candidates", "count"},
    {"search.fine_candidates", "count"},
    {"energy.coarse_pj", "pJ"},
    {"energy.fine_pj", "pJ"},
    {"search.coarse_recall_at_10", "ratio"},
    {"search.fine_exhaustive_ms", "ms"},
    {"search.calibrate_ms", "ms"},
    {"cam.program_rows_per_s", "1/s"},
    {"data.episode_sample_us", "us"},
    {"cam.program_us_per_row", "us"},
    {"cam.sense_us", "us"},
    {"encoding.calibrate_ms", "ms"},
    {"serve.restore_ms", "ms"},
    {"serve.snapshot_bytes", "bytes"},
    {"serve.cold_build_ms", "ms"},
    {"serve.queue_wait_ms", "ms"},
    {"serve.execute_ms", "ms"},
    {"serve.cache_probe_us", "us"},
    {"serve.cache_hit_ratio", "ratio"},
    {"serve.cache_hits", "count"},
    {"serve.cache_lookups", "count"},
    {"serve.add_ms", "ms"},
    {"serve.erase_ms", "ms"},
    {"search.bank_query_us", "us"},
    {"search.bank_merge_us", "us"},
    {"search.banks_searched", "count"},
    {"obs.trace_base_ms", "ms"},
    {"obs.trace_overhead_ms", "ms"},
    {"obs.span_coverage", "ratio"},
    {"host.reference_ms", "ms"},
};

std::string number(double value) {
  char buffer[40];
  std::snprintf(buffer, sizeof buffer, "%.17g", value);
  return buffer;
}

std::string metrics_json(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += "\"" + metrics[i].name + "\": {\"value\": " + number(metrics[i].value) +
           ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  return out + "}";
}

/// Orders the workload's metrics as the spec lists them. Per-layer metrics
/// of layers the workload does not run read 0; a missing end-to-end metric
/// or any unknown or non-finite one is a benchmark bug.
std::vector<Metric> canonical(const std::vector<Metric>& got, bool per_layer) {
  const std::span<const MetricSpec> specs =
      per_layer ? std::span<const MetricSpec>{kPerLayer} : std::span<const MetricSpec>{kEndToEnd};
  std::set<std::string> known;
  std::vector<Metric> out;
  for (const MetricSpec& spec : specs) {
    known.insert(spec.name);
    Metric metric{spec.name, 0.0, spec.unit};
    bool found = false;
    for (const Metric& m : got) {
      if (m.name != spec.name) continue;
      if (m.unit != spec.unit || !std::isfinite(m.value)) {
        throw std::logic_error{"metric " + m.name + " has a bad unit or value"};
      }
      metric.value = m.value;
      found = true;
    }
    if (!found && !per_layer) throw std::logic_error{std::string{"missing metric "} + spec.name};
    out.push_back(metric);
  }
  for (const Metric& m : got) {
    if (known.count(m.name) == 0) throw std::logic_error{"unknown metric " + m.name};
  }
  return out;
}

int usage() {
  std::cerr << "usage: perfbench --workload two-stage|fewshot|serve-mixed --seed N "
               "--seconds S --trace 0|1 [--small]\n"
               "       perfbench --reference --seed N\n"
               "       perfbench --oracle-selftest\n";
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Options options;
  bool reference = false;
  bool selftest = false;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string_view arg{argv[i]};
      const auto value = [&]() -> std::string {
        if (i + 1 >= argc) throw std::invalid_argument{"missing value for " + std::string{arg}};
        return argv[++i];
      };
      if (arg == "--workload") {
        options.workload = value();
      } else if (arg == "--seed") {
        options.seed = std::stoull(value());
      } else if (arg == "--seconds") {
        options.seconds = std::stod(value());
      } else if (arg == "--trace") {
        options.trace = std::stoi(value()) != 0;
      } else if (arg == "--small") {
        options.small = true;
      } else if (arg == "--reference") {
        reference = true;
      } else if (arg == "--oracle-selftest") {
        selftest = true;
      } else {
        throw std::invalid_argument{"unknown argument " + std::string{arg}};
      }
    }
  } catch (const std::exception& error) {
    std::cerr << "perfbench: " << error.what() << "\n";
    return usage();
  }

  try {
    if (selftest) return run_oracle_selftest();
    if (reference) return reference_two_stage(options) | reference_fewshot(options);
    Report report;
    if (options.workload == "two-stage") {
      report = run_two_stage(options);
    } else if (options.workload == "fewshot") {
      report = run_fewshot(options);
    } else if (options.workload == "serve-mixed") {
      report = run_serve_mixed(options);
    } else {
      return usage();
    }
    const std::vector<Metric> metrics = canonical(report.metrics, options.trace);
    for (const std::string& note : report.notes) std::cout << "# " << note << "\n";
    if (!report.raw.empty()) std::cout << "# raw wall clock: " << metrics_json(report.raw) << "\n";
    std::cout << "{\"correct\": true, \"attempted\": " << report.attempted
              << ", \"failed\": " << report.failed << ", \"metrics\": " << metrics_json(metrics)
              << "}" << std::endl;
    return 0;
  } catch (const CheckFailure& failure) {
    std::cerr << "perfbench: CHECK FAILED: " << failure.what() << "\n";
    return 1;
  } catch (const std::exception& error) {
    std::cerr << "perfbench: error: " << error.what() << "\n";
    return 3;
  }
}
