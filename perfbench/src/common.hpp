// Shared machinery of the perfbench driver: input generation, the frozen
// host-clock reference kernel, percentile helpers, the outside oracles,
// trace self-time accounting and the result report.
//
// Everything here is the benchmark's own code. The oracles in particular
// never call into the mcam library's engines or distance kernels: they
// recompute the answers from the generated inputs with plain loops.
#pragma once

#include "obs/trace.hpp"
#include "search/index.hpp"

#include <array>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;
using Rows = std::vector<std::vector<float>>;

[[nodiscard]] inline double ms_since(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start).count();
}

/// Command-line options of one run.
struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool small = false;  ///< Self-test sizes: every workload end to end in seconds.
};

/// A failed correctness check. main() reports it and exits non-zero.
struct CheckFailure : std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// Throws CheckFailure with `what` when `message` holds an error.
void require(const std::optional<std::string>& message, const std::string& what);

// --- Inputs -----------------------------------------------------------------

/// The benchmark's own generator (splitmix64 + Box-Muller), so that the
/// inputs depend on --seed and on nothing in the program.
class Gen {
 public:
  explicit Gen(std::uint64_t seed) : state_(seed * 0x9e3779b97f4a7c15ULL + 0x2545f4914f6cdd1dULL) {}
  std::uint64_t next();
  double uniform();  ///< [0, 1)
  double normal();
  std::size_t index(std::size_t n) { return static_cast<std::size_t>(next() % n); }

 private:
  std::uint64_t state_;
};

/// Seed of sub-stream `stream` of run seed `seed`.
[[nodiscard]] std::uint64_t derive(std::uint64_t seed, std::uint64_t stream);

/// Clustered embeddings whose centres lie in a low-dimensional subspace
/// (the shape real embedding tables have). Row r belongs to cluster
/// r % clusters, and that cluster is its label.
class ClusteredSource {
 public:
  ClusteredSource(std::size_t dim, std::size_t clusters, std::size_t intrinsic_dim,
                  double noise_sigma, std::uint64_t seed);
  [[nodiscard]] std::vector<float> sample(std::size_t cluster, Gen& gen) const;

 private:
  double noise_sigma_;
  Rows centers_;
};

// --- Host clock ---------------------------------------------------------------

/// The frozen reference kernel: a fixed mix of exp() and multiply-add over
/// a fixed working set, the two things the CAM cell models spend their
/// time on. Its code must never change, or normalised figures taken before
/// and after stop being comparable. Returns its own wall time [ms].
double reference_kernel_ms();

/// Median of three back-to-back reference kernel runs [ms].
double reference_sample_ms();

/// Wall time that the reference kernel is normalised to [ms]. A host on
/// which one kernel run takes exactly this long reports raw = normalised.
inline constexpr double kReferenceNominalMs = 1.0;

/// Host-clock samples taken in rounds that alternate with reference kernel
/// runs. Each raw sample is scaled by nominal / reference, where reference
/// is the median of the kernel timings taken within kWindow rounds of its
/// round. The host drifts within a run as well as between runs, and the
/// kernel drifts with it; the median keeps one noisy kernel timing from
/// reshaping the latency distribution.
class HostClock {
 public:
  /// Sample series kept apart within each round.
  enum Series : std::size_t { kQuery = 0, kWrite = 1, kSeriesCount = 2 };
  static constexpr std::size_t kWindow = 10;

  /// Times the reference kernel; call before every round and once after the last.
  void reference();
  /// Marks the start of a round of timed samples.
  void begin_round();
  /// Records one raw sample [ms] in the current round.
  void sample(double raw_ms, Series series = kQuery) { pending_[series].push_back(raw_ms); }
  /// Records the round's total busy time [ms] (for rate metrics).
  void round_time(double raw_ms) { pending_round_ms_ += raw_ms; }
  /// The samples of the rounds closed by reference() calls, normalised or raw.
  [[nodiscard]] std::vector<double> normalised(Series series = kQuery) const;
  [[nodiscard]] std::vector<double> raw(Series series = kQuery) const;
  /// Sum of normalised / raw round times [ms].
  [[nodiscard]] double normalised_time_ms() const;
  [[nodiscard]] double raw_time_ms() const;
  [[nodiscard]] double reference_median_ms() const;
  [[nodiscard]] std::size_t rounds() const { return rounds_.size(); }

 private:
  using Samples = std::array<std::vector<double>, kSeriesCount>;
  struct Round {
    Samples samples;
    double time_ms = 0.0;
    std::size_t first_ref = 0;  ///< Index of the kernel timing taken just before the round.
  };
  [[nodiscard]] double scale(const Round& round) const;
  std::vector<double> references_;
  Samples pending_;
  double pending_round_ms_ = 0.0;
  bool open_ = false;
  std::vector<Round> rounds_;
};

// --- Statistics -------------------------------------------------------------------

/// Nearest-rank percentile (p in [0, 100]); 0 for an empty sample.
[[nodiscard]] double percentile(std::vector<double> values, double p);
[[nodiscard]] inline double median(std::vector<double> values) {
  return percentile(std::move(values), 50.0);
}
[[nodiscard]] double mean(const std::vector<double>& values);
/// The median of each input's first `per_input` samples, where
/// `samples[i]` timed input `inputs[i]`; inputs without samples are
/// skipped. Taken over the passes of a cycled pool, it keeps an input's own
/// cost and drops the moments the host was slow during one pass.
[[nodiscard]] std::vector<double> per_input_medians(const std::vector<double>& samples,
                                                    const std::vector<std::size_t>& inputs,
                                                    std::size_t per_input);

/// Peak resident set size of this process [MiB].
[[nodiscard]] double peak_rss_mb();

// --- Oracles ------------------------------------------------------------------------

/// Exact FP32 L2 top-k over the rows whose `live` flag is set (every row
/// when `live` is empty), nearest first, ties to the lower id. Distances
/// accumulate in double so the order is the exact one.
[[nodiscard]] std::vector<std::size_t> exact_topk(const Rows& rows,
                                                  const std::vector<std::uint8_t>& live,
                                                  std::span<const float> query, std::size_t k);

/// |answer ∩ truth| / |truth|.
[[nodiscard]] double overlap(std::span<const std::size_t> answer,
                             std::span<const std::size_t> truth);
[[nodiscard]] std::vector<std::size_t> ids_of(const mcam::search::QueryResult& result);

/// The answer lists exactly `k` distinct ids, each accepted by `is_live`,
/// nearest first (scores non-decreasing). Returns the violation, if any.
template <typename IsLive>
[[nodiscard]] std::optional<std::string> check_answer(const mcam::search::QueryResult& result,
                                                      std::size_t k, IsLive&& is_live) {
  const auto& n = result.neighbors;
  if (n.size() != k) {
    return "answer lists " + std::to_string(n.size()) + " ids, expected " + std::to_string(k);
  }
  for (std::size_t i = 0; i < n.size(); ++i) {
    if (!is_live(n[i].index)) return "answer lists dead id " + std::to_string(n[i].index);
    for (std::size_t j = 0; j < i; ++j) {
      if (n[j].index == n[i].index) return "answer repeats id " + std::to_string(n[i].index);
    }
    if (i > 0 && n[i].distance < n[i - 1].distance) {
      return "answer is not nearest first at rank " + std::to_string(i);
    }
  }
  return std::nullopt;
}

/// Bit-identical answers: same ids, labels and scores in the same order.
[[nodiscard]] std::optional<std::string> same_answer(const mcam::search::QueryResult& got,
                                                     const mcam::search::QueryResult& want);

/// `value` must be at least `floor`.
[[nodiscard]] std::optional<std::string> at_least(const char* what, double value, double floor);

/// The CAM's few-shot accuracy must be within `margin` of the FP32 1-NN
/// accuracy on the same episodes and above twice chance (2 / ways).
[[nodiscard]] std::optional<std::string> check_fewshot_accuracy(double cam, double fp32,
                                                                std::size_t ways,
                                                                double margin);

/// Exact FP32 L2 1-NN label of `query` among `support`.
[[nodiscard]] int fp32_nearest_label(const Rows& support, std::span<const int> labels,
                                     std::span<const float> query);

// --- Tracing --------------------------------------------------------------------------

/// Per-span self times and notes gathered from finished traces. A span's
/// self time is its duration minus the part of it that other spans of the
/// same trace, nested inside it, cover.
class SpanLog {
 public:
  void add(const mcam::obs::TraceRecord& record);
  [[nodiscard]] double self_p50_ms(const std::string& span) const;
  [[nodiscard]] double note_mean(const std::string& span, const std::string& key) const;
  /// Sum over every span of its self time [ms].
  [[nodiscard]] double all_self_sum_ms() const;

 private:
  std::map<std::string, std::vector<double>> self_ms_;
  std::map<std::string, std::vector<double>> notes_;
};

/// Runs `fn` with a fresh trace installed as the thread's current trace,
/// inside a benchmark-side span `name` (for public calls that have no
/// program span), and files the finished trace into `log`. With a null
/// `log` it just runs `fn`. Returns the wall time around `fn` [ms].
template <typename Fn>
double traced_call(SpanLog* log, const char* name, Fn&& fn) {
  if (log == nullptr) {
    const auto start = Clock::now();
    fn();
    return ms_since(start);
  }
  mcam::obs::Trace trace{"perfbench"};
  double elapsed = 0.0;
  {
    mcam::obs::ScopedTraceContext context{&trace};
    mcam::obs::TraceSpan span{name};
    const auto start = Clock::now();
    fn();
    elapsed = ms_since(start);
  }
  log->add(trace.finish());
  return elapsed;
}

// --- Report -----------------------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What a workload hands back to main().
struct Report {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;  ///< End-to-end (untraced) or per-layer (traced).
  std::vector<Metric> raw;      ///< Raw wall-clock twins of the host-clock metrics.
  std::vector<std::string> notes;  ///< Human-readable lines printed before the result.

  void metric(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  void raw_metric(std::string name, double value, std::string unit) {
    raw.push_back({std::move(name), value, std::move(unit)});
  }
};

Report run_two_stage(const Options& options);
Report run_fewshot(const Options& options);
Report run_serve_mixed(const Options& options);
/// Print the README's reference figures for `seed`.
int reference_two_stage(const Options& options);
int reference_fewshot(const Options& options);
/// Feeds every oracle a correct and a deliberately corrupted answer.
int run_oracle_selftest();

}  // namespace perfbench
