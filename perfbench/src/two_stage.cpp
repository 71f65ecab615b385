// Workload `two-stage`: the coarse-TCAM -> fine-MCAM pipeline over
// clustered rows, one client calling query_one(q, 10) back to back.
#include "common.hpp"

#include "search/factory.hpp"
#include "search/refine.hpp"

#include <algorithm>
#include <cstdio>
#include <memory>
#include <numeric>

namespace perfbench {
namespace {

constexpr const char* kSpec = "refine:coarse_bits=64,candidate_factor=8,fine=mcam2";
constexpr const char* kExhaustiveSpec =
    "refine:coarse_bits=64,candidate_factor=8,exhaustive=1,fine=mcam2";
constexpr std::size_t kTopK = 10;
constexpr std::size_t kDim = 32;
constexpr std::size_t kBatchRows = 256;
constexpr std::size_t kQueriesPerRound = 4;
constexpr std::size_t kLatencyPasses = 3;  // Passes over the pool behind the latency percentiles.
constexpr double kRecallFloor = 0.15;
/// Pool queries the traced run re-queries for the per-layer recall and
/// energy split.
constexpr std::size_t kLayerQueries = 256;

struct Sizes {
  std::size_t rows, clusters, pool, setups, calibration_rows;
};

struct Built {
  std::unique_ptr<mcam::search::NnIndex> index;
  double calibrate_ms = 0.0;
  double add_ms = 0.0;
  std::vector<double> batch_ms;
};

Built build(const char* spec, const Rows& rows, const std::vector<int>& labels,
            std::size_t calibration_rows, std::uint64_t seed) {
  mcam::search::EngineConfig config;
  config.num_features = kDim;
  config.seed = seed;
  Built built;
  built.index = mcam::search::make_index(spec, config);
  const Rows calibration(rows.begin(), rows.begin() + static_cast<std::ptrdiff_t>(calibration_rows));
  auto start = Clock::now();
  built.index->calibrate(calibration);
  built.calibrate_ms = ms_since(start);
  for (std::size_t begin = 0; begin < rows.size(); begin += kBatchRows) {
    const std::size_t end = std::min(begin + kBatchRows, rows.size());
    start = Clock::now();
    built.index->add(std::span{rows}.subspan(begin, end - begin),
                     std::span{labels}.subspan(begin, end - begin));
    built.batch_ms.push_back(ms_since(start));
    built.add_ms += built.batch_ms.back();
  }
  return built;
}

/// The workload's inputs and their exact FP32 top-10s.
struct Inputs {
  Sizes sizes;
  Rows rows, queries;
  std::vector<int> labels, query_labels;
  std::vector<std::vector<std::size_t>> truth;
};

Inputs make_inputs(const Options& options) {
  Inputs in;
  in.sizes = options.small ? Sizes{1024, 16, 16, 1, 512} : Sizes{8192, 64, 384, 40, 1024};
  const ClusteredSource source{kDim, in.sizes.clusters, 8, 1.0, derive(options.seed, 1)};
  Gen gen{derive(options.seed, 2)};
  for (std::size_t r = 0; r < in.sizes.rows; ++r) {
    in.rows.push_back(source.sample(r % in.sizes.clusters, gen));
    in.labels.push_back(static_cast<int>(r % in.sizes.clusters));
  }
  for (std::size_t q = 0; q < in.sizes.pool; ++q) {
    in.queries.push_back(source.sample(q % in.sizes.clusters, gen));
    in.query_labels.push_back(static_cast<int>(q % in.sizes.clusters));
  }
  for (const auto& q : in.queries) in.truth.push_back(exact_topk(in.rows, {}, q, kTopK));
  return in;
}

}  // namespace

int reference_two_stage(const Options& options) {
  const Inputs in = make_inputs(options);
  std::printf("%-58s %10s %10s %12s %14s\n", "engine (two-stage inputs)", "p50 ms", "p50 ref-ms",
              "recall@10", "pJ/query");
  const char* specs[] = {"euclidean", "mcam2", "tcam-lsh:lsh_bits=64", kSpec};
  for (const char* spec : specs) {
    const Built built = build(spec, in.rows, in.labels, in.sizes.calibration_rows, derive(options.seed, 3));
    HostClock clock;
    double recall = 0.0;
    double energy = 0.0;
    clock.reference();
    for (std::size_t q = 0; q < in.queries.size(); ++q) {
      if (q % kQueriesPerRound == 0) clock.begin_round();
      const auto start = Clock::now();
      const mcam::search::QueryResult result = built.index->query_one(in.queries[q], kTopK);
      clock.sample(ms_since(start));
      recall += overlap(ids_of(result), in.truth[q]);
      energy += result.telemetry.energy_j;
      if (q % kQueriesPerRound == kQueriesPerRound - 1 || q + 1 == in.queries.size()) clock.reference();
    }
    const double n = static_cast<double>(in.queries.size());
    std::printf("%-58s %10.4f %10.4f %12.4f %14.2f\n", spec, median(clock.raw()),
                median(clock.normalised()), recall / n, energy / n * 1e12);
  }
  return 0;
}

Report run_two_stage(const Options& options) {
  const Inputs in = make_inputs(options);
  const Sizes& sizes = in.sizes;
  const Rows& rows = in.rows;
  const Rows& queries = in.queries;
  const std::vector<int>& labels = in.labels;
  const std::vector<int>& query_labels = in.query_labels;
  const std::vector<std::vector<std::size_t>>& truth = in.truth;
  const std::uint64_t engine_seed = derive(options.seed, 3);

  // Set-up: calibrate + batched add, repeated; the last build is served.
  Report report;
  HostClock setup;  // Samples: whole set-ups [ms]; writes: 256-row add batches.
  std::vector<double> calibrate_ms;
  double add_ms = 0.0;
  Built pipeline;
  setup.reference();
  for (std::size_t s = 0; s < sizes.setups; ++s) {
    setup.begin_round();
    const auto start = Clock::now();
    pipeline = build(kSpec, rows, labels, sizes.calibration_rows, engine_seed);
    setup.sample(ms_since(start));
    for (double ms : pipeline.batch_ms) setup.sample(ms, HostClock::kWrite);
    calibrate_ms.push_back(pipeline.calibrate_ms);
    add_ms += pipeline.add_ms;
    setup.reference();
  }
  const mcam::search::NnIndex& index = *pipeline.index;
  const auto& two_stage = dynamic_cast<const mcam::search::TwoStageNnIndex&>(index);

  // Property: the exhaustive pipeline answers exactly as its fine engine.
  {
    const Built exhaustive =
        build(kExhaustiveSpec, rows, labels, sizes.calibration_rows, engine_seed);
    for (std::size_t q = 0; q < std::min<std::size_t>(8, queries.size()); ++q) {
      require(same_answer(exhaustive.index->query_one(queries[q], kTopK),
                          two_stage.fine().query_one(queries[q], kTopK)),
              "exhaustive=1 vs fine engine");
    }
  }

  for (std::size_t q = 0; q < std::min<std::size_t>(4, queries.size()); ++q) {
    (void)index.query_one(queries[q], kTopK);  // Warm-up.
  }

  // Timed stretch. Untraced: every round is timed. Traced: rounds
  // alternate untraced (the overhead base) and traced.
  SpanLog query_log;
  SpanLog fine_log;
  HostClock clock;
  std::vector<double> base_ms;
  std::vector<double> traced_ms;
  double recall_sum = 0.0;
  double energy_sum = 0.0;
  std::size_t correct_labels = 0;
  std::size_t next = 0;
  std::vector<std::size_t> query_inputs;  // Per query sample: its pool index.
  const auto is_live = [&](std::size_t id) { return id < rows.size(); };
  const auto loop_start = Clock::now();
  clock.reference();
  // Whole passes over the pool, so every query is timed as often as every other.
  for (std::size_t round = 0; ms_since(loop_start) < options.seconds * 1e3 ||
                              next < kLatencyPasses * queries.size() ||
                              next % queries.size() != 0;
       ++round) {
    const bool traced_round = options.trace && round % 2 == 1;
    clock.begin_round();
    for (std::size_t i = 0; i < kQueriesPerRound; ++i, ++next) {
      const std::size_t q = next % queries.size();
      ++report.attempted;
      mcam::search::QueryResult result;
      double elapsed = 0.0;
      try {
        if (traced_round) {
          mcam::obs::Trace trace{"perfbench.two-stage"};
          {
            mcam::obs::ScopedTraceContext context{&trace};
            const auto start = Clock::now();
            result = index.query_one(queries[q], kTopK);
            elapsed = ms_since(start);
          }
          query_log.add(trace.finish());
          traced_ms.push_back(elapsed);
          (void)traced_call(&fine_log, "fine-exhaustive",
                            [&] { (void)two_stage.fine().query_one(queries[q], kTopK); });
        } else {
          const auto start = Clock::now();
          result = index.query_one(queries[q], kTopK);
          elapsed = ms_since(start);
          if (options.trace) base_ms.push_back(elapsed);
        }
      } catch (const std::exception&) {
        ++report.failed;
        continue;
      }
      clock.sample(elapsed);
      clock.round_time(elapsed);
      query_inputs.push_back(q);
      require(check_answer(result, kTopK, is_live), "two-stage answer");
      if (next < queries.size()) {
        recall_sum += overlap(ids_of(result), truth[q]);
        energy_sum += result.telemetry.energy_j;
        if (result.label == query_labels[q]) ++correct_labels;
      }
    }
    clock.reference();
  }

  const double pool = static_cast<double>(queries.size());
  const double recall = recall_sum / pool;
  require(at_least("recall_at_10", recall, kRecallFloor), "two-stage recall vs exact FP32");
  report.notes.push_back("two-stage: " + std::to_string(rows.size()) + " rows x " +
                         std::to_string(kDim) + " features, spec " + kSpec + ", " +
                         std::to_string(clock.rounds()) + " rounds");

  if (!options.trace) {
    // Latency percentiles are over pool queries, each its median across the
    // first kLatencyPasses passes.
    const std::vector<double> lat = per_input_medians(clock.normalised(), query_inputs, kLatencyPasses);
    const std::vector<double> raw = per_input_medians(clock.raw(), query_inputs, kLatencyPasses);
    const double qps = 1e3 * static_cast<double>(query_inputs.size()) / clock.normalised_time_ms();
    const double rounds_per_s = 1e3 * static_cast<double>(clock.rounds()) / clock.normalised_time_ms();
    report.metric("query_p50_ms", percentile(lat, 50), "ms");
    report.metric("query_p90_ms", percentile(lat, 90), "ms");
    report.metric("throughput_qps", qps, "1/s");
    report.metric("episodes_per_s", rounds_per_s, "1/s");
    report.metric("write_p50_ms", median(setup.normalised(HostClock::kWrite)), "ms");
    report.metric("setup_s", median(setup.normalised()) / 1e3, "s");
    report.metric("energy_pj_per_query", energy_sum / pool * 1e12, "pJ");
    report.metric("recall_at_10", recall, "ratio");
    report.metric("accuracy", static_cast<double>(correct_labels) / pool, "ratio");
    report.metric("peak_rss_mb", peak_rss_mb(), "MiB");
    report.raw_metric("query_p50_ms", percentile(raw, 50), "ms");
    report.raw_metric("query_p90_ms", percentile(raw, 90), "ms");
    report.raw_metric("throughput_qps", 1e3 * static_cast<double>(query_inputs.size()) / clock.raw_time_ms(),
                      "1/s");
    report.raw_metric("write_p50_ms", median(setup.raw(HostClock::kWrite)), "ms");
    report.raw_metric("setup_s", median(setup.raw()) / 1e3, "s");
    report.raw_metric("host.reference_ms", clock.reference_median_ms(), "ms");
    return report;
  }

  // Per-layer figures from the traced rounds. The energy split takes the
  // fine engine's own charge for a rerank of as many candidates as the
  // pipeline nominated (query_subset charges by candidate count; the
  // nominated ids themselves are not exposed), and leaves the rest of the
  // pipeline's total to the coarse stage.
  const std::size_t layer_queries = std::min(kLayerQueries, queries.size());
  double coarse_recall = 0.0;
  double total_pj = 0.0;
  double fine_pj = 0.0;
  for (std::size_t q = 0; q < layer_queries; ++q) {
    const mcam::search::QueryResult piped = index.query_one(queries[q], kTopK);
    const mcam::search::NnIndex& fine = two_stage.fine();
    coarse_recall += overlap(ids_of(piped), ids_of(fine.query_one(queries[q], kTopK)));
    const std::vector<std::size_t> same_count =
        ids_of(fine.query_one(queries[q], piped.telemetry.fine_candidates));
    total_pj += piped.telemetry.energy_j * 1e12;
    fine_pj += fine.query_subset(queries[q], same_count, kTopK).telemetry.energy_j * 1e12;
  }
  require(at_least("coarse energy", total_pj - fine_pj, 0.0), "fine rerank energy within the pipeline's total");
  const double layer_n = static_cast<double>(layer_queries);
  const double coverage = query_log.all_self_sum_ms() /
                          std::accumulate(traced_ms.begin(), traced_ms.end(), 0.0);
  report.metric("cam.coarse_sweep_ms", query_log.self_p50_ms("coarse-sweep"), "ms");
  report.metric("search.fine_rerank_ms", query_log.self_p50_ms("fine-rerank"), "ms");
  report.metric("search.nominate_us", query_log.self_p50_ms("nominate") * 1e3, "us");
  report.metric("sig.encode_us", query_log.self_p50_ms("encode") * 1e3, "us");
  report.metric("search.coarse_candidates", query_log.note_mean("merge", "coarse_candidates"), "count");
  report.metric("search.fine_candidates", query_log.note_mean("merge", "fine_candidates"), "count");
  report.metric("energy.coarse_pj", (total_pj - fine_pj) / layer_n, "pJ");
  report.metric("energy.fine_pj", fine_pj / layer_n, "pJ");
  report.metric("search.coarse_recall_at_10", coarse_recall / layer_n, "ratio");
  report.metric("search.fine_exhaustive_ms", fine_log.self_p50_ms("fine-exhaustive"), "ms");
  report.metric("search.calibrate_ms", median(calibrate_ms), "ms");
  report.metric("cam.program_rows_per_s",
                1e3 * static_cast<double>(rows.size() * sizes.setups) / add_ms, "1/s");
  report.metric("obs.trace_base_ms", median(base_ms), "ms");
  report.metric("obs.trace_overhead_ms", median(traced_ms) - median(base_ms), "ms");
  report.metric("obs.span_coverage", coverage, "ratio");
  report.metric("host.reference_ms", clock.reference_median_ms(), "ms");
  report.notes.push_back("two-stage traced: " + std::to_string(traced_ms.size()) +
                         " traced queries, spans cover " + std::to_string(coverage * 100.0) +
                         "% of their wall time");
  require(at_least("span coverage", coverage, 0.9), "two-stage trace accounting");
  return report;
}

}  // namespace perfbench
