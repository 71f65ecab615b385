// Workload `fewshot`: N-way 5-shot episodes through mann::FeatureMemory
// on a 3-bit MCAM with 80 mV Vth variation. Each episode programs a fresh
// array with its support set, then classifies its queries.
#include "common.hpp"

#include "data/episode.hpp"
#include "encoding/quantizer.hpp"
#include "mann/memory.hpp"
#include "ml/embedding.hpp"
#include "search/engine.hpp"
#include "search/factory.hpp"
#include "util/rng.hpp"

#include <cstdio>
#include <memory>
#include <optional>

namespace perfbench {
namespace {

constexpr std::size_t kDim = 64;
constexpr std::size_t kEvalClasses = 100;
constexpr std::size_t kBaseClasses = 32;
constexpr std::size_t kCalibrationSamples = 256;
constexpr double kIntraSigma = 0.80;
constexpr double kClipPercentile = 6.0;
constexpr double kVthSigma = 0.080;  // V, the Fig. 5 study's worst-state sigma.
constexpr std::size_t kTopK = 10;
constexpr std::size_t kEpisodesPerRound = 8;
constexpr std::size_t kLatencyPasses = 5;  // Passes over the pool behind the latency percentiles.
constexpr double kAccuracyMargin = 0.05;  // CAM may trail FP32 1-NN by this much.

/// Set-up product: the feature model and the quantizer calibrated on it.
struct Calibrated {
  std::unique_ptr<mcam::ml::GaussianPrototypeEmbedding> features;
  std::optional<mcam::encoding::UniformQuantizer> quantizer;
  double fit_ms = 0.0;
};

Calibrated calibrate(std::uint64_t seed) {
  Calibrated out;
  out.features = std::make_unique<mcam::ml::GaussianPrototypeEmbedding>(
      kEvalClasses + kBaseClasses, kDim, kIntraSigma, derive(seed, 11));
  mcam::Rng rng{derive(seed, 12)};
  Rows base;
  for (std::size_t i = 0; i < kCalibrationSamples; ++i) {
    base.push_back(out.features->sample(kEvalClasses + rng.index(kBaseClasses), rng));
  }
  const auto start = Clock::now();
  out.quantizer = mcam::encoding::UniformQuantizer::fit(base, 3, kClipPercentile);
  out.fit_ms = ms_since(start);
  return out;
}

mcam::data::EpisodeSampler make_sampler(const mcam::ml::GaussianPrototypeEmbedding& features) {
  return mcam::data::EpisodeSampler{
      kEvalClasses, [&features](std::size_t cls, mcam::Rng& rng) { return features.sample(cls, rng); }};
}

/// A fresh 3-bit MCAM array (its own variation draw) behind a feature memory.
mcam::mann::FeatureMemory make_memory(const Calibrated& calibrated, double vth_sigma,
                                      std::uint64_t seed) {
  mcam::search::EngineConfig config;
  config.num_features = kDim;
  config.vth_sigma = vth_sigma;
  config.seed = seed;
  auto engine = mcam::search::make_index("mcam3", config);
  dynamic_cast<mcam::search::McamNnEngine&>(*engine).set_fixed_quantizer(*calibrated.quantizer);
  return mcam::mann::FeatureMemory{std::move(engine), mcam::mann::StoragePolicy::kAllShots};
}

}  // namespace

int reference_fewshot(const Options& options) {
  constexpr std::size_t kEpisodes = 200;
  const Calibrated calibrated = calibrate(options.seed);
  const mcam::data::EpisodeSampler sampler = make_sampler(*calibrated.features);
  std::printf("\n%-16s %14s %14s %14s   (paper, 5-way 5-shot 3-bit MCAM: 98.34%%)\n", "task",
              "MCAM3 80 mV", "MCAM3 0 mV", "FP32 L2 1-NN");
  for (const std::size_t ways : {std::size_t{5}, std::size_t{20}}) {
    const mcam::data::TaskSpec task{ways, 5, 5};
    std::size_t noisy = 0, clean = 0, fp32 = 0, total = 0;
    for (std::size_t e = 0; e < kEpisodes; ++e) {
      mcam::Rng rng{derive(options.seed, 1000 + e)};
      const mcam::data::Episode episode = sampler.sample(task, rng);
      auto noisy_memory = make_memory(calibrated, kVthSigma, derive(options.seed, 100000 + e));
      auto clean_memory = make_memory(calibrated, 0.0, derive(options.seed, 100000 + e));
      noisy_memory.store(episode.support, episode.support_labels);
      clean_memory.store(episode.support, episode.support_labels);
      for (std::size_t q = 0; q < episode.query.size(); ++q) {
        const int want = episode.query_labels[q];
        noisy += noisy_memory.lookup(episode.query[q]) == want;
        clean += clean_memory.lookup(episode.query[q]) == want;
        fp32 += fp32_nearest_label(episode.support, episode.support_labels, episode.query[q]) == want;
        ++total;
      }
    }
    const auto pct = [&](std::size_t n) { return 100.0 * static_cast<double>(n) / static_cast<double>(total); };
    std::printf("%2zu-way 5-shot    %13.2f%% %13.2f%% %13.2f%%\n", ways, pct(noisy), pct(clean), pct(fp32));
  }
  return 0;
}

Report run_fewshot(const Options& options) {
  const std::size_t ways = 20;
  const mcam::data::TaskSpec task{ways, 5, 5};
  const std::size_t pool = options.small ? 4 : 128;  // Distinct episodes, cycled.
  const std::size_t setups = options.small ? 1 : 31;

  Report report;
  HostClock setup;
  std::vector<double> fit_ms;
  Calibrated calibrated;
  setup.reference();
  for (std::size_t s = 0; s < setups; ++s) {
    setup.begin_round();
    const auto start = Clock::now();
    calibrated = calibrate(options.seed);
    setup.sample(ms_since(start));
    fit_ms.push_back(calibrated.fit_ms);
    setup.reference();
  }
  const mcam::data::EpisodeSampler sampler = make_sampler(*calibrated.features);

  SpanLog log;
  HostClock clock;  // Samples: lookup latencies; writes: stores; round time: whole episodes.
  std::vector<double> base_ms;
  std::vector<double> traced_ms;
  std::vector<std::size_t> lookup_inputs;  // Per lookup sample: episode * queries + query.
  std::size_t episodes = 0;
  std::size_t cam_correct = 0;
  std::size_t fp32_correct = 0;
  std::size_t first_pass_queries = 0;
  double recall_sum = 0.0;
  double energy_sum = 0.0;

  {  // Warm-up: one untimed episode.
    mcam::Rng rng{derive(options.seed, 1000)};
    const mcam::data::Episode episode = sampler.sample(task, rng);
    mcam::mann::FeatureMemory memory = make_memory(calibrated, kVthSigma, derive(options.seed, 100000));
    memory.store(episode.support, episode.support_labels);
    for (const auto& q : episode.query) (void)memory.retrieve(q, kTopK);
  }

  const auto loop_start = Clock::now();
  clock.reference();
  // Whole passes over the pool, so every lookup is timed as often as every other.
  for (std::size_t round = 0;
       ms_since(loop_start) < options.seconds * 1e3 || episodes < kLatencyPasses * pool ||
       episodes % pool != 0;
       ++round) {
    SpanLog* traced = options.trace && round % 2 == 1 ? &log : nullptr;
    clock.begin_round();
    for (std::size_t i = 0; i < kEpisodesPerRound; ++i, ++episodes) {
      const std::size_t e = episodes % pool;
      const bool first_pass = episodes < pool;
      const auto episode_start = Clock::now();
      double checks_ms = 0.0;  // Oracle time, kept out of the episode's time.
      ++report.attempted;
      try {
        mcam::Rng rng{derive(options.seed, 1000 + e)};
        mcam::data::Episode episode;
        (void)traced_call(traced, "episode-sample", [&] { episode = sampler.sample(task, rng); });
        mcam::mann::FeatureMemory memory =
            make_memory(calibrated, kVthSigma, derive(options.seed, 100000 + e));
        clock.sample(traced_call(traced, "memory-store",
                                 [&] { memory.store(episode.support, episode.support_labels); }),
                     HostClock::kWrite);

        for (std::size_t q = 0; q < episode.query.size(); ++q) {
          ++report.attempted;
          mcam::search::QueryResult result;
          const double ms = traced_call(traced, "memory-lookup",
                                        [&] { result = memory.retrieve(episode.query[q], kTopK); });
          clock.sample(ms);
          lookup_inputs.push_back(e * episode.query.size() + q);
          (traced != nullptr ? traced_ms : base_ms).push_back(ms);
          const auto checks_start = Clock::now();
          require(check_answer(result, kTopK,
                               [&](std::size_t id) { return id < episode.support.size(); }),
                  "fewshot answer");
          if (first_pass) {
            const int want = episode.query_labels[q];
            if (result.neighbors.front().label == want) ++cam_correct;
            if (fp32_nearest_label(episode.support, episode.support_labels, episode.query[q]) == want) {
              ++fp32_correct;
            }
            recall_sum += overlap(ids_of(result), exact_topk(episode.support, {}, episode.query[q], kTopK));
            energy_sum += result.telemetry.energy_j;
            ++first_pass_queries;
          }
          checks_ms += ms_since(checks_start);
        }
      } catch (const CheckFailure&) {
        throw;
      } catch (const std::exception&) {
        ++report.failed;
      }
      clock.round_time(ms_since(episode_start) - checks_ms);
    }
    clock.reference();
  }

  const double n = static_cast<double>(first_pass_queries);
  const double cam_accuracy = static_cast<double>(cam_correct) / n;
  const double fp32_accuracy = static_cast<double>(fp32_correct) / n;
  require(check_fewshot_accuracy(cam_accuracy, fp32_accuracy, ways, kAccuracyMargin),
          "fewshot accuracy vs FP32 1-NN");
  report.notes.push_back("fewshot: " + std::to_string(ways) + "-way 5-shot, " +
                         std::to_string(episodes) + " episodes, MCAM accuracy " +
                         std::to_string(cam_accuracy) + " vs FP32 1-NN " +
                         std::to_string(fp32_accuracy) + " (chance " +
                         std::to_string(1.0 / static_cast<double>(ways)) + ")");

  if (!options.trace) {
    // Latency percentiles are over lookups, each its median across the
    // first kLatencyPasses passes.
    const std::vector<double> lat = per_input_medians(clock.normalised(), lookup_inputs, kLatencyPasses);
    const std::vector<double> raw = per_input_medians(clock.raw(), lookup_inputs, kLatencyPasses);
    const double norm_s = clock.normalised_time_ms() / 1e3;
    report.metric("query_p50_ms", percentile(lat, 50), "ms");
    report.metric("query_p90_ms", percentile(lat, 90), "ms");
    report.metric("throughput_qps", static_cast<double>(lookup_inputs.size()) / norm_s, "1/s");
    report.metric("episodes_per_s", static_cast<double>(episodes) / norm_s, "1/s");
    report.metric("write_p50_ms", median(clock.normalised(HostClock::kWrite)), "ms");
    report.metric("setup_s", median(setup.normalised()) / 1e3, "s");
    report.metric("energy_pj_per_query", energy_sum / n * 1e12, "pJ");
    report.metric("recall_at_10", recall_sum / n, "ratio");
    report.metric("accuracy", cam_accuracy, "ratio");
    report.metric("peak_rss_mb", peak_rss_mb(), "MiB");
    report.raw_metric("query_p50_ms", percentile(raw, 50), "ms");
    report.raw_metric("query_p90_ms", percentile(raw, 90), "ms");
    report.raw_metric("episodes_per_s", 1e3 * static_cast<double>(episodes) / clock.raw_time_ms(), "1/s");
    report.raw_metric("write_p50_ms", median(clock.raw(HostClock::kWrite)), "ms");
    report.raw_metric("setup_s", median(setup.raw()) / 1e3, "s");
    report.raw_metric("host.reference_ms", clock.reference_median_ms(), "ms");
    return report;
  }

  const double stored_rows = static_cast<double>(task.ways * task.shots);
  report.metric("data.episode_sample_us", log.self_p50_ms("episode-sample") * 1e3, "us");
  report.metric("cam.program_us_per_row", log.self_p50_ms("memory-store") * 1e3 / stored_rows, "us");
  report.metric("cam.sense_us", log.self_p50_ms("memory-lookup") * 1e3, "us");
  report.metric("encoding.calibrate_ms", median(fit_ms), "ms");
  report.metric("obs.trace_base_ms", median(base_ms), "ms");
  report.metric("obs.trace_overhead_ms", median(traced_ms) - median(base_ms), "ms");
  report.metric("host.reference_ms", clock.reference_median_ms(), "ms");
  return report;
}

}  // namespace perfbench
