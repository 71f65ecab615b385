// Shard scaling micro-benchmark: ShardedNnIndex vs the monolithic engine.
//
// Asserts the tentpole invariant - the sharded index returns *bit-identical*
// labels, neighbor ids and scores to the monolithic engine under kIdealSum,
// including after an erase wave - then reports single-query latency vs the
// per-bank worker count (the shard layer fans one query across banks in
// parallel; on a multi-core host the speedup approaches min(banks, cores)).
// Also reports build time (make + add every row) and snapshot restore
// time, sharded vs monolithic, best of kRepeats: the shard layer fits its
// encoders once per index, so both should sit near the monolithic figures.
// Timings are reported (and written as JSON with --json or
// MCAM_BENCH_JSON), never gated. Exits non-zero on any divergence, so CI
// runs it as a smoke step.
#include "bench_common.hpp"

#include "search/factory.hpp"
#include "search/sharded.hpp"
#include "serve/snapshot.hpp"

#include <chrono>
#include <iostream>
#include <thread>

int main(int argc, char** argv) {
  using namespace mcam;
  using Clock = std::chrono::steady_clock;

  constexpr std::size_t kRows = 1024;
  constexpr std::size_t kBankRows = 128;  // 8 banks.
  constexpr std::size_t kFeatures = 32;
  constexpr std::size_t kQueries = 48;
  constexpr std::size_t kTopK = 10;
  constexpr int kRepeats = 3;  // Best-of to damp scheduler noise.

  Rng rng{4242};
  std::vector<std::vector<float>> rows(kRows, std::vector<float>(kFeatures));
  std::vector<int> labels(kRows);
  for (std::size_t r = 0; r < kRows; ++r) {
    for (auto& v : rows[r]) v = static_cast<float>(rng.normal());
    labels[r] = static_cast<int>(r % 16);
  }
  std::vector<std::vector<float>> queries(kQueries, std::vector<float>(kFeatures));
  for (auto& q : queries) {
    for (auto& v : q) v = static_cast<float>(rng.normal());
  }

  search::EngineConfig config;
  config.num_features = kFeatures;
  const auto monolithic = search::make_index("mcam3", config);
  monolithic->add(rows, labels);
  // Erase a spread of ids so the identity check covers tombstones too.
  for (std::size_t id = 7; id < kRows; id += 13) (void)monolithic->erase(id);

  const auto reference = monolithic->query(queries, kTopK);

  const auto identical_to_reference = [&](const search::NnIndex& index) {
    for (std::size_t i = 0; i < queries.size(); ++i) {
      const search::QueryResult result = index.query_one(queries[i], kTopK);
      if (result.label != reference[i].label ||
          result.neighbors.size() != reference[i].neighbors.size()) {
        return false;
      }
      for (std::size_t n = 0; n < result.neighbors.size(); ++n) {
        if (result.neighbors[n].index != reference[i].neighbors[n].index ||
            result.neighbors[n].distance != reference[i].neighbors[n].distance) {
          return false;
        }
      }
    }
    return true;
  };

  const auto time_queries = [&](const search::NnIndex& index) {
    double best_s = 1e30;
    for (int rep = 0; rep < kRepeats; ++rep) {
      const auto start = Clock::now();
      for (const auto& q : queries) (void)index.query_one(q, kTopK);
      const std::chrono::duration<double> elapsed = Clock::now() - start;
      best_s = std::min(best_s, elapsed.count());
    }
    return best_s;
  };

  const double monolithic_s = time_queries(*monolithic);
  bool all_identical = true;

  TextTable table{"Sharded top-" + std::to_string(kTopK) + " query scaling (" +
                  std::to_string(kRows) + " rows -> " +
                  std::to_string((kRows + kBankRows - 1) / kBankRows) + " banks x " +
                  std::to_string(kBankRows) + " rows, " +
                  std::to_string(std::thread::hardware_concurrency()) + " cores)"};
  table.set_header({"engine", "workers", "query time [us]", "speedup", "identical"});
  table.add_row({"monolithic", "-", format_double(monolithic_s / kQueries * 1e6, 1),
                 "1.00x", "yes"});

  for (std::size_t workers : {1u, 2u, 4u, 8u}) {
    search::EngineConfig sharded_config = config;
    sharded_config.bank_rows = kBankRows;
    sharded_config.shard_workers = workers;
    const auto sharded = search::make_index("sharded-mcam3", sharded_config);
    sharded->add(rows, labels);
    for (std::size_t id = 7; id < kRows; id += 13) (void)sharded->erase(id);

    const bool identical = identical_to_reference(*sharded);
    all_identical = all_identical && identical;
    const double seconds = time_queries(*sharded);
    table.add_row({"sharded", std::to_string(workers),
                   format_double(seconds / kQueries * 1e6, 1),
                   format_double(monolithic_s / seconds, 2) + "x",
                   identical ? "yes" : "NO"});
  }
  bench::emit(table, "shard_scaling");

  // Build and restore cost, sharded vs monolithic, on the same rows.
  search::EngineConfig sharded_config = config;
  sharded_config.bank_rows = kBankRows;
  sharded_config.shard_workers = 1;
  const auto best_ms = [&](const auto& run) {
    double best = 1e30;
    for (int rep = 0; rep < kRepeats; ++rep) {
      const auto start = Clock::now();
      run();
      const std::chrono::duration<double, std::milli> elapsed = Clock::now() - start;
      best = std::min(best, elapsed.count());
    }
    return best;
  };
  const auto build_ms = [&](const std::string& spec, const search::EngineConfig& cfg) {
    return best_ms([&] { search::make_index(spec, cfg)->add(rows, labels); });
  };
  const auto restore_ms = [&](const std::string& spec, const search::EngineConfig& cfg,
                              bool& identical) {
    auto index = search::make_index(spec, cfg);
    index->add(rows, labels);
    for (std::size_t id = 7; id < kRows; id += 13) (void)index->erase(id);
    const std::vector<std::uint8_t> blob = serve::save(*index, spec, cfg);
    identical = identical_to_reference(*serve::load(blob));
    return best_ms([&] { (void)serve::load(blob); });
  };
  bool monolithic_restored = false;
  bool sharded_restored = false;
  const double monolithic_build = build_ms("mcam3", config);
  const double sharded_build = build_ms("sharded-mcam3", sharded_config);
  const double monolithic_restore = restore_ms("mcam3", config, monolithic_restored);
  const double sharded_restore = restore_ms("sharded-mcam3", sharded_config, sharded_restored);
  all_identical = all_identical && monolithic_restored && sharded_restored;

  TextTable setup{"Build (make + add " + std::to_string(kRows) +
                  " rows) and snapshot restore, best of " + std::to_string(kRepeats)};
  setup.set_header({"engine", "build [ms]", "restore [ms]", "restored identical"});
  setup.add_row({"monolithic", format_double(monolithic_build, 2),
                 format_double(monolithic_restore, 2), monolithic_restored ? "yes" : "NO"});
  setup.add_row({"sharded", format_double(sharded_build, 2), format_double(sharded_restore, 2),
                 sharded_restored ? "yes" : "NO"});
  bench::emit(setup, "shard_setup");

  bench::BenchReport report{"shard_scaling", argc, argv};
  report.note("rows", std::to_string(kRows));
  report.note("bank_rows", std::to_string(kBankRows));
  report.metric("monolithic_build", monolithic_build, "ms");
  report.metric("sharded_build", sharded_build, "ms");
  report.metric("monolithic_restore", monolithic_restore, "ms");
  report.metric("sharded_restore", sharded_restore, "ms");
  report.write();

  std::cout << "Check: every worker count returns bit-identical neighbors and scores to\n"
               "the monolithic engine (erase wave included), before and after a snapshot\n"
               "restore - the per-bank fan-out and hierarchical merge change the wall\n"
               "clock, never the answer. Speedup tracks min(banks, cores) on an unloaded\n"
               "multi-core host.\n";
  if (!all_identical) {
    std::cout << "FAIL: sharded results diverged from the monolithic engine\n";
    return 1;
  }
  return 0;
}
