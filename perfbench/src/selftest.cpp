// --oracle-selftest: every oracle accepts a real answer from the program
// and rejects the same answer deliberately corrupted.
#include "common.hpp"

#include "search/factory.hpp"

#include <cmath>
#include <iostream>
#include <utility>

namespace perfbench {
namespace {

struct Tally {
  int failures = 0;

  /// `accepted` must be clean and `rejected` must hold an error.
  void expect(const char* oracle, const std::optional<std::string>& accepted,
              const std::optional<std::string>& rejected) {
    const bool ok = !accepted && rejected;
    std::cout << (ok ? "ok   " : "FAIL ") << oracle;
    if (accepted) std::cout << " (rejected the correct answer: " << *accepted << ")";
    if (!rejected) std::cout << " (accepted the corrupted answer)";
    if (rejected && !accepted) std::cout << " -> " << *rejected;
    std::cout << "\n";
    if (!ok) ++failures;
  }
};

}  // namespace

int run_oracle_selftest() {
  constexpr std::size_t kRows = 256;
  constexpr std::size_t kDim = 16;
  constexpr std::size_t kTopK = 10;
  const ClusteredSource source{kDim, 8, 4, 1.0, 42};
  Gen gen{43};
  Rows rows;
  std::vector<int> labels;
  for (std::size_t r = 0; r < kRows; ++r) {
    rows.push_back(source.sample(r % 8, gen));
    labels.push_back(static_cast<int>(r % 8));
  }
  const std::vector<float> query = source.sample(3, gen);
  mcam::search::EngineConfig config;
  config.num_features = kDim;
  const auto exact = mcam::search::make_index("euclidean", config);
  exact->add(rows, labels);
  const auto cam = mcam::search::make_index("mcam2", config);
  cam->add(rows, labels);
  const mcam::search::QueryResult good = cam->query_one(query, kTopK);
  const auto all_live = [](std::size_t id) { return id < kRows; };

  Tally tally;

  // Answer shape: k distinct live ids, nearest first.
  {
    auto duplicate = good;
    duplicate.neighbors[3] = duplicate.neighbors[2];
    tally.expect("answer: repeated id", check_answer(good, kTopK, all_live),
                 check_answer(duplicate, kTopK, all_live));
    auto unordered = good;
    std::swap(unordered.neighbors.front(), unordered.neighbors.back());
    tally.expect("answer: not nearest first", check_answer(good, kTopK, all_live),
                 check_answer(unordered, kTopK, all_live));
    auto short_list = good;
    short_list.neighbors.pop_back();
    tally.expect("answer: fewer than k ids", check_answer(good, kTopK, all_live),
                 check_answer(short_list, kTopK, all_live));
    const std::size_t dead = good.neighbors[4].index;
    const auto live_but_one = [dead](std::size_t id) { return id < kRows && id != dead; };
    auto clean = cam->query_one(query, kTopK);
    tally.expect("answer: dead id", check_answer(clean, kTopK, all_live),
                 check_answer(clean, kTopK, live_but_one));
  }

  // Exact FP32 top-10: the program's FP32 engine agrees with the oracle,
  // and an answer from the far end of the ranking fails the recall floor.
  {
    const std::vector<std::size_t> truth = exact_topk(rows, {}, query, kTopK);
    const std::vector<std::size_t> far = exact_topk(rows, {}, query, kRows);
    const std::vector<std::size_t> worst(far.end() - kTopK, far.end());
    tally.expect("recall vs exact FP32 top-10",
                 at_least("recall_at_10", overlap(ids_of(exact->query_one(query, kTopK)), truth), 1.0),
                 at_least("recall_at_10", overlap(worst, truth), 0.15));
  }

  // Bit-identical answers (exhaustive vs fine, restore, quiescent pass).
  {
    auto swapped = good;
    std::swap(swapped.neighbors[0], swapped.neighbors[1]);
    tally.expect("same answer: swapped ranks", same_answer(cam->query_one(query, kTopK), good),
                 same_answer(swapped, good));
    auto nudged = good;
    nudged.neighbors[5].distance = std::nextafter(nudged.neighbors[5].distance, 1.0);
    tally.expect("same answer: score off by one ulp", same_answer(cam->query_one(query, kTopK), good),
                 same_answer(nudged, good));
  }

  // Served ids must not have been erased before the request was sent.
  {
    const std::size_t erased_id = good.neighbors[2].index;
    const std::uint64_t erased_at = 5;
    const auto not_erased_before = [&](std::uint64_t sent_epoch) {
      return [&, sent_epoch](std::size_t id) {
        return id < kRows && (id != erased_id || erased_at > sent_epoch);
      };
    };
    tally.expect("served id erased before send", check_answer(good, kTopK, not_erased_before(4)),
                 check_answer(good, kTopK, not_erased_before(5)));
  }

  // Few-shot accuracy against FP32 1-NN and chance.
  tally.expect("few-shot accuracy: trails FP32", check_fewshot_accuracy(0.97, 0.99, 20, 0.05),
               check_fewshot_accuracy(0.90, 0.99, 20, 0.05));
  tally.expect("few-shot accuracy: near chance", check_fewshot_accuracy(0.97, 0.99, 20, 0.05),
               check_fewshot_accuracy(0.09, 0.10, 20, 0.05));

  // Self-time accounting: a 10 ms span holding 6 ms of children has 4 ms self.
  {
    mcam::obs::TraceRecord record;
    record.spans = {{"child", 1.0, 4.0, "", {}}, {"child", 6.0, 2.0, "", {}}, {"parent", 0.0, 10.0, "", {}}};
    SpanLog log;
    log.add(record);
    const double self = log.self_p50_ms("parent");
    const auto off = [](double got, double want) -> std::optional<std::string> {
      if (std::abs(got - want) < 1e-9) return std::nullopt;
      return "self time " + std::to_string(got) + " ms, expected " + std::to_string(want);
    };
    tally.expect("span self time", off(self, 4.0), off(self, 10.0));
  }

  std::cout << (tally.failures == 0 ? "all oracles reject corrupted answers\n" : "oracle self-test FAILED\n");
  return tally.failures == 0 ? 0 : 1;
}

}  // namespace perfbench
