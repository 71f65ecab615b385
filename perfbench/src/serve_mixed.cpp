// Workload `serve-mixed`: a banked exhaustive MCAM index restored from a
// snapshot and served by serve::QueryService with its result cache on.
// Closed-loop query clients, some of whose queries repeat, run beside a
// trickle of add/erase pairs that go through the service.
#include "common.hpp"

#include "search/factory.hpp"
#include "serve/service.hpp"
#include "serve/snapshot.hpp"

#include <sched.h>

#include <algorithm>
#include <atomic>
#include <barrier>
#include <exception>
#include <functional>
#include <limits>
#include <memory>
#include <mutex>
#include <thread>

namespace perfbench {
namespace {

constexpr const char* kSpec = "sharded-mcam2:bank_rows=256,shard_workers=1";
constexpr std::size_t kDim = 32;
constexpr std::size_t kTopK = 10;
// The request mix below is an assumption, not a recorded trace: the
// repository holds no traffic description to take it from.
constexpr std::size_t kHotQueries = 16;
constexpr double kHotShare = 0.5;
constexpr std::size_t kRequestsPerRound = 120;  // Per client.
constexpr std::size_t kWriteEvery = 20;        // Client 0 requests per add/erase pair.
constexpr std::size_t kCacheEntries = 256;
constexpr double kRecallFloor = 0.15;
constexpr std::uint64_t kNeverErased = std::numeric_limits<std::uint64_t>::max();

/// CPUs this process may run on (what nproc prints).
std::size_t usable_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) == 0) {
    return static_cast<std::size_t>(std::max(1, CPU_COUNT(&set)));
  }
  return std::max(1u, std::thread::hardware_concurrency());
}

/// State shared by the clients and the writer. Ids are insertion-order:
/// the restored rows first, then one per add.
struct Shared {
  Rows rows;                     // Every row ever added, by id.
  std::vector<std::uint8_t> live;
  std::vector<std::atomic<std::uint64_t>> erased_at;  // Erase epoch, or kNeverErased.
  std::atomic<std::uint64_t> epoch{0};
  std::atomic<std::size_t> ids_issued{0};
  std::vector<std::size_t> victims;  // Restored ids in erase order (a seeded shuffle).
  std::vector<std::atomic<std::uint8_t>> sent;  // Per query (hot, then cold): sent yet?

  Shared(const Rows& restored, std::size_t capacity, std::size_t queries, std::uint64_t seed)
      : rows(restored),
        live(restored.size(), 1),
        erased_at(capacity),
        ids_issued(restored.size()),
        sent(queries) {
    for (auto& s : sent) s.store(0);
    for (auto& e : erased_at) e.store(kNeverErased);
    victims.resize(restored.size());
    for (std::size_t i = 0; i < victims.size(); ++i) victims[i] = i;
    Gen gen{seed};
    for (std::size_t i = victims.size(); i > 1; --i) std::swap(victims[i - 1], victims[gen.index(i)]);
  }
};

/// The generated request streams.
struct Traffic {
  Rows hot;    // Repeated queries.
  Rows cold;   // Distinct queries, walked in order by each client.
  Rows fresh;  // Rows the writer adds, one per add/erase pair.
  std::vector<int> fresh_labels;
};

/// Add/erase pair number `pair` through the service: add fresh row `pair`,
/// then erase the restored row `victims[pair]`. Returns the pair's time.
double write_pair(mcam::serve::QueryService& service, Shared& shared, const Traffic& traffic,
                  std::size_t pair, SpanLog* log) {
  const std::vector<float>& row = traffic.fresh[pair];
  const int label = traffic.fresh_labels[pair];
  const std::size_t id = shared.rows.size();
  shared.rows.push_back(row);
  shared.live.push_back(1);
  shared.ids_issued.store(id + 1);
  const double add_ms = traced_call(log, "service-add", [&] {
    service.add(std::span{&row, 1}, std::span{&label, 1});
  });
  const std::size_t victim = shared.victims[pair];
  bool erased = false;
  const double erase_ms = traced_call(log, "service-erase", [&] { erased = service.erase(victim); });
  if (!erased) throw CheckFailure{"erase of live id " + std::to_string(victim) + " returned false"};
  shared.live[victim] = 0;
  // Stamp the erase before publishing its epoch: a client that reads the
  // new epoch before sending must also see the stamp.
  const std::uint64_t epoch = shared.epoch.load() + 1;
  shared.erased_at[victim].store(epoch);
  shared.epoch.store(epoch);
  return add_ms + erase_ms;
}

/// One client's closed-loop request stream.
struct Client {
  Gen gen;
  std::size_t cursor = 0;
  std::vector<double> latencies;  // This round's, merged by the main thread.
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t hot = 0;      // Requests drawn from the hot set.
  std::uint64_t repeats = 0;  // Requests whose query was sent before in the run.
};

/// The closed-loop phase: `clients` clients (client 0 on the calling
/// thread, which also writes) in barrier-separated rounds, alternating
/// with the reference kernel.
class Phase {
 public:
  Phase(mcam::serve::QueryService& service, Shared& shared, const Traffic& traffic,
        std::size_t clients, std::uint64_t seed)
      : service_(service), shared_(shared), traffic_(traffic) {
    for (std::size_t c = 0; c < clients; ++c) {
      clients_.push_back(Client{Gen{derive(seed, 200 + c)}, c * traffic.cold.size() / clients, {}, 0, 0});
    }
  }

  /// Runs rounds until `seconds` elapse; `writes` counts add/erase pairs.
  void run(double seconds, HostClock& clock, SpanLog* log, std::size_t& writes) {
    std::barrier<> sync{static_cast<std::ptrdiff_t>(clients_.size())};
    std::atomic<bool> stop{false};
    std::vector<std::thread> threads;
    for (std::size_t c = 1; c < clients_.size(); ++c) {
      threads.emplace_back([&, c] {
        for (;;) {
          sync.arrive_and_wait();
          if (stop.load()) return;
          round(c);
          sync.arrive_and_wait();
        }
      });
    }
    const auto start = Clock::now();
    while (ms_since(start) < seconds * 1e3 && !has_error()) {
      clock.begin_round();
      sync.arrive_and_wait();
      const auto round_start = Clock::now();
      round(0, [&] { write(log, writes, clock); });
      sync.arrive_and_wait();
      clock.round_time(ms_since(round_start));
      for (Client& client : clients_) {
        for (double ms : client.latencies) clock.sample(ms);
        client.latencies.clear();
      }
      if (log != nullptr) drain_traces(*log);
      clock.reference();
    }
    stop.store(true);
    sync.arrive_and_wait();
    for (std::thread& t : threads) t.join();
    if (error_) std::rethrow_exception(error_);
  }

  [[nodiscard]] std::uint64_t attempted() const {
    std::uint64_t n = 0;
    for (const Client& c : clients_) n += c.attempted;
    return n;
  }
  [[nodiscard]] std::uint64_t failed() const {
    std::uint64_t n = 0;
    for (const Client& c : clients_) n += c.failed;
    return n;
  }
  [[nodiscard]] std::uint64_t hot() const {
    std::uint64_t n = 0;
    for (const Client& c : clients_) n += c.hot;
    return n;
  }
  [[nodiscard]] std::uint64_t repeats() const {
    std::uint64_t n = 0;
    for (const Client& c : clients_) n += c.repeats;
    return n;
  }

 private:
  void round(std::size_t c, const std::function<void()>& every_write = {}) {
    Client& client = clients_[c];
    try {
      for (std::size_t i = 0; i < kRequestsPerRound; ++i) {
        if (every_write && i % kWriteEvery == kWriteEvery - 1) every_write();
        const Rows& hot = traffic_.hot;
        const Rows& cold = traffic_.cold;
        const bool is_hot = client.gen.uniform() < kHotShare;
        const std::size_t pick = is_hot ? client.gen.index(hot.size()) : client.cursor++ % cold.size();
        const std::vector<float>& query = is_hot ? hot[pick] : cold[pick];
        if (is_hot) ++client.hot;
        if (shared_.sent[(is_hot ? 0 : hot.size()) + pick].exchange(1) != 0) ++client.repeats;
        ++client.attempted;
        const std::uint64_t sent_epoch = shared_.epoch.load();
        const auto start = Clock::now();
        const mcam::serve::QueryResponse response = service_.query_one(query, kTopK);
        client.latencies.push_back(ms_since(start));
        if (response.status != mcam::serve::RequestStatus::kOk) {
          ++client.failed;
          continue;
        }
        require(check_answer(response.result, kTopK,
                             [&](std::size_t id) {
                               return id < shared_.ids_issued.load() &&
                                      shared_.erased_at[id].load() >
                                          sent_epoch;
                             }),
                "served answer (ids must be distinct, nearest first, not erased before send)");
      }
    } catch (...) {
      const std::lock_guard<std::mutex> lock(error_mutex_);
      if (!error_) error_ = std::current_exception();
    }
  }

  bool has_error() {
    const std::lock_guard<std::mutex> lock(error_mutex_);
    return static_cast<bool>(error_);
  }

  /// One add/erase pair through the service (client 0's thread), until
  /// the write stream is used up.
  void write(SpanLog* log, std::size_t& writes, HostClock& clock) {
    if (writes >= traffic_.fresh.size()) return;
    clock.sample(write_pair(service_, shared_, traffic_, writes, log), HostClock::kWrite);
    ++writes;
  }

  static void drain_traces(SpanLog& log) {
    auto& sink = mcam::obs::TraceSink::global();
    for (const auto& record : sink.recent()) log.add(record);
    sink.clear();
  }

  mcam::serve::QueryService& service_;
  Shared& shared_;
  const Traffic& traffic_;
  std::vector<Client> clients_;
  // lock-order: leaf. Guards error_ while client threads run a round.
  std::mutex error_mutex_;
  std::exception_ptr error_;
};

}  // namespace

Report run_serve_mixed(const Options& options) {
  const std::size_t rows_n = options.small ? 512 : 4096;
  const std::size_t clusters = options.small ? 16 : 64;
  const std::size_t probes_n = options.small ? 16 : 2048;
  const std::size_t setups = options.small ? 1 : 15;
  // One worker and two clients (this thread is client 0): requests queue
  // behind each other and a write waits for at most one query, while the
  // workload needs about one CPU. With a worker per client, p90 and
  // throughput followed the other tenants of a shared host more than the
  // program; with more clients than workers, a write waited for a gap in
  // overlapping query streams. The workload starts at most nproc threads.
  const std::size_t workers = 1;
  const std::size_t clients = std::min<std::size_t>(2, usable_cpus());

  const ClusteredSource source{kDim, clusters, 8, 1.0, derive(options.seed, 1)};
  Gen gen{derive(options.seed, 2)};
  const auto draw = [&](std::size_t n, Rows& out, std::vector<int>* labels) {
    for (std::size_t i = 0; i < n; ++i) {
      const std::size_t cluster = gen.index(clusters);
      out.push_back(source.sample(cluster, gen));
      if (labels != nullptr) labels->push_back(static_cast<int>(cluster));
    }
  };
  Rows rows, probes;
  std::vector<int> labels, probe_labels;
  Traffic traffic;
  draw(rows_n, rows, &labels);
  draw(kHotQueries, traffic.hot, nullptr);
  draw(4096, traffic.cold, nullptr);
  draw(rows_n, traffic.fresh, &traffic.fresh_labels);  // Erases every restored row at most once.
  draw(probes_n, probes, &probe_labels);

  // Cold build (reference for restore) and the snapshot the set-up restores.
  mcam::search::EngineConfig config;
  config.num_features = kDim;
  config.seed = derive(options.seed, 3);
  auto start = Clock::now();
  auto built = mcam::search::make_index(kSpec, config);
  built->add(rows, labels);
  const double cold_build_ms = ms_since(start);
  const std::vector<std::uint8_t> blob = mcam::serve::save(*built, kSpec, config);

  // Set-up: restore + service start, repeated; the last one is served.
  mcam::serve::QueryServiceConfig service_config;
  service_config.workers = workers;
  service_config.cache_capacity = kCacheEntries;
  Report report;
  SpanLog restore_log;
  HostClock setup;
  std::unique_ptr<mcam::search::NnIndex> index;
  std::unique_ptr<mcam::serve::QueryService> service;
  setup.reference();
  for (std::size_t s = 0; s < setups; ++s) {
    service.reset();
    index.reset();
    setup.begin_round();
    start = Clock::now();
    (void)traced_call(options.trace ? &restore_log : nullptr, "snapshot-restore",
                      [&] { index = mcam::serve::load(blob); });
    service = std::make_unique<mcam::serve::QueryService>(*index, service_config);
    setup.sample(ms_since(start));
    setup.reference();
  }
  for (const auto& q : probes) {
    require(same_answer(index->query_one(q, kTopK), built->query_one(q, kTopK)),
            "restored index vs the index the snapshot was saved from");
  }
  built.reset();

  Shared shared{rows, 2 * rows_n, kHotQueries + traffic.cold.size(), derive(options.seed, 4)};
  for (std::size_t i = 0; i < 8; ++i) (void)service->query_one(traffic.cold[traffic.cold.size() - 1 - i], kTopK);

  HostClock clock;
  SpanLog log;
  std::size_t writes = 0;
  std::vector<double> base_ms;
  clock.reference();
  if (options.trace) {
    // Untraced half for the overhead base, then a traced service.
    Phase base{*service, shared, traffic, clients, options.seed};
    base.run(options.seconds / 2, clock, nullptr, writes);
    base_ms = clock.raw();
    report.attempted += base.attempted();
    report.failed += base.failed();
    service.reset();
    service_config.trace_sample = 1;
    service = std::make_unique<mcam::serve::QueryService>(*index, service_config);
    clock = HostClock{};
    clock.reference();
  }
  Phase phase{*service, shared, traffic, clients, derive(options.seed, options.trace ? 7 : 0)};
  phase.run(options.trace ? options.seconds / 2 : options.seconds, clock,
            options.trace ? &log : nullptr, writes);
  report.attempted += phase.attempted() + 2 * writes;
  report.failed += phase.failed();
  const mcam::serve::ServiceStats stats = service->stats();  // Before the quiescent pass.
  const double requests = static_cast<double>(std::max<std::uint64_t>(1, phase.attempted()));
  const double hot_share = static_cast<double>(phase.hot()) / requests;
  const double repeat_share = static_cast<double>(phase.repeats()) / requests;

  // The quiescent pass sees the state after the whole write stream, however
  // much of it the timed stretch got through, so its figures do not depend
  // on the host's speed.
  const std::size_t timed_writes = writes;
  for (std::size_t pair = writes; pair < traffic.fresh.size(); ++pair) {
    (void)write_pair(*service, shared, traffic, pair, nullptr);
  }

  // Quiescent pass: served answers equal direct ones, and score them.
  double recall = 0.0;
  double energy = 0.0;
  std::size_t correct_labels = 0;
  const auto is_live = [&](std::size_t id) { return id < shared.live.size() && shared.live[id] != 0; };
  for (std::size_t p = 0; p < probes.size(); ++p) {
    const mcam::serve::QueryResponse served = service->query_one(probes[p], kTopK);
    const mcam::search::QueryResult direct = index->query_one(probes[p], kTopK);
    if (served.status != mcam::serve::RequestStatus::kOk) throw CheckFailure{"quiescent query failed"};
    require(same_answer(served.result, direct), "quiescent serve pass vs direct query_one");
    require(check_answer(direct, kTopK, is_live), "quiescent answer");
    recall += overlap(ids_of(direct), exact_topk(shared.rows, shared.live, probes[p], kTopK));
    energy += direct.telemetry.energy_j;
    if (direct.label == probe_labels[p]) ++correct_labels;
  }
  const double n = static_cast<double>(probes.size());
  recall /= n;
  require(at_least("recall_at_10", recall, kRecallFloor), "serve-mixed recall vs exact FP32");
  report.notes.push_back("serve-mixed: " + std::to_string(rows_n) + " rows, spec " + kSpec + ", " +
                         std::to_string(workers) + " workers, " + std::to_string(clients) +
                         " clients, " + std::to_string(timed_writes) + " timed add/erase pairs of " +
                         std::to_string(traffic.fresh.size()) + ", hot requests " +
                         std::to_string(hot_share) + ", repeated requests " +
                         std::to_string(repeat_share) + ", cache hit " +
                         std::to_string(stats.cache_hit_rate));

  if (!options.trace) {
    const std::vector<double> lat = clock.normalised();
    const std::vector<double> raw = clock.raw();
    const double norm_s = clock.normalised_time_ms() / 1e3;
    report.metric("query_p50_ms", percentile(lat, 50), "ms");
    report.metric("query_p90_ms", percentile(lat, 90), "ms");
    report.metric("throughput_qps", static_cast<double>(lat.size()) / norm_s, "1/s");
    report.metric("episodes_per_s", static_cast<double>(clock.rounds()) / norm_s, "1/s");
    report.metric("write_p50_ms", median(clock.normalised(HostClock::kWrite)), "ms");
    report.metric("setup_s", median(setup.normalised()) / 1e3, "s");
    report.metric("energy_pj_per_query", energy / n * 1e12, "pJ");
    report.metric("recall_at_10", recall, "ratio");
    report.metric("accuracy", static_cast<double>(correct_labels) / n, "ratio");
    report.metric("peak_rss_mb", peak_rss_mb(), "MiB");
    report.raw_metric("query_p50_ms", percentile(raw, 50), "ms");
    report.raw_metric("query_p90_ms", percentile(raw, 90), "ms");
    report.raw_metric("throughput_qps", 1e3 * static_cast<double>(raw.size()) / clock.raw_time_ms(), "1/s");
    report.raw_metric("write_p50_ms", median(clock.raw(HostClock::kWrite)), "ms");
    report.raw_metric("setup_s", median(setup.raw()) / 1e3, "s");
    report.raw_metric("host.reference_ms", clock.reference_median_ms(), "ms");
    return report;
  }

  report.metric("serve.restore_ms", restore_log.self_p50_ms("snapshot-restore"), "ms");
  report.metric("serve.snapshot_bytes", static_cast<double>(blob.size()), "bytes");
  report.metric("serve.cold_build_ms", cold_build_ms, "ms");
  report.metric("serve.queue_wait_ms", log.self_p50_ms("queue-wait"), "ms");
  report.metric("serve.execute_ms", log.self_p50_ms("execute"), "ms");
  report.metric("serve.cache_probe_us", log.self_p50_ms("cache-probe") * 1e3, "us");
  report.metric("serve.cache_hit_ratio", stats.cache_hit_rate, "ratio");
  report.metric("serve.cache_hits", static_cast<double>(stats.cache_hits), "count");
  report.metric("serve.cache_lookups", static_cast<double>(stats.cache_lookups), "count");
  report.metric("serve.add_ms", log.self_p50_ms("service-add"), "ms");
  report.metric("serve.erase_ms", log.self_p50_ms("service-erase"), "ms");
  report.metric("search.bank_query_us", log.self_p50_ms("bank-query") * 1e3, "us");
  report.metric("search.bank_merge_us", log.self_p50_ms("bank-merge") * 1e3, "us");
  report.metric("search.banks_searched", log.note_mean("bank-merge", "banks"), "count");
  report.metric("obs.trace_base_ms", median(base_ms), "ms");
  report.metric("obs.trace_overhead_ms", median(clock.raw()) - median(base_ms), "ms");
  report.metric("host.reference_ms", clock.reference_median_ms(), "ms");
  return report;
}

}  // namespace perfbench
