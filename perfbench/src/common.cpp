#include "common.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>
#include <utility>

namespace perfbench {

void require(const std::optional<std::string>& message, const std::string& what) {
  if (message) throw CheckFailure{what + ": " + *message};
}

// --- Inputs -----------------------------------------------------------------

std::uint64_t Gen::next() {
  std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

double Gen::uniform() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }

double Gen::normal() {
  const double u1 = 1.0 - uniform();  // (0, 1]: log stays finite.
  const double u2 = uniform();
  return std::sqrt(-2.0 * std::log(u1)) * std::cos(6.283185307179586 * u2);
}

std::uint64_t derive(std::uint64_t seed, std::uint64_t stream) {
  Gen gen{seed ^ (stream * 0xd1b54a32d192ed03ULL)};
  return gen.next();
}

ClusteredSource::ClusteredSource(std::size_t dim, std::size_t clusters,
                                 std::size_t intrinsic_dim, double noise_sigma,
                                 std::uint64_t seed)
    : noise_sigma_(noise_sigma), centers_(clusters, std::vector<float>(dim, 0.0f)) {
  Gen gen{seed};
  Rows basis(intrinsic_dim, std::vector<float>(dim));
  for (auto& b : basis) {
    for (auto& v : b) v = static_cast<float>(gen.normal());
  }
  for (auto& c : centers_) {
    for (const auto& b : basis) {
      const auto weight = static_cast<float>(gen.normal());
      for (std::size_t i = 0; i < dim; ++i) c[i] += weight * b[i];
    }
  }
}

std::vector<float> ClusteredSource::sample(std::size_t cluster, Gen& gen) const {
  const std::vector<float>& c = centers_[cluster % centers_.size()];
  std::vector<float> v(c.size());
  for (std::size_t i = 0; i < c.size(); ++i) {
    v[i] = c[i] + static_cast<float>(noise_sigma_ * gen.normal());
  }
  return v;
}

// --- Host clock ---------------------------------------------------------------

double reference_kernel_ms() {
  // Frozen: 192 rows x 512 cells, one exp() and one multiply-add per cell,
  // over a 768 KiB table. Do not edit.
  constexpr std::size_t kRows = 192;
  constexpr std::size_t kCells = 512;
  static const std::vector<double> table = [] {
    std::vector<double> t(kRows * kCells);
    Gen gen{20210301};
    for (double& v : t) v = gen.uniform() * 2.0 - 1.0;
    return t;
  }();
  static volatile double sink = 0.0;
  const auto start = Clock::now();
  double total = 0.0;
  for (std::size_t r = 0; r < kRows; ++r) {
    double row = 0.0;
    for (std::size_t c = 0; c < kCells; ++c) {
      const double d = table[r * kCells + c] - table[c];
      row += std::exp(-4.0 * d * d) * 1.5e-6 + d * 1e-9;
    }
    total += row;
  }
  sink = sink + total;
  return ms_since(start);
}

double reference_sample_ms() {
  double runs[3] = {reference_kernel_ms(), reference_kernel_ms(), reference_kernel_ms()};
  std::sort(std::begin(runs), std::end(runs));
  return runs[1];
}

void HostClock::reference() {
  const double ref = reference_sample_ms();
  if (open_) {
    rounds_.push_back(Round{std::move(pending_), pending_round_ms_, references_.size() - 1});
    pending_ = Samples{};
    pending_round_ms_ = 0.0;
    open_ = false;
  }
  references_.push_back(ref);
}

void HostClock::begin_round() {
  if (references_.empty()) throw std::logic_error{"HostClock: round before a reference"};
  open_ = true;
}

double HostClock::scale(const Round& round) const {
  const std::size_t from = round.first_ref > kWindow ? round.first_ref - kWindow : 0;
  const std::size_t to = std::min(references_.size(), round.first_ref + kWindow + 2);
  return kReferenceNominalMs /
         median(std::vector<double>(references_.begin() + static_cast<std::ptrdiff_t>(from),
                                    references_.begin() + static_cast<std::ptrdiff_t>(to)));
}

std::vector<double> HostClock::normalised(Series series) const {
  std::vector<double> out;
  for (const Round& round : rounds_) {
    const double factor = scale(round);
    for (double s : round.samples[series]) out.push_back(s * factor);
  }
  return out;
}

std::vector<double> HostClock::raw(Series series) const {
  std::vector<double> out;
  for (const Round& round : rounds_) {
    out.insert(out.end(), round.samples[series].begin(), round.samples[series].end());
  }
  return out;
}

double HostClock::normalised_time_ms() const {
  double total = 0.0;
  for (const Round& round : rounds_) total += round.time_ms * scale(round);
  return total;
}

double HostClock::raw_time_ms() const {
  double total = 0.0;
  for (const Round& round : rounds_) total += round.time_ms;
  return total;
}

double HostClock::reference_median_ms() const { return median(references_); }

// --- Statistics -------------------------------------------------------------------

double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<std::size_t>(std::ceil(p / 100.0 * static_cast<double>(values.size())));
  return values[std::clamp<std::size_t>(rank, 1, values.size()) - 1];
}

double mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  return std::accumulate(values.begin(), values.end(), 0.0) / static_cast<double>(values.size());
}

std::vector<double> per_input_medians(const std::vector<double>& samples,
                                      const std::vector<std::size_t>& inputs, std::size_t per_input) {
  if (samples.size() != inputs.size()) throw std::logic_error{"per_input_medians: size mismatch"};
  std::vector<std::vector<double>> by_input;
  for (std::size_t i = 0; i < samples.size(); ++i) {
    if (inputs[i] >= by_input.size()) by_input.resize(inputs[i] + 1);
    if (by_input[inputs[i]].size() < per_input) by_input[inputs[i]].push_back(samples[i]);
  }
  std::vector<double> out;
  for (std::vector<double>& input : by_input) {
    if (!input.empty()) out.push_back(median(std::move(input)));
  }
  return out;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux.
}

// --- Oracles ------------------------------------------------------------------------

std::vector<std::size_t> exact_topk(const Rows& rows, const std::vector<std::uint8_t>& live,
                                    std::span<const float> query, std::size_t k) {
  std::vector<std::pair<double, std::size_t>> scored;
  scored.reserve(rows.size());
  for (std::size_t r = 0; r < rows.size(); ++r) {
    if (!live.empty() && live[r] == 0) continue;
    double d2 = 0.0;
    for (std::size_t i = 0; i < query.size(); ++i) {
      const double d = static_cast<double>(rows[r][i]) - static_cast<double>(query[i]);
      d2 += d * d;
    }
    scored.emplace_back(d2, r);
  }
  const std::size_t kk = std::min(k, scored.size());
  std::partial_sort(scored.begin(), scored.begin() + static_cast<std::ptrdiff_t>(kk), scored.end());
  std::vector<std::size_t> ids(kk);
  for (std::size_t i = 0; i < kk; ++i) ids[i] = scored[i].second;
  return ids;
}

double overlap(std::span<const std::size_t> answer, std::span<const std::size_t> truth) {
  if (truth.empty()) return 0.0;
  std::size_t hits = 0;
  for (std::size_t id : truth) {
    if (std::find(answer.begin(), answer.end(), id) != answer.end()) ++hits;
  }
  return static_cast<double>(hits) / static_cast<double>(truth.size());
}

std::vector<std::size_t> ids_of(const mcam::search::QueryResult& result) {
  std::vector<std::size_t> ids;
  ids.reserve(result.neighbors.size());
  for (const auto& n : result.neighbors) ids.push_back(n.index);
  return ids;
}

std::optional<std::string> same_answer(const mcam::search::QueryResult& got,
                                       const mcam::search::QueryResult& want) {
  if (got.neighbors.size() != want.neighbors.size()) {
    return "answer has " + std::to_string(got.neighbors.size()) + " neighbors, expected " +
           std::to_string(want.neighbors.size());
  }
  if (got.label != want.label) return std::string{"labels differ"};
  for (std::size_t i = 0; i < got.neighbors.size(); ++i) {
    const auto& g = got.neighbors[i];
    const auto& w = want.neighbors[i];
    if (g.index != w.index || g.label != w.label || g.distance != w.distance) {
      return "answers differ at rank " + std::to_string(i) + " (id " + std::to_string(g.index) +
             " vs " + std::to_string(w.index) + ")";
    }
  }
  return std::nullopt;
}

std::optional<std::string> at_least(const char* what, double value, double floor) {
  if (value >= floor) return std::nullopt;
  return std::string{what} + " " + std::to_string(value) + " is below its floor " +
         std::to_string(floor);
}

std::optional<std::string> check_fewshot_accuracy(double cam, double fp32, std::size_t ways,
                                                  double margin) {
  if (cam < fp32 - margin) {
    return "CAM accuracy " + std::to_string(cam) + " trails FP32 1-NN " + std::to_string(fp32) +
           " by more than " + std::to_string(margin);
  }
  return at_least("CAM accuracy", cam, 2.0 / static_cast<double>(ways));
}

int fp32_nearest_label(const Rows& support, std::span<const int> labels,
                       std::span<const float> query) {
  return labels[exact_topk(support, {}, query, 1).front()];
}

// --- Tracing --------------------------------------------------------------------------

void SpanLog::add(const mcam::obs::TraceRecord& record) {
  constexpr double kSlack = 1e-6;  // ms; start + elapsed rounding.
  const auto& spans = record.spans;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const double s = spans[i].start_ms;
    const double e = s + spans[i].elapsed_ms;
    // Union of the nested spans' intervals. Spans complete in order, so of
    // two spans with the same interval the earlier one is the child.
    std::vector<std::pair<double, double>> inner;
    for (std::size_t j = 0; j < spans.size(); ++j) {
      if (j == i) continue;
      const double cs = spans[j].start_ms;
      const double ce = cs + spans[j].elapsed_ms;
      const bool same = std::abs(cs - s) <= kSlack && std::abs(ce - e) <= kSlack;
      if (cs >= s - kSlack && ce <= e + kSlack && (!same || j < i)) inner.emplace_back(cs, ce);
    }
    std::sort(inner.begin(), inner.end());
    double covered = 0.0;
    double reach = s;
    for (const auto& [cs, ce] : inner) {
      const double from = std::max(cs, reach);
      if (ce > from) {
        covered += ce - from;
        reach = ce;
      }
    }
    self_ms_[spans[i].name].push_back(std::max(0.0, spans[i].elapsed_ms - covered));
    for (const auto& [key, value] : spans[i].notes) {
      notes_[std::string{spans[i].name} + "/" + key].push_back(value);
    }
  }
}

double SpanLog::self_p50_ms(const std::string& span) const {
  const auto it = self_ms_.find(span);
  return it == self_ms_.end() ? 0.0 : median(it->second);
}

double SpanLog::note_mean(const std::string& span, const std::string& key) const {
  const auto it = notes_.find(span + "/" + key);
  return it == notes_.end() ? 0.0 : mean(it->second);
}

double SpanLog::all_self_sum_ms() const {
  double total = 0.0;
  for (const auto& [name, values] : self_ms_) {
    total += std::accumulate(values.begin(), values.end(), 0.0);
  }
  return total;
}

}  // namespace perfbench
