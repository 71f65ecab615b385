#include "cam/tcam.hpp"

#include "util/linalg.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>

namespace mcam::cam {

TcamArray::TcamArray(const TcamArrayConfig& config)
    : config_(config), map_(1), rng_(config.seed) {
  for (std::size_t stored = 0; stored < 3; ++stored) {
    for (std::uint8_t input = 0; input < 2; ++input) {
      nominal_[stored][input] = cell_conductance(stored, input, 0.0f, 0.0f);
    }
  }
}

std::size_t TcamArray::add_row(std::span<const Trit> word) {
  if (word.empty()) throw std::invalid_argument{"TcamArray::add_row: empty word"};
  if (full()) {
    throw std::length_error{"TcamArray::add_row: bank is full (max_rows = " +
                            std::to_string(config_.max_rows) + ")"};
  }
  if (word_length_ != 0 && word.size() != word_length_) {
    throw std::invalid_argument{"TcamArray::add_row: word length mismatch"};
  }
  // Validate every symbol before the Rng draws anything, so a rejected row
  // leaves no trace a snapshot replay could miss.
  for (Trit t : word) {
    if (t > Trit::kDontCare) {
      throw std::invalid_argument{"TcamArray::add_row: trit out of range"};
    }
  }
  word_length_ = word.size();
  const std::size_t first_cell = trits_.size();
  trits_.insert(trits_.end(), word.begin(), word.end());
  const bool noisy = config_.vth_sigma > 0.0 || config_.drift_sigma > 0.0;
  if (noisy || !offsets_.empty()) {
    // Zero-fills the earlier rows when this is the first offset.
    offsets_.resize(2 * trits_.size(), 0.0f);
  }
  if (noisy) {
    for (std::size_t c = first_cell; c < trits_.size(); ++c) {
      float& dvth_left = offsets_[2 * c];
      float& dvth_right = offsets_[2 * c + 1];
      if (config_.vth_sigma > 0.0) {
        dvth_left = static_cast<float>(rng_.normal(0.0, config_.vth_sigma));
        dvth_right = static_cast<float>(rng_.normal(0.0, config_.vth_sigma));
      }
      if (config_.drift_sigma > 0.0) {
        dvth_left += static_cast<float>(rng_.normal(0.0, config_.drift_sigma));
        dvth_right += static_cast<float>(rng_.normal(0.0, config_.drift_sigma));
      }
    }
  }
  valid_.push_back(1);
  ++valid_rows_;
  return valid_.size() - 1;
}

std::size_t TcamArray::add_row_bits(std::span<const std::uint8_t> bits) {
  std::vector<Trit> word;
  word.reserve(bits.size());
  for (std::uint8_t b : bits) word.push_back(b ? Trit::kOne : Trit::kZero);
  return add_row(word);
}

void TcamArray::clear() noexcept {
  trits_.clear();
  offsets_.clear();
  valid_.clear();
  valid_rows_ = 0;
  word_length_ = 0;
}

bool TcamArray::invalidate_row(std::size_t i) {
  if (i >= num_rows()) throw std::out_of_range{"TcamArray::invalidate_row: bad row"};
  if (!valid_[i]) return false;
  valid_[i] = 0;
  --valid_rows_;
  return true;
}

std::vector<Trit> TcamArray::row_trits(std::size_t i) const {
  if (i >= num_rows()) throw std::out_of_range{"TcamArray::row_trits: bad row"};
  const auto first = trits_.begin() + static_cast<std::ptrdiff_t>(i * word_length_);
  return {first, first + static_cast<std::ptrdiff_t>(word_length_)};
}

std::vector<Trit> TcamArray::row_readback(std::size_t i) const {
  if (i >= num_rows()) throw std::out_of_range{"TcamArray::row_readback: bad row"};
  // Nominal (right, left) Vth targets per candidate trit; kDontCare erases
  // both FeFETs to the top of the range.
  const double targets[3][2] = {
      {map_.right_fefet_vth(0), map_.left_fefet_vth(0)},
      {map_.right_fefet_vth(1), map_.left_fefet_vth(1)},
      {map_.v_max(), map_.v_max()},
  };
  std::vector<Trit> word;
  word.reserve(word_length_);
  for (std::size_t c = i * word_length_; c < (i + 1) * word_length_; ++c) {
    const std::size_t stored = static_cast<std::size_t>(trits_[c]);
    const float dvth_left = offsets_.empty() ? 0.0f : offsets_[2 * c];
    const float dvth_right = offsets_.empty() ? 0.0f : offsets_[2 * c + 1];
    const double right = targets[stored][0] + dvth_right;
    const double left = targets[stored][1] + dvth_left;
    std::size_t best = 0;
    double best_d = std::numeric_limits<double>::infinity();
    for (std::size_t t = 0; t < 3; ++t) {
      const double dr = targets[t][0] - right;
      const double dl = targets[t][1] - left;
      const double d = dr * dr + dl * dl;
      if (d < best_d) {
        best_d = d;
        best = t;
      }
    }
    word.push_back(static_cast<Trit>(best));
  }
  return word;
}

RowHealth TcamArray::row_health(std::size_t i) const {
  const std::vector<Trit> readback = row_readback(i);  // bounds-checks i
  RowHealth health;
  health.cells = word_length_;
  for (std::size_t c = 0; c < word_length_; ++c) {
    const std::size_t cell = i * word_length_ + c;
    if (readback[c] != trits_[cell]) ++health.mismatched;
    if (offsets_.empty()) continue;  // Every shift is zero.
    const double shift = std::max(std::abs(static_cast<double>(offsets_[2 * cell])),
                                  std::abs(static_cast<double>(offsets_[2 * cell + 1])));
    health.sum_abs_shift_v += shift;
    health.max_abs_shift_v = std::max(health.max_abs_shift_v, shift);
  }
  return health;
}

std::size_t TcamArray::apply_drift(double sigma, std::uint64_t seed) {
  if (sigma <= 0.0 || trits_.empty()) return 0;
  Rng rng{seed};
  offsets_.resize(2 * trits_.size(), 0.0f);
  for (float& offset : offsets_) {  // (left, right) per cell, row-major.
    offset += static_cast<float>(rng.normal(0.0, sigma));
  }
  return trits_.size();
}

bool TcamArray::row_valid(std::size_t i) const {
  if (i >= num_rows()) throw std::out_of_range{"TcamArray::row_valid: bad row"};
  return valid_[i] != 0;
}

double TcamArray::cell_conductance(std::size_t stored, std::uint8_t input, float dvth_left,
                                   float dvth_right) const {
  const double v_in = map_.input_voltage(input ? 1 : 0);
  // kDontCare erases both FeFETs to the top of the Vth range: neither
  // input level can turn them on; only leakage remains.
  const bool dont_care = stored == static_cast<std::size_t>(Trit::kDontCare);
  const double vth_right = dont_care ? map_.v_max() : map_.right_fefet_vth(stored);
  const double vth_left = dont_care ? map_.v_max() : map_.left_fefet_vth(stored);
  const double od_right = v_in - (vth_right + dvth_right);
  const double od_left = map_.invert(v_in) - (vth_left + dvth_left);
  return fefet::channel_conductance(config_.channel, od_right) +
         fefet::channel_conductance(config_.channel, od_left);
}

void TcamArray::sweep(std::span<const Trit> query, const std::size_t* rows,
                      std::span<double> out) const {
  const std::size_t width = word_length_;
  const auto row_cells = [&](std::size_t i) {
    return (rows != nullptr ? rows[i] : i) * width;
  };
  if (!offsets_.empty()) {
    // Some cell carries a Vth offset: evaluate every cell from its own
    // effective Vth pair.
    for (std::size_t i = 0; i < out.size(); ++i) {
      const std::size_t first = row_cells(i);
      double g_total = 0.0;
      for (std::size_t c = 0; c < width; ++c) {
        if (query[c] == Trit::kDontCare) continue;  // Both search lines low.
        const std::size_t cell = first + c;
        g_total += cell_conductance(static_cast<std::size_t>(trits_[cell]),
                                    query[c] == Trit::kOne ? 1 : 0, offsets_[2 * cell],
                                    offsets_[2 * cell + 1]);
      }
      out[i] = g_total;
    }
    return;
  }
  // Offset-free cells: one table entry per (stored trit, query column).
  // Don't-care query columns contribute nothing and are left out.
  struct Column {
    std::size_t index;
    double g[3];  ///< Conductance per stored trit.
  };
  std::vector<Column> columns;
  columns.reserve(width);
  for (std::size_t c = 0; c < width; ++c) {
    if (query[c] == Trit::kDontCare) continue;
    const std::uint8_t bit = query[c] == Trit::kOne ? 1 : 0;
    columns.push_back({c, {nominal_[0][bit], nominal_[1][bit], nominal_[2][bit]}});
  }
  const auto* cells = reinterpret_cast<const std::uint8_t*>(trits_.data());
  // Eight rows in lockstep give the adder eight independent chains; each
  // row still sums its own cells in column order, so the result is the
  // same sequential sum as the one-row loop below.
  constexpr std::size_t kLanes = 8;
  std::size_t i = 0;
  for (; i + kLanes <= out.size(); i += kLanes) {
    const std::uint8_t* row[kLanes];
    double g_total[kLanes];
    for (std::size_t lane = 0; lane < kLanes; ++lane) {
      row[lane] = cells + row_cells(i + lane);
      g_total[lane] = 0.0;
    }
    for (const Column& column : columns) {
      for (std::size_t lane = 0; lane < kLanes; ++lane) {
        g_total[lane] += column.g[row[lane][column.index]];
      }
    }
    for (std::size_t lane = 0; lane < kLanes; ++lane) out[i + lane] = g_total[lane];
  }
  for (; i < out.size(); ++i) {
    const std::uint8_t* row = cells + row_cells(i);
    double g_total = 0.0;
    for (const Column& column : columns) g_total += column.g[row[column.index]];
    out[i] = g_total;
  }
}

std::vector<double> TcamArray::search_conductances(
    std::span<const std::uint8_t> query) const {
  std::vector<Trit> word;
  word.reserve(query.size());
  for (std::uint8_t b : query) word.push_back(b ? Trit::kOne : Trit::kZero);
  return search_conductances(std::span<const Trit>{word});
}

std::vector<double> TcamArray::search_conductances(std::span<const Trit> query) const {
  if (query.size() != word_length_) {
    throw std::invalid_argument{"TcamArray::search: query length mismatch"};
  }
  std::vector<double> totals(num_rows());
  sweep(query, nullptr, totals);
  return totals;
}

std::vector<double> TcamArray::search_conductances(std::span<const Trit> query,
                                                   std::span<const std::size_t> rows) const {
  if (query.size() != word_length_) {
    throw std::invalid_argument{"TcamArray::search: query length mismatch"};
  }
  for (std::size_t r : rows) {
    if (r >= num_rows()) throw std::out_of_range{"TcamArray::search: bad row"};
  }
  std::vector<double> totals(rows.size());
  sweep(query, rows.data(), totals);
  return totals;
}

std::vector<std::uint8_t> TcamArray::ternary_match_mask(
    std::span<const Trit> query) const {
  if (query.size() != word_length_) {
    throw std::invalid_argument{"TcamArray::ternary_match_mask: query length mismatch"};
  }
  std::vector<std::uint8_t> mask;
  mask.reserve(num_rows());
  for (std::size_t first = 0; first < trits_.size(); first += word_length_) {
    std::uint8_t match = 1;
    for (std::size_t i = 0; i < word_length_; ++i) {
      const Trit stored = trits_[first + i];
      if (query[i] == Trit::kDontCare || stored == Trit::kDontCare) continue;
      if (stored != query[i]) {
        match = 0;
        break;
      }
    }
    mask.push_back(match);
  }
  return mask;
}

std::vector<std::size_t> TcamArray::hamming_distances(
    std::span<const std::uint8_t> query) const {
  if (query.size() != word_length_) {
    throw std::invalid_argument{"TcamArray::hamming_distances: query length mismatch"};
  }
  std::vector<std::size_t> distances;
  distances.reserve(num_rows());
  for (std::size_t first = 0; first < trits_.size(); first += word_length_) {
    std::size_t d = 0;
    for (std::size_t i = 0; i < word_length_; ++i) {
      const Trit stored = trits_[first + i];
      if (stored == Trit::kDontCare) continue;
      if ((stored == Trit::kOne) != (query[i] != 0)) ++d;
    }
    distances.push_back(d);
  }
  return distances;
}

SearchOutcome TcamArray::nearest(std::span<const std::uint8_t> query) const {
  if (valid_rows_ == 0) throw std::logic_error{"TcamArray::nearest: array is empty"};
  SearchOutcome outcome;
  outcome.row_conductance = search_conductances(query);
  if (config_.sensing == SensingMode::kMatchlineTiming) {
    const circuit::Matchline ml{config_.matchline, word_length_};
    const circuit::WinnerTakeAllSense sense{ml, config_.sense_clock_period};
    outcome.sense = sense.sense(outcome.row_conductance);
    outcome.row = outcome.sense.winner;
    if (!valid_[outcome.row]) {
      outcome.row = rank_by_sensing(outcome.row_conductance, valid_, config_.sensing,
                                    config_.matchline, word_length_,
                                    config_.sense_clock_period, 1)
                        .front();
    }
  } else {
    outcome.row = rank_by_sensing(outcome.row_conductance, valid_, config_.sensing,
                                  config_.matchline, word_length_,
                                  config_.sense_clock_period, 1)
                      .front();
  }
  outcome.conductance = outcome.row_conductance[outcome.row];
  return outcome;
}

std::vector<std::size_t> TcamArray::exact_matches(std::span<const std::uint8_t> query,
                                                  double g_match_limit_per_cell) const {
  const std::vector<double> totals = search_conductances(query);
  const double limit = g_match_limit_per_cell * static_cast<double>(word_length_);
  std::vector<std::size_t> matches;
  for (std::size_t r = 0; r < totals.size(); ++r) {
    if (valid_[r] && totals[r] <= limit) matches.push_back(r);
  }
  return matches;
}

}  // namespace mcam::cam
