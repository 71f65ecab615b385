#include "encoding/quantizer.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace mcam::encoding {

UniformQuantizer UniformQuantizer::fit(std::span<const std::vector<float>> rows,
                                       unsigned bits, double clip_percentile) {
  if (rows.empty()) throw std::invalid_argument{"UniformQuantizer::fit: no rows"};
  if (bits < 1 || bits > 16) throw std::invalid_argument{"UniformQuantizer::fit: bits in [1,16]"};
  if (clip_percentile < 0.0 || clip_percentile >= 50.0) {
    throw std::invalid_argument{"UniformQuantizer::fit: clip_percentile in [0,50)"};
  }
  const std::size_t width = rows.front().size();
  for (const auto& row : rows) {
    if (row.size() != width) throw std::invalid_argument{"UniformQuantizer::fit: ragged rows"};
    // NaN breaks the strict weak ordering the order statistics below rely
    // on, and an infinite range would map every finite value to one level.
    for (float v : row) {
      if (!std::isfinite(v)) {
        throw std::invalid_argument{"UniformQuantizer::fit: non-finite value"};
      }
    }
  }

  UniformQuantizer q;
  q.bits_ = bits;
  q.lo_.resize(width);
  q.hi_.resize(width);
  std::vector<float> column(rows.size());
  for (std::size_t f = 0; f < width; ++f) {
    for (std::size_t r = 0; r < rows.size(); ++r) column[r] = rows[r][f];
    // -0.0 and +0.0 compare equal, so which one a sort or selection leaves
    // at a position is unspecified; settle it as if -0.0 sorted first:
    // position i holds -0.0 iff more than i values carry the sign bit (no
    // NaN gets here, so the sign bit means "< 0 or -0.0").
    const auto settle_zero = [&column](float value, std::size_t position) {
      if (value != 0.0f) return value;
      const auto negative =
          std::count_if(column.begin(), column.end(), [](float v) { return std::signbit(v); });
      return static_cast<std::size_t>(negative) > position ? -0.0f : 0.0f;
    };
    // Each percentile interpolates two adjacent order statistics. Selecting
    // them (nth_element, then the tail minimum) is O(n) per feature and
    // yields exactly the values a full sort would put at those positions.
    const auto pick = [&column, &settle_zero](double p) {
      const double pos = p / 100.0 * static_cast<double>(column.size() - 1);
      const auto lo_idx = static_cast<std::size_t>(pos);
      const std::size_t hi_idx = std::min(lo_idx + 1, column.size() - 1);
      const double frac = pos - static_cast<double>(lo_idx);
      const auto lo_it = column.begin() + static_cast<std::ptrdiff_t>(lo_idx);
      std::nth_element(column.begin(), lo_it, column.end());
      const float lo_value = settle_zero(*lo_it, lo_idx);
      const float hi_value =
          hi_idx == lo_idx ? lo_value
                           : settle_zero(*std::min_element(lo_it + 1, column.end()), hi_idx);
      return static_cast<float>(lo_value * (1.0 - frac) + hi_value * frac);
    };
    q.lo_[f] = pick(clip_percentile);
    q.hi_[f] = pick(100.0 - clip_percentile);
    if (!(q.hi_[f] > q.lo_[f])) q.hi_[f] = q.lo_[f] + 1.0f;  // Constant feature.
  }
  return q;
}

UniformQuantizer UniformQuantizer::from_state(unsigned bits, std::vector<float> lo,
                                              std::vector<float> hi) {
  if (bits < 1 || bits > 16) {
    throw std::invalid_argument{"UniformQuantizer::from_state: bits in [1,16]"};
  }
  if (lo.empty() || lo.size() != hi.size()) {
    throw std::invalid_argument{"UniformQuantizer::from_state: bad state size"};
  }
  for (std::size_t f = 0; f < lo.size(); ++f) {
    if (!(hi[f] > lo[f])) {
      throw std::invalid_argument{"UniformQuantizer::from_state: hi <= lo"};
    }
  }
  UniformQuantizer q;
  q.bits_ = bits;
  q.lo_ = std::move(lo);
  q.hi_ = std::move(hi);
  return q;
}

std::vector<std::uint16_t> UniformQuantizer::quantize(std::span<const float> row) const {
  if (row.size() != lo_.size()) {
    throw std::invalid_argument{"UniformQuantizer::quantize: width mismatch"};
  }
  const auto levels = static_cast<float>(num_levels());
  std::vector<std::uint16_t> out(row.size());
  for (std::size_t f = 0; f < row.size(); ++f) {
    const float t = (row[f] - lo_[f]) / (hi_[f] - lo_[f]) * levels;
    const auto level = static_cast<long>(std::floor(t));
    out[f] = static_cast<std::uint16_t>(
        std::clamp<long>(level, 0, static_cast<long>(num_levels()) - 1));
  }
  return out;
}

std::vector<std::vector<std::uint16_t>> UniformQuantizer::quantize_all(
    std::span<const std::vector<float>> rows) const {
  std::vector<std::vector<std::uint16_t>> out;
  out.reserve(rows.size());
  for (const auto& row : rows) out.push_back(quantize(row));
  return out;
}

std::vector<float> UniformQuantizer::dequantize(std::span<const std::uint16_t> levels) const {
  if (levels.size() != lo_.size()) {
    throw std::invalid_argument{"UniformQuantizer::dequantize: width mismatch"};
  }
  std::vector<float> out(levels.size());
  const auto n = static_cast<float>(num_levels());
  for (std::size_t f = 0; f < levels.size(); ++f) {
    const float step = (hi_[f] - lo_[f]) / n;
    out[f] = lo_[f] + (static_cast<float>(levels[f]) + 0.5f) * step;
  }
  return out;
}

}  // namespace mcam::encoding
