#include "cam/tcam.hpp"

#include "fefet/device.hpp"
#include "sig/multiprobe.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <utility>
#include <vector>

namespace mcam::cam {
namespace {

std::vector<std::uint8_t> bits(std::initializer_list<int> values) {
  std::vector<std::uint8_t> out;
  for (int v : values) out.push_back(static_cast<std::uint8_t>(v));
  return out;
}

TEST(TcamArray, HammingDistances) {
  TcamArray tcam{TcamArrayConfig{}};
  tcam.add_row_bits(bits({0, 0, 0, 0}));
  tcam.add_row_bits(bits({1, 1, 1, 1}));
  tcam.add_row_bits(bits({1, 0, 1, 0}));
  const auto d = tcam.hamming_distances(bits({0, 0, 0, 0}));
  EXPECT_EQ(d, (std::vector<std::size_t>{0, 4, 2}));
}

TEST(TcamArray, DontCareMatchesBoth) {
  TcamArray tcam{TcamArrayConfig{}};
  const std::vector<Trit> word{Trit::kOne, Trit::kDontCare, Trit::kZero};
  tcam.add_row(word);
  EXPECT_EQ(tcam.hamming_distances(bits({1, 0, 0}))[0], 0u);
  EXPECT_EQ(tcam.hamming_distances(bits({1, 1, 0}))[0], 0u);
  EXPECT_EQ(tcam.hamming_distances(bits({0, 1, 0}))[0], 1u);
}

TEST(TcamArray, ElectricalOrderingMatchesHamming) {
  TcamArray tcam{TcamArrayConfig{}};
  Rng rng{3};
  std::vector<std::vector<std::uint8_t>> rows;
  for (int r = 0; r < 10; ++r) {
    std::vector<std::uint8_t> word(32);
    for (auto& b : word) b = rng.bernoulli(0.5) ? 1 : 0;
    rows.push_back(word);
    tcam.add_row_bits(word);
  }
  for (int q = 0; q < 10; ++q) {
    std::vector<std::uint8_t> query(32);
    for (auto& b : query) b = rng.bernoulli(0.5) ? 1 : 0;
    const auto g = tcam.search_conductances(query);
    const auto d = tcam.hamming_distances(query);
    for (std::size_t i = 0; i < g.size(); ++i) {
      for (std::size_t j = 0; j < g.size(); ++j) {
        if (d[i] < d[j]) {
          EXPECT_LT(g[i], g[j]);
        }
      }
    }
  }
}

TEST(TcamArray, NearestIsMinimumHamming) {
  TcamArray tcam{TcamArrayConfig{}};
  tcam.add_row_bits(bits({1, 1, 0, 0, 1}));
  tcam.add_row_bits(bits({0, 1, 0, 0, 1}));
  tcam.add_row_bits(bits({1, 1, 1, 1, 1}));
  const SearchOutcome outcome = tcam.nearest(bits({0, 1, 0, 0, 0}));
  EXPECT_EQ(outcome.row, 1u);
}

TEST(TcamArray, MatchlineTimingAgreesWithIdeal) {
  TcamArrayConfig ideal_config;
  TcamArrayConfig timing_config;
  timing_config.sensing = SensingMode::kMatchlineTiming;
  TcamArray ideal{ideal_config};
  TcamArray timing{timing_config};
  Rng rng{7};
  for (int r = 0; r < 8; ++r) {
    std::vector<std::uint8_t> word(24);
    for (auto& b : word) b = rng.bernoulli(0.5) ? 1 : 0;
    ideal.add_row_bits(word);
    timing.add_row_bits(word);
  }
  for (int q = 0; q < 15; ++q) {
    std::vector<std::uint8_t> query(24);
    for (auto& b : query) b = rng.bernoulli(0.5) ? 1 : 0;
    EXPECT_EQ(ideal.nearest(query).row, timing.nearest(query).row);
  }
}

TEST(TcamArray, ExactMatchOnlyAtZeroDistance) {
  TcamArray tcam{TcamArrayConfig{}};
  tcam.add_row_bits(bits({1, 0, 1}));
  tcam.add_row_bits(bits({1, 1, 1}));
  const auto matches = tcam.exact_matches(bits({1, 0, 1}), 10e-9);
  ASSERT_EQ(matches.size(), 1u);
  EXPECT_EQ(matches[0], 0u);
}

TEST(TcamArray, AllDontCareRowMatchesEverything) {
  TcamArray tcam{TcamArrayConfig{}};
  const std::vector<Trit> wildcard(6, Trit::kDontCare);
  tcam.add_row(wildcard);
  Rng rng{11};
  for (int q = 0; q < 8; ++q) {
    std::vector<std::uint8_t> query(6);
    for (auto& b : query) b = rng.bernoulli(0.5) ? 1 : 0;
    EXPECT_EQ(tcam.hamming_distances(query)[0], 0u);
    EXPECT_FALSE(tcam.exact_matches(query, 10e-9).empty());
  }
}

TEST(TcamArray, Validation) {
  TcamArray tcam{TcamArrayConfig{}};
  EXPECT_THROW((void)tcam.add_row(std::vector<Trit>{}), std::invalid_argument);
  tcam.add_row_bits(bits({1, 0}));
  EXPECT_THROW((void)tcam.add_row_bits(bits({1, 0, 1})), std::invalid_argument);
  EXPECT_THROW((void)tcam.search_conductances(bits({1})), std::invalid_argument);
  EXPECT_THROW((void)tcam.hamming_distances(bits({1, 0, 1})), std::invalid_argument);
}

TEST(TcamArray, NearestOnEmptyThrows) {
  TcamArray tcam{TcamArrayConfig{}};
  EXPECT_THROW((void)tcam.nearest(bits({1})), std::logic_error);
}

TEST(TcamArray, ClearResets) {
  TcamArray tcam{TcamArrayConfig{}};
  tcam.add_row_bits(bits({1, 1}));
  tcam.clear();
  EXPECT_EQ(tcam.num_rows(), 0u);
  tcam.add_row_bits(bits({1, 1, 1}));
  EXPECT_EQ(tcam.word_length(), 3u);
}

TEST(TcamArray, MultiProbeSweepMatchesFlippedHammingDistances) {
  // Each multi-probe flip mask perturbs the query signature; the TCAM
  // sweep for that probe must rank by the Hamming distance to the flipped
  // query, and the per-row best across probes must equal the analytic
  // min-over-probes distance.
  TcamArray tcam{TcamArrayConfig{}};
  Rng rng{13};
  std::vector<std::vector<std::uint8_t>> rows;
  for (int r = 0; r < 12; ++r) {
    std::vector<std::uint8_t> word(10);
    for (auto& b : word) b = rng.bernoulli(0.5) ? 1 : 0;
    rows.push_back(word);
    tcam.add_row_bits(word);
  }
  std::vector<std::uint8_t> query(10);
  std::vector<float> margins(10);
  for (std::size_t i = 0; i < 10; ++i) {
    query[i] = rng.bernoulli(0.5) ? 1 : 0;
    margins[i] = static_cast<float>(rng.normal(0.0, 1.0));
  }
  const auto probes = sig::MultiProbe::sequence(margins, 6);
  ASSERT_EQ(probes.size(), 6u);
  std::vector<std::size_t> best_distance(12, SIZE_MAX);
  std::vector<double> best_conductance(12, 1e30);
  for (const auto& flips : probes) {
    std::vector<std::uint8_t> probe_query = query;
    for (std::size_t bit : flips) probe_query[bit] ^= 1u;
    const auto g = tcam.search_conductances(probe_query);
    const auto d = tcam.hamming_distances(probe_query);
    for (std::size_t i = 0; i < 12; ++i) {
      // Per-probe electrical ordering still tracks Hamming distance.
      for (std::size_t j = 0; j < 12; ++j) {
        if (d[i] < d[j]) {
          EXPECT_LT(g[i], g[j]);
        }
      }
      best_distance[i] = std::min(best_distance[i], d[i]);
      best_conductance[i] = std::min(best_conductance[i], g[i]);
    }
  }
  // Best-of-probes conductance orders rows exactly like the analytic
  // min-over-probes Hamming distance.
  for (std::size_t i = 0; i < 12; ++i) {
    for (std::size_t j = 0; j < 12; ++j) {
      if (best_distance[i] < best_distance[j]) {
        EXPECT_LT(best_conductance[i], best_conductance[j]);
      }
    }
  }
}

TEST(TcamArray, TombstonedRowsNeverNominatedAcrossAnyProbe) {
  // Validity latches gate the ranking, not the sweep: a tombstoned row
  // still has a conductance, but it must never appear in the nomination,
  // no matter which probe would have matched it best.
  TcamArray tcam{TcamArrayConfig{}};
  Rng rng{29};
  for (int r = 0; r < 16; ++r) {
    std::vector<std::uint8_t> word(8);
    for (auto& b : word) b = rng.bernoulli(0.5) ? 1 : 0;
    tcam.add_row_bits(word);
  }
  std::set<std::size_t> dead;
  for (std::size_t id : {std::size_t{0}, std::size_t{5}, std::size_t{6},
                         std::size_t{11}, std::size_t{15}}) {
    ASSERT_TRUE(tcam.invalidate_row(id));
    dead.insert(id);
  }
  EXPECT_EQ(tcam.num_valid(), 11u);

  std::vector<std::uint8_t> query(8);
  std::vector<float> margins(8);
  for (std::size_t i = 0; i < 8; ++i) {
    query[i] = rng.bernoulli(0.5) ? 1 : 0;
    margins[i] = static_cast<float>(rng.normal(0.0, 1.0));
  }
  // The pipeline's best-of-probes reduction: min conductance per row.
  const auto probes = sig::MultiProbe::sequence(margins, 8);
  std::vector<double> best = tcam.search_conductances(query);
  for (std::size_t p = 1; p < probes.size(); ++p) {
    std::vector<std::uint8_t> probe_query = query;
    for (std::size_t bit : probes[p]) probe_query[bit] ^= 1u;
    const auto g = tcam.search_conductances(probe_query);
    for (std::size_t i = 0; i < best.size(); ++i) best[i] = std::min(best[i], g[i]);
  }
  for (std::size_t k = 1; k <= 11; ++k) {
    const auto ranked = rank_by_sensing(best, tcam.valid_mask(), SensingMode::kIdealSum,
                                        circuit::MatchlineParams{}, tcam.word_length(),
                                        0.0, k);
    EXPECT_EQ(ranked.size(), k);
    for (std::size_t row : ranked) {
      EXPECT_FALSE(dead.count(row)) << "tombstoned row " << row << " nominated at k=" << k;
    }
  }
  // k past the valid count clamps to the survivors - dead rows never
  // backfill the nomination.
  const auto all = rank_by_sensing(best, tcam.valid_mask(), SensingMode::kIdealSum,
                                   circuit::MatchlineParams{}, tcam.word_length(), 0.0,
                                   16);
  EXPECT_EQ(all.size(), 11u);
  for (std::size_t row : all) EXPECT_FALSE(dead.count(row));
}

TEST(TcamArray, TernaryQueryMatchesBinaryWhenAllBitsDefinite) {
  // A ternary query with no don't-cares drives the same search lines the
  // binary overload does, so the conductances must be bit-identical.
  TcamArrayConfig config;
  config.vth_sigma = 0.03;  // Programming noise must not break the identity.
  config.seed = 11;
  TcamArray tcam{config};
  Rng rng{17};
  for (int r = 0; r < 12; ++r) {
    std::vector<std::uint8_t> word(16);
    for (auto& b : word) b = rng.bernoulli(0.5) ? 1 : 0;
    tcam.add_row_bits(word);
  }
  for (int q = 0; q < 6; ++q) {
    std::vector<std::uint8_t> query(16);
    std::vector<Trit> trits(16);
    for (std::size_t i = 0; i < query.size(); ++i) {
      query[i] = rng.bernoulli(0.5) ? 1 : 0;
      trits[i] = query[i] != 0 ? Trit::kOne : Trit::kZero;
    }
    const auto binary = tcam.search_conductances(query);
    const auto ternary = tcam.search_conductances(std::span<const Trit>{trits});
    ASSERT_EQ(binary.size(), ternary.size());
    for (std::size_t r = 0; r < binary.size(); ++r) {
      EXPECT_EQ(binary[r], ternary[r]) << "row " << r;  // Bit-exact, not approx.
    }
  }
}

TEST(TcamArray, TernaryDontCareColumnsContributeZeroConductance) {
  // Query-side kDontCare = both search lines low: the column's cells see
  // no gate drive, so they add zero conductance to every matchline - the
  // physics the tag band's masked ranking sweep relies on.
  TcamArray tcam{TcamArrayConfig{}};
  tcam.add_row_bits(bits({1, 0, 1, 0}));
  tcam.add_row_bits(bits({0, 1, 0, 1}));

  const std::vector<Trit> blind(4, Trit::kDontCare);
  for (double g : tcam.search_conductances(std::span<const Trit>{blind})) {
    EXPECT_DOUBLE_EQ(g, 0.0);
  }

  // Masking a mismatching column removes exactly its contribution: the
  // remaining columns read identically to a binary query over them.
  const std::vector<Trit> partial{Trit::kOne, Trit::kDontCare, Trit::kOne,
                                  Trit::kDontCare};
  const auto masked = tcam.search_conductances(std::span<const Trit>{partial});
  // Matchline conductance is mismatch discharge (smaller = closer): row 0
  // matches both driven columns, row 1 mismatches both.
  EXPECT_LT(masked[0], masked[1]);
}

TEST(TcamArray, TernaryMatchMaskRespectsBothSidesOfDontCare) {
  TcamArray tcam{TcamArrayConfig{}};
  tcam.add_row(std::vector<Trit>{Trit::kOne, Trit::kDontCare, Trit::kZero});
  tcam.add_row(std::vector<Trit>{Trit::kZero, Trit::kOne, Trit::kZero});
  tcam.add_row(std::vector<Trit>{Trit::kOne, Trit::kOne, Trit::kOne});

  // Query don't-cares match anything; stored don't-cares match any query.
  const std::vector<Trit> q1{Trit::kOne, Trit::kDontCare, Trit::kDontCare};
  EXPECT_EQ(tcam.ternary_match_mask(std::span<const Trit>{q1}),
            (std::vector<std::uint8_t>{1, 0, 1}));
  const std::vector<Trit> q2{Trit::kDontCare, Trit::kZero, Trit::kDontCare};
  EXPECT_EQ(tcam.ternary_match_mask(std::span<const Trit>{q2}),
            (std::vector<std::uint8_t>{1, 0, 0}));
  const std::vector<Trit> all_dc(3, Trit::kDontCare);
  EXPECT_EQ(tcam.ternary_match_mask(std::span<const Trit>{all_dc}),
            (std::vector<std::uint8_t>{1, 1, 1}));

  // Band-style use: exact bits in a suffix band, don't-care elsewhere,
  // combined with a sig-only conductance sweep - the mask gates
  // eligibility, the sweep still ranks by signature alone.
  const std::vector<Trit> band_gate{Trit::kDontCare, Trit::kDontCare, Trit::kOne};
  EXPECT_EQ(tcam.ternary_match_mask(std::span<const Trit>{band_gate}),
            (std::vector<std::uint8_t>{0, 0, 1}));

  const std::vector<Trit> wrong_width(4, Trit::kDontCare);
  EXPECT_THROW((void)tcam.ternary_match_mask(std::span<const Trit>{wrong_width}),
               std::invalid_argument);
  EXPECT_THROW((void)tcam.search_conductances(std::span<const Trit>{wrong_width}),
               std::invalid_argument);
}

TEST(TcamArray, ProgrammingNoiseKeepsSmallDistanceOrdering) {
  TcamArrayConfig config;
  config.vth_sigma = 0.04;  // Well inside the 240 mV half-window of 1-bit cells.
  config.seed = 5;
  TcamArray tcam{config};
  tcam.add_row_bits(bits({0, 0, 0, 0, 0, 0, 0, 0}));
  tcam.add_row_bits(bits({1, 1, 1, 1, 0, 0, 0, 0}));
  const SearchOutcome outcome = tcam.nearest(bits({0, 0, 0, 0, 0, 0, 0, 0}));
  EXPECT_EQ(outcome.row, 0u);
}

/// Vth offsets (left, right) per cell, row-major, parallel to the rows.
using Offsets = std::vector<std::vector<std::pair<float, float>>>;

/// Sequential per-cell reference for TcamArray::search_conductances: each
/// row adds, in column order, the two FeFET channel conductances of every
/// cell the query does not mask, from the array's level map and channel.
std::vector<double> reference_conductances(const TcamArray& tcam,
                                           const std::vector<std::vector<Trit>>& rows,
                                           const Offsets& offsets,
                                           const std::vector<Trit>& query) {
  const fefet::LevelMap& map = tcam.level_map();
  std::vector<double> totals;
  for (std::size_t r = 0; r < rows.size(); ++r) {
    double g_total = 0.0;
    for (std::size_t c = 0; c < query.size(); ++c) {
      if (query[c] == Trit::kDontCare) continue;
      const Trit stored = rows[r][c];
      const double v_in = map.input_voltage(query[c] == Trit::kOne ? 1 : 0);
      const auto s = static_cast<std::size_t>(stored);
      const double vth_right =
          stored == Trit::kDontCare ? map.v_max() : map.right_fefet_vth(s);
      const double vth_left = stored == Trit::kDontCare ? map.v_max() : map.left_fefet_vth(s);
      const auto [dvth_left, dvth_right] = offsets[r][c];
      g_total += fefet::channel_conductance(tcam.config().channel,
                                            v_in - (vth_right + dvth_right)) +
                 fefet::channel_conductance(tcam.config().channel,
                                            map.invert(v_in) - (vth_left + dvth_left));
    }
    totals.push_back(g_total);
  }
  return totals;
}

/// Programs `num_rows` random ternary rows (about a sixth of the cells
/// stored as kDontCare) and returns them with the Vth offsets the array
/// drew for them, replayed from its documented sampling order: per cell,
/// left then right vth_sigma draw, then left then right drift_sigma draw.
std::pair<std::vector<std::vector<Trit>>, Offsets> program_random(
    TcamArray& tcam, std::size_t num_rows, std::size_t width, Rng& rng) {
  const TcamArrayConfig& config = tcam.config();
  Rng replay{config.seed};
  std::vector<std::vector<Trit>> rows;
  Offsets offsets;
  for (std::size_t r = 0; r < num_rows; ++r) {
    std::vector<Trit> word(width);
    std::vector<std::pair<float, float>> cells(width);
    for (std::size_t c = 0; c < width; ++c) {
      word[c] = rng.bernoulli(1.0 / 6.0)  ? Trit::kDontCare
                : rng.bernoulli(0.5) ? Trit::kOne
                                     : Trit::kZero;
      auto& [left, right] = cells[c];
      if (config.vth_sigma > 0.0) {
        left = static_cast<float>(replay.normal(0.0, config.vth_sigma));
        right = static_cast<float>(replay.normal(0.0, config.vth_sigma));
      }
      if (config.drift_sigma > 0.0) {
        left += static_cast<float>(replay.normal(0.0, config.drift_sigma));
        right += static_cast<float>(replay.normal(0.0, config.drift_sigma));
      }
    }
    tcam.add_row(word);
    rows.push_back(std::move(word));
    offsets.push_back(std::move(cells));
  }
  return {std::move(rows), std::move(offsets)};
}

/// Checks full and row-subset sweeps, binary and ternary, bit for bit
/// against the per-cell reference.
void expect_sweeps_match_reference(const TcamArray& tcam,
                                   const std::vector<std::vector<Trit>>& rows,
                                   const Offsets& offsets, Rng& rng, const char* context) {
  const std::size_t width = tcam.word_length();
  for (int q = 0; q < 8; ++q) {
    // Even queries are binary; odd ones mask about a third of the columns.
    std::vector<std::uint8_t> query_bits(width);
    std::vector<Trit> query(width);
    for (std::size_t c = 0; c < width; ++c) {
      query_bits[c] = rng.bernoulli(0.5) ? 1 : 0;
      query[c] = query_bits[c] != 0 ? Trit::kOne : Trit::kZero;
      if (q % 2 == 1 && rng.bernoulli(1.0 / 3.0)) query[c] = Trit::kDontCare;
    }
    const std::vector<double> expected = reference_conductances(tcam, rows, offsets, query);
    const std::vector<double> got = tcam.search_conductances(std::span<const Trit>{query});
    ASSERT_EQ(got.size(), expected.size()) << context;
    for (std::size_t r = 0; r < got.size(); ++r) {
      EXPECT_EQ(got[r], expected[r]) << context << " query " << q << " row " << r;
    }
    if (q % 2 == 0) {
      const std::vector<double> binary = tcam.search_conductances(query_bits);
      for (std::size_t r = 0; r < binary.size(); ++r) {
        EXPECT_EQ(binary[r], expected[r]) << context << " binary query " << q << " row " << r;
      }
    }
    // A row subset (out of order, with a repeat) reads the same entries.
    const std::vector<std::size_t> subset{rows.size() - 1, 0, 5, 5, 17, 9};
    const std::vector<double> picked = tcam.search_conductances(query, subset);
    ASSERT_EQ(picked.size(), subset.size()) << context;
    for (std::size_t i = 0; i < subset.size(); ++i) {
      EXPECT_EQ(picked[i], expected[subset[i]]) << context << " subset entry " << i;
    }
  }
}

TEST(TcamArray, SweepIsTheSequentialPerCellSum) {
  // 37 rows: not a multiple of the sweep's 8-row lockstep, so the tail
  // path runs too. Tombstones keep their conductance in the sweep.
  constexpr std::size_t kRows = 37;
  constexpr std::size_t kWidth = 19;
  Rng rng{41};

  TcamArray clean{TcamArrayConfig{}};
  auto [clean_rows, clean_offsets] = program_random(clean, kRows, kWidth, rng);
  ASSERT_TRUE(clean.invalidate_row(3));
  ASSERT_TRUE(clean.invalidate_row(17));
  expect_sweeps_match_reference(clean, clean_rows, clean_offsets, rng, "noiseless");

  TcamArrayConfig noisy_config;
  noisy_config.vth_sigma = 0.05;
  noisy_config.drift_sigma = 0.02;
  noisy_config.seed = 23;
  TcamArray noisy{noisy_config};
  auto [noisy_rows, noisy_offsets] = program_random(noisy, kRows, kWidth, rng);
  ASSERT_TRUE(noisy.invalidate_row(9));
  expect_sweeps_match_reference(noisy, noisy_rows, noisy_offsets, rng, "noisy");

  // Drift on a noiseless array: per cell, a left then a right draw from
  // its own Rng, row-major.
  constexpr std::uint64_t kDriftSeed = 99;
  constexpr double kDriftSigma = 0.03;
  ASSERT_EQ(clean.apply_drift(kDriftSigma, kDriftSeed), kRows * kWidth);
  Rng drift{kDriftSeed};
  for (auto& cells : clean_offsets) {
    for (auto& [left, right] : cells) {
      left += static_cast<float>(drift.normal(0.0, kDriftSigma));
      right += static_cast<float>(drift.normal(0.0, kDriftSigma));
    }
  }
  expect_sweeps_match_reference(clean, clean_rows, clean_offsets, rng, "drifted");

  // Rows programmed after the drift carry no offset of their own.
  std::vector<Trit> late(kWidth, Trit::kOne);
  late[2] = Trit::kDontCare;
  clean.add_row(late);
  clean_rows.push_back(late);
  clean_offsets.emplace_back(kWidth);
  expect_sweeps_match_reference(clean, clean_rows, clean_offsets, rng, "drifted+late");

  const std::vector<Trit> query(kWidth, Trit::kZero);
  const std::vector<std::size_t> bad_row{kRows + 1};
  EXPECT_THROW((void)clean.search_conductances(query, bad_row), std::out_of_range);
}

TEST(TcamArray, AddRowRejectsOutOfRangeTritBeforeProgramming) {
  TcamArrayConfig config;
  config.vth_sigma = 0.05;
  config.seed = 3;
  const std::vector<Trit> first{Trit::kOne, Trit::kZero, Trit::kDontCare};
  const std::vector<Trit> second{Trit::kZero, Trit::kZero, Trit::kOne};
  const std::vector<Trit> bad{Trit::kOne, Trit::kZero, static_cast<Trit>(3)};

  // A rejected first row does not fix the word length.
  TcamArray fresh{config};
  EXPECT_THROW((void)fresh.add_row(std::vector<Trit>{static_cast<Trit>(7)}),
               std::invalid_argument);
  EXPECT_EQ(fresh.num_rows(), 0u);
  EXPECT_EQ(fresh.word_length(), 0u);

  // A rejected row draws no noise: the next row is programmed exactly as
  // if the bad one had never been offered.
  TcamArray rejected{config};
  TcamArray replayed{config};
  rejected.add_row(first);
  replayed.add_row(first);
  EXPECT_THROW((void)rejected.add_row(bad), std::invalid_argument);
  EXPECT_EQ(rejected.num_rows(), 1u);
  rejected.add_row(second);
  replayed.add_row(second);
  const std::vector<std::uint8_t> query{1, 0, 1};
  EXPECT_EQ(rejected.search_conductances(query), replayed.search_conductances(query));
  EXPECT_EQ(rejected.row_trits(1), second);
}

}  // namespace
}  // namespace mcam::cam
