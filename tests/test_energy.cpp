#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <limits>
#include <random>

#include "alloc/problem.hpp"
#include "energy/activity.hpp"
#include "energy/params.hpp"
#include "energy/quantize.hpp"
#include "energy/voltage.hpp"
#include "engine/engine.hpp"
#include "ir/eval.hpp"
#include "sched/schedule.hpp"
#include "workloads/kernels.hpp"

namespace lera::energy {
namespace {

TEST(Params, NominalVoltageNoScaling) {
  EnergyParams p;
  EXPECT_DOUBLE_EQ(p.e_mem_read(), p.mem_read);
  EXPECT_DOUBLE_EQ(p.e_mem_write(), p.mem_write);
  EXPECT_DOUBLE_EQ(p.e_reg_read(), p.reg_read);
  EXPECT_DOUBLE_EQ(p.e_reg_write(), p.reg_write);
}

TEST(Params, QuadraticVoltageScaling) {
  EnergyParams p;
  p.v_mem = 2.5;  // Half of the 5 V nominal -> quarter energy.
  EXPECT_DOUBLE_EQ(p.e_mem_read(), p.mem_read * 0.25);
  EXPECT_DOUBLE_EQ(p.e_mem_write(), p.mem_write * 0.25);
  // Register file unaffected by the memory supply.
  EXPECT_DOUBLE_EQ(p.e_reg_read(), p.reg_read);
}

TEST(Params, TransitionEnergies) {
  EnergyParams p;
  EXPECT_DOUBLE_EQ(p.e_reg_transition(0.0), 0.0);
  EXPECT_DOUBLE_EQ(p.e_reg_transition(0.5), 0.5 * p.reg_full_swing);
  EXPECT_DOUBLE_EQ(p.e_mem_transition(1.0), p.mem_full_swing);
}

TEST(Params, PaperEnergyRatios) {
  // The defaults encode the ratios the paper quotes from [14]: memory
  // read 5x, write 10x a 16-bit add, registers about 1x.
  EnergyParams p;
  EXPECT_DOUBLE_EQ(p.mem_read / p.reg_read, 5.0);
  EXPECT_DOUBLE_EQ(p.mem_write / p.reg_write, 10.0);
}

TEST(Quantize, RoundTripsWithinResolution) {
  Quantizer q(1e-6);
  for (double e : {0.0, 1.0, -3.75, 12.345678, 1e6}) {
    EXPECT_NEAR(q.dequantize(q.quantize(e)), e, 1e-6);
  }
}

TEST(Quantize, PreservesOrderingOfDistinctEnergies) {
  Quantizer q(1e-6);
  EXPECT_LT(q.quantize(1.0), q.quantize(1.000002));
  EXPECT_EQ(q.quantize(-2.0), -q.quantize(2.0));
}

TEST(Voltage, NominalDelayIsOne) {
  VoltageModel m;
  EXPECT_NEAR(m.relative_delay(m.v_nominal), 1.0, 1e-12);
}

TEST(Voltage, DelayGrowsAsVoltageDrops) {
  VoltageModel m;
  EXPECT_GT(m.relative_delay(3.0), m.relative_delay(4.0));
  EXPECT_GT(m.relative_delay(2.0), m.relative_delay(3.0));
}

TEST(Voltage, SlowdownInversion) {
  VoltageModel m;
  EXPECT_DOUBLE_EQ(voltage_for_slowdown(1.0, m), m.v_nominal);
  for (double slowdown : {1.5, 2.0, 4.0}) {
    const double v = voltage_for_slowdown(slowdown, m);
    EXPECT_LT(v, m.v_nominal);
    EXPECT_GE(v, m.v_min - 1e-9);
    if (v > m.v_min + 1e-9) {
      EXPECT_NEAR(m.relative_delay(v), slowdown, 1e-6);
    }
  }
}

TEST(Voltage, PaperTable1Range) {
  // The paper scales the memory supply from 5 V towards 2 V between full
  // speed and f/4; the alpha-power model should land in that range.
  VoltageModel m;
  const double v_half = voltage_for_slowdown(2.0, m);
  const double v_quarter = voltage_for_slowdown(4.0, m);
  EXPECT_LT(v_quarter, v_half);
  EXPECT_GT(v_half, 2.0);
  EXPECT_LE(v_quarter, 2.6);
  EXPECT_GE(v_quarter, 1.2);
}

TEST(Voltage, EnergyScaleQuadratic) {
  EXPECT_DOUBLE_EQ(energy_scale(2.5, 5.0), 0.25);
  EXPECT_DOUBLE_EQ(energy_scale(5.0, 5.0), 1.0);
}

TEST(Hamming, FractionBasics) {
  EXPECT_DOUBLE_EQ(hamming_fraction(0, 0, 16), 0.0);
  EXPECT_DOUBLE_EQ(hamming_fraction(0, 0xffff, 16), 1.0);
  EXPECT_DOUBLE_EQ(hamming_fraction(0b1010, 0b0101, 4), 1.0);
  EXPECT_DOUBLE_EQ(hamming_fraction(0b1010, 0b1000, 4), 0.25);
  // Only the low `width` bits matter.
  EXPECT_DOUBLE_EQ(hamming_fraction(0x10000, 0, 16), 0.0);
}

TEST(ActivityMatrix, DefaultsAndSymmetry) {
  ActivityMatrix m(3, 0.4, 0.6);
  EXPECT_DOUBLE_EQ(m.hamming(0, 1), 0.4);
  EXPECT_DOUBLE_EQ(m.hamming(0, 0), 0.0);  // Same variable: no switch.
  EXPECT_DOUBLE_EQ(m.initial(2), 0.6);
  m.set(0, 2, 0.9);
  EXPECT_DOUBLE_EQ(m.hamming(0, 2), 0.9);
  EXPECT_DOUBLE_EQ(m.hamming(2, 0), 0.9);
}

TEST(ActivityMatrix, FromTraceMeasuresMeanHamming) {
  // Two variables over two samples with known bit patterns.
  const std::vector<std::vector<std::int64_t>> trace = {
      {0x0f, 0x0e},  // differ in 1 of 16 bits
      {0x00, 0x03},  // differ in 2 of 16 bits
  };
  const ActivityMatrix m = ActivityMatrix::from_trace(trace, {16, 16});
  EXPECT_NEAR(m.hamming(0, 1), (1.0 / 16 + 2.0 / 16) / 2, 1e-12);
  // initial = mean weight of own bits: v0 has 4 then 0 set bits.
  EXPECT_NEAR(m.initial(0), (4.0 / 16 + 0.0) / 2, 1e-12);
}

TEST(ActivityMatrix, EmptyTraceFallsBackToDefaults) {
  const ActivityMatrix m = ActivityMatrix::from_trace({}, {16, 16});
  EXPECT_DOUBLE_EQ(m.hamming(0, 1), 0.5);
  EXPECT_DOUBLE_EQ(m.initial(0), 0.5);
}


// ---------------------------------------------------------------------
// Exactness of from_trace against the per-sample definition

using Trace = std::vector<std::vector<std::int64_t>>;

/// The per-sample definition from_trace must reproduce bit for bit: one
/// Hamming fraction per pair and sample, summed in sample order, over S.
struct ReferenceActivity {
  std::vector<double> h;  ///< n x n, row-major; the diagonal is unused.
  std::vector<double> initial;
  bool uniform = true;
};

ReferenceActivity reference_from_trace(const Trace& trace,
                                       const std::vector<int>& widths) {
  const std::size_t n = widths.size();
  ReferenceActivity r{std::vector<double>(n * n, 0.5),
                      std::vector<double>(n, 0.5), true};
  if (trace.empty() || n == 0) return r;
  const auto fraction = [](std::int64_t a, std::int64_t b, int width) {
    const std::uint64_t mask =
        width == 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << width) - 1;
    const std::uint64_t diff =
        (static_cast<std::uint64_t>(a) ^ static_cast<std::uint64_t>(b)) & mask;
    return static_cast<double>(std::popcount(diff)) / width;
  };
  const auto samples = static_cast<double>(trace.size());
  for (std::size_t i = 0; i < n; ++i) {
    double own = 0;
    for (const auto& sample : trace) own += fraction(sample[i], 0, widths[i]);
    r.initial[i] = own / samples;
    r.uniform = r.uniform && r.initial[i] == 0.5;
    for (std::size_t j = i + 1; j < n; ++j) {
      const int width = std::max(widths[i], widths[j]);
      double acc = 0;
      for (const auto& sample : trace) {
        acc += fraction(sample[i], sample[j], width);
      }
      r.h[i * n + j] = r.h[j * n + i] = acc / samples;
      r.uniform = r.uniform && r.h[i * n + j] == 0.5;
    }
  }
  return r;
}

/// Exact equality of every entry's bits, and of is_uniform(); reports
/// the first differing entry only.
void expect_bit_identical(const ActivityMatrix& m,
                          const ReferenceActivity& r) {
  const std::size_t n = r.initial.size();
  ASSERT_EQ(m.size(), n);
  EXPECT_EQ(m.is_uniform(), r.uniform);
  for (std::size_t i = 0; i < n; ++i) {
    if (std::bit_cast<std::uint64_t>(m.initial(i)) !=
        std::bit_cast<std::uint64_t>(r.initial[i])) {
      ADD_FAILURE() << "initial(" << i << ") = " << m.initial(i)
                    << ", reference " << r.initial[i];
      return;
    }
    for (std::size_t j = 0; j < n; ++j) {
      if (i == j) continue;
      if (std::bit_cast<std::uint64_t>(m.hamming(i, j)) !=
          std::bit_cast<std::uint64_t>(r.h[i * n + j])) {
        ADD_FAILURE() << "hamming(" << i << ", " << j
                      << ") = " << m.hamming(i, j) << ", reference "
                      << r.h[i * n + j];
        return;
      }
    }
  }
}

void expect_matches_reference(const Trace& trace,
                              const std::vector<int>& widths) {
  expect_bit_identical(ActivityMatrix::from_trace(trace, widths),
                       reference_from_trace(trace, widths));
}

/// \p samples rows of \p n values: negative values, extremes and bits
/// set far above every width, mixed with small values.
Trace random_trace(std::size_t samples, std::size_t n, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  Trace trace(samples, std::vector<std::int64_t>(n));
  for (auto& sample : trace) {
    for (auto& v : sample) {
      switch (rng() % 5) {
        case 0: v = static_cast<std::int64_t>(rng()); break;
        case 1: v = static_cast<std::int64_t>(rng() % 65536) - 32768; break;
        case 2: v = -1; break;
        case 3:
          v = rng() % 2 == 0 ? std::numeric_limits<std::int64_t>::min()
                             : std::numeric_limits<std::int64_t>::max();
          break;
        default: v = static_cast<std::int64_t>(rng() % 8); break;
      }
    }
  }
  return trace;
}

/// Sample counts around the slot counts of every slot width (64 / 16 = 4
/// slots a word, and so on), so some counts leave the last word part-full.
constexpr std::size_t kSampleCounts[] = {0, 1, 3, 4, 5, 31, 32, 33, 65};

TEST(ActivityExactness, MixedWidthsOneToSixtyFour) {
  std::vector<int> widths(64);
  for (int w = 1; w <= 64; ++w) widths[static_cast<std::size_t>(w - 1)] = w;
  std::shuffle(widths.begin(), widths.end(), std::mt19937_64(5));
  for (std::size_t samples : kSampleCounts) {
    SCOPED_TRACE(::testing::Message() << samples << " samples");
    expect_matches_reference(random_trace(samples, widths.size(), samples),
                             widths);
  }
}

TEST(ActivityExactness, EverySlotWidth) {
  // Uniform widths of each slot size, and mixed sets whose widest member
  // is not a power of two (slots wider than any variable).
  const std::vector<std::vector<int>> width_sets = {
      {1, 1, 1},         {2, 1, 2, 2},     {4, 3, 4},
      {8, 8, 8, 8, 8},   {16, 16, 16, 16}, {32, 32, 32},
      {64, 64},          {3, 5, 7},        {12, 16, 9, 12},
      {24, 17, 20, 24},  {48, 33, 40},     {63, 1, 62, 64}};
  std::uint64_t seed = 100;
  for (const std::vector<int>& widths : width_sets) {
    for (std::size_t samples : kSampleCounts) {
      SCOPED_TRACE(::testing::Message() << "widths[0] " << widths[0] << ", "
                                        << samples << " samples");
      expect_matches_reference(random_trace(samples, widths.size(), ++seed),
                               widths);
    }
  }
}

TEST(ActivityExactness, NegativeValuesAndBitsAboveWidth) {
  // v0 is 8-bit but holds -1: its bits 8..15 count against the 16-bit
  // v1, not against its own width. v2 (12-bit) holds 0x11000, whose only
  // set bit inside 12 or 16 bits is bit 12 of the 16-bit pair width.
  const Trace trace = {{-1, 0, 0x11000}, {-1, 0, 0x11000}, {-1, 0, 0x11000}};
  const std::vector<int> widths = {8, 16, 12};
  const ActivityMatrix m = ActivityMatrix::from_trace(trace, widths);
  EXPECT_EQ(m.initial(0), 1.0);
  EXPECT_EQ(m.hamming(0, 1), 1.0);
  EXPECT_EQ(m.initial(2), 0.0);
  EXPECT_EQ(m.hamming(1, 2), 1.0 / 16);
  expect_matches_reference(trace, widths);
}

TEST(ActivityExactness, LongTracesOfFullFlips) {
  // Every bit flips in every sample, over more words than a byte-wide
  // counter can sum without carrying into its neighbour.
  for (int width : {64, 16}) {
    const Trace trace(300, {0, -1});
    const ActivityMatrix m =
        ActivityMatrix::from_trace(trace, {width, width});
    EXPECT_EQ(m.hamming(0, 1), 1.0) << width << " bits";
    EXPECT_EQ(m.initial(1), 1.0) << width << " bits";
    expect_matches_reference(trace, {width, width});
  }
}

TEST(ActivityExactness, NoVariablesOrOne) {
  const ActivityMatrix none = ActivityMatrix::from_trace(Trace(3), {});
  EXPECT_EQ(none.size(), 0u);
  EXPECT_TRUE(none.is_uniform());
  for (std::size_t samples : kSampleCounts) {
    SCOPED_TRACE(::testing::Message() << samples << " samples");
    expect_matches_reference(random_trace(samples, 1, samples + 7), {13});
    expect_matches_reference(random_trace(samples, 1, samples + 9), {64});
  }
}

TEST(ActivityExactness, UniformOnlyWhenEveryMeasureIsOneHalf) {
  // Three 4-bit values of weight 2 whose pairwise XORs have weight 2:
  // every initial and every H measures exactly 0.5, over 33 samples.
  Trace trace(33, {0b0011, 0b0101, 0b0110});
  const std::vector<int> widths = {4, 4, 4};
  const ActivityMatrix m = ActivityMatrix::from_trace(trace, widths);
  EXPECT_TRUE(m.is_uniform());
  EXPECT_EQ(m.hamming(0, 2), 0.5);
  expect_matches_reference(trace, widths);

  // Every H still 0.5 but one initial is not: no longer uniform.
  trace.assign(33, {0b0011, 0b0101, 0b0110});
  for (auto& sample : trace) {
    for (auto& v : sample) v ^= 0b1111;  // Complements: weights stay 2.
  }
  trace[0] = {0b0000, 0b0110, 0b0101};
  expect_matches_reference(trace, widths);
  EXPECT_FALSE(ActivityMatrix::from_trace(trace, widths).is_uniform());
}

/// The DSP suite at the sizes dsp_app draws from.
std::vector<ir::BasicBlock> dsp_suite() {
  std::vector<ir::BasicBlock> suite;
  suite.push_back(workloads::make_fir(8));
  suite.push_back(workloads::make_iir_biquad());
  suite.push_back(workloads::make_elliptic_wave_filter());
  suite.push_back(workloads::make_fft(8));
  suite.push_back(workloads::make_fft(16));
  suite.push_back(workloads::make_dct4());
  suite.push_back(workloads::make_matmul(3));
  suite.push_back(workloads::make_conv3x3());
  suite.push_back(workloads::make_lattice(6));
  suite.push_back(workloads::make_lms(8));
  suite.push_back(workloads::make_viterbi_acs());
  suite.push_back(workloads::make_goertzel(8));
  suite.push_back(workloads::make_rsp(6));
  return suite;
}

TEST(ActivityExactness, DspSuiteProblemsMatchReference) {
  // Engine::run measures task t of a graph on random_inputs seeded
  // trace_seed + t; check every kernel at the seeds of every task slot,
  // plus a correlated stimulus whose activities sit far from 0.5.
  const engine::EngineOptions engine_defaults;
  const std::vector<ir::BasicBlock> suite = dsp_suite();
  EnergyParams params;
  params.register_model = RegisterModel::kActivity;
  for (const ir::BasicBlock& bb : suite) {
    const sched::Schedule schedule =
        sched::list_schedule(bb, engine_defaults.resources);
    std::vector<Trace> inputs;
    for (std::uint64_t task = 0; task < suite.size(); ++task) {
      inputs.push_back(workloads::random_inputs(
          bb, engine_defaults.trace_samples,
          engine_defaults.trace_seed + task));
    }
    inputs.push_back(workloads::correlated_inputs(
        bb, engine_defaults.trace_samples, workloads::Stimulus::kAr1, 3));
    for (const Trace& rows : inputs) {
      const alloc::AllocationProblem p = alloc::make_problem_from_block(
          bb, schedule, 8, params, rows);
      const Trace values = ir::evaluate_trace(bb, rows);
      Trace var_trace(values.size());
      std::vector<int> widths;
      for (const lifetime::Lifetime& lt : p.lifetimes) {
        widths.push_back(lt.width);
        for (std::size_t s = 0; s < values.size(); ++s) {
          var_trace[s].push_back(values[s][static_cast<std::size_t>(lt.value)]);
        }
      }
      SCOPED_TRACE(bb.name());
      expect_bit_identical(p.activity, reference_from_trace(var_trace, widths));
    }
  }
}

}  // namespace
}  // namespace lera::energy
