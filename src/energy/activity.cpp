#include "energy/activity.hpp"

#include <algorithm>
#include <array>
#include <bit>

namespace lera::energy {

namespace {

/// Low \p width bits set, width in [1, 64].
constexpr std::uint64_t low_mask(int width) {
  return width == 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << width) - 1;
}

/// Per-byte bit counts: each byte of the result holds the number of set
/// bits (0..8) of the same byte of \p x. Portable SWAR, so the default
/// x86-64 target needs no out-of-line popcount call.
constexpr std::uint64_t byte_counts(std::uint64_t x) {
  x -= (x >> 1) & 0x5555555555555555;
  x = (x & 0x3333333333333333) + ((x >> 2) & 0x3333333333333333);
  return (x + (x >> 4)) & 0x0f0f0f0f0f0f0f0f;
}

/// Sum of the eight byte lanes of \p x.
constexpr std::uint64_t sum_bytes(std::uint64_t x) {
  x = (x & 0x00ff00ff00ff00ff) + ((x >> 8) & 0x00ff00ff00ff00ff);
  return (x * 0x0001000100010001) >> 48;
}

/// Words whose byte counts (at most 8 per lane each) can be summed lane
/// by lane before a lane could pass 255.
constexpr std::size_t kWordsPerFold = 31;

/// The trace transposed to variable-major words. Sample s of variable i
/// is slot s % slots of word i * words + s / slots, holding the low
/// slot_bits bits of the value; slot_bits is the bit_ceil of the widest
/// variable, so a slot holds every bit a pair's width can reach. Rows
/// are padded to an even number of words. Slots past the last sample
/// are 0 in every row, so they XOR to 0 and add nothing to a count.
class PackedTrace {
 public:
  PackedTrace(const std::vector<std::vector<std::int64_t>>& trace,
              std::size_t n, int max_width)
      : samples_(trace.size()),
        slot_bits_(static_cast<int>(
            std::bit_ceil(static_cast<unsigned>(max_width)))),
        slots_(64 / slot_bits_),
        words_(((samples_ + static_cast<std::size_t>(slots_) - 1) /
                    static_cast<std::size_t>(slots_) + 1) &
               ~std::size_t{1}),
        bits_((n + 1) * words_, 0) {
    const std::uint64_t keep = low_mask(slot_bits_);
    for (std::size_t s = 0; s < samples_; ++s) {
      const std::vector<std::int64_t>& sample = trace[s];
      assert(sample.size() == n);
      const std::size_t word = s / static_cast<std::size_t>(slots_);
      const int shift =
          static_cast<int>(s % static_cast<std::size_t>(slots_)) * slot_bits_;
      for (std::size_t i = 0; i < n; ++i) {
        bits_[i * words_ + word] |=
            (static_cast<std::uint64_t>(sample[i]) & keep) << shift;
      }
    }
  }

  /// Variable i's words; row(n) is all zero (the cleared register).
  const std::uint64_t* row(std::size_t i) const {
    return bits_.data() + i * words_;
  }

  /// \p width's low-bit mask repeated in every slot.
  std::uint64_t slot_mask(int width) const {
    std::uint64_t m = 0;
    for (int t = 0; t < slots_; ++t) m |= low_mask(width) << (t * slot_bits_);
    return m;
  }

  /// Mean over the samples of hamming_fraction(a_s, b_s, width), bit for
  /// bit: the same terms k_s / width, summed in sample order, over S.
  /// \p mask is slot_mask(width).
  double mean_fraction(const std::uint64_t* a, const std::uint64_t* b,
                       int width, std::uint64_t mask) const {
    // Not std::has_single_bit, which lowers to a popcount call here.
    if ((width & (width - 1)) != 0) return ordered_mean(a, b, width, mask);
    // Every term k_s / width and every partial sum is a multiple of
    // 1/width below S, hence exact: the ordered sum is K / width, and
    // (K / width) / S rounds the same real number as K / (width * S),
    // whose divisor is exact too. Two independent accumulators over the
    // even and odd words (rows hold an even number of words) let the
    // compiler run the pair in one 128-bit register where it has them.
    std::uint64_t total = 0;
    for (std::size_t k0 = 0; k0 < words_; k0 += 2 * kWordsPerFold) {
      const std::size_t end = std::min(words_, k0 + 2 * kWordsPerFold);
      std::uint64_t even = 0;
      std::uint64_t odd = 0;
      for (std::size_t k = k0; k < end; k += 2) {
        even += byte_counts((a[k] ^ b[k]) & mask);
        odd += byte_counts((a[k + 1] ^ b[k + 1]) & mask);
      }
      total += sum_bytes(even) + sum_bytes(odd);
    }
    return static_cast<double>(total) /
           (width * static_cast<double>(samples_));
  }

 private:
  /// mean_fraction for widths that are not powers of two: the terms are
  /// inexact, so they are summed one by one in sample order, each
  /// computed as hamming_fraction does.
  double ordered_mean(const std::uint64_t* a, const std::uint64_t* b,
                      int width, std::uint64_t mask) const {
    const std::uint64_t slot = low_mask(slot_bits_);
    double acc = 0;
    std::size_t s = 0;
    for (std::size_t k = 0; s < samples_; ++k) {
      const std::uint64_t x = (a[k] ^ b[k]) & mask;
      for (int t = 0; t < slots_ && s < samples_; ++t, ++s) {
        acc += static_cast<double>(
                   std::popcount((x >> (t * slot_bits_)) & slot)) /
               width;
      }
    }
    return acc / static_cast<double>(samples_);
  }

  std::size_t samples_;
  int slot_bits_;
  int slots_;
  std::size_t words_;
  std::vector<std::uint64_t> bits_;
};

}  // namespace

ActivityMatrix::ActivityMatrix(std::size_t n, double default_h,
                               double initial_h)
    : n_(n),
      default_h_(default_h),
      initial_h_(initial_h),
      h_(n * n, default_h),
      initial_(n, initial_h) {
  assert(default_h >= 0 && default_h <= 1);
  assert(initial_h >= 0 && initial_h <= 1);
}

void ActivityMatrix::set(std::size_t v1, std::size_t v2, double h) {
  assert(v1 < n_ && v2 < n_);
  assert(h >= 0 && h <= 1);
  if (h != default_h_) uniform_ = false;
  h_[v1 * n_ + v2] = h;
  h_[v2 * n_ + v1] = h;
}

void ActivityMatrix::set_initial(std::size_t v, double h) {
  assert(v < n_);
  assert(h >= 0 && h <= 1);
  if (h != initial_h_) uniform_ = false;
  initial_[v] = h;
}

double hamming_fraction(std::int64_t a, std::int64_t b, int width) {
  assert(width > 0 && width <= 64);
  const std::uint64_t diff =
      (static_cast<std::uint64_t>(a) ^ static_cast<std::uint64_t>(b)) &
      low_mask(width);
  return static_cast<double>(std::popcount(diff)) / width;
}

ActivityMatrix ActivityMatrix::from_trace(
    const std::vector<std::vector<std::int64_t>>& trace,
    const std::vector<int>& widths) {
  const std::size_t n = widths.size();
  ActivityMatrix m(n, 0.5, 0.5);
  if (trace.empty() || n == 0) return m;

  assert(std::all_of(widths.begin(), widths.end(),
                     [](int w) { return w > 0 && w <= 64; }));
  const PackedTrace packed(trace, n, *std::max_element(widths.begin(),
                                                       widths.end()));
  std::array<std::uint64_t, 65> masks{};
  for (int w : widths) masks[static_cast<std::size_t>(w)] = packed.slot_mask(w);

  bool uniform = true;
  const std::uint64_t* cleared = packed.row(n);
  for (std::size_t i = 0; i < n; ++i) {
    const int wi = widths[i];
    const std::uint64_t* row_i = packed.row(i);
    const double own = packed.mean_fraction(
        row_i, cleared, wi, masks[static_cast<std::size_t>(wi)]);
    uniform &= own == m.initial_h_;
    m.initial_[i] = own;
    // Upper triangle row by row; the mirror pass below fills the rest.
    double* out = m.h_.data() + i * n;
    for (std::size_t j = i + 1; j < n; ++j) {
      const int w = std::max(wi, widths[j]);
      const double h = packed.mean_fraction(
          row_i, packed.row(j), w, masks[static_cast<std::size_t>(w)]);
      uniform &= h == m.default_h_;
      out[j] = h;
    }
  }
  constexpr std::size_t kBlock = 32;
  for (std::size_t bi = 0; bi < n; bi += kBlock) {
    for (std::size_t bj = bi; bj < n; bj += kBlock) {
      for (std::size_t i = bi; i < std::min(n, bi + kBlock); ++i) {
        for (std::size_t j = std::max(i + 1, bj);
             j < std::min(n, bj + kBlock); ++j) {
          m.h_[j * n + i] = m.h_[i * n + j];
        }
      }
    }
  }
  m.uniform_ = uniform;
  return m;
}

}  // namespace lera::energy
