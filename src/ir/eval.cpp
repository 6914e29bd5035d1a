#include "ir/eval.hpp"

#include <algorithm>
#include <array>
#include <cassert>

namespace lera::ir {

namespace {

/// Reduces \p x to \p width bits, \p width in [1, 64], interpreting the
/// result as a two's-complement signed value (matching fixed-point DSP
/// hardware).
std::int64_t wrap(std::uint64_t x, int width) {
  assert(width > 0 && width <= 64);
  if (width == 64) return static_cast<std::int64_t>(x);
  const std::uint64_t mask = (std::uint64_t{1} << width) - 1;
  std::uint64_t u = x & mask;
  const std::uint64_t sign = std::uint64_t{1} << (width - 1);
  if (u & sign) {
    u |= ~mask;
  }
  return static_cast<std::int64_t>(u);
}

std::int64_t wrap(std::int64_t x, int width) {
  return wrap(static_cast<std::uint64_t>(x), width);
}

/// Operands of the widest opcode (kMac).
constexpr std::size_t kMaxOperands = 3;

}  // namespace

std::int64_t apply_opcode(Opcode opcode, std::span<const std::int64_t> in,
                          int width) {
  // Two's-complement arithmetic on the unsigned images: the low bits
  // of a sum, difference or product do not depend on signedness.
  const auto u = [&in](std::size_t i) {
    return static_cast<std::uint64_t>(in[i]);
  };
  switch (opcode) {
    case Opcode::kAdd: return wrap(u(0) + u(1), width);
    case Opcode::kSub: return wrap(u(0) - u(1), width);
    case Opcode::kMul: return wrap(u(0) * u(1), width);
    case Opcode::kMac: return wrap(u(0) * u(1) + u(2), width);
    case Opcode::kDiv:
      if (in[1] == 0) return 0;
      // x / -1 is -x; as a division it overflows for INT64_MIN.
      if (in[1] == -1) return wrap(0 - u(0), width);
      return wrap(in[0] / in[1], width);
    case Opcode::kShl: return wrap(u(0) << (in[1] & 15), width);
    case Opcode::kShr: return wrap(in[0] >> (in[1] & 15), width);
    case Opcode::kAnd: return wrap(in[0] & in[1], width);
    case Opcode::kOr: return wrap(in[0] | in[1], width);
    case Opcode::kXor: return wrap(in[0] ^ in[1], width);
    case Opcode::kNeg: return wrap(0 - u(0), width);
    case Opcode::kAbs: return wrap(in[0] < 0 ? 0 - u(0) : u(0), width);
    case Opcode::kMin: return std::min(in[0], in[1]);
    case Opcode::kMax: return std::max(in[0], in[1]);
    default: return 0;
  }
}

std::vector<std::int64_t> evaluate(const BasicBlock& bb,
                                   const std::vector<std::int64_t>& inputs) {
  std::vector<std::int64_t> env(bb.num_values(), 0);
  std::array<std::int64_t, kMaxOperands> in{};
  std::size_t next_input = 0;
  for (const Operation& op : bb.ops()) {
    switch (op.opcode) {
      case Opcode::kInput: {
        assert(next_input < inputs.size() && "not enough input samples");
        const Value& v = bb.value(op.result);
        env[static_cast<std::size_t>(op.result)] =
            wrap(inputs[next_input++], v.width);
        break;
      }
      case Opcode::kConst: {
        const Value& v = bb.value(op.result);
        env[static_cast<std::size_t>(op.result)] = wrap(v.literal, v.width);
        break;
      }
      case Opcode::kOutput:
        break;
      default: {
        const std::size_t arity = op.operands.size();
        assert(arity <= kMaxOperands);
        for (std::size_t k = 0; k < arity; ++k) {
          in[k] = env[static_cast<std::size_t>(op.operands[k])];
        }
        env[static_cast<std::size_t>(op.result)] =
            apply_opcode(op.opcode, std::span(in.data(), arity),
                         bb.value(op.result).width);
        break;
      }
    }
  }
  return env;
}

std::vector<std::vector<std::int64_t>> evaluate_trace(
    const BasicBlock& bb,
    const std::vector<std::vector<std::int64_t>>& input_samples) {
  std::vector<std::vector<std::int64_t>> trace;
  trace.reserve(input_samples.size());
  for (const auto& sample : input_samples) {
    trace.push_back(evaluate(bb, sample));
  }
  return trace;
}

}  // namespace lera::ir
