#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "ir/basic_block.hpp"

/// \file eval.hpp
/// Bit-accurate interpreter for basic blocks. The activity-based energy
/// model needs Hamming distances between the data values that share a
/// register; this evaluator produces per-value integer traces from input
/// vectors so those distances can be *measured* instead of guessed.

namespace lera::ir {

/// Evaluates \p bb once. \p inputs supplies one integer per kInput
/// operation, in emission order. Returns one value per ValueId, reduced
/// modulo each value's bit width (two's-complement wraparound).
std::vector<std::int64_t> evaluate(const BasicBlock& bb,
                                   const std::vector<std::int64_t>& inputs);

/// Evaluates \p bb over many input vectors; result[s][v] is value v in
/// sample s.
std::vector<std::vector<std::int64_t>> evaluate_trace(
    const BasicBlock& bb,
    const std::vector<std::vector<std::int64_t>>& input_samples);

/// Applies one operation to already-evaluated operands, reducing the
/// result to \p width bits (two's complement), \p width in [1, 64].
/// Arithmetic wraps modulo 2^64 before the reduction, so no operand
/// value overflows. Shared by the IR interpreter and the codegen machine
/// model so both agree bit-exactly.
std::int64_t apply_opcode(Opcode opcode,
                          std::span<const std::int64_t> operands, int width);

}  // namespace lera::ir
