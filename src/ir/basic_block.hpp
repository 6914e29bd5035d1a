#pragma once

#include <cassert>
#include <cstdint>
#include <string>
#include <vector>

#include "ir/opcode.hpp"

/// \file basic_block.hpp
/// SSA-style basic block: the "partially ordered list of code operations"
/// of the paper's Problem 1. Values are defined exactly once; operations
/// are stored in a valid topological order (enforced by the builder API,
/// which only lets an operation consume already-defined values).

namespace lera::ir {

using ValueId = std::int32_t;
using OpId = std::int32_t;

inline constexpr ValueId kNoValue = -1;

/// A data variable of the paper: one definition, one or more uses.
struct Value {
  ValueId id = kNoValue;
  std::string name;
  int width = 16;            ///< Bit width (paper's examples are 16-bit).
  OpId def = -1;             ///< Operation defining this value.
  std::vector<OpId> uses;    ///< Operations reading this value.
  std::int64_t literal = 0;  ///< Constant payload when def is a kConst.
};

/// One operation of the block.
struct Operation {
  OpId id = -1;
  Opcode opcode = Opcode::kAdd;
  std::vector<ValueId> operands;
  ValueId result = kNoValue;  ///< kNoValue for kOutput.
};

/// Owning container + builder for a basic block. Value widths must lie
/// in [1, 64]; the builders throw std::invalid_argument otherwise.
class BasicBlock {
 public:
  explicit BasicBlock(std::string name = "bb") : name_(std::move(name)) {}

  /// Live-in value (defined before the block).
  ValueId input(std::string name, int width = 16);

  /// Constant value (coefficients etc.).
  ValueId constant(std::int64_t literal, std::string name = {},
                   int width = 16);

  /// Appends an operation computing a fresh value from \p operands; the
  /// operands must already be defined. Returns the result value.
  ValueId emit(Opcode opcode, const std::vector<ValueId>& operands,
               std::string result_name = {}, int width = 16);

  /// Marks \p v as live-out (read after the block by another task).
  void output(ValueId v);

  const std::string& name() const { return name_; }

  std::size_t num_values() const { return values_.size(); }
  std::size_t num_ops() const { return ops_.size(); }

  const Value& value(ValueId v) const {
    assert(v >= 0 && static_cast<std::size_t>(v) < values_.size());
    return values_[static_cast<std::size_t>(v)];
  }
  const Operation& op(OpId o) const {
    assert(o >= 0 && static_cast<std::size_t>(o) < ops_.size());
    return ops_[static_cast<std::size_t>(o)];
  }
  const std::vector<Value>& values() const { return values_; }
  const std::vector<Operation>& ops() const { return ops_; }

  /// Operations that must precede \p o (defs of its operands, excluding
  /// source pseudo-ops which take no schedule slot).
  std::vector<OpId> predecessors(OpId o) const;

  /// Checks structural invariants (operand defined-before-use, arities,
  /// single definition). Returns an empty string when consistent.
  std::string verify() const;

 private:
  ValueId new_value(std::string name, int width);

  std::string name_;
  std::vector<Value> values_;
  std::vector<Operation> ops_;
  int anon_counter_ = 0;
};

}  // namespace lera::ir
