#include "ir/basic_block.hpp"

#include <algorithm>
#include <sstream>
#include <stdexcept>

namespace lera::ir {

ValueId BasicBlock::new_value(std::string name, int width) {
  if (width < 1 || width > 64) {
    throw std::invalid_argument("value width " + std::to_string(width) +
                                " outside [1, 64]");
  }
  if (name.empty()) {
    name = "v" + std::to_string(anon_counter_++);
  }
  Value v;
  v.id = static_cast<ValueId>(values_.size());
  v.name = std::move(name);
  v.width = width;
  values_.push_back(std::move(v));
  return values_.back().id;
}

ValueId BasicBlock::input(std::string name, int width) {
  const ValueId v = new_value(std::move(name), width);
  Operation op;
  op.id = static_cast<OpId>(ops_.size());
  op.opcode = Opcode::kInput;
  op.result = v;
  values_[static_cast<std::size_t>(v)].def = op.id;
  ops_.push_back(std::move(op));
  return v;
}

ValueId BasicBlock::constant(std::int64_t literal, std::string name,
                             int width) {
  if (name.empty()) {
    name = "c" + std::to_string(literal);
  }
  const ValueId v = new_value(std::move(name), width);
  values_[static_cast<std::size_t>(v)].literal = literal;
  Operation op;
  op.id = static_cast<OpId>(ops_.size());
  op.opcode = Opcode::kConst;
  op.result = v;
  values_[static_cast<std::size_t>(v)].def = op.id;
  ops_.push_back(std::move(op));
  return v;
}

ValueId BasicBlock::emit(Opcode opcode, const std::vector<ValueId>& operands,
                         std::string result_name, int width) {
  assert(!is_source(opcode) && opcode != Opcode::kOutput);
  assert(static_cast<int>(operands.size()) == arity(opcode));
  const OpId oid = static_cast<OpId>(ops_.size());
  // The result first: new_value may throw, and must leave no use behind.
  const ValueId result = new_value(std::move(result_name), width);
  for (ValueId operand : operands) {
    assert(operand >= 0 && operand < result &&
           "operand must be defined before use");
    values_[static_cast<std::size_t>(operand)].uses.push_back(oid);
  }
  Operation op;
  op.id = oid;
  op.opcode = opcode;
  op.operands = operands;
  op.result = result;
  values_[static_cast<std::size_t>(result)].def = oid;
  ops_.push_back(std::move(op));
  return result;
}

void BasicBlock::output(ValueId v) {
  assert(v >= 0 && static_cast<std::size_t>(v) < values_.size());
  const OpId oid = static_cast<OpId>(ops_.size());
  values_[static_cast<std::size_t>(v)].uses.push_back(oid);
  Operation op;
  op.id = oid;
  op.opcode = Opcode::kOutput;
  op.operands = {v};
  ops_.push_back(std::move(op));
}

std::vector<OpId> BasicBlock::predecessors(OpId o) const {
  std::vector<OpId> preds;
  for (ValueId operand : op(o).operands) {
    const OpId def = value(operand).def;
    if (def >= 0 && !is_source(op(def).opcode) &&
        std::find(preds.begin(), preds.end(), def) == preds.end()) {
      preds.push_back(def);
    }
  }
  return preds;
}

std::string BasicBlock::verify() const {
  std::ostringstream os;
  for (const Operation& o : ops_) {
    if (static_cast<int>(o.operands.size()) != arity(o.opcode)) {
      os << "op " << o.id << " (" << to_string(o.opcode)
         << ") has wrong arity; ";
    }
    for (ValueId operand : o.operands) {
      if (operand < 0 || static_cast<std::size_t>(operand) >= values_.size()) {
        os << "op " << o.id << " reads undefined value " << operand << "; ";
        continue;
      }
      const OpId def = values_[static_cast<std::size_t>(operand)].def;
      if (def < 0 || def >= o.id) {
        os << "op " << o.id << " reads value " << operand
           << " not defined before it; ";
      }
    }
    if (o.opcode != Opcode::kOutput) {
      if (o.result == kNoValue ||
          values_[static_cast<std::size_t>(o.result)].def != o.id) {
        os << "op " << o.id << " result/def link broken; ";
      }
    }
  }
  return os.str();
}

}  // namespace lera::ir
