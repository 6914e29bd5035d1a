#include <gtest/gtest.h>

#include <limits>
#include <stdexcept>

#include "ir/basic_block.hpp"
#include "ir/eval.hpp"
#include "ir/task_graph.hpp"
#include "workloads/kernels.hpp"
#include "workloads/random_gen.hpp"

namespace lera::ir {
namespace {

TEST(Opcode, Arity) {
  EXPECT_EQ(arity(Opcode::kInput), 0);
  EXPECT_EQ(arity(Opcode::kConst), 0);
  EXPECT_EQ(arity(Opcode::kNeg), 1);
  EXPECT_EQ(arity(Opcode::kAdd), 2);
  EXPECT_EQ(arity(Opcode::kMac), 3);
  EXPECT_EQ(arity(Opcode::kOutput), 1);
}

TEST(Opcode, LatencyModel) {
  EXPECT_EQ(default_latency(Opcode::kAdd), 1);
  EXPECT_EQ(default_latency(Opcode::kMul), 2);
  EXPECT_EQ(default_latency(Opcode::kDiv), 4);
  EXPECT_EQ(default_latency(Opcode::kInput), 0);
  EXPECT_EQ(default_latency(Opcode::kOutput), 0);
}

TEST(Opcode, SourceClassification) {
  EXPECT_TRUE(is_source(Opcode::kInput));
  EXPECT_TRUE(is_source(Opcode::kConst));
  EXPECT_FALSE(is_source(Opcode::kAdd));
  EXPECT_FALSE(is_source(Opcode::kOutput));
}

TEST(BasicBlock, BuildsSsaForm) {
  BasicBlock bb("t");
  const ValueId x = bb.input("x");
  const ValueId y = bb.input("y");
  const ValueId sum = bb.emit(Opcode::kAdd, {x, y}, "sum");
  bb.output(sum);

  EXPECT_EQ(bb.num_values(), 3u);
  EXPECT_EQ(bb.num_ops(), 4u);  // 2 inputs + add + output
  EXPECT_EQ(bb.value(sum).name, "sum");
  EXPECT_EQ(bb.value(sum).def, 2);
  EXPECT_EQ(bb.value(x).uses.size(), 1u);
  EXPECT_EQ(bb.value(sum).uses.size(), 1u);  // Used by the output op.
  EXPECT_TRUE(bb.verify().empty()) << bb.verify();
}

TEST(BasicBlock, ConstantsCarryLiterals) {
  BasicBlock bb("t");
  const ValueId c = bb.constant(42);
  EXPECT_EQ(bb.value(c).literal, 42);
  EXPECT_EQ(bb.value(c).name, "c42");
}

TEST(BasicBlock, PredecessorsSkipSources) {
  BasicBlock bb("t");
  const ValueId x = bb.input("x");
  const ValueId c = bb.constant(3);
  const ValueId a = bb.emit(Opcode::kAdd, {x, c}, "a");
  const ValueId b = bb.emit(Opcode::kMul, {a, a}, "b");
  (void)b;
  const OpId mul_op = bb.value(b).def;
  EXPECT_EQ(bb.predecessors(mul_op), (std::vector<OpId>{bb.value(a).def}));
  EXPECT_TRUE(bb.predecessors(bb.value(a).def).empty());
}

TEST(Eval, ArithmeticSemantics) {
  BasicBlock bb("t");
  const ValueId x = bb.input("x");
  const ValueId y = bb.input("y");
  const ValueId s = bb.emit(Opcode::kAdd, {x, y}, "s");
  const ValueId d = bb.emit(Opcode::kSub, {x, y}, "d");
  const ValueId m = bb.emit(Opcode::kMul, {s, d}, "m");
  bb.output(m);

  const auto env = evaluate(bb, {7, 3});
  EXPECT_EQ(env[static_cast<std::size_t>(s)], 10);
  EXPECT_EQ(env[static_cast<std::size_t>(d)], 4);
  EXPECT_EQ(env[static_cast<std::size_t>(m)], 40);
}

TEST(Eval, SixteenBitWraparound) {
  BasicBlock bb("t");
  const ValueId x = bb.input("x");
  const ValueId y = bb.input("y");
  const ValueId s = bb.emit(Opcode::kAdd, {x, y}, "s");
  bb.output(s);
  // 0x7fff + 1 wraps to -0x8000 in 16-bit two's complement.
  const auto env = evaluate(bb, {0x7fff, 1});
  EXPECT_EQ(env[static_cast<std::size_t>(s)], -0x8000);
}

TEST(Eval, DivByZeroYieldsZero) {
  BasicBlock bb("t");
  const ValueId x = bb.input("x");
  const ValueId y = bb.input("y");
  const ValueId q = bb.emit(Opcode::kDiv, {x, y}, "q");
  bb.output(q);
  EXPECT_EQ(evaluate(bb, {5, 0})[static_cast<std::size_t>(q)], 0);
}

TEST(Eval, MacAndMinMax) {
  BasicBlock bb("t");
  const ValueId a = bb.input("a");
  const ValueId b = bb.input("b");
  const ValueId c = bb.input("c");
  const ValueId mac = bb.emit(Opcode::kMac, {a, b, c}, "mac");
  const ValueId mn = bb.emit(Opcode::kMin, {mac, a}, "mn");
  const ValueId mx = bb.emit(Opcode::kMax, {mac, a}, "mx");
  bb.output(mn);
  bb.output(mx);
  const auto env = evaluate(bb, {3, 4, 5});
  EXPECT_EQ(env[static_cast<std::size_t>(mac)], 17);
  EXPECT_EQ(env[static_cast<std::size_t>(mn)], 3);
  EXPECT_EQ(env[static_cast<std::size_t>(mx)], 17);
}

/// Every operation of the evaluator on two inputs, all at \p width bits.
struct WideBlock {
  BasicBlock bb{"wide"};
  ValueId add{}, sub{}, mul{}, mac{}, div{}, shl{}, neg{}, abs{};

  explicit WideBlock(int width) {
    const ValueId x = bb.input("x", width);
    const ValueId y = bb.input("y", width);
    add = bb.emit(Opcode::kAdd, {x, y}, "add", width);
    sub = bb.emit(Opcode::kSub, {x, y}, "sub", width);
    mul = bb.emit(Opcode::kMul, {x, y}, "mul", width);
    mac = bb.emit(Opcode::kMac, {x, y, x}, "mac", width);
    div = bb.emit(Opcode::kDiv, {x, y}, "div", width);
    shl = bb.emit(Opcode::kShl, {x, y}, "shl", width);
    neg = bb.emit(Opcode::kNeg, {x}, "neg", width);
    abs = bb.emit(Opcode::kAbs, {x}, "abs", width);
    for (ValueId v : {add, sub, mul, mac, div, shl, neg, abs}) bb.output(v);
  }
};

/// Two's-complement reduction of \p u to \p width bits, written
/// independently of the evaluator.
std::int64_t reduce(std::uint64_t u, int width) {
  if (width == 32) {
    return static_cast<std::int32_t>(static_cast<std::uint32_t>(u));
  }
  return static_cast<std::int64_t>(u);
}

void expect_wide_semantics(int width, std::int64_t lo, std::int64_t hi) {
  const WideBlock w(width);
  for (std::int64_t x : {lo, lo + 1, std::int64_t{-1}, std::int64_t{0},
                         std::int64_t{1}, hi - 1, hi}) {
    for (std::int64_t y : {lo, std::int64_t{-1}, std::int64_t{0},
                           std::int64_t{1}, std::int64_t{15}, hi}) {
      const auto env = evaluate(w.bb, {x, y});
      const auto at = [&env](ValueId v) {
        return env[static_cast<std::size_t>(v)];
      };
      const auto ux = static_cast<std::uint64_t>(x);
      const auto uy = static_cast<std::uint64_t>(y);
      SCOPED_TRACE(::testing::Message() << "width " << width << " x " << x
                                        << " y " << y);
      EXPECT_EQ(at(w.add), reduce(ux + uy, width));
      EXPECT_EQ(at(w.sub), reduce(ux - uy, width));
      EXPECT_EQ(at(w.mul), reduce(ux * uy, width));
      EXPECT_EQ(at(w.mac), reduce(ux * uy + ux, width));
      EXPECT_EQ(at(w.div), y == 0    ? 0
                           : y == -1 ? reduce(0 - ux, width)
                                     : reduce(static_cast<std::uint64_t>(x / y),
                                              width));
      EXPECT_EQ(at(w.shl), reduce(ux << (y & 15), width));
      EXPECT_EQ(at(w.neg), reduce(0 - ux, width));
      EXPECT_EQ(at(w.abs), reduce(x < 0 ? 0 - ux : ux, width));
    }
  }
}

TEST(Eval, ThirtyTwoBitExtremesWrap) {
  expect_wide_semantics(32, std::numeric_limits<std::int32_t>::min(),
                        std::numeric_limits<std::int32_t>::max());
}

TEST(Eval, SixtyFourBitExtremesWrap) {
  // INT64_MIN / -1, -INT64_MIN and abs(INT64_MIN) all wrap to INT64_MIN;
  // INT64_MAX + 1 and the products wrap modulo 2^64.
  expect_wide_semantics(64, std::numeric_limits<std::int64_t>::min(),
                        std::numeric_limits<std::int64_t>::max());
  const WideBlock w(64);
  const std::int64_t min = std::numeric_limits<std::int64_t>::min();
  const auto env = evaluate(w.bb, {min, -1});
  EXPECT_EQ(env[static_cast<std::size_t>(w.div)], min);
  EXPECT_EQ(env[static_cast<std::size_t>(w.neg)], min);
  EXPECT_EQ(env[static_cast<std::size_t>(w.abs)], min);
}

TEST(BasicBlock, RejectsWidthsOutsideOneToSixtyFour) {
  BasicBlock bb("t");
  EXPECT_THROW(bb.input("zero", 0), std::invalid_argument);
  EXPECT_THROW(bb.input("wide", 65), std::invalid_argument);
  EXPECT_THROW(bb.constant(1, "c", -3), std::invalid_argument);
  const ValueId one = bb.input("one", 1);
  const ValueId full = bb.input("full", 64);
  EXPECT_THROW(bb.emit(Opcode::kAdd, {one, full}, "s", 128),
               std::invalid_argument);
  EXPECT_TRUE(bb.value(one).uses.empty());  // The failed emit left no use.
  EXPECT_TRUE(bb.verify().empty()) << bb.verify();
  EXPECT_EQ(bb.value(full).width, 64);
  EXPECT_EQ(evaluate(bb, {1, -1})[static_cast<std::size_t>(one)], -1);
}

TEST(Eval, TraceShapeMatchesSamples) {
  const BasicBlock bb = workloads::make_fir(4);
  const auto inputs = workloads::random_inputs(bb, 10, 7);
  const auto trace = evaluate_trace(bb, inputs);
  EXPECT_EQ(trace.size(), 10u);
  EXPECT_EQ(trace[0].size(), bb.num_values());
}

TEST(Eval, DeterministicForSameInputs) {
  const BasicBlock bb = workloads::make_rsp(3);
  const auto inputs = workloads::random_inputs(bb, 4, 99);
  EXPECT_EQ(evaluate_trace(bb, inputs), evaluate_trace(bb, inputs));
}

TEST(TaskGraph, OrderAndDeps) {
  TaskGraph tg;
  const TaskId t0 = tg.add_task("filter", workloads::make_fir(4));
  const TaskId t1 = tg.add_task("detect", workloads::make_fft_butterfly(),
                                {t0});
  EXPECT_EQ(tg.num_tasks(), 2u);
  EXPECT_EQ(tg.task(t1).deps, (std::vector<TaskId>{t0}));
  EXPECT_EQ(tg.topological_order(), (std::vector<TaskId>{0, 1}));
}

TEST(Kernels, AllVerifyStructurally) {
  for (const BasicBlock& bb :
       {workloads::make_fir(8), workloads::make_iir_biquad(),
        workloads::make_elliptic_wave_filter(),
        workloads::make_fft_butterfly(), workloads::make_dct4(),
        workloads::make_rsp(6)}) {
    EXPECT_TRUE(bb.verify().empty()) << bb.name() << ": " << bb.verify();
  }
}

TEST(Kernels, RandomDfgVerifies) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    const BasicBlock bb = workloads::random_dfg(seed);
    EXPECT_TRUE(bb.verify().empty()) << "seed " << seed;
  }
}

TEST(Kernels, FirComputesDotProduct) {
  const BasicBlock bb = workloads::make_fir(3);
  // Coefficients are 1, 4, 7 (3k+1).
  const auto env = evaluate(bb, {2, 3, 5});
  std::int64_t result = 0;
  for (const Value& v : bb.values()) {
    if (v.name == "acc2") result = env[static_cast<std::size_t>(v.id)];
  }
  EXPECT_EQ(result, 2 * 1 + 3 * 4 + 5 * 7);
}

}  // namespace
}  // namespace lera::ir
