/**
 * @file
 * The dynamic micro-op record that workload generators emit and the
 * timing model consumes.
 *
 * The trace is a committed-path trace (ChampSim-style): wrong-path
 * instructions are not recorded; their cost is modeled as fetch bubbles
 * after mispredictions. Loads do not carry their value — the simulator
 * derives it by replaying stores in program order, which is what makes
 * in-flight-store staleness (the paper's Challenge #1) observable.
 */

#ifndef DLVP_TRACE_INSTRUCTION_HH
#define DLVP_TRACE_INSTRUCTION_HH

#include <cstdint>

#include "common/types.hh"

namespace dlvp::trace
{

/** Micro-op classes; latencies are assigned by the core model. */
enum class OpClass : std::uint8_t
{
    IntAlu,     ///< single-cycle integer op
    IntMul,     ///< integer multiply
    IntDiv,     ///< integer divide (long latency)
    FpAlu,      ///< floating-point arithmetic
    Load,       ///< memory load (1..16 destination registers)
    Store,      ///< memory store
    CondBranch, ///< conditional direct branch
    DirectJump, ///< unconditional direct branch
    IndirectJump, ///< register-indirect branch (ITTAGE territory)
    Call,       ///< direct call (pushes RAS)
    Ret,        ///< return (pops RAS)
    Atomic,     ///< atomic / exclusive access (never address-predicted)
    Barrier,    ///< memory ordering instruction (never predicted)
    Nop,
};

/** Load flavor; matters for the ISA-specific VTAGE findings (§5.2.2). */
enum class LoadKind : std::uint8_t
{
    None,   ///< not a load
    Simple, ///< one destination register
    Pair,   ///< LDP: two destination registers
    Multi,  ///< LDM: 2..16 destination registers
    Vector, ///< VLD: 128-bit value (modeled as 2 x 64-bit destinations)
};

/** True for op classes that redirect control flow. */
constexpr bool
isControl(OpClass c)
{
    switch (c) {
      case OpClass::CondBranch:
      case OpClass::DirectJump:
      case OpClass::IndirectJump:
      case OpClass::Call:
      case OpClass::Ret:
        return true;
      default:
        return false;
    }
}

constexpr bool isLoad(OpClass c) { return c == OpClass::Load; }
constexpr bool isStore(OpClass c) { return c == OpClass::Store; }

constexpr bool
isMemRef(OpClass c)
{
    return c == OpClass::Load || c == OpClass::Store ||
           c == OpClass::Atomic;
}

/** Maximum source registers per micro-op. */
inline constexpr unsigned kMaxSrcs = 3;

/** Maximum destination registers (LDM can write up to 16). */
inline constexpr unsigned kMaxDests = 16;

/**
 * One committed dynamic micro-op.
 *
 * Multi-destination loads write @ref numDests consecutive architectural
 * registers starting at @ref destBase, loading @ref memSize bytes per
 * register from consecutive memory starting at @ref memAddr — exactly
 * the property DLVP exploits (one address prediction serves all
 * destinations) and conventional value predictors suffer from.
 */
struct TraceInst
{
    Addr pc = 0;
    OpClass cls = OpClass::Nop;
    LoadKind loadKind = LoadKind::None;

    std::uint8_t numSrcs = 0;
    std::uint8_t srcs[kMaxSrcs] = {0, 0, 0};

    std::uint8_t numDests = 0;
    std::uint8_t destBase = 0;

    /** Bytes per destination register (loads) or store width (stores). */
    std::uint8_t memSize = 0;

    bool taken = false;

    Addr memAddr = 0;

    /** Value a store writes (stores are single-register in this ISA). */
    std::uint64_t storeValue = 0;

    /**
     * Architectural result for single-destination non-load ops (used to
     * train value predictors in all-instructions mode). For loads this
     * holds the expected value of the *first* destination register, as
     * a cross-check against the memory-replay value.
     */
    std::uint64_t destValue = 0;

    Addr branchTarget = 0;

    /** Total bytes a load reads. */
    unsigned
    loadBytes() const
    {
        return static_cast<unsigned>(numDests) * memSize;
    }

    bool isLoad() const { return cls == OpClass::Load; }
    bool isStore() const { return cls == OpClass::Store; }
    bool isControl() const { return trace::isControl(cls); }
    bool isMemRef() const { return trace::isMemRef(cls); }

    /** Sequentially next PC (fall-through). */
    Addr nextPc() const { return pc + kInstBytes; }
};

// The byte fields pack into the first word's tail, so a record is
// four words after pc: every materialized trace, slice and decoded
// chunk holds one per uop, and a sampled run keeps up to three slices
// alive at once (sim/sampler.hh).
static_assert(sizeof(TraceInst) == 56, "TraceInst grew past 56 bytes");

} // namespace dlvp::trace

#endif // DLVP_TRACE_INSTRUCTION_HH
