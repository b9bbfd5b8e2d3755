/**
 * @file
 * In-memory instruction representation: an opcode plus its decoded
 * immediates. Function bodies are flat vectors of Instr; structure
 * (block/loop/if/else/end nesting) is implicit, exactly as in the
 * binary format.
 */

#ifndef WASABI_WASM_INSTR_H
#define WASABI_WASM_INSTR_H

#include <cstdint>
#include <optional>
#include <span>
#include <type_traits>
#include <vector>

#include "wasm/opcode.h"
#include "wasm/types.h"

namespace wasabi::wasm {

/**
 * Block result type of block/loop/if. The MVP binary format allows
 * either an empty result or a single value type.
 */
using BlockType = std::optional<ValType>;

/** Memory immediate of loads/stores: alignment exponent and offset. */
struct MemArg {
    uint32_t align = 0;
    uint32_t offset = 0;

    bool operator==(const MemArg &other) const = default;
};

/** Block-type byte of a block/loop/if without a result. */
inline constexpr uint8_t kEmptyBlockByte = 0x40;

/**
 * One decoded instruction, 16 bytes and trivially copyable, so that a
 * body copies as one memcpy. Immediates are a union discriminated by
 * opInfo(op).imm. br_table labels are variable-length and live in the
 * owning function's label pool (Function::labelPool): the instruction
 * holds their offset in `aux` and their count, default included, in
 * `imm.idx`.
 */
struct Instr {
    Opcode op = Opcode::Nop;

    /** block/loop/if: the binary block-type byte (kEmptyBlockByte, or
     * a value type's byte); read it through block(). */
    uint8_t blockByte = kEmptyBlockByte;

    /** br_table: offset of its labels in the function's label pool. */
    uint32_t aux = 0;

    union Imm {
        uint32_t idx;    ///< label / func / local / global / type index;
                         ///< br_table: label count, default included
        MemArg mem;      ///< loads & stores
        uint32_t i32v;   ///< i32.const payload (as bits)
        uint64_t i64v;   ///< i64.const payload (as bits)
        float f32v;      ///< f32.const payload
        double f64v;     ///< f64.const payload

        Imm() : i64v(0) {}
    } imm;

    Instr() = default;

    explicit Instr(Opcode o) : op(o) {}

    /** Block result type; meaningful for block/loop/if only. */
    BlockType
    block() const
    {
        // Value type bytes run down from 0x7F (i32) in ValType order.
        if (blockByte == kEmptyBlockByte)
            return std::nullopt;
        return static_cast<ValType>(0x7F - blockByte);
    }

    /** Builder helpers for common instructions. @{ */
    static Instr
    i32Const(uint32_t v)
    {
        Instr i(Opcode::I32Const);
        i.imm.i32v = v;
        return i;
    }

    static Instr
    i64Const(uint64_t v)
    {
        Instr i(Opcode::I64Const);
        i.imm.i64v = v;
        return i;
    }

    static Instr
    f32Const(float v)
    {
        Instr i(Opcode::F32Const);
        i.imm.f32v = v;
        return i;
    }

    static Instr
    f64Const(double v)
    {
        Instr i(Opcode::F64Const);
        i.imm.f64v = v;
        return i;
    }

    static Instr
    withIdx(Opcode o, uint32_t idx)
    {
        Instr i(o);
        i.imm.idx = idx;
        return i;
    }

    static Instr
    localGet(uint32_t idx)
    {
        return withIdx(Opcode::LocalGet, idx);
    }

    static Instr
    localSet(uint32_t idx)
    {
        return withIdx(Opcode::LocalSet, idx);
    }

    static Instr
    localTee(uint32_t idx)
    {
        return withIdx(Opcode::LocalTee, idx);
    }

    static Instr
    globalGet(uint32_t idx)
    {
        return withIdx(Opcode::GlobalGet, idx);
    }

    static Instr
    globalSet(uint32_t idx)
    {
        return withIdx(Opcode::GlobalSet, idx);
    }

    static Instr
    call(uint32_t func_idx)
    {
        return withIdx(Opcode::Call, func_idx);
    }

    static Instr
    callIndirect(uint32_t type_idx)
    {
        return withIdx(Opcode::CallIndirect, type_idx);
    }

    static Instr
    br(uint32_t label)
    {
        return withIdx(Opcode::Br, label);
    }

    static Instr
    brIf(uint32_t label)
    {
        return withIdx(Opcode::BrIf, label);
    }

    /** A br_table whose labels, then @p default_label, are appended
     * to the function's label @p pool. */
    static Instr
    brTable(std::vector<uint32_t> &pool, std::span<const uint32_t> labels,
            uint32_t default_label)
    {
        Instr i(Opcode::BrTable);
        i.aux = static_cast<uint32_t>(pool.size());
        i.imm.idx = static_cast<uint32_t>(labels.size() + 1);
        pool.insert(pool.end(), labels.begin(), labels.end());
        pool.push_back(default_label);
        return i;
    }

    static Instr
    blockStart(Opcode o, BlockType bt)
    {
        Instr i(o);
        i.blockByte = bt ? binaryByte(*bt) : kEmptyBlockByte;
        return i;
    }

    static Instr
    memOp(Opcode o, uint32_t align, uint32_t offset)
    {
        Instr i(o);
        i.imm.mem = MemArg{align, offset};
        return i;
    }
    /** @} */

    /** The value pushed by a const instruction. */
    Value constValue() const;

    bool operator==(const Instr &other) const;
};

static_assert(sizeof(Instr) == 16);
static_assert(std::is_trivially_copyable_v<Instr>);

/**
 * The labels of br_table @p in (default last) in its function's label
 * @p pool; empty if the instruction names no slice of the pool.
 */
inline std::span<const uint32_t>
brTableLabels(std::span<const uint32_t> pool, const Instr &in)
{
    if (in.aux > pool.size() || in.imm.idx > pool.size() - in.aux)
        return {};
    return pool.subspan(in.aux, in.imm.idx);
}

/** Structural + immediate equality (ignores unused union bytes). A
 * br_table compares its pool slice, not the labels in it. */
bool sameImm(const Instr &a, const Instr &b);

} // namespace wasabi::wasm

#endif // WASABI_WASM_INSTR_H
