/**
 * @file
 * Cryptominer detection (paper Figure 1, re-implementing the profiling
 * part of SEISMIC [47]): gathers a frequency signature of the binary
 * instructions characteristic of mining kernels (i32.add, i32.and,
 * i32.shl, i32.shr_u, i32.xor) and flags executions dominated by them.
 */

#ifndef WASABI_ANALYSES_CRYPTOMINER_H
#define WASABI_ANALYSES_CRYPTOMINER_H

#include <array>
#include <cstdint>
#include <map>
#include <string>

#include "runtime/analysis.h"

namespace wasabi::analyses {

/** Instruction-signature based cryptomining detector. */
class CryptominerDetector final : public runtime::Analysis {
  public:
    runtime::HookSet
    hooks() const override
    {
        return runtime::HookSet::only(runtime::HookKind::Binary);
    }

    void
    onBinary(runtime::Location, wasm::Opcode op, wasm::Value, wasm::Value,
             wasm::Value) override
    {
        ++total_;
        if (isSignatureOp(op)) {
            ++byOpcode_[static_cast<uint8_t>(op)];
            ++signatureTotal_;
        }
    }

    runtime::HookSet
    countedHooks() const override
    {
        return hooks();
    }

    void
    onCounts(const runtime::HookSite &site,
             std::span<const uint64_t> outcomes) override
    {
        total_ += outcomes[0];
        if (isSignatureOp(site.op)) {
            byOpcode_[static_cast<uint8_t>(site.op)] += outcomes[0];
            signatureTotal_ += outcomes[0];
        }
    }

    /** Per-mnemonic signature counts (cf. Figure 1's `signature`),
     * built from the per-opcode counters when read. */
    std::map<std::string, uint64_t>
    signature() const
    {
        std::map<std::string, uint64_t> out;
        for (size_t op = 0; op < byOpcode_.size(); ++op) {
            if (byOpcode_[op] != 0)
                out[wasm::name(static_cast<wasm::Opcode>(op))] =
                    byOpcode_[op];
        }
        return out;
    }

    uint64_t totalBinaryOps() const { return total_; }

    /** Fraction of binary operations matching the mining signature. */
    double
    signatureRatio() const
    {
        return total_ == 0
                   ? 0.0
                   : static_cast<double>(signatureTotal_) / total_;
    }

    /**
     * Heuristic verdict: hash kernels are dominated by 32-bit
     * bitwise/rotate/add mixing with substantial xor traffic.
     */
    bool
    suspicious() const
    {
        if (total_ < 1000)
            return false; // too little evidence
        double xor_ratio =
            static_cast<double>(
                byOpcode_[static_cast<uint8_t>(wasm::Opcode::I32Xor)]) /
            total_;
        return signatureRatio() > 0.8 && xor_ratio > 0.15;
    }

  private:
    /** The mining signature: 32-bit add, bitwise, shift and rotate. */
    static bool
    isSignatureOp(wasm::Opcode op)
    {
        switch (op) {
          case wasm::Opcode::I32Add:
          case wasm::Opcode::I32And:
          case wasm::Opcode::I32Shl:
          case wasm::Opcode::I32ShrU:
          case wasm::Opcode::I32Xor:
          case wasm::Opcode::I32Rotl:
          case wasm::Opcode::I32Rotr:
            return true;
          default:
            return false;
        }
    }

    /** Signature counts by opcode. */
    std::array<uint64_t, 256> byOpcode_{};
    uint64_t signatureTotal_ = 0;
    uint64_t total_ = 0;
};

} // namespace wasabi::analyses

#endif // WASABI_ANALYSES_CRYPTOMINER_H
