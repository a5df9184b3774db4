/**
 * @file
 * Hardware-style streaming decomposer (paper Sec. V-B, Fig. 6).
 *
 * The paper's decomposer unit is a fully pipelined, multiplier-free
 * datapath split into a *rounding step* (masking + carry add) and an
 * *extraction step* (precomputed masks, shifts, and a carry chain from
 * the least-significant level upward). This class is a cycle-faithful
 * software model of that datapath: it consumes one coefficient per
 * "cycle" and emits one decomposed coefficient per cycle per lane,
 * buffering the rounded coefficients exactly as the hardware does.
 *
 * The test suite proves the output bit-identical to the reference
 * gadget decomposition in decompose.h.
 */

#ifndef STRIX_TFHE_DECOMPOSER_HW_H
#define STRIX_TFHE_DECOMPOSER_HW_H

#include <cstdint>
#include <deque>
#include <vector>

#include "tfhe/decompose.h"

namespace strix {

/**
 * Streaming decomposer modeled after the paper's two-step
 * microarchitecture. Uses only masks, shifts, and adds.
 */
class StreamingDecomposer
{
  public:
    explicit StreamingDecomposer(const GadgetParams &g);

    /**
     * Combinational model of one lane: decompose one coefficient into
     * levels digits (most-significant level first), using only
     * mask/shift/add -- no multiply, no divide.
     */
    void decomposeOne(int32_t *digits, Torus32 coeff) const;

    /**
     * Stream interface: push an input coefficient (one per cycle).
     * After the pipeline fill, pop() yields, per cycle, one digit of
     * one buffered coefficient; digits of a given coefficient appear
     * over `levels` consecutive cycles, matching the N/CLP * lb cycle
     * occupancy stated in Sec. V-B.
     */
    void push(Torus32 coeff);

    /** Whether an output digit is available this cycle. */
    bool outputReady() const { return !out_fifo_.empty(); }

    /**
     * Pop the next output digit.
     * @param level receives the digit's level index (0-based, MSB
     *              level first)
     */
    int32_t pop(uint32_t &level);

    /** Cycles a full N-coefficient polynomial occupies this unit. */
    static uint64_t
    cyclesPerPoly(uint64_t big_n, uint64_t lanes, uint64_t levels)
    {
        return big_n / lanes * levels;
    }

    const GadgetParams &gadget() const { return g_; }

  private:
    /** Rounding step: mask upper bits, add the rounding carry. */
    Torus32 roundStep(Torus32 coeff) const;

    GadgetParams g_;
    Torus32 round_carry_;        //!< precomputed rounding increment
    Torus32 round_mask_;         //!< precomputed upper-bit mask
    std::vector<Torus32> level_mask_;  //!< per-level extraction masks
    std::vector<uint32_t> level_shift_;

    /** Buffer between rounding and extraction (the paper's buffer). */
    std::deque<Torus32> rounded_fifo_;
    /** Output digit FIFO with level tags. */
    std::deque<std::pair<int32_t, uint32_t>> out_fifo_;
};

/**
 * Decompose a polynomial through the streaming datapath; tests use it
 * to check that the hardware stream order yields the same digits as
 * gadgetDecomposePoly.
 */
void streamingDecomposePoly(std::vector<IntPolynomial> &out,
                            const TorusPolynomial &poly,
                            const GadgetParams &g);

} // namespace strix

#endif // STRIX_TFHE_DECOMPOSER_HW_H
