/**
 * @file
 * Accelerator micro-architecture description (paper Sec. IV-A,
 * Table IV).
 *
 * The compute-time model needs: clock frequency f, core count
 * N_cores, MAC functional units per core N_FU with width W_FU,
 * a nonlinear functional-unit array (N_FU_nonlin, W_FU_nonlin), and
 * the operand / functional-unit precisions used in the ceil() scaling
 * of Eq. 2.
 *
 * Unit convention (Sec. 3 of DESIGN.md): the product
 * f * N_cores * N_FU * W_FU equals the accelerator's peak FLOP/s
 * (A100: 312 TFLOP/s, H100: 973 TFLOP/s, matching Table IV), so op
 * counts fed to the throughput model must be expressed in FLOPs
 * (1 MAC = 2 FLOPs).
 */

#ifndef AMPED_HW_ACCELERATOR_HPP
#define AMPED_HW_ACCELERATOR_HPP

#include <cstdint>
#include <string>

#include "common/quantity.hpp"

namespace amped {
namespace hw {

/**
 * Operand and functional-unit precisions in bits (Eq. 2).
 *
 * The compute time is scaled by ceil(max(S_p, S_act) / S_FU_MAC) for
 * MAC work and ceil(S_nonlin / S_FU_nonlin) for nonlinear work:
 * operands wider than the functional unit cost proportionally more
 * cycles, while narrower operands still occupy a full unit (ceil is
 * never below 1).
 */
struct Precisions
{
    Bits parameterBits{16.0};     ///< S_p.
    Bits activationBits{16.0};    ///< S_act.
    Bits nonlinearBits{16.0};     ///< S_nonlin.
    Bits macUnitBits{16.0};       ///< S_FU_MAC.
    Bits nonlinearUnitBits{16.0}; ///< S_FU_nonlin.

    /** Validates that every precision is positive. */
    void validate() const;
};

/**
 * Accelerator design parameters (one homogeneous device).
 */
struct AcceleratorConfig
{
    /** Display name ("NVIDIA A100", ...). */
    std::string name = "unnamed";

    /** Clock frequency f. */
    Hertz frequency;

    /** Number of compute cores (SMs), N_cores. */
    std::int64_t numCores = 0;

    /** MAC functional units per core, N_FU. */
    std::int64_t numMacUnits = 0;

    /** FLOPs per cycle per MAC unit, W_FU. */
    std::int64_t macUnitWidth = 0;

    /**
     * Nonlinear functional units, N_FU_nonlin.  Following Eq. 4 this
     * is a device-total count (the equation has no N_cores factor).
     */
    std::int64_t numNonlinUnits = 0;

    /** Ops per cycle per nonlinear unit, W_FU_nonlin. */
    std::int64_t nonlinUnitWidth = 0;

    /** Device memory capacity in bytes (feasibility checks). */
    double memoryBytes = 0.0;

    /**
     * Off-chip bandwidth (the per-accelerator intra-node bandwidth,
     * BW_intra in Table IV).
     */
    BitsPerSecond offChipBandwidth;

    /** Operand / functional-unit precisions. */
    Precisions precisions;

    /**
     * Validates all invariants.
     * @throws UserError on the first violated constraint.
     */
    void validate() const;

    /** Peak MAC-pipeline throughput f N_cores N_FU W_FU. */
    FlopsPerSecond peakMacFlops() const;

    /** Peak nonlinear throughput f N_FU_nonlin W_FU_nonlin. */
    FlopsPerSecond peakNonlinOps() const;
};

/**
 * Immutable snapshot of the accelerator-derived rates that do not
 * depend on eff(ub).  core::AmpedModel captures it once at
 * construction; core::SweepTermCache reads it when it re-prices a
 * per-batch op table at many efficiencies.  Every field is the
 * bit-exact result of the corresponding helper below, so a
 * snapshot-based evaluation matches core::layerForwardComputeTime
 * exactly.
 */
struct ComputeRateSnapshot
{
    SecondsPerFlop cNonlin;       ///< hw::cNonlin(accel).
    double macFactor = 1.0;       ///< hw::macPrecisionFactor.
    double nonlinFactor = 1.0;    ///< hw::nonlinPrecisionFactor.
};

/** Captures the derived compute rates of @p accel (validated). */
ComputeRateSnapshot computeRateSnapshot(const AcceleratorConfig &accel);

/** ceil(max(S_p, S_act) / S_FU_MAC), never below 1 (Eq. 2). */
double macPrecisionFactor(const Precisions &p);

/** ceil(S_nonlin / S_FU_nonlin), never below 1 (Eq. 2). */
double nonlinPrecisionFactor(const Precisions &p);

/**
 * Reciprocal MAC throughput C_MAC =
 * (f N_cores N_FU W_FU eff(ub))^-1 in seconds per FLOP (Eq. 3).
 *
 * @param accel Accelerator description.
 * @param efficiency eff(ub) in (0, 1].
 */
SecondsPerFlop cMac(const AcceleratorConfig &accel, double efficiency);

/**
 * Reciprocal nonlinear throughput C_nonlin =
 * (f N_FU_nonlin W_FU_nonlin)^-1 in seconds per op (Eq. 4).
 */
SecondsPerFlop cNonlin(const AcceleratorConfig &accel);

} // namespace hw
} // namespace amped

#endif // AMPED_HW_ACCELERATOR_HPP
