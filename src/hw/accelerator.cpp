#include "accelerator.hpp"

#include <cmath>

#include "common/error.hpp"

namespace amped {
namespace hw {

void
Precisions::validate() const
{
    require(parameterBits > Bits{0.0}, "parameterBits must be positive");
    require(activationBits > Bits{0.0},
            "activationBits must be positive");
    require(nonlinearBits > Bits{0.0}, "nonlinearBits must be positive");
    require(macUnitBits > Bits{0.0}, "macUnitBits must be positive");
    require(nonlinearUnitBits > Bits{0.0},
            "nonlinearUnitBits must be positive");
}

void
AcceleratorConfig::validate() const
{
    require(frequency > Hertz{0.0}, name,
            ": frequency must be positive");
    require(numCores > 0, name, ": numCores must be positive");
    require(numMacUnits > 0, name, ": numMacUnits must be positive");
    require(macUnitWidth > 0, name, ": macUnitWidth must be positive");
    require(numNonlinUnits > 0, name,
            ": numNonlinUnits must be positive");
    require(nonlinUnitWidth > 0, name,
            ": nonlinUnitWidth must be positive");
    require(memoryBytes > 0.0, name, ": memoryBytes must be positive");
    require(offChipBandwidth > BitsPerSecond{0.0}, name,
            ": offChipBandwidth must be positive");
    precisions.validate();
}

FlopsPerSecond
AcceleratorConfig::peakMacFlops() const
{
    // W_FU is FLOPs per cycle; cycles are dimensionless, so scaling
    // the clock rate by the device-total FLOPs-per-cycle and tagging
    // one FLOP per cycle yields FLOP/s without touching the value.
    const Hertz scaled = frequency * static_cast<double>(numCores) *
                         static_cast<double>(numMacUnits) *
                         static_cast<double>(macUnitWidth);
    return Flops{1.0} * scaled;
}

FlopsPerSecond
AcceleratorConfig::peakNonlinOps() const
{
    const Hertz scaled = frequency *
                         static_cast<double>(numNonlinUnits) *
                         static_cast<double>(nonlinUnitWidth);
    return Flops{1.0} * scaled;
}

double
macPrecisionFactor(const Precisions &p)
{
    const double ratio =
        std::max(p.parameterBits, p.activationBits) / p.macUnitBits;
    return std::max(1.0, std::ceil(ratio));
}

double
nonlinPrecisionFactor(const Precisions &p)
{
    const double ratio = p.nonlinearBits / p.nonlinearUnitBits;
    return std::max(1.0, std::ceil(ratio));
}

SecondsPerFlop
cMac(const AcceleratorConfig &accel, double efficiency)
{
    require(efficiency > 0.0 && efficiency <= 1.0,
            "efficiency must be in (0, 1], got ", efficiency);
    return 1.0 / (accel.peakMacFlops() * efficiency);
}

SecondsPerFlop
cNonlin(const AcceleratorConfig &accel)
{
    return 1.0 / accel.peakNonlinOps();
}

ComputeRateSnapshot
computeRateSnapshot(const AcceleratorConfig &accel)
{
    accel.validate();
    ComputeRateSnapshot snap;
    snap.cNonlin = cNonlin(accel);
    snap.macFactor = macPrecisionFactor(accel.precisions);
    snap.nonlinFactor = nonlinPrecisionFactor(accel.precisions);
    return snap;
}

} // namespace hw
} // namespace amped
