#include "system_config.hpp"

#include "common/error.hpp"
#include "common/units.hpp"

namespace amped {
namespace net {

void
SystemConfig::validate() const
{
    require(numNodes > 0, name, ": numNodes must be positive, got ",
            numNodes);
    require(acceleratorsPerNode > 0, name,
            ": acceleratorsPerNode must be positive, got ",
            acceleratorsPerNode);
    require(nicsPerNode > 0, name, ": nicsPerNode must be positive, got ",
            nicsPerNode);
    intraLink.validate();
    interLink.validate();
}

std::int64_t
SystemConfig::totalAccelerators() const
{
    return numNodes * acceleratorsPerNode;
}

BitsPerSecond
SystemConfig::intraBandwidth() const
{
    return intraLink.bandwidth;
}

BitsPerSecond
SystemConfig::interBandwidth() const
{
    return interLink.bandwidth * static_cast<double>(nicsPerNode);
}

BitsPerSecond
SystemConfig::perStreamInterBandwidth() const
{
    return interBandwidth() /
           static_cast<double>(acceleratorsPerNode);
}

SystemSnapshot
SystemConfig::snapshot() const
{
    validate();
    SystemSnapshot snap;
    snap.numNodes = numNodes;
    snap.interIsPooledFabric = interIsPooledFabric;
    snap.intraLink = intraLink;
    // The derived inter-node links: one stream's share for ring and
    // all-to-all traffic, the node aggregate for a pipeline hop.
    // Names never enter the math.
    snap.interEffective = LinkConfig{"inter-effective", interLatency(),
                                     perStreamInterBandwidth()};
    snap.interHop =
        LinkConfig{"inter-hop", interLatency(), interBandwidth()};
    snap.interLatency = interLatency();
    snap.interBandwidth = interBandwidth();
    snap.perStreamInterBandwidth = perStreamInterBandwidth();
    return snap;
}

namespace presets {

SystemConfig
tinyTest()
{
    SystemConfig sys;
    sys.name = "tiny-test-2x2";
    sys.numNodes = 2;
    sys.acceleratorsPerNode = 2;
    sys.intraLink = LinkConfig{"test-intra", Seconds{1e-6},
                               units::gigabytesPerSecondBw(100.0)};
    sys.interLink = LinkConfig{"test-inter", Seconds{5e-6},
                               units::gigabitsPerSecondBw(100.0)};
    sys.nicsPerNode = 1;
    sys.validate();
    return sys;
}

LinkConfig
nvlinkV100()
{
    // NVLink2 + NVSwitch: 300 GB/s per GPU aggregate.
    return LinkConfig{"NVLink2+NVSwitch", Seconds{2e-6},
                      units::gigabytesPerSecondBw(300.0)};
}

LinkConfig
nvlinkA100()
{
    return LinkConfig{"NVLink3", Seconds{2e-6},
                      BitsPerSecond{2.4e12}}; // Table IV.
}

LinkConfig
nvlinkH100()
{
    return LinkConfig{"NVLink4", Seconds{2e-6},
                      BitsPerSecond{3.6e12}}; // Table IV.
}

LinkConfig
pcie3()
{
    return LinkConfig{"PCIe3 x16", Seconds{5e-6},
                      units::gigabytesPerSecondBw(15.75)};
}

LinkConfig
edrInfiniband()
{
    return LinkConfig{"EDR InfiniBand", Seconds{1.5e-6},
                      units::gigabitsPerSecondBw(100.0)};
}

LinkConfig
hdrInfiniband()
{
    return LinkConfig{"HDR InfiniBand", Seconds{1.2e-6},
                      units::gigabitsPerSecondBw(200.0)};
}

LinkConfig
ndrInfiniband()
{
    return LinkConfig{"NDR InfiniBand", Seconds{1.0e-6},
                      units::gigabitsPerSecondBw(400.0)};
}

LinkConfig
opticalFiber(BitsPerSecond off_chip)
{
    require(off_chip > BitsPerSecond{0.0},
            "opticalFiber: off-chip bandwidth must be positive");
    return LinkConfig{"optical fiber", Seconds{2e-7}, off_chip};
}

SystemConfig
hgx2(std::int64_t accelerators)
{
    require(accelerators >= 1 && accelerators <= 16,
            "hgx2: accelerator count must be in [1, 16], got ",
            accelerators);
    SystemConfig sys;
    sys.name = "HGX-2";
    sys.numNodes = 1;
    sys.acceleratorsPerNode = accelerators;
    sys.intraLink = nvlinkV100();
    // Single node: the inter-node link is unused but must be valid.
    sys.interLink = hdrInfiniband();
    sys.nicsPerNode = 1;
    sys.validate();
    return sys;
}

SystemConfig
a100Cluster1024()
{
    SystemConfig sys;
    sys.name = "128x8 A100 / HDR";
    sys.numNodes = 128;
    sys.acceleratorsPerNode = 8;
    sys.intraLink = nvlinkA100();
    sys.interLink = hdrInfiniband();
    sys.nicsPerNode = 8;
    sys.validate();
    return sys;
}

SystemConfig
lowEndCluster(std::int64_t accelerators_per_node)
{
    require(accelerators_per_node >= 1,
            "lowEndCluster: accelerators per node must be >= 1, got ",
            accelerators_per_node);
    require(1024 % accelerators_per_node == 0,
            "lowEndCluster: accelerators per node must divide 1024, "
            "got ",
            accelerators_per_node);
    SystemConfig sys;
    sys.name = "low-end " +
               std::to_string(1024 / accelerators_per_node) + "x" +
               std::to_string(accelerators_per_node) + " A100 / EDR";
    sys.numNodes = 1024 / accelerators_per_node;
    sys.acceleratorsPerNode = accelerators_per_node;
    sys.intraLink = nvlinkA100();
    sys.interLink = edrInfiniband();
    sys.nicsPerNode = accelerators_per_node;
    sys.validate();
    return sys;
}

SystemConfig
h100Cluster3072()
{
    SystemConfig sys;
    sys.name = "384x8 H100 / NDR";
    sys.numNodes = 384;
    sys.acceleratorsPerNode = 8;
    sys.intraLink = nvlinkH100();
    sys.interLink = ndrInfiniband();
    sys.nicsPerNode = 8;
    sys.validate();
    return sys;
}

} // namespace presets
} // namespace net
} // namespace amped
