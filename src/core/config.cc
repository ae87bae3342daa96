#include "core/config.hh"

#include <algorithm>
#include <limits>

#include "bpred/btb.hh"

#include "util/logging.hh"

namespace interf::core
{

MachineConfig
MachineConfig::xeonE5440()
{
    MachineConfig cfg;
    cfg.name = "xeon-e5440";
    cfg.hierarchy.l1i = {"L1I", 32 << 10, 8, 64};
    cfg.hierarchy.l1d = {"L1D", 32 << 10, 8, 64};
    // Each E5440 chip has 12 MB of L2 shared by four cores; a single
    // core competing with an idle neighbour effectively sees half.
    // Replacement is spelled out because the shorter brace-init hides
    // a trap: MemoryHierarchyConfig's own L2 default is Random, but a
    // 4-element init here silently falls back to CacheConfig's Lru
    // default. This model has run LRU since the seed — every recorded
    // golden margin (OptGolden) and experiment is tuned to it — so
    // LRU is kept, explicitly. (DESIGN.md's "L2 replacement: Random"
    // bullet described the hierarchy default, not this machine; see
    // DESIGN.md §5j.)
    cfg.hierarchy.l2 = {"L2", 6 << 20, 24, 64, cache::Replacement::Lru};
    cfg.predictorSpec = "xeon";
    cfg.validate();
    return cfg;
}

MachineConfig
MachineConfig::withPredictor(const std::string &spec) const
{
    MachineConfig cfg = *this;
    cfg.predictorSpec = spec;
    cfg.name = name + "+" + spec;
    return cfg;
}

void
MachineConfig::validate() const
{
    if (width == 0 || width > 16)
        fatal("machine '%s': width %u out of range", name.c_str(), width);
    if (frontendDepth == 0 || frontendDepth > 100)
        fatal("machine '%s': frontendDepth %u out of range", name.c_str(),
              frontendDepth);
    if (robSize < width)
        fatal("machine '%s': robSize %u smaller than width", name.c_str(),
              robSize);
    if (maxMlp == 0)
        fatal("machine '%s': maxMlp must be >= 1", name.c_str());
    if (l2Latency <= l1Latency || memLatency <= l2Latency)
        fatal("machine '%s': latencies must increase down the hierarchy",
              name.c_str());
    // The cycle sum's per-branch charge, frontendDepth plus a resolve
    // time (a load latency, at most memLatency, or a ReplayPlan
    // extraExecCycles u8 plus 1) less a suppressed misfetchPenalty,
    // must fit a CycleDelta and never go below 0.
    constexpr u32 kMaxExtraResolve = std::numeric_limits<u8>::max() + 1;
    if (u64{frontendDepth} + std::max(memLatency, kMaxExtraResolve) >
        std::numeric_limits<CycleDelta>::max())
        fatal("machine '%s': memLatency %u with frontendDepth %u exceeds "
              "the %u-cycle mispredict charge",
              name.c_str(), memLatency, frontendDepth,
              static_cast<u32>(std::numeric_limits<CycleDelta>::max()));
    if (misfetchPenalty > frontendDepth + 1)
        fatal("machine '%s': misfetchPenalty %u exceeds frontendDepth + 1 "
              "(%u)",
              name.c_str(), misfetchPenalty, frontendDepth + 1);
    if (warmupFraction < 0.0 || warmupFraction >= 1.0)
        fatal("machine '%s': warmupFraction %g out of [0, 1)",
              name.c_str(), warmupFraction);
    const std::string btb_error =
        bpred::Btb::geometryError(btbSets, btbWays);
    if (!btb_error.empty())
        fatal("machine '%s': BTB %s", name.c_str(), btb_error.c_str());
    if (rasDepth == 0)
        fatal("machine '%s': rasDepth must be >= 1", name.c_str());
    hierarchy.l1i.validate();
    hierarchy.l1d.validate();
    hierarchy.l2.validate();
}

} // namespace interf::core
