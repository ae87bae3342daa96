/**
 * @file
 * Machine configuration: the modeled "real system".
 *
 * The paper measures two quad-core Intel Xeon E5440 processors (45 nm
 * Enhanced Core microarchitecture, 32 KB L1I + 32 KB L1D per core,
 * 12 MB L2 per chip shared by four cores, undocumented hybrid
 * GAs+bimodal branch predictor). MachineConfig::xeonE5440() captures
 * that machine as the timing model sees it; other configurations are
 * used for the MASE-style linearity sweep where only the predictor
 * varies.
 */

#ifndef INTERF_CORE_CONFIG_HH
#define INTERF_CORE_CONFIG_HH

#include <string>

#include "cache/hierarchy.hh"
#include "util/types.hh"

namespace interf::core
{

/**
 * One conditional branch's cycle charge when it mispredicts, as the
 * cycle sum stores it (CycleSum::delta, DESIGN.md §5t):
 * frontendDepth plus a resolve time, less a misfetch the mispredict
 * suppresses. MachineConfig::validate() bounds the fields it is made
 * of so that every charge fits.
 */
using CycleDelta = u16;

/** Full parameterization of the modeled machine. */
struct MachineConfig
{
    std::string name = "xeon-e5440";

    /** @{ Pipeline. */
    u32 width = 4;          ///< Sustainable retire width (uops/cycle).
    u32 frontendDepth = 16; ///< Fetch-to-execute refill after redirect.
    u32 robSize = 96;       ///< Reorder-buffer reach for miss overlap.
    /** @} */

    /** @{ Memory latencies (cycles) and parallelism. */
    u32 l1Latency = 3;
    u32 l2Latency = 15;
    u32 memLatency = 220;
    u32 maxMlp = 6; ///< Data misses that can overlap.
    /** @} */

    /** @{ Branch machinery. */
    std::string predictorSpec = "xeon";
    u32 btbSets = 1024;
    u32 btbWays = 4;
    u32 rasDepth = 16; ///< Return-address-stack entries.
    u32 misfetchPenalty = 6; ///< Taken-branch BTB miss (front-end only).
    /** @} */

    cache::HierarchyConfig hierarchy;

    /**
     * Fraction of each trace executed before counters start. The paper
     * measures multi-minute runs whose cold-start transients are
     * negligible; our traces are orders of magnitude shorter, so the
     * model warms caches and predictors on the first part of the trace
     * and measures the steady state, like a real whole-run measurement.
     */
    double warmupFraction = 0.25;

    /** The paper's measured machine. */
    static MachineConfig xeonE5440();

    /**
     * The same machine with a different branch predictor — the
     * single-variable change the MASE linearity study makes.
     */
    MachineConfig withPredictor(const std::string &spec) const;

    /** Sanity checks; fatal() on invalid values. */
    void validate() const;
};

} // namespace interf::core

#endif // INTERF_CORE_CONFIG_HH
