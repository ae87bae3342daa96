/**
 * @file
 * The event loops the shared and per-layout forms share (DESIGN.md
 * §5t, §5u, §5v). Internal to src/core. The BTB outcome's builder is
 * templated on the lookup: the plan part's first touch, or the
 * Machine's own BTB. The cycle sum's builder is, beside runReference(),
 * the one event loop that computes a replay's cycle terms. It is
 * templated on where each L1D miss's level comes from:
 *
 *  - core/shared.cc builds the shared form once per data stream, with
 *    levels read from the L2 first-touch bits;
 *  - core/timing.cc builds a per-layout form wherever the L2 is
 *    simulated: levels come from the Machine's hierarchy, and the
 *    level source fetches in line before each event's accesses, so the
 *    L2 sees fetch and data misses interleaved as in runReference().
 *
 * Either way a replay's cycles are sumBase + btbPenalty + its fetch
 * stalls + delta[j] summed over the conditional branches j >= condFrom
 * its predictor mispredicts.
 */

#ifndef INTERF_CORE_CYCLESUM_HH
#define INTERF_CORE_CYCLESUM_HH

#include "bpred/btb.hh"
#include "cache/hierarchy.hh"
#include "core/config.hh"
#include "core/shared.hh"
#include "trace/replay.hh"
#include "util/logging.hh"

namespace interf::core
{

/**
 * Fill @p out, a BTB's outcome over @p plan's taken non-return
 * branches, in event order. @p lookup(site, target) returns what the
 * BTB held for the branch of @p site and leaves @p target there.
 */
template <class Lookup>
void
buildBtb(const MachineConfig &machine, const trace::ReplayPlan &plan,
         Lookup &lookup, BtbOutcome &out)
{
    using trace::ReplayPlan;
    out.condMissBits.assign((plan.condSite.size() + 63) / 64, 0);
    u64 *cond_miss = out.condMissBits.data();
    const u32 *ev_site = plan.site.data();
    const u8 *ev_flags = plan.flags.data();
    const u32 *ev_target = plan.targetSite.data();
    const Cycle depth = machine.frontendDepth;
    const Cycle misfetch = machine.misfetchPenalty;
    const size_t n = plan.eventCount();
    const size_t warmup_event = warmupEvent(machine, plan);
    constexpr u8 kMask =
        ReplayPlan::kHasBranch | ReplayPlan::kReturn | ReplayPlan::kTaken;
    Count misses = 0;
    Cycle penalty = 0;
    size_t cond = 0;
    // lint:hot-begin BTB outcome builder (tools/lint_hotpath.py)
    for (size_t e = 0; e < n; ++e) {
        const u8 f = ev_flags[e];
        if ((f & kMask) == (ReplayPlan::kHasBranch | ReplayPlan::kTaken)) {
            // Site tokens stand for target addresses: block addresses
            // are injective per layout, so the equalities agree.
            const u32 target = ev_target[e];
            const bpred::BtbResult held = lookup(ev_site[e], target);
            if (!held.hit || held.target != target) {
                if (f & ReplayPlan::kCond)
                    cond_miss[cond >> 6] |= u64{1} << (cond & 63);
                if (e >= warmup_event) {
                    ++misses;
                    penalty += (f & ReplayPlan::kIndirect) && held.hit
                                   ? depth
                                   : misfetch;
                }
            }
        }
        cond += (f & ReplayPlan::kCond) != 0;
    }
    // lint:hot-end
    INTERF_ASSERT(cond == plan.condSite.size());
    out.misses = misses;
    out.penalty = penalty;
}

/**
 * Fill @p out's terms over @p plan's events: sumBase, instructions,
 * condBranches, rasMispredicts, condFrom and one delta per conditional
 * branch (the caller fills the data-miss counts). @p l1d_hit, @p ras_miss and @p cond_btb_miss
 * are per-access, per-event and per-conditional-branch verdict bits
 * (bit i % 64 of word i / 64); the last marks the taken conditional
 * branches whose BTB misses, on which a mispredict suppresses the
 * misfetch. @p levels is the level source:
 *
 *  - beforeEvent(e): runs before event @p e's accesses and returns the
 *    fetch stall it charges;
 *  - belowL1(mem): the level of access @p mem, which missed the L1D;
 *  - redirect(): runs after a return or a taken branch;
 *  - warmup(): runs at the warmup event, where every count restarts.
 *
 * Returns the fetch stalls from the warmup event on. @p machine must be
 * valid (MachineConfig::validate()), which proves every charge fits a
 * CycleDelta.
 */
template <class Levels>
Cycle
buildSum(const MachineConfig &machine, const trace::ReplayPlan &plan,
         const u64 *l1d_hit, const u64 *ras_miss, const u64 *cond_btb_miss,
         Levels &levels, CycleSum &out)
{
    using trace::ReplayPlan;
    out.delta.assign(plan.condSite.size(), 0);

    const u32 lat_by_level[3] = {machine.l1Latency, machine.l2Latency,
                                 machine.memLatency};
    const u32 width = machine.width;
    const u32 rob = machine.robSize;
    const u32 max_mlp = machine.maxMlp;
    const u32 depth = machine.frontendDepth;
    const u32 misfetch = machine.misfetchPenalty;
    const u16 *ev_insts = plan.nInsts.data();
    const u8 *ev_extra = plan.extraExecCycles.data();
    const u16 *ev_nmem = plan.nMem.data();
    const u8 *ev_flags = plan.flags.data();
    const u8 *mem_is_store = plan.memIsStore.data();
    CycleDelta *delta = out.delta.data();
    auto bit = [](const u64 *bits, size_t i) -> bool {
        return (bits[i >> 6] >> (i & 63)) & 1;
    };
    Cycle cycles = 0;
    Cycle stall = 0;
    u64 insts = 0;
    u64 cluster_start_inst = 0;
    u32 cluster_outstanding = 0;
    Count ras_misses = 0;
    size_t mem = 0;
    size_t cond = 0;
    const size_t n = plan.eventCount();
    const size_t warmup_event = warmupEvent(machine, plan);
    // lint:hot-begin cycle-sum builder (tools/lint_hotpath.py)
    // One loop with the warmup test inside, as in runReference(): the
    // state above stays in registers, where a lambda run over the two
    // halves would reach it through its captures.
    for (size_t e = 0; e < n; ++e) {
        if (e == warmup_event) {
            // Forget what was counted, keep the state.
            cycles = 0;
            stall = 0;
            insts = 0;
            cluster_start_inst = 0;
            cluster_outstanding = 0;
            ras_misses = 0;
            levels.warmup();
            out.condFrom = cond;
        }
        stall += levels.beforeEvent(e);
        cycles += ev_extra[e];
        insts += ev_insts[e];
        // L1D hits are hidden by the OoO window: only misses enter the
        // MLP walk.
        u32 last_load_latency = 0;
        for (u32 m = ev_nmem[e]; m > 0; --m, ++mem) {
            const cache::HitLevel level = bit(l1d_hit, mem)
                                              ? cache::HitLevel::L1
                                              : levels.belowL1(mem);
            const u32 lat = lat_by_level[static_cast<u32>(level)];
            if (!mem_is_store[mem])
                last_load_latency = lat;
            if (level == cache::HitLevel::L1)
                continue;
            if (insts - cluster_start_inst <= rob &&
                cluster_outstanding > 0 && cluster_outstanding < max_mlp) {
                ++cluster_outstanding;
            } else {
                cycles += lat;
                cluster_start_inst = insts;
                cluster_outstanding = 1;
            }
        }
        // A mispredict's charge instead of a prediction, less the
        // misfetch it suppresses where the BTB misses the branch.
        const u8 f = ev_flags[e];
        if (f & ReplayPlan::kCond) {
            const u32 resolve =
                (f & ReplayPlan::kDependsOnLoad) && last_load_latency > 0
                    ? last_load_latency
                    : u32{ev_extra[e]} + 1;
            const u32 suppressed = bit(cond_btb_miss, cond) ? misfetch : 0;
            delta[cond++] =
                static_cast<CycleDelta>(depth + resolve - suppressed);
        } else if ((f & ReplayPlan::kReturn) && bit(ras_miss, e)) {
            ++ras_misses;
            cycles += depth;
        }
        if ((f & ReplayPlan::kHasBranch) &&
            (f & (ReplayPlan::kReturn | ReplayPlan::kTaken)))
            levels.redirect();
    }
    // lint:hot-end
    INTERF_ASSERT(mem == plan.memCount() && cond == out.delta.size());
    // Issue slots: runReference() carries the partial-width remainder
    // from event to event, so its issue cycles telescope to
    // floor(insts / width) over the counted events.
    out.sumBase = cycles + insts / width;
    out.instructions = insts;
    out.condBranches = cond - out.condFrom;
    out.rasMispredicts = ras_misses;
    return stall;
}

} // namespace interf::core

#endif // INTERF_CORE_CYCLESUM_HH
