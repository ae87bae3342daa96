/**
 * @file
 * ReplayPlanVerifier: compiled replay plans checked structurally and
 * proven equivalent to their source (Program, Trace) pair.
 *
 * A ReplayPlan is the artifact a replay trusts blindly — it
 * never touches the Program or Trace again — so a silently wrong plan
 * corrupts every sample of a campaign. Two layers:
 *
 *   1. structural — every SoA array sized to its peers, the site table
 *      a faithful dense proc-major numbering of the program's blocks,
 *      every cross-reference (event site, branch target, RAS push,
 *      return successor, memory rank) in range, the memory-id
 *      universe/rank factorization exact;
 *   2. equivalence — with the source trace at hand, re-derive every
 *      event's geometry, flags and resolved control-flow targets from
 *      (Program, Trace) and require the plan to match entity by
 *      entity, including the conditional substream and the per-access
 *      store flags.
 *
 * Layer 2 deliberately re-implements the flattening rules instead of
 * calling the ReplayPlan constructor: the verifier is an independent
 * restatement of what "compiled from this trace" means.
 */

#include <unordered_set>

#include "verify/verify.hh"

#include "trace/program.hh"
#include "trace/replay.hh"
#include "trace/trace.hh"
#include "util/logging.hh"

namespace interf::verify
{

namespace
{

using trace::BasicBlock;
using trace::BlockEvent;
using trace::OpClass;
using trace::Program;
using trace::ReplayPlan;
using trace::Trace;

class ReplayPlanVerifier : public Pass
{
  public:
    const char *name() const override { return "replay-plan"; }

    bool applicable(const Artifacts &a) const override
    {
        return a.plan != nullptr && a.program != nullptr;
    }

    void run(const Artifacts &a, VerifyResult &out) const override;
};

/** Check one array's size against its peers; report if it disagrees. */
template <typename T>
bool
sizedLike(const std::vector<T> &arr, size_t expect, const char *what,
          Sink &sink)
{
    if (arr.size() == expect)
        return true;
    sink.error(EntityKind::Artifact, 0,
               strprintf("%s has %zu entries, expected %zu", what,
                         arr.size(), expect));
    return false;
}

/** A site reference that is either kNoSite or in range. */
bool
siteRefOk(u32 ref, size_t n_sites)
{
    return ref == ReplayPlan::kNoSite || ref < n_sites;
}

/** Structural layer; returns false when deeper layers cannot proceed. */
bool
checkStructure(const Program &prog, const ReplayPlan &plan, Sink &sink)
{
    const size_t n_events = plan.site.size();
    const size_t n_mem = plan.memId.size();
    const size_t n_sites = plan.siteProc.size();

    // All SoA arrays mutually sized. Use & (not &&) so every mismatch
    // is reported, not just the first.
    bool ok = sizedLike(plan.bytes, n_events, "bytes", sink);
    ok &= sizedLike(plan.nInsts, n_events, "nInsts", sink);
    ok &= sizedLike(plan.extraExecCycles, n_events, "extraExecCycles",
                    sink);
    ok &= sizedLike(plan.nMem, n_events, "nMem", sink);
    ok &= sizedLike(plan.flags, n_events, "flags", sink);
    ok &= sizedLike(plan.targetSite, n_events, "targetSite", sink);
    ok &= sizedLike(plan.rasPushSite, n_events, "rasPushSite", sink);
    ok &= sizedLike(plan.returnSite, n_events, "returnSite", sink);
    ok &= sizedLike(plan.memIsStore, n_mem, "memIsStore", sink);
    ok &= sizedLike(plan.memRank, n_mem, "memRank", sink);
    ok &= sizedLike(plan.memFirst, plan.memUniverse.size(), "memFirst",
                    sink);
    ok &= sizedLike(plan.condTaken, plan.condSite.size(), "condTaken",
                    sink);
    ok &= sizedLike(plan.siteBlock, n_sites, "siteBlock", sink);
    ok &= sizedLike(plan.siteBytes, n_sites, "siteBytes", sink);
    ok &= sizedLike(plan.procFirstSite, prog.procedures().size(),
                    "procFirstSite", sink);
    if (!ok)
        return false;

    // Site table: a dense proc-major numbering of the program's
    // blocks, nothing more and nothing less.
    const auto &procs = prog.procedures();
    u32 cursor = 0;
    bool table_ok = true;
    for (size_t p = 0; p < procs.size() && table_ok; ++p) {
        if (plan.procFirstSite[p] != cursor) {
            sink.error(EntityKind::Site, cursor,
                       strprintf("procFirstSite[%zu] is %u, dense "
                                 "proc-major numbering requires %u",
                                 p, plan.procFirstSite[p], cursor));
            table_ok = false;
            break;
        }
        cursor += static_cast<u32>(procs[p].blocks.size());
    }
    if (table_ok && n_sites != cursor) {
        sink.error(EntityKind::Artifact, 0,
                   strprintf("site table has %zu entries, program has "
                             "%u blocks",
                             n_sites, cursor));
        table_ok = false;
    }
    if (table_ok) {
        for (size_t s = 0; s < n_sites; ++s) {
            const u32 p = plan.siteProc[s];
            const u32 b = plan.siteBlock[s];
            if (p >= procs.size() || b >= procs[p].blocks.size() ||
                plan.procFirstSite[p] + b != s) {
                sink.error(EntityKind::Site, s,
                           strprintf("site table entry maps to (proc "
                                     "%u, block %u), which is not this "
                                     "site",
                                     p, b));
                table_ok = false;
                continue;
            }
            if (plan.siteBytes[s] != procs[p].blocks[b].bytes)
                sink.error(EntityKind::Site, s,
                           strprintf("siteBytes %u, block has %u",
                                     plan.siteBytes[s],
                                     procs[p].blocks[b].bytes));
        }
    }

    // Event cross-references in range.
    for (size_t i = 0; i < n_events; ++i) {
        if (plan.site[i] >= n_sites)
            sink.error(EntityKind::Event, i,
                       strprintf("site %u out of range (%zu sites)",
                                 plan.site[i], n_sites));
        if (!siteRefOk(plan.targetSite[i], n_sites))
            sink.error(EntityKind::Event, i,
                       strprintf("target site %u out of range (%zu "
                                 "sites)",
                                 plan.targetSite[i], n_sites));
        if (!siteRefOk(plan.rasPushSite[i], n_sites))
            sink.error(EntityKind::Event, i,
                       strprintf("RAS push site %u out of range (%zu "
                                 "sites)",
                                 plan.rasPushSite[i], n_sites));
        if (!siteRefOk(plan.returnSite[i], n_sites))
            sink.error(EntityKind::Event, i,
                       strprintf("return site %u out of range (%zu "
                                 "sites)",
                                 plan.returnSite[i], n_sites));
    }
    for (size_t c = 0; c < plan.condSite.size(); ++c) {
        if (plan.condSite[c] >= n_sites)
            sink.error(EntityKind::Event, c,
                       strprintf("conditional substream site %u out of "
                                 "range (%zu sites)",
                                 plan.condSite[c], n_sites));
        if (plan.condTaken[c] > 1)
            sink.error(EntityKind::Event, c,
                       strprintf("conditional substream outcome %u is "
                                 "not 0/1",
                                 plan.condTaken[c]));
    }

    // Memory universe/rank factorization: distinct universe entries,
    // every rank in range, the gather reproducing the stream, and each
    // id's recorded first access.
    std::unordered_set<u64> seen;
    seen.reserve(plan.memUniverse.size());
    for (size_t u = 0; u < plan.memUniverse.size(); ++u)
        if (!seen.insert(plan.memUniverse[u]).second)
            sink.error(EntityKind::MemAccess, u,
                       strprintf("memory-id universe entry %zu "
                                 "duplicates an earlier id",
                                 u));
    for (size_t j = 0; j < n_mem; ++j) {
        if (plan.memRank[j] >= plan.memUniverse.size())
            sink.error(EntityKind::MemAccess, j,
                       strprintf("memory rank %u out of range (%zu "
                                 "universe entries)",
                                 plan.memRank[j],
                                 plan.memUniverse.size()));
        else if (plan.memUniverse[plan.memRank[j]] != plan.memId[j])
            sink.error(EntityKind::MemAccess, j,
                       "memory rank gathers a different id than the "
                       "stream records");
        else if (j < plan.memFirst[plan.memRank[j]])
            sink.error(EntityKind::MemAccess, j,
                       strprintf("access precedes the first access %u "
                                 "that memFirst records for its id",
                                 plan.memFirst[plan.memRank[j]]));
    }
    // First positions: strictly increasing (the universe is in first-
    // appearance order), each an access of its own id; with the check
    // above, each is that id's first access.
    for (size_t r = 0; r < plan.memFirst.size(); ++r) {
        const u32 first = plan.memFirst[r];
        if (first >= n_mem)
            sink.error(EntityKind::MemAccess, r,
                       strprintf("memFirst[%zu] is %u, past the %zu "
                                 "accesses",
                                 r, first, n_mem));
        else if (plan.memRank[first] != r)
            sink.error(EntityKind::MemAccess, r,
                       strprintf("memFirst[%zu] is access %u, whose "
                                 "rank is %u",
                                 r, first, plan.memRank[first]));
        if (r > 0 && first <= plan.memFirst[r - 1])
            sink.error(EntityKind::MemAccess, r,
                       strprintf("memFirst[%zu] is %u, not past "
                                 "memFirst[%zu] = %u",
                                 r, first, r - 1, plan.memFirst[r - 1]));
    }

    return table_ok;
}

/**
 * Equivalence layer: re-derive what compiling @p trace must produce
 * and compare entity by entity. Precondition: structure checks passed
 * and the trace itself verifies against the program (the trace pass
 * owns those diagnostics; a broken trace makes this comparison
 * meaningless, so the caller skips it).
 */
void
checkEquivalence(const Program &prog, const Trace &trace,
                 const ReplayPlan &plan, Sink &sink)
{
    const auto &procs = prog.procedures();
    const size_t n = trace.events.size();
    if (plan.site.size() != n) {
        sink.error(EntityKind::Artifact, 0,
                   strprintf("plan has %zu events, source trace has "
                             "%zu",
                             plan.site.size(), n));
        return;
    }
    if (plan.instCount != trace.instCount)
        sink.error(EntityKind::Artifact, 0,
                   strprintf("plan instCount %llu, trace %llu",
                             static_cast<unsigned long long>(
                                 plan.instCount),
                             static_cast<unsigned long long>(
                                 trace.instCount)));
    if (plan.memId != trace.memIds) {
        sink.error(EntityKind::Artifact, 0,
                   "plan memory-id stream differs from the trace's");
        return; // Per-access comparisons below index by trace refs.
    }

    size_t mem_cursor = 0;
    size_t cond_cursor = 0;
    for (size_t i = 0; i < n; ++i) {
        const BlockEvent &ev = trace.events[i];
        const BasicBlock &bb = prog.block(ev.proc, ev.block);
        const u32 s = plan.procFirstSite[ev.proc] + ev.block;

        // Geometry.
        if (plan.site[i] != s) {
            sink.error(EntityKind::Event, i,
                       strprintf("site %u, trace event executes site "
                                 "%u (proc %u, block %u)",
                                 plan.site[i], s, ev.proc, ev.block));
            return; // Everything downstream of a wrong site mismatches.
        }
        if (plan.bytes[i] != bb.bytes || plan.nInsts[i] != bb.nInsts ||
            plan.extraExecCycles[i] != bb.extraExecCycles ||
            plan.nMem[i] != bb.memRefs.size()) {
            sink.error(EntityKind::Event, i,
                       "event geometry (bytes/insts/stalls/refs) "
                       "differs from the source block");
            return;
        }

        // Per-access store flags.
        for (const auto &ref : bb.memRefs) {
            const u8 expect = ref.isStore ? 1 : 0;
            if (plan.memIsStore[mem_cursor] != expect) {
                sink.error(EntityKind::MemAccess, mem_cursor,
                           strprintf("access is a %s, static site is "
                                     "a %s",
                                     plan.memIsStore[mem_cursor]
                                         ? "store"
                                         : "load",
                                     expect ? "store" : "load"));
                return;
            }
            ++mem_cursor;
        }

        // Flags and resolved control-flow references.
        const auto &br = bb.branch;
        u8 flags = 0;
        u32 target = ReplayPlan::kNoSite;
        u32 ras_push = ReplayPlan::kNoSite;
        u32 ret = ReplayPlan::kNoSite;
        if (ev.taken)
            flags |= ReplayPlan::kTaken;
        if (br.exists()) {
            flags |= ReplayPlan::kHasBranch;
            if (br.isConditional()) {
                flags |= ReplayPlan::kCond;
                if (br.dependsOnLoad)
                    flags |= ReplayPlan::kDependsOnLoad;
            }
            switch (br.kind) {
              case OpClass::Return:
                flags |= ReplayPlan::kReturn;
                if (i + 1 < n)
                    ret = plan.procFirstSite[trace.events[i + 1].proc] +
                          trace.events[i + 1].block;
                break;
              case OpClass::Call:
                flags |= ReplayPlan::kCall;
                target = plan.procFirstSite[br.targetProc];
                if (static_cast<u32>(ev.block) + 1 <
                    procs[ev.proc].blocks.size())
                    ras_push = s + 1;
                break;
              case OpClass::IndirectBranch:
                flags |= ReplayPlan::kIndirect;
                target = plan.procFirstSite[br.targetProc] +
                         br.targetBlock + ev.indirectChoice;
                break;
              default:
                target = plan.procFirstSite[br.targetProc] +
                         br.targetBlock;
            }
        }
        if (plan.flags[i] != flags) {
            sink.error(EntityKind::Event, i,
                       strprintf("flags 0x%02x, compiling the trace "
                                 "event gives 0x%02x",
                                 plan.flags[i], flags));
            return;
        }
        if (plan.targetSite[i] != target || plan.rasPushSite[i] != ras_push ||
            plan.returnSite[i] != ret) {
            sink.error(EntityKind::Event, i,
                       "resolved control-flow references differ from "
                       "the source trace event");
            return;
        }

        // Conditional substream.
        if (br.isConditional()) {
            if (cond_cursor >= plan.condSite.size() ||
                plan.condSite[cond_cursor] != s ||
                plan.condTaken[cond_cursor] != ev.taken) {
                sink.error(EntityKind::Event, i,
                           strprintf("conditional substream entry %zu "
                                     "does not record this event's "
                                     "(site, outcome)",
                                     cond_cursor));
                return;
            }
            ++cond_cursor;
        }
    }
    if (cond_cursor != plan.condSite.size())
        sink.error(EntityKind::Artifact, 0,
                   strprintf("conditional substream has %zu entries, "
                             "trace executes %zu conditionals",
                             plan.condSite.size(), cond_cursor));
}

void
ReplayPlanVerifier::run(const Artifacts &a, VerifyResult &out) const
{
    const Program &prog = *a.program;
    const ReplayPlan &plan = *a.plan;
    Sink sink(out, a.path, name());

    if (!checkStructure(prog, plan, sink))
        return;
    if (a.trace == nullptr)
        return;

    // The equivalence comparison dereferences trace sites; only run it
    // over a trace that itself verifies (quietly — the trace pass owns
    // trace diagnostics, and PassManager::standard() runs it anyway).
    VerifyResult trace_check = verifyTrace(prog, *a.trace, a.path);
    if (!trace_check.ok()) {
        sink.warning(EntityKind::Artifact, 0,
                     "source trace does not verify; skipping plan "
                     "equivalence");
        return;
    }
    checkEquivalence(prog, *a.trace, plan, sink);
}

} // anonymous namespace

std::unique_ptr<Pass>
makeReplayPlanVerifier()
{
    return std::make_unique<ReplayPlanVerifier>();
}

} // namespace interf::verify
