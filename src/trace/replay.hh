/**
 * @file
 * Compiled replay plans: the trace flattened for dense replay.
 *
 * Campaigns replay one immutable (Program, Trace) pair under hundreds
 * of layouts, and the per-event cost of that replay used to be
 * dominated by layout-invariant work: the `prog.block(ev.proc,
 * ev.block)` double indirection, branch-kind dispatch over the static
 * branch record, per-reference `HeapLayout::dataAddr` decoding and
 * page translation. A ReplayPlan pays all of that exactly once per
 * campaign by pre-decoding the trace into structure-of-arrays form —
 * per-event dense site id, geometry, memory-reference counts and
 * branch flags, with every control-flow target resolved to a dense
 * *site* id (a global basic-block index).
 *
 * Per layout, the only state a replay needs is a
 * LayoutTables: flat address arrays filled from the CodeLayout
 * (`siteAddr`, `branchAddr`, and each site's fetch lines), plus a
 * data-address table materialized from the HeapLayout over the trace's
 * memory-id stream. Fetch lines and data addresses are pre-translated
 * through the PageMap, whose only consumer is the physically-indexed
 * cache hierarchy.
 *
 * The contract is strict: `Machine::replay(plan, tables)` produces a
 * RunResult bit-identical to the event-at-a-time reference loop
 * (`Machine::runReference`), for every counter and cycle count; see
 * tests/test_replay.cc. Both the plan and the tables are immutable
 * after construction and safe to share across threads.
 */

#ifndef INTERF_TRACE_REPLAY_HH
#define INTERF_TRACE_REPLAY_HH

#include <vector>

#include "layout/heap.hh"
#include "layout/linker.hh"
#include "layout/pagemap.hh"
#include "trace/trace.hh"
#include "util/types.hh"

namespace interf::trace
{

/**
 * A Trace + Program compiled into flat, replay-ready arrays.
 *
 * A *site* is a static basic block, numbered densely proc-major:
 * site(proc, block) = procFirstSite[proc] + block. Every per-event
 * control-flow reference (branch target, call fall-through, return
 * successor) is pre-resolved to a site id, so a replay never
 * touches the Program.
 *
 * Build once per campaign (next to the trace); immutable afterwards
 * and safe to share across pool workers.
 */
class ReplayPlan
{
  public:
    /** @{ Per-event flag bits (see flags). */
    static constexpr u8 kTaken = 1u << 0; ///< Terminator redirected fetch.
    static constexpr u8 kCond = 1u << 1;  ///< Conditional terminator.
    static constexpr u8 kDependsOnLoad = 1u << 2; ///< Cond resolution
                                                  ///< waits on newest load.
    static constexpr u8 kReturn = 1u << 3;
    static constexpr u8 kCall = 1u << 4;
    static constexpr u8 kIndirect = 1u << 5;
    static constexpr u8 kHasBranch = 1u << 6; ///< Terminator exists.
    /** @} */

    /** Sentinel for "no site" (no fall-through, no successor). */
    static constexpr u32 kNoSite = ~u32{0};

    ReplayPlan() = default;

    /** Flatten @p trace against @p prog. The trace must validate(). */
    ReplayPlan(const Program &prog, const Trace &trace);

    /** @{ Per-event arrays, all of length eventCount(). */
    std::vector<u32> site;    ///< Dense site id of the executed block.
    std::vector<u32> bytes;   ///< Code bytes (fetch-line span).
    std::vector<u16> nInsts;  ///< Instructions retired by the block.
    std::vector<u8> extraExecCycles; ///< Intrinsic dependence stalls.
    std::vector<u16> nMem;    ///< Memory references consumed.
    std::vector<u8> flags;    ///< kTaken | kCond | ... bits.
    std::vector<u32> targetSite;  ///< Taken-redirect target site
                                  ///< (indirect choice resolved).
    std::vector<u32> rasPushSite; ///< Call fall-through site or kNoSite.
    std::vector<u32> returnSite;  ///< Return successor site or kNoSite.
    /** @} */

    /** @{ Memory stream, aligned index-for-index with Trace::memIds. */
    std::vector<u64> memId;     ///< Logical (region, offset) ids.
    std::vector<u8> memIsStore; ///< 1 for stores, 0 for loads.
    std::vector<u32> memRank;   ///< Position -> index into memUniverse.
    /** @} */

    /**
     * The trace's memId universe: each distinct id once, in first-
     * appearance order. Traces revisit the same ids many times
     * (working sets are far smaller than the access stream), so
     * per-layout address materialization decodes each unique id once
     * and gathers the stream through memRank.
     */
    std::vector<u64> memUniverse;
    /** Universe index -> the stream position of that id's first
     *  access (strictly increasing): the L2 first-touch pass visits
     *  each id once instead of scanning the stream (DESIGN.md §5x). */
    std::vector<u32> memFirst;

    /** @{ Conditional-branch substream (the pinsim replay input). */
    std::vector<u32> condSite;
    std::vector<u8> condTaken;
    /** @} */

    /** @{ Site table: dense site id <-> (proc, block). */
    std::vector<u32> siteProc;
    std::vector<u32> siteBlock;
    std::vector<u32> siteBytes;     ///< Code bytes of the site's block.
    std::vector<u32> procFirstSite; ///< proc id -> its first site id.
    /** @} */

    /** Total instructions in the trace (Trace::instCount). */
    u64 instCount = 0;

    size_t eventCount() const { return site.size(); }
    size_t memCount() const { return memId.size(); }
    size_t siteCount() const { return siteProc.size(); }

    /** Dense site id of (proc, block). */
    u32 siteOf(u32 proc_id, u32 block_id) const
    {
        return procFirstSite[proc_id] + block_id;
    }

    /** Approximate storage footprint in bytes. */
    u64 memoryBytes() const;
};

/**
 * Per-layout address tables for one replay: everything a layout
 * contributes, reduced to flat arrays indexed by site id (code) and
 * memory-stream position (data).
 *
 * Addresses the physically-indexed hierarchy consumes are
 * pre-translated through the PageMap: data addresses per memory-stream
 * position, and instruction fetch lines per site (linePhys), for one
 * L1I line size. Immutable after construction.
 */
class LayoutTables
{
  public:
    LayoutTables() = default;

    /**
     * Code-only tables (no data addresses, no fetch-line table,
     * identity page map): enough for branch-stream replay (pinsim).
     */
    LayoutTables(const ReplayPlan &plan, const layout::CodeLayout &code);

    /**
     * Full tables for a (code, heap, pages) layout triple.
     *
     * @param fetch_line_bytes L1I line size of the machine that will
     *        replay them: the fetch-line table is built for it, and
     *        Machine::replay panics on a machine with another.
     */
    LayoutTables(const ReplayPlan &plan, const layout::CodeLayout &code,
                 const layout::HeapLayout &heap,
                 const layout::PageMap &pages, u32 fetch_line_bytes);

    /**
     * Full tables under the identity page map, with fetch lines of
     * cache::CacheConfig's default line size (the default machine's
     * L1I): the form perfbench's protocol probe builds.
     */
    LayoutTables(const ReplayPlan &plan, const layout::CodeLayout &code,
                 const layout::HeapLayout &heap);

    /**
     * Code tables under a page map, without data addresses: what a
     * replay needs when the L1D and L2 data side are both read from
     * shared outcomes (core/shared.hh), which never look at a data
     * address. Machine::replay accepts them only on that path.
     */
    LayoutTables(const ReplayPlan &plan, const layout::CodeLayout &code,
                 const layout::PageMap &pages, u32 fetch_line_bytes);

    /**
     * Data-only tables for a (heap, pages) pair: the input of
     * core::simulateStream when one pass serves many layouts. Carry
     * no code addresses, so Machine::replay rejects them.
     */
    LayoutTables(const ReplayPlan &plan, const layout::HeapLayout &heap,
                 const layout::PageMap &pages);

    /** @{ Indexed by site id. */
    std::vector<Addr> siteAddr;   ///< Block start (virtual).
    std::vector<Addr> branchAddr; ///< Terminator instruction (virtual).
    /** @} */

    /** Pre-translated data address per memory-stream position. */
    std::vector<Addr> dataAddr;

    /**
     * @{ Pre-translated instruction fetch lines, for every table with
     * code under a page map (the identity map included): site s's k-th
     * line is linePhys[siteLineStart[s] + k]. Line counts are per
     * layout (they depend on the block's placement within its first
     * line), so the index is rebuilt per layout.
     */
    std::vector<Addr> linePhys;
    std::vector<u32> siteLineStart; ///< Size siteCount() + 1.
    /** @} */

    /** The page mapping the tables were translated through. */
    const layout::PageMap &pages() const { return pages_; }

    /** False for tables built without a heap. */
    bool hasData() const { return hasData_; }

    /** Line size linePhys was built for (0: not built). */
    u32 fetchLineBytes() const { return fetchLineBytes_; }

  private:
    void fillCode(const ReplayPlan &plan, const layout::CodeLayout &code);

    /** Build dataAddr (pre-translated through pages_). */
    void fillData(const ReplayPlan &plan, const layout::HeapLayout &heap);

    /** Build linePhys/siteLineStart for @p fetch_line_bytes lines. */
    void buildLineTable(const ReplayPlan &plan, u32 fetch_line_bytes);

    layout::PageMap pages_;
    bool hasData_ = false;
    u32 fetchLineBytes_ = 0;
};

} // namespace interf::trace

#endif // INTERF_TRACE_REPLAY_HH
