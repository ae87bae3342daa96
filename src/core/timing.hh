/**
 * @file
 * The machine timing model: our stand-in for the real Xeon E5440.
 *
 * The paper never simulates its machine — it *measures* it. We have no
 * hardware, so this model plays the hardware's role: a deterministic,
 * interval-analysis-style out-of-order core whose cycle count emerges
 * from the interaction of the layout-sensitive structures:
 *
 *  - the front end fetches through the L1I (code layout decides which
 *    lines conflict) and redirects through the BTB;
 *  - the conditional branch predictor (the reverse-engineered hybrid)
 *    is indexed with *physical branch addresses*, so layouts alias
 *    different branch sites in its tables;
 *  - mispredicted branches pay the front-end refill plus their
 *    *resolution* time — a branch depending on an L2-missing load pays
 *    hundreds of cycles, which is how some benchmarks end up with
 *    Table-1 slopes far above the pipeline depth;
 *  - data misses overlap up to a configurable MLP within the ROB reach,
 *    so memory CPI is not simply misses x latency.
 *
 * Crucially, nothing here hard-codes CPI = a + b*MPKI: linearity (and
 * its imperfections, Section 3) is an emergent, measured property.
 */

#ifndef INTERF_CORE_TIMING_HH
#define INTERF_CORE_TIMING_HH

#include <memory>
#include <vector>

#include "bpred/btb.hh"
#include "bpred/predictor.hh"
#include "cache/hierarchy.hh"
#include "core/config.hh"
#include "core/shared.hh"
#include "layout/heap.hh"
#include "layout/pagemap.hh"
#include "layout/linker.hh"
#include "pmu/pmu.hh"
#include "trace/replay.hh"
#include "trace/trace.hh"

namespace interf::core
{

/** Deterministic outcome of one timing run (pre-noise). */
struct RunResult
{
    Cycle cycles = 0;
    Count instructions = 0;
    Count condBranches = 0;
    Count mispredicts = 0; ///< Conditional direction mispredictions.
    Count l1iMisses = 0;
    Count l1dMisses = 0;
    Count l2Misses = 0;
    Count l2InstMisses = 0; ///< L2-miss breakdown: demand fetch.
    Count l2PrefMisses = 0; ///< L2-miss breakdown: I-prefetch.
    Count l2DataMisses = 0; ///< L2-miss breakdown: loads/stores.
    Count btbMisses = 0; ///< Taken-branch target misses (incl. indirect).
    Count rasMispredicts = 0; ///< Return-address-stack mispredictions.

    double cpi() const;
    double mpki() const;
    double perKilo(Count events) const;
};

/**
 * The machine. Owns its microarchitectural state (caches, predictor,
 * BTB); run() executes one trace under one layout from power-on state
 * and returns the deterministic counters.
 *
 * A Machine is reusable: every replay resets its state to power-on
 * first (an O(1) epoch bump for the caches; see cache::Cache::reset),
 * so campaigns keep one Machine per worker and replay layout after
 * layout through it.
 */
class Machine
{
  public:
    explicit Machine(const MachineConfig &config);

    /**
     * Execute a trace under a code + data layout.
     *
     * A thin adapter over replay(): compiles the trace into a one-off
     * ReplayPlan and LayoutTables, then replays them as a randomized
     * heap's layout is replayed.
     * Callers replaying the same trace many times (campaigns, sweeps)
     * should build the plan once and call replay() directly.
     *
     * @param prog Static program (block geometry).
     * @param trace Dynamic trace (layout-invariant semantics).
     * @param code Address assignment for code.
     * @param heap Address assignment for data.
     */
    RunResult run(const trace::Program &prog, const trace::Trace &trace,
                  const layout::CodeLayout &code,
                  const layout::HeapLayout &heap);

    /**
     * As above, with an explicit virtual-to-physical page mapping used
     * for L2 indexing (see layout/pagemap.hh). The four-argument
     * overload uses the identity mapping.
     */
    RunResult run(const trace::Program &prog, const trace::Trace &trace,
                  const layout::CodeLayout &code,
                  const layout::HeapLayout &heap,
                  const layout::PageMap &pages);

    /**
     * Replay a compiled plan under one layout's address tables, which
     * must carry data addresses: replayOwnStream() with a plan part
     * built for this call (simulatePlan()), so the layout takes the
     * paths its own proofs allow, as a campaign's would. Bit-identical
     * to runReference() on the same (trace, layout) — every counter and
     * cycle count — which tests/test_replay.cc enforces.
     */
    RunResult replay(const trace::ReplayPlan &plan,
                     const trace::LayoutTables &tables);

    /**
     * Replay @p plan under the layout of @p tables: the hot path of
     * every campaign. Reads the plan's flat arrays with no Program or
     * Trace access; instruction fetch reads the tables' pre-translated
     * fetch lines, which must have been built for this machine's L1I
     * line size (panics otherwise).
     *
     * Each structure has a shared form, read from @p plan_part or
     * @p stream, and a per-layout form (DESIGN.md §5s). @p stream is a
     * fixed heap's shared stream or, for a randomized heap, this
     * layout's own (replayOwnStream()). @p paths names the structures
     * whose shared outcome holds on this layout (choosePaths()):
     *
     *  - L1D and RAS: always read, from @p stream and @p plan_part.
     *  - BTB: @p plan_part's outcome, or a BTB pass over this layout's
     *    taken branches.
     *  - L2 data side: shared, and then no event loop runs: the
     *    layout's cycles are @p stream's cycle sum over the conditional
     *    branches its predictor mispredicts, one pass over the branch
     *    stream (DESIGN.md §5t); @p stream must have an L2 part. Or
     *    simulated: fetch and data misses meet in the L2, so this
     *    layout builds its own cycle sum in one event loop that fetches
     *    in line and takes each L1D miss's level from the hierarchy
     *    (§5u), then runs the same pass over the branch stream.
     *  - L1I fetch, where the L2 data side is shared: fetchPerSet()
     *    over @p tables, which simulates only the overflowing sets
     *    (§5w). Every fetch outcome, the in-line one included, is
     *    added to the cycle sum.
     *
     * @p tables may lack data addresses only when the L2 data side is
     * shared. @p plan_part and @p stream must cover this plan's
     * streams (panics otherwise), and @p stream must have been built
     * with @p plan_part (simulateStream), whose BTB its sum assumes.
     */
    RunResult replay(const trace::ReplayPlan &plan,
                     const trace::LayoutTables &tables,
                     const PlanOutcomes &plan_part,
                     const StreamOutcomes &stream, SharedPaths paths = {});

    /**
     * Replay the layout of @p tables, which must carry data addresses,
     * where no data stream is shared (a randomized heap; DESIGN.md
     * §5x): this layout's own stream (simulateStream() over
     * @p tables, in this Machine's buffers), the paths choosePaths()
     * allows against it, the stream's cycle sum built only where the
     * L2 proof holds, then the five-argument replay. Where the proof
     * holds the layout takes fetchPerSet() and the stream's sum like a
     * fixed-heap one; where it refuses, its own sum with the L2
     * simulated, on the stream's L1D bits.
     */
    RunResult replayOwnStream(const trace::ReplayPlan &plan,
                              const trace::LayoutTables &tables,
                              const PlanOutcomes &plan_part);

    /**
     * The event-at-a-time reference implementation: walks Program and
     * Trace directly, one block event at a time. This is the
     * executable specification replay() is tested against
     * (and the pre-plan measurement path benchmarked as "legacy" in
     * bench_micro_replay); not for hot loops.
     */
    RunResult runReference(const trace::Program &prog,
                           const trace::Trace &trace,
                           const layout::CodeLayout &code,
                           const layout::HeapLayout &heap,
                           const layout::PageMap &pages);

    const MachineConfig &config() const { return cfg_; }

    /**
     * Size the buffers this Machine reuses across layouts (the per-set
     * fetch's, the BTB pass's and, with @p own_stream, a layout's own
     * stream's) for every layout of @p plan, before any layout's tables
     * exist. Grown after a layout's tables instead, they sit above the
     * tables in the worker's heap and pin the hole the tables leave
     * when freed: each randomized-heap campaign worker's glibc arena
     * then kept about a table more (DESIGN.md §5x).
     */
    void reserveFor(const trace::ReplayPlan &plan, bool own_stream);

    /**
     * Microarchitectural hot-state bytes a replay keeps: the
     * hierarchy's tag/stamp/generation arrays, the per-set fetch's L1I,
     * the predictor's counter tables and the BTB — the state the
     * compaction work budgets
     * (DESIGN.md §5j). bench_micro_replay reports it per row.
     */
    u64 hotStateBytes() const;

  private:
    void resetState();

    /** Check @p tables against @p plan and this machine's L1I line,
     *  count the replay, and reset to power-on state. */
    void begin(const trace::ReplayPlan &plan,
               const trace::LayoutTables &tables);

    /** The replay where the L2 is simulated: this layout's own cycle
     *  sum, built in one event loop through hierarchy_ with the RAS
     *  verdicts of @p plan_part, the L1D bits of @p stream, the BTB
     *  outcome @p btb and the fetch in line, then replayed with its
     *  fetch outcome, counted from the warmup event, added. */
    RunResult ownSumReplay(const trace::ReplayPlan &plan,
                           const trace::LayoutTables &tables,
                           const PlanOutcomes &plan_part,
                           const StreamOutcomes &stream,
                           const BtbOutcome &btb);

    /** This layout's BTB outcome: btb_ over the plan's taken non-return
     *  branches, in event order, into btbOwn_. */
    const BtbOutcome &btbPass(const trace::ReplayPlan &plan,
                              const trace::LayoutTables &tables);

    /** Replay @p sum (a stream's or this layout's own) for this layout:
     *  the predictor over the branch stream, plus the charges of @p btb,
     *  this layout's BTB outcome. Where @p btb is not @p sum_btb, the
     *  outcome @p sum was built with, the misfetch correction in
     *  sum.delta moves to @p btb's misses. Every counter but the fetch
     *  outcome's. */
    RunResult replaySum(const trace::ReplayPlan &plan,
                        const trace::LayoutTables &tables,
                        const CycleSum &sum, const BtbOutcome &sum_btb,
                        const BtbOutcome &btb);

    MachineConfig cfg_;
    cache::MemoryHierarchy hierarchy_;
    bpred::PredictorPtr predictor_;
    bpred::Btb btb_;
    /** @{ The BTB pass's outcome, a stream's sum with its charges
     *  moved to it, the per-set fetch's buffers and a layout's own
     *  stream, reused across layouts. */
    BtbOutcome btbOwn_;
    std::vector<CycleDelta> condDelta_;
    FetchScratch fetchScratch_;
    StreamScratch streamScratch_;
    /** @} */
};

} // namespace interf::core

#endif // INTERF_CORE_TIMING_HH
