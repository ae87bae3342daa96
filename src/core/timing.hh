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
#include "bpred/ras.hh"
#include "bpred/predictor.hh"
#include "cache/hierarchy.hh"
#include "core/config.hh"
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
 * The L1D's hit/miss outcome for one data stream: what core::simulateL1d
 * computes once and Machine::replay consumes (DESIGN.md §5n).
 *
 * The L1D is split from the L1I, so nothing but the data stream
 * reaches it, and an LRU decision depends only on set indices and tag
 * equality. One outcome therefore stands for every layout whose data
 * stream is equivalent (see canShareL1d), however its code is placed.
 */
struct L1dOutcomes
{
    /** Bit j % 64 of word j / 64 is set iff access j hit. */
    std::vector<u64> hitBits;
    Count misses = 0;    ///< L1D misses after warmup.
    size_t memCount = 0; ///< Accesses covered (plan.memCount()).
};

/**
 * Run the L1D alone over @p tables' data stream, from power-on state.
 * The miss count starts at the first access of the replay kernel's
 * warmup event, where the kernel clears its statistics. Only the data
 * half of @p tables is read.
 */
L1dOutcomes simulateL1d(const MachineConfig &machine,
                        const trace::ReplayPlan &plan,
                        const trace::LayoutTables &tables);

/**
 * The one sharing predicate: whether an L1dOutcomes computed for one
 * layout holds for every other layout replaying the same plan. It does
 * when the layouts share one heap layout (so one virtual data stream)
 * and either one page map or an L1D whose set index lies inside the
 * page offset (sets x lineBytes <= the PageMap page size). The page map
 * is an offset-preserving bijection, so then every set index and every
 * tag equality survives translation.
 */
bool canShareL1d(const cache::CacheConfig &l1d, bool same_heap,
                 bool same_pages);

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
     * ReplayPlan and LayoutTables, then runs the dense kernel.
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
     * Replay a compiled plan under one layout's address tables:
     * simulateL1d() over the tables' data stream, then the kernel
     * below. Bit-identical to runReference() on the same (trace,
     * layout) — every counter and cycle count — which
     * tests/test_replay.cc enforces. The tables must carry data
     * addresses (not code-only).
     */
    RunResult replay(const trace::ReplayPlan &plan,
                     const trace::LayoutTables &tables);

    /**
     * The replay kernel: the hot path of every campaign. Iterates the
     * plan's flat arrays with no Program or Trace access, with a
     * specialized fast path when the page mapping is the identity.
     *
     * The L1D is not simulated here: each data access reads its hit
     * bit from @p l1d, and only misses reach the L2. Campaigns and the
     * optimizer pass one outcome to every layout canShareL1d() admits;
     * @p l1d must cover this plan's memory stream (panics otherwise).
     */
    RunResult replay(const trace::ReplayPlan &plan,
                     const trace::LayoutTables &tables,
                     const L1dOutcomes &l1d);

    /**
     * The event-at-a-time reference implementation: walks Program and
     * Trace directly, one block event at a time. This is the
     * executable specification the replay kernel is tested against
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
     * Microarchitectural hot-state bytes a replay keeps: the
     * hierarchy's tag/stamp/generation arrays, the predictor's counter
     * tables, the BTB, and the RAS ring — the state the compaction
     * work budgets (DESIGN.md §5j). bench_micro_replay reports it per
     * row.
     */
    u64 hotStateBytes() const;

  private:
    void resetState();

    template <bool IdentityPages, bool UseLineTable>
    RunResult replayImpl(const trace::ReplayPlan &plan,
                         const trace::LayoutTables &tables,
                         const L1dOutcomes &l1d);

    MachineConfig cfg_;
    cache::MemoryHierarchy hierarchy_;
    bpred::PredictorPtr predictor_;
    bpred::Btb btb_;
    bpred::ReturnAddressStack ras_;
};

} // namespace interf::core

#endif // INTERF_CORE_TIMING_HH
