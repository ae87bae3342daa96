#include "core/timing.hh"

#include <bit>

#include "bpred/factory.hh"
#include "bpred/ras.hh"
#include "core/cyclesum.hh"
#include "core/refmodel.hh"
#include "telemetry/metrics.hh"
#include "util/logging.hh"

namespace interf::core
{

namespace
{

/**
 * The per-layout form's level source (core/cyclesum.hh), where the L2
 * is simulated: each event's fetch runs in line before its accesses, so
 * the L2 sees fetch and data misses in runReference()'s order, and an
 * access that missed the L1D goes through the hierarchy's L2. The fetch,
 * the one fetch body beside runReference(), fetches the lines a site
 * spans through the hierarchy, skipping a line equal to the last one
 * fetched (the same fetch group continuing). Fetch lines are physical;
 * the page map is a bijection that keeps offsets, so deduping on them is
 * deduping on virtual lines.
 */
class SimulatedLevels
{
  public:
    SimulatedLevels(cache::MemoryHierarchy &hierarchy,
                    const trace::ReplayPlan &plan,
                    const trace::LayoutTables &tables,
                    const MachineConfig &cfg)
        : hierarchy_(hierarchy),
          evSite_(plan.site.data()),
          linePhys_(tables.linePhys.data()),
          siteLineStart_(tables.siteLineStart.data()),
          dataAddr_(tables.dataAddr.data()),
          stallByLevel_{0, fetchStall(cfg.l2Latency),
                        fetchStall(cfg.memLatency)}
    {
    }

    // lint:hot-begin per-layout level source (tools/lint_hotpath.py)
    /** Fetch the lines of event @p e's site; returns the stall they
     *  cost. */
    Cycle beforeEvent(size_t e)
    {
        const u32 s = evSite_[e];
        Cycle stall = 0;
        const u32 li_end = siteLineStart_[s + 1];
        for (u32 li = siteLineStart_[s]; li < li_end; ++li) {
            const Addr line = linePhys_[li];
            if (line == lastLine_)
                continue;
            lastLine_ = line;
            // HitLevel is a dense enum (L1, L2, Memory): the stall per
            // level is precomputed, zero for L1 hits.
            stall += stallByLevel_[static_cast<u32>(
                hierarchy_.fetchInst(line))];
        }
        return stall;
    }
    cache::HitLevel belowL1(size_t mem)
    {
        return hierarchy_.accessDataBelowL1(dataAddr_[mem]);
    }
    /** A return or a taken redirect breaks the sequential fetch run. */
    void redirect() { lastLine_ = ~Addr{0}; }
    // lint:hot-end

    /** The warmup split: forget the misses so far, keep the cache
     *  contents and the fetch dedup. */
    void warmup() { hierarchy_.clearStats(); }

  private:
    cache::MemoryHierarchy &hierarchy_;
    const u32 *evSite_;
    const Addr *linePhys_;
    const u32 *siteLineStart_;
    const Addr *dataAddr_;
    const Cycle stallByLevel_[3];
    Addr lastLine_ = ~Addr{0};
};

/** Add a fetch outcome, whichever form produced it, to the rest of a
 *  replay's counters. */
void
addFetch(const FetchOutcome &fetch, RunResult &res)
{
    res.cycles += fetch.stallCycles;
    res.l1iMisses += fetch.l1iMisses;
    res.l2InstMisses += fetch.l2InstMisses;
    res.l2PrefMisses += fetch.l2PrefMisses;
    res.l2Misses += fetch.l2InstMisses + fetch.l2PrefMisses;
}

} // anonymous namespace

double
RunResult::cpi() const
{
    INTERF_ASSERT(instructions > 0);
    return static_cast<double>(cycles) / static_cast<double>(instructions);
}

double
RunResult::mpki() const
{
    return perKilo(mispredicts);
}

double
RunResult::perKilo(Count events) const
{
    INTERF_ASSERT(instructions > 0);
    return 1000.0 * static_cast<double>(events) /
           static_cast<double>(instructions);
}

Machine::Machine(const MachineConfig &config)
    : cfg_(config),
      hierarchy_(config.hierarchy),
      predictor_(bpred::makePredictor(config.predictorSpec)),
      btb_(config.btbSets, config.btbWays),
      fetchScratch_(config.hierarchy.l1i)
{
    cfg_.validate();
}

void
Machine::resetState()
{
    hierarchy_.reset();
    predictor_->reset();
    btb_.reset();
}

RunResult
Machine::run(const trace::Program &prog, const trace::Trace &trace,
             const layout::CodeLayout &code, const layout::HeapLayout &heap)
{
    return run(prog, trace, code, heap, layout::PageMap());
}

RunResult
Machine::run(const trace::Program &prog, const trace::Trace &trace,
             const layout::CodeLayout &code, const layout::HeapLayout &heap,
             const layout::PageMap &pages)
{
    trace::ReplayPlan plan(prog, trace);
    trace::LayoutTables tables(plan, code, heap, pages,
                               cfg_.hierarchy.l1i.lineBytes);
    return replay(plan, tables);
}

RunResult
Machine::runReference(const trace::Program &prog, const trace::Trace &trace,
                      const layout::CodeLayout &code,
                      const layout::HeapLayout &heap,
                      const layout::PageMap &pages)
{
    // Fresh reference components per run: power-on state, and fully
    // independent of the optimized SoA structures replay() uses (see
    // core/refmodel.hh). The predictor is driven through its
    // virtual interface, as the pre-plan measurement path did.
    refmodel::RefHierarchy hierarchy(cfg_.hierarchy);
    refmodel::RefBtb btb(cfg_.btbSets, cfg_.btbWays);
    bpred::PredictorPtr predictor = bpred::makePredictor(cfg_.predictorSpec);
    bpred::ReturnAddressStack ras(cfg_.rasDepth);
    RunResult res;

    const u32 line_bytes = cfg_.hierarchy.l1i.lineBytes;
    const u64 line_mask = ~static_cast<u64>(line_bytes - 1);

    Cycle cycles = 0;
    u32 slot_carry = 0;          ///< Partial-width issue remainder.
    Addr last_fetch_line = ~Addr{0};

    // Data-miss overlap state: misses within robSize retired
    // instructions of the cluster leader share its latency (up to
    // maxMlp outstanding).
    u64 cluster_start_inst = 0;
    u32 cluster_outstanding = 0;

    size_t mem_cursor = 0;

    auto mem_latency = [&](cache::HitLevel level) -> u32 {
        switch (level) {
          case cache::HitLevel::L1:
            return cfg_.l1Latency;
          case cache::HitLevel::L2:
            return cfg_.l2Latency;
          case cache::HitLevel::Memory:
            return cfg_.memLatency;
        }
        panic("bad HitLevel");
    };

    // Warmup: execute the first part of the trace normally but start
    // the counters afterwards (see MachineConfig::warmupFraction).
    const size_t warmup_events = static_cast<size_t>(
        static_cast<double>(trace.events.size()) * cfg_.warmupFraction);

    for (size_t ev_idx = 0; ev_idx < trace.events.size(); ++ev_idx) {
        if (ev_idx == warmup_events) {
            res = RunResult();
            cycles = 0;
            slot_carry = 0;
            cluster_start_inst = 0;
            cluster_outstanding = 0;
            hierarchy.clearStats();
        }
        const auto &ev = trace.events[ev_idx];
        const trace::BasicBlock &bb = prog.block(ev.proc, ev.block);
        Addr addr = code.blockAddr(ev.proc, ev.block);

        // ---- Front end: fetch the lines this block occupies.
        Addr first_line = addr & line_mask;
        Addr last_line = (addr + bb.bytes - 1) & line_mask;
        for (Addr line = first_line; line <= last_line;
             line += line_bytes) {
            if (line == last_fetch_line)
                continue; // same fetch group continuing
            last_fetch_line = line;
            cache::HitLevel level =
                hierarchy.fetchInst(pages.translate(line));
            if (level != cache::HitLevel::L1) {
                // Demand I-miss stalls fetch; the decode queue hides a
                // few cycles of it.
                u32 lat = mem_latency(level);
                cycles += lat > 4 ? lat - 4 : 0;
            }
        }

        // ---- Issue/retire: width-limited plus intrinsic dependence
        // stalls.
        slot_carry += bb.nInsts;
        cycles += slot_carry / cfg_.width;
        slot_carry %= cfg_.width;
        cycles += bb.extraExecCycles;
        res.instructions += bb.nInsts;

        // ---- Data accesses.
        u32 last_load_latency = 0; ///< Resolution time of the newest load.
        for (const auto &ref : bb.memRefs) {
            Addr daddr = heap.dataAddr(trace.memIds[mem_cursor++]);
            cache::HitLevel level =
                hierarchy.accessData(pages.translate(daddr));
            u32 lat = mem_latency(level);
            if (!ref.isStore)
                last_load_latency = lat;
            if (level == cache::HitLevel::L1)
                continue; // L1 hits are hidden by the OoO window
            // Miss clustering: misses within the ROB reach of the
            // cluster leader (and below the MLP limit) ride the same
            // stall; the leader pays full latency.
            bool overlaps =
                res.instructions - cluster_start_inst <= cfg_.robSize &&
                cluster_outstanding > 0 &&
                cluster_outstanding < cfg_.maxMlp;
            if (overlaps) {
                ++cluster_outstanding;
            } else {
                cycles += lat;
                cluster_start_inst = res.instructions;
                cluster_outstanding = 1;
            }
        }

        // ---- Branch.
        const trace::StaticBranch &br = bb.branch;
        if (!br.exists())
            continue;
        Addr branch_pc = code.branchAddr(ev.proc, ev.block);
        bool mispredicted = false;

        if (br.isConditional()) {
            ++res.condBranches;
            bool taken = ev.taken != 0;
            bool pred = predictor->predictAndTrain(branch_pc, taken);
            if (pred != taken) {
                ++res.mispredicts;
                mispredicted = true;
                // Penalty: front-end refill plus the branch's
                // resolution time. A branch waiting on a missing load
                // resolves only when the load returns.
                u32 resolve = br.dependsOnLoad && last_load_latency > 0
                                  ? last_load_latency
                                  : bb.extraExecCycles + 1;
                cycles += cfg_.frontendDepth + resolve;
            }
        }

        // ---- Returns: predicted through the finite return-address
        // stack; a pop that disagrees with the actual fall-back target
        // (stack overflow on deep chains) costs a full redirect.
        if (br.kind == trace::OpClass::Return) {
            Addr predicted = ras.pop();
            Addr actual = 0;
            if (ev_idx + 1 < trace.events.size()) {
                const auto &next = trace.events[ev_idx + 1];
                actual = code.blockAddr(next.proc, next.block);
            }
            if (actual != 0 && predicted != actual) {
                ++res.rasMispredicts;
                cycles += cfg_.frontendDepth;
            }
            last_fetch_line = ~Addr{0};
            continue;
        }

        // ---- Target prediction (BTB) for taken redirects.
        if (ev.taken && br.kind != trace::OpClass::Return) {
            Addr target;
            switch (br.kind) {
              case trace::OpClass::Call: {
                target = code.procBase(br.targetProc);
                // Push the fall-through (return) address.
                u32 next_block = static_cast<u32>(ev.block) + 1;
                if (next_block < prog.proc(ev.proc).blocks.size())
                    ras.push(code.blockAddr(ev.proc, next_block));
                break;
              }
              case trace::OpClass::IndirectBranch:
                target = code.blockAddr(
                    br.targetProc,
                    static_cast<u32>(br.targetBlock) + ev.indirectChoice);
                break;
              default:
                target = code.blockAddr(br.targetProc, br.targetBlock);
            }
            refmodel::RefBtbResult hit = btb.lookup(branch_pc);
            bool target_ok = hit.hit && hit.target == target;
            if (!target_ok) {
                ++res.btbMisses;
                // A direction mispredict already paid the full redirect;
                // otherwise a taken branch with no (or a wrong) target
                // costs a misfetch, and a wrong *indirect* target costs
                // a full pipeline refill.
                if (!mispredicted) {
                    if (br.kind == trace::OpClass::IndirectBranch &&
                        hit.hit) {
                        cycles += cfg_.frontendDepth;
                    } else {
                        cycles += cfg_.misfetchPenalty;
                    }
                }
            }
            btb.update(branch_pc, target);
            // Any taken branch breaks the sequential fetch run.
            last_fetch_line = ~Addr{0};
        }
    }

    INTERF_ASSERT(mem_cursor == trace.memIds.size());

    auto hs = hierarchy.stats();
    res.l1iMisses = hs.l1i.misses;
    res.l1dMisses = hs.l1d.misses;
    res.l2Misses = hs.l2.misses;
    res.l2InstMisses = hs.l2InstMisses;
    res.l2PrefMisses = hs.l2PrefMisses;
    res.l2DataMisses = hs.l2DataMisses;
    res.cycles = cycles;
    return res;
}

u64
Machine::hotStateBytes() const
{
    return hierarchy_.hotStateBytes() + predictor_->stateBytes() +
           btb_.hotStateBytes() + fetchScratch_.l1i.hotStateBytes();
}

void
Machine::reserveFor(const trace::ReplayPlan &plan, bool own_stream)
{
    fetchScratch_.reserve(cfg_, plan);
    if (own_stream)
        streamScratch_.reserve(cfg_, plan);
    btbOwn_.condMissBits.reserve((plan.condSite.size() + 63) / 64);
    condDelta_.reserve(plan.condSite.size());
}

void
Machine::begin(const trace::ReplayPlan &plan,
               const trace::LayoutTables &tables)
{
    INTERF_ASSERT(tables.siteAddr.size() == plan.siteCount());
    INTERF_ASSERT(!tables.hasData() ||
                  tables.dataAddr.size() == plan.memCount());
    if (tables.fetchLineBytes() != cfg_.hierarchy.l1i.lineBytes)
        panic("tables carry fetch lines of %u B, the machine's L1I "
              "line is %u B",
              tables.fetchLineBytes(), cfg_.hierarchy.l1i.lineBytes);
    INTERF_ASSERT(tables.siteLineStart.size() == plan.siteCount() + 1);
    INTERF_TELEM_COUNT("replay.calls", 1);
    INTERF_TELEM_COUNT("replay.events", plan.eventCount());
    resetState();
}

RunResult
Machine::replay(const trace::ReplayPlan &plan,
                const trace::LayoutTables &tables)
{
    return replayOwnStream(plan, tables, simulatePlan(cfg_, plan));
}

RunResult
Machine::replay(const trace::ReplayPlan &plan,
                const trace::LayoutTables &tables,
                const PlanOutcomes &plan_part, const StreamOutcomes &stream,
                SharedPaths paths)
{
    // Without data addresses only the shared L2 path can run: the L1D
    // and L2 verdicts then both come from @p stream.
    if (!tables.hasData() && !paths.l2Data)
        panic("tables without data addresses replay only with a shared "
              "L1D and L2 data side");
    if (stream.memCount != plan.memCount())
        panic("L1D outcomes cover %zu accesses, the plan has %zu",
              stream.memCount, plan.memCount());
    if (plan_part.eventCount != plan.eventCount())
        panic("shared outcomes cover %zu events, the plan has %zu",
              plan_part.eventCount, plan.eventCount());
    // An L2 line wider than a page leaves a stream no L2 part to share.
    if (paths.l2Data && !stream.l2)
        panic("the shared L2 data side needs a stream with an L2 part");
    begin(plan, tables);

    // The BTB meets no other structure, so its per-layout form is a
    // pass of its own, and the sum reads an outcome either way.
    if (paths.btb)
        INTERF_TELEM_COUNT("replay.btb_shared", 1);
    else
        INTERF_TELEM_COUNT("replay.btb_simulated", 1);
    const BtbOutcome &btb =
        paths.btb ? plan_part.btb : btbPass(plan, tables);

    if (!paths.l2Data)
        return ownSumReplay(plan, tables, plan_part, stream, btb);
    // A shared L2 data side leaves the hierarchy only fetches, which
    // only ever add stalls to cycles, so their outcome adds on exactly;
    // every other term is the stream's cycle sum's.
    INTERF_TELEM_COUNT("replay.l2_shared", 1);
    const FetchOutcome fetch =
        fetchPerSet(cfg_, plan, tables, plan_part, fetchScratch_);
    RunResult res = replaySum(plan, tables, stream.l2->sum, plan_part.btb, btb);
    addFetch(fetch, res);
    return res;
}

RunResult
Machine::replayOwnStream(const trace::ReplayPlan &plan,
                         const trace::LayoutTables &tables,
                         const PlanOutcomes &plan_part)
{
    if (!tables.hasData())
        panic("a layout's own stream needs tables with data addresses");
    if (plan_part.eventCount != plan.eventCount())
        panic("shared outcomes cover %zu events, the plan has %zu",
              plan_part.eventCount, plan.eventCount());
    simulateStream(cfg_, plan, tables, streamScratch_);
    StreamOutcomes &own = streamScratch_.stream;
    const SharedPaths paths =
        choosePaths(cfg_, plan, tables, plan_part, own);
    // The sum costs an event loop: only a layout that reads it builds
    // it.
    if (paths.l2Data)
        addStreamSum(cfg_, plan, plan_part, own);
    return replay(plan, tables, plan_part, own, paths);
}

RunResult
Machine::ownSumReplay(const trace::ReplayPlan &plan,
                      const trace::LayoutTables &tables,
                      const PlanOutcomes &plan_part,
                      const StreamOutcomes &stream, const BtbOutcome &btb)
{
    // A simulated L2 sees fetch and data misses interleaved: this
    // layout builds its own sum, fetching in line.
    INTERF_TELEM_COUNT("replay.l2_simulated", 1);
    SimulatedLevels levels(hierarchy_, plan, tables, cfg_);
    CycleSum own;
    const Cycle stall =
        buildSum(cfg_, plan, stream.hitBits.data(),
                 plan_part.rasMissBits.data(), btb.condMissBits.data(),
                 levels, own);
    const cache::HierarchyStats hs = hierarchy_.stats();
    own.l1dMisses = stream.misses;
    own.l2DataMisses = hs.l2DataMisses;
    RunResult res = replaySum(plan, tables, own, btb, btb);
    addFetch({stall, hs.l1i.misses, hs.l2InstMisses, hs.l2PrefMisses}, res);
    return res;
}

RunResult
Machine::replaySum(const trace::ReplayPlan &plan,
                   const trace::LayoutTables &tables, const CycleSum &sum,
                   const BtbOutcome &sum_btb, const BtbOutcome &btb)
{
    if (sum.delta.size() != plan.condSite.size())
        panic("the cycle sum covers %zu conditional branches, the plan "
              "has %zu",
              sum.delta.size(), plan.condSite.size());
    RunResult res;
    res.instructions = sum.instructions;
    res.condBranches = sum.condBranches;
    res.rasMispredicts = sum.rasMispredicts;
    res.l1dMisses = sum.l1dMisses;
    res.l2Misses = sum.l2DataMisses;
    res.l2DataMisses = sum.l2DataMisses;
    const CycleDelta *delta = sum.delta.data();
    if (&btb != &sum_btb) {
        // This layout's BTB misses other taken conditional branches
        // than the one the sum was built with, whose misfetches
        // sum.delta subtracts: move that correction to this layout's
        // misses.
        condDelta_.assign(sum.delta.begin(), sum.delta.end());
        const u64 *sum_miss = sum_btb.condMissBits.data();
        const u64 *own_miss = btb.condMissBits.data();
        CycleDelta *own_delta = condDelta_.data();
        const CycleDelta misfetch =
            static_cast<CycleDelta>(cfg_.misfetchPenalty);
        const size_t words = (plan.condSite.size() + 63) / 64;
        // lint:hot-begin cycle-sum BTB correction (tools/lint_hotpath.py)
        for (size_t w = 0; w < words; ++w) {
            for (u64 d = sum_miss[w] ^ own_miss[w]; d; d &= d - 1) {
                const u32 b = static_cast<u32>(std::countr_zero(d));
                const size_t j = w * 64 + b;
                own_delta[j] = static_cast<CycleDelta>(
                    (own_miss[w] >> b) & 1 ? own_delta[j] - misfetch
                                           : own_delta[j] + misfetch);
            }
        }
        // lint:hot-end
        delta = own_delta;
    }
    // One virtual call per layout: the stream loop inside it calls the
    // predictor directly (DESIGN.md §5l, §5t).
    const bpred::StreamTally tally = predictor_->tallyStream(
        {plan.condSite.data(), plan.condTaken.data(), plan.condSite.size(),
         tables.branchAddr.data(), sum.condFrom, delta});
    res.mispredicts = tally.mispredicts;
    res.btbMisses = btb.misses;
    res.cycles = sum.sumBase + btb.penalty + tally.weight;
    return res;
}

const BtbOutcome &
Machine::btbPass(const trace::ReplayPlan &plan,
                 const trace::LayoutTables &tables)
{
    const Addr *branch_addr = tables.branchAddr.data();
    // lint:hot-begin BTB pass lookup (tools/lint_hotpath.py)
    // The fused lookup + update scans the tags once.
    auto lookup = [&](u32 site, u32 target) {
        return btb_.lookupUpdate(branch_addr[site], target);
    };
    // lint:hot-end
    buildBtb(cfg_, plan, lookup, btbOwn_);
    return btbOwn_;
}

} // namespace interf::core
