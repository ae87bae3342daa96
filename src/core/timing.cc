#include "core/timing.hh"

#include <bit>

#include "bpred/factory.hh"
#include "bpred/hybrid.hh"
#include "bpred/ras.hh"
#include "core/refmodel.hh"
#include "telemetry/metrics.hh"
#include "util/logging.hh"

namespace interf::core
{

namespace
{

/**
 * The front end's per-event step, the one fetch body beside
 * runReference(): the kernel's inline fetch and the fetch pass both
 * call it. It fetches the lines a site spans through the hierarchy,
 * skipping a line equal to the last one fetched (the same fetch group
 * continuing), and returns the demand-miss stall. Fetch lines are
 * physical; the page map is a bijection that keeps offsets, so deduping
 * on them is deduping on virtual lines.
 */
class FetchStep
{
  public:
    FetchStep(cache::MemoryHierarchy &hierarchy,
              const trace::LayoutTables &tables, const MachineConfig &cfg)
        : hierarchy_(hierarchy),
          linePhys_(tables.linePhys.data()),
          siteLineStart_(tables.siteLineStart.data()),
          stallByLevel_{0, fetchStall(cfg.l2Latency),
                        fetchStall(cfg.memLatency)}
    {
    }

    // lint:hot-begin fetch step (tools/lint_hotpath.py)
    /** Fetch site @p s's lines; returns the stall they cost. */
    Cycle operator()(u32 s)
    {
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

    /** A return or a taken redirect breaks the sequential fetch run. */
    void redirect() { lastLine_ = ~Addr{0}; }
    // lint:hot-end

  private:
    cache::MemoryHierarchy &hierarchy_;
    const Addr *linePhys_;
    const u32 *siteLineStart_;
    const Cycle stallByLevel_[3];
    Addr lastLine_ = ~Addr{0};
};

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
      btb_(config.btbSets, config.btbWays)
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
    // independent of the optimized SoA structures the replay kernel
    // uses (see core/refmodel.hh). The predictor is driven through its
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
           btb_.hotStateBytes();
}

RunResult
Machine::replay(const trace::ReplayPlan &plan,
                const trace::LayoutTables &tables)
{
    return replay(plan, tables,
                  simulateShared(cfg_, plan, nullptr, kShareRas));
}

RunResult
Machine::replay(const trace::ReplayPlan &plan,
                const trace::LayoutTables &tables,
                const SharedOutcomes &shared, SharedPaths paths)
{
    // Without data addresses only the shared L2 path can run: the L1D
    // and L2 verdicts then both come from @p shared.
    if (!tables.hasData() && !(paths.l2Data && shared.has(kShareL1d)))
        panic("tables without data addresses replay only with a shared "
              "L1D and L2 data side");
    if (shared.has(kShareL1d))
        return replayWith(plan, tables, shared, shared, paths);
    // No data parts (a randomized heap, or the two-argument replay):
    // this layout's own L1D pass.
    return replayWith(plan, tables,
                      simulateShared(cfg_, plan, &tables, kShareL1d),
                      shared, paths);
}

RunResult
Machine::replayWith(const trace::ReplayPlan &plan,
                    const trace::LayoutTables &tables,
                    const SharedOutcomes &data, const SharedOutcomes &flow,
                    SharedPaths paths)
{
    INTERF_ASSERT(tables.siteAddr.size() == plan.siteCount());
    INTERF_ASSERT(!tables.hasData() ||
                  tables.dataAddr.size() == plan.memCount());
    if (data.memCount != plan.memCount() ||
        data.hitBits.size() != (data.memCount + 63) / 64)
        panic("L1D outcomes cover %zu accesses, the plan has %zu",
              data.memCount, plan.memCount());
    if (!flow.has(kShareRas) || flow.eventCount != plan.eventCount() ||
        flow.rasMissBits.size() != (flow.eventCount + 63) / 64)
        panic("shared outcomes cover %zu events, the plan has %zu",
              flow.eventCount, plan.eventCount());
    if ((paths.l2Data && !data.has(kShareL2 | kShareSum)) ||
        (paths.btb && !flow.has(kShareBtb)) ||
        (paths.l1i && !flow.has(kShareL1i)))
        panic("a shared path has no outcome to read");
    // Fetch misses are first L2 touches only where no L2 set overflows.
    if (paths.l1i && !paths.l2Data)
        panic("the shared L1I path needs the shared L2 data side");
    if (tables.fetchLineBytes() != cfg_.hierarchy.l1i.lineBytes)
        panic("tables carry fetch lines of %u B, the machine's L1I "
              "line is %u B",
              tables.fetchLineBytes(), cfg_.hierarchy.l1i.lineBytes);
    INTERF_ASSERT(tables.siteLineStart.size() == plan.siteCount() + 1);
    INTERF_TELEM_COUNT("replay.calls", 1);
    INTERF_TELEM_COUNT("replay.events", plan.eventCount());
    resetState();

    // The BTB meets no other structure, so its per-layout form is a
    // pass of its own, and the kernel and the sum read bits either way.
    FlowBits bits{flow.btbHitBits.data(), flow.btbTargetBits.data(),
                  flow.rasMissBits.data()};
    if (paths.btb) {
        INTERF_TELEM_COUNT("replay.btb_shared", 1);
    } else {
        INTERF_TELEM_COUNT("replay.btb_simulated", 1);
        btbPass(plan, tables);
        bits.btbHit = btbHitBits_.data();
        bits.btbTarget = btbTargetBits_.data();
    }

    // A simulated L2 sees fetch and data misses interleaved: only the
    // kernel, fetching in line, keeps their order.
    if (!paths.l2Data) {
        INTERF_TELEM_COUNT("replay.l2_simulated", 1);
        INTERF_TELEM_COUNT("replay.l1i_simulated", 1);
        INTERF_TELEM_COUNT("replay.kernel", 1);
        return replayImpl(plan, tables, data, bits);
    }
    // A shared L2 data side leaves the hierarchy only fetches, which
    // only ever add stalls to cycles, so their outcome adds on exactly;
    // every other term is the cycle sum's.
    INTERF_TELEM_COUNT("replay.l2_shared", 1);
    FetchOutcome fetch;
    if (paths.l1i) {
        INTERF_TELEM_COUNT("replay.l1i_shared", 1);
        fetch = fetchFirstTouch(cfg_, plan, tables, flow);
    } else {
        INTERF_TELEM_COUNT("replay.l1i_simulated", 1);
        fetch = fetchPass(plan, tables);
    }
    RunResult res = replaySum(plan, tables, data, bits, paths.btb);
    res.cycles += fetch.stallCycles;
    res.l1iMisses += fetch.l1iMisses;
    res.l2InstMisses += fetch.l2InstMisses;
    res.l2PrefMisses += fetch.l2PrefMisses;
    res.l2Misses += fetch.l2InstMisses + fetch.l2PrefMisses;
    return res;
}

RunResult
Machine::replaySum(const trace::ReplayPlan &plan,
                   const trace::LayoutTables &tables,
                   const SharedOutcomes &shared, FlowBits bits,
                   bool btb_shared)
{
    if (shared.delta.size() != plan.condSite.size())
        panic("the cycle sum covers %zu conditional branches, the plan "
              "has %zu",
              shared.delta.size(), plan.condSite.size());
    RunResult res;
    res.instructions = shared.instructions;
    res.condBranches = shared.condBranches;
    res.rasMispredicts = shared.rasMispredicts;
    res.l1dMisses = shared.misses;
    res.l2Misses = shared.l2Misses;
    res.l2DataMisses = shared.l2Misses;
    BtbCharges btb{shared.btbMisses, shared.btbPenalty};
    const CycleDelta *delta = shared.delta.data();
    if (!btb_shared) {
        // This layout's BTB misses other taken conditional branches
        // than the shared one, whose misfetches shared.delta
        // subtracts: move that correction to this layout's misses.
        btb = btbCharges(cfg_, plan, bits.btbHit, bits.btbTarget,
                         condBtbMissBits_);
        condDelta_.assign(shared.delta.begin(), shared.delta.end());
        const u64 *shared_miss = shared.condBtbMissBits.data();
        const u64 *own_miss = condBtbMissBits_.data();
        CycleDelta *own_delta = condDelta_.data();
        const CycleDelta misfetch =
            static_cast<CycleDelta>(cfg_.misfetchPenalty);
        // lint:hot-begin cycle-sum BTB correction (tools/lint_hotpath.py)
        for (size_t w = 0; w < condBtbMissBits_.size(); ++w) {
            for (u64 d = shared_miss[w] ^ own_miss[w]; d; d &= d - 1) {
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
         tables.branchAddr.data(), shared.condFrom, delta});
    res.mispredicts = tally.mispredicts;
    res.btbMisses = btb.misses;
    res.cycles = shared.sumBase + btb.penalty + tally.weight;
    return res;
}

void
Machine::btbPass(const trace::ReplayPlan &plan,
                 const trace::LayoutTables &tables)
{
    using trace::ReplayPlan;
    const size_t n = plan.eventCount();
    btbHitBits_.assign((n + 63) / 64, 0);
    btbTargetBits_.assign((n + 63) / 64, 0);
    const Addr *branch_addr = tables.branchAddr.data();
    const u32 *ev_site = plan.site.data();
    const u8 *ev_flags = plan.flags.data();
    const u32 *ev_target = plan.targetSite.data();
    u64 *hit_bits = btbHitBits_.data();
    u64 *target_bits = btbTargetBits_.data();
    constexpr u8 kMask =
        ReplayPlan::kHasBranch | ReplayPlan::kReturn | ReplayPlan::kTaken;
    // lint:hot-begin BTB pass (tools/lint_hotpath.py)
    for (size_t e = 0; e < n; ++e) {
        if ((ev_flags[e] & kMask) !=
            (ReplayPlan::kHasBranch | ReplayPlan::kTaken))
            continue;
        // The BTB stores the plan's site index, not the 8-byte target
        // address: block addresses are injective per layout (every
        // block has nonzero size), so site-token equality is exactly
        // target-address equality — same hit/miss stream as the
        // reference loop's address-tagged BTB. The fused lookup +
        // update scans the tags once.
        const u32 target = ev_target[e];
        const bpred::BtbResult r =
            btb_.lookupUpdate(branch_addr[ev_site[e]], target);
        hit_bits[e >> 6] |= u64{r.hit} << (e & 63);
        target_bits[e >> 6] |= u64{r.hit && r.target == target} << (e & 63);
    }
    // lint:hot-end
}

FetchOutcome
Machine::fetchPass(const trace::ReplayPlan &plan,
                   const trace::LayoutTables &tables)
{
    using trace::ReplayPlan;
    FetchStep fetch(hierarchy_, tables, cfg_);
    const u32 *ev_site = plan.site.data();
    const u8 *ev_flags = plan.flags.data();
    Cycle stall = 0;
    // lint:hot-begin fetch pass (tools/lint_hotpath.py)
    auto run_events = [&](size_t lo, size_t hi) {
        for (size_t e = lo; e < hi; ++e) {
            stall += fetch(ev_site[e]);
            const u8 f = ev_flags[e];
            if ((f & ReplayPlan::kHasBranch) &&
                (f & (ReplayPlan::kReturn | ReplayPlan::kTaken)))
                fetch.redirect();
        }
    };
    // lint:hot-end
    // The kernel's warmup split: forget what was counted, keep the
    // cache contents.
    const size_t warmup_events = warmupEvent(cfg_, plan);
    run_events(0, warmup_events);
    stall = 0;
    hierarchy_.clearStats();
    run_events(warmup_events, plan.eventCount());
    const cache::HierarchyStats hs = hierarchy_.stats();
    return {stall, hs.l1i.misses, hs.l2InstMisses, hs.l2PrefMisses};
}

/**
 * The dense replay kernel, for a layout whose L2 data side is simulated
 * (elsewhere the cycle sum replaces it, DESIGN.md §5t). Mirrors
 * runReference() block for block — the per-event model steps and their
 * order are identical, only the operand sources differ: flat plan/table
 * arrays instead of Program traversal and per-access address
 * computation (fetch lines and data addresses come pre-translated), and
 * the verdicts of the L1D, the RAS and the BTB read from precomputed
 * bits instead of simulated in line (DESIGN.md §5n, §5p, §5s). The L2
 * sees fetch and data misses interleaved, so the kernel fetches in
 * line. Any behavioural edit here must be made in runReference() and
 * in the cycle sum's builder (core/shared.cc) too (test_replay.cc
 * enforces equality).
 */
RunResult
Machine::replayImpl(const trace::ReplayPlan &plan,
                    const trace::LayoutTables &tables,
                    const SharedOutcomes &data, FlowBits flow)
{
    using trace::ReplayPlan;

    RunResult res;

    Cycle cycles = 0;
    u32 slot_carry = 0;
    u64 cluster_start_inst = 0;
    u32 cluster_outstanding = 0;
    size_t mem_cursor = 0;

    FetchStep fetch(hierarchy_, tables, cfg_);
    const Addr *branch_addr = tables.branchAddr.data();
    const Addr *data_addr = tables.dataAddr.data();
    const u32 *ev_site = plan.site.data();
    const u16 *ev_insts = plan.nInsts.data();
    const u8 *ev_extra = plan.extraExecCycles.data();
    const u16 *ev_nmem = plan.nMem.data();
    const u8 *ev_flags = plan.flags.data();
    const u8 *mem_is_store = plan.memIsStore.data();
    const u64 *l1d_hit_bits = data.hitBits.data();
    auto bit = [](const u64 *bits, size_t i) -> bool {
        return (bits[i >> 6] >> (i & 63)) & 1;
    };

    // Devirtualize the hottest polymorphic call: the standard machine
    // predictor is the hybrid, whose final class lets the direct call
    // inline the whole predict-and-train chain. Other predictors fall
    // back to the virtual dispatch; results are identical either way.
    auto *hybrid = dynamic_cast<bpred::HybridPredictor *>(predictor_.get());
    auto predict_and_train = [&](Addr pc, bool taken) -> bool {
        return hybrid ? hybrid->predictAndTrain(pc, taken)
                      : predictor_->predictAndTrain(pc, taken);
    };

    // HitLevel is a dense enum (L1, L2, Memory); a lookup replaces the
    // reference loop's switch.
    const u32 lat_by_level[3] = {cfg_.l1Latency, cfg_.l2Latency,
                                 cfg_.memLatency};
    auto mem_latency = [&](cache::HitLevel level) -> u32 {
        return lat_by_level[static_cast<u32>(level)];
    };

    // Issue width is a runtime config value, so the reference loop's
    // `/ width` is a hardware divide on every event; all modeled
    // machines use a power-of-two width, which reduces to shift/mask.
    const u32 width = cfg_.width;
    const bool width_pow2 = (width & (width - 1)) == 0;
    const u32 width_shift =
        static_cast<u32>(std::countr_zero(width ? width : 1u));

    const size_t n = plan.eventCount();
    const size_t warmup_events = warmupEvent(cfg_, plan);

    // The event loop body, over [lo, hi). Split at the warmup boundary
    // so the boundary test is not paid per event (the reference loop
    // checks `ev_idx == warmup_events` each iteration; hoisting it is
    // behaviour-preserving).
    // lint:hot-begin replay event loop (tools/lint_hotpath.py)
    auto run_events = [&](size_t lo, size_t hi) {
    for (size_t ev_idx = lo; ev_idx < hi; ++ev_idx) {
        const u32 s = ev_site[ev_idx];

        // ---- Front end: fetch the lines this block occupies.
        cycles += fetch(s);

        // ---- Issue/retire.
        slot_carry += ev_insts[ev_idx];
        if (width_pow2) {
            cycles += slot_carry >> width_shift;
            slot_carry &= width - 1;
        } else {
            cycles += slot_carry / width;
            slot_carry %= width;
        }
        cycles += ev_extra[ev_idx];
        res.instructions += ev_insts[ev_idx];

        // ---- Data accesses (addresses pre-translated in the tables).
        // The L1D's verdict is a precomputed bit; only its misses
        // reach the L2. L1D hits (the common, well-predicted case)
        // skip the cluster bookkeeping entirely; a select-based
        // rewrite measured slower because it puts the bookkeeping on
        // every access's dependence chain.
        u32 last_load_latency = 0;
        for (u32 m = ev_nmem[ev_idx]; m > 0; --m, ++mem_cursor) {
            cache::HitLevel level =
                bit(l1d_hit_bits, mem_cursor)
                    ? cache::HitLevel::L1
                    : hierarchy_.accessDataBelowL1(data_addr[mem_cursor]);
            u32 lat = mem_latency(level);
            // Loads update the resolution latency.
            last_load_latency =
                mem_is_store[mem_cursor] ? last_load_latency : lat;
            if (level != cache::HitLevel::L1) {
                bool overlaps =
                    res.instructions - cluster_start_inst <=
                        cfg_.robSize &&
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
        }

        // ---- Branch.
        const u8 f = ev_flags[ev_idx];
        if (!(f & ReplayPlan::kHasBranch))
            continue;
        bool mispredicted = false;

        if (f & ReplayPlan::kCond) {
            ++res.condBranches;
            bool taken = (f & ReplayPlan::kTaken) != 0;
            bool pred = predict_and_train(branch_addr[s], taken);
            if (pred != taken) {
                ++res.mispredicts;
                mispredicted = true;
                u32 resolve = (f & ReplayPlan::kDependsOnLoad) &&
                                      last_load_latency > 0
                                  ? last_load_latency
                                  : static_cast<u32>(ev_extra[ev_idx]) + 1;
                cycles += cfg_.frontendDepth + resolve;
            }
        }

        // ---- Returns: the return-address stack's verdict.
        if (f & ReplayPlan::kReturn) {
            if (bit(flow.rasMiss, ev_idx)) {
                ++res.rasMispredicts;
                cycles += cfg_.frontendDepth;
            }
            fetch.redirect();
            continue;
        }

        // ---- Target prediction (BTB) for taken redirects: its
        // verdict, shared or from this layout's BTB pass.
        if (f & ReplayPlan::kTaken) {
            if (!bit(flow.btbTarget, ev_idx)) {
                ++res.btbMisses;
                if (!mispredicted) {
                    if ((f & ReplayPlan::kIndirect) &&
                        bit(flow.btbHit, ev_idx)) {
                        cycles += cfg_.frontendDepth;
                    } else {
                        cycles += cfg_.misfetchPenalty;
                    }
                }
            }
            fetch.redirect();
        }
    }
    };
    // lint:hot-end

    if (warmup_events < n) {
        run_events(0, warmup_events);
        // End of warmup: forget everything measured so far, keep the
        // microarchitectural state (exactly the reference loop's
        // mid-loop clear).
        res = RunResult();
        cycles = 0;
        slot_carry = 0;
        cluster_start_inst = 0;
        cluster_outstanding = 0;
        hierarchy_.clearStats();
        run_events(warmup_events, n);
    } else {
        run_events(0, n);
    }

    INTERF_ASSERT(mem_cursor == plan.memCount());

    res.l1dMisses = data.misses;
    const cache::HierarchyStats hs = hierarchy_.stats();
    res.l1iMisses = hs.l1i.misses;
    res.l2Misses = hs.l2.misses;
    res.l2InstMisses = hs.l2InstMisses;
    res.l2PrefMisses = hs.l2PrefMisses;
    res.l2DataMisses = hs.l2DataMisses;
    res.cycles = cycles;
    return res;
}

} // namespace interf::core
