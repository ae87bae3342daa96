#include "core/shared.hh"

#include <algorithm>
#include <bit>
#include <utility>

#include "bpred/btb.hh"
#include "cache/hierarchy.hh"
#include "core/config.hh"
#include "core/cyclesum.hh"
#include "layout/pagemap.hh"
#include "telemetry/metrics.hh"
#include "util/logging.hh"

namespace interf::core
{

namespace
{

using trace::ReplayPlan;

constexpr u32 kPageBits = layout::PageMap::pageBits;
constexpr Addr kPageBytes = Addr{1} << kPageBits;
/** Mask row of a page-end successor: line 0 only. */
constexpr u32 kPageEndRow = ~u32{0};

std::vector<u64>
zeroBits(size_t n)
{
    return std::vector<u64>((n + 63) / 64, 0);
}

void
setBit(std::vector<u64> &bits, size_t i)
{
    bits[i >> 6] |= u64{1} << (i & 63);
}

/** Clear bits of @p bits in [from, n): the misses from position
 *  @p from on (bits past n are never set). */
Count
clearFrom(const std::vector<u64> &bits, size_t from, size_t n)
{
    Count set = 0;
    for (size_t j = from; j < n; j = (j | 63) + 1)
        set += static_cast<Count>(std::popcount(bits[j >> 6] >> (j & 63)));
    return (n - from) - set;
}

/** Stream position of the warmup event's first access. */
size_t
warmupMem(const MachineConfig &machine, const ReplayPlan &plan)
{
    const size_t warmup_event = warmupEvent(machine, plan);
    size_t warmup_mem = 0;
    for (size_t e = 0; e < warmup_event; ++e)
        warmup_mem += plan.nMem[e];
    return warmup_mem;
}

/** Set @p out's L1D part: the hit bits of @p data's addresses from
 *  power-on state, and the misses from the warmup access on. */
void
buildL1d(const MachineConfig &machine, const ReplayPlan &plan,
         const trace::LayoutTables &data, size_t warmup_mem,
         StreamOutcomes &out)
{
    INTERF_ASSERT(data.hasData() && data.dataAddr.size() == plan.memCount());
    INTERF_TELEM_COUNT("replay.l1d_passes", 1);
    out.memCount = plan.memCount();
    out.hitBits.assign((out.memCount + 63) / 64, 0);
    cache::Cache l1d(machine.hierarchy.l1d); // power-on state
    const Addr *data_addr = data.dataAddr.data();
    u64 *hit_bits = out.hitBits.data();
    // lint:hot-begin L1D pass (tools/lint_hotpath.py)
    for (size_t j = 0; j < out.memCount; ++j)
        hit_bits[j >> 6] |= static_cast<u64>(l1d.access(data_addr[j]))
                            << (j & 63);
    // lint:hot-end
    out.misses = clearFrom(out.hitBits, warmup_mem, out.memCount);
}

/** Index of @p page's probe start in a page index of @p cap slots: a
 *  multiplicative hash scaled to [0, cap) without a division. */
size_t
pageProbe(Addr page, size_t cap)
{
    const u64 h = (page * 0x9e3779b97f4a7c15ULL) >> 32;
    return static_cast<size_t>((h * cap) >> 32);
}

/**
 * Set @p out's first-touch bits, pages and page masks over @p data's
 * accesses, walking the plan's distinct ids in first-appearance order
 * (memFirst; DESIGN.md §5x): only an id's first access can start its
 * L2 line, and it does iff no earlier id sits on the line. Each id's
 * page is found in @p index, an open-addressing table of about 1.25x
 * the ids, and the line has been touched iff its bit in its page's mask
 * is set, so the pass costs O(distinct ids). Lines are physical under
 * @p data's page map; a page map keeps line offsets and moves whole
 * pages, so the bits hold under any other. Pages are listed in stream
 * order of their first line. Sets out.sum.l2DataMisses, the first
 * touches from the warmup access on. With @p per_set, counts the
 * distinct data lines each L2 set receives and returns false at the
 * first set they overflow, @p out then partly built.
 */
bool
buildL2(const MachineConfig &machine, const ReplayPlan &plan,
        const trace::LayoutTables &data, size_t warmup_mem,
        std::vector<u32> &index, std::vector<u32> *per_set,
        L2FirstTouch &out)
{
    const cache::CacheConfig &l2 = machine.hierarchy.l2;
    const size_t ids = plan.memUniverse.size();
    INTERF_ASSERT(plan.memFirst.size() == ids &&
                  data.dataAddr.size() == plan.memCount());
    const u32 l2_shift = static_cast<u32>(std::countr_zero(l2.lineBytes));
    const u32 page_shift = kPageBits - l2_shift; // Lines per page, log2.
    const u64 line_in_page = (u64{1} << page_shift) - 1;
    const u32 words = static_cast<u32>((line_in_page + 64) / 64);
    out.firstBits.assign((plan.memCount() + 63) / 64, 0);
    out.pages.clear();
    out.pageMask.clear();
    out.pageWords = words;
    out.pageMap = data.pages();
    // At most one page per id, so the index is at most 80% full.
    const size_t cap = ids + ids / 4 + 1;
    INTERF_ASSERT(cap <= ~u32{0});
    index.assign(cap, 0);
    const Addr sets_mask = l2.numSets() - 1;
    const u32 ways = l2.assoc;
    if (per_set)
        per_set->assign(l2.numSets(), 0);
    u32 *slot = index.data();
    u32 *set_count = per_set ? per_set->data() : nullptr;
    const u32 *first = plan.memFirst.data();
    const Addr *addr = data.dataAddr.data();
    u64 *first_bits = out.firstBits.data();
    Count misses = 0;
    size_t n_pages = 0;
    bool fits = true;
    // Blocks of ids, with room for each to open a page, so the loop
    // writes in place and never allocates.
    constexpr size_t kBlock = 1024;
    for (size_t r0 = 0; r0 < ids && fits; r0 += kBlock) {
        const size_t r1 = std::min(ids, r0 + kBlock);
        out.pages.resize(n_pages + (r1 - r0));
        out.pageMask.resize(out.pages.size() * words, 0);
        Addr *pages = out.pages.data();
        u64 *mask = out.pageMask.data();
        // lint:hot-begin L2 first-touch pass (tools/lint_hotpath.py)
        for (size_t r = r0; r < r1; ++r) {
            const size_t j = first[r];
            const Addr line = addr[j] >> l2_shift;
            const Addr page = line >> page_shift;
            size_t h = pageProbe(page, cap);
            while (slot[h] != 0 && pages[slot[h] - 1] != page)
                h = h + 1 == cap ? 0 : h + 1;
            // Branch-free: on a scattered heap, whether the page and the
            // line are new are coin flips.
            const bool new_page = slot[h] == 0;
            pages[n_pages] = page;
            n_pages += new_page;
            slot[h] = new_page ? static_cast<u32>(n_pages) : slot[h];
            const u64 b = line & line_in_page;
            u64 &word = mask[size_t{slot[h] - 1} * words + b / 64];
            const u64 bit = u64{1} << (b % 64);
            // No earlier id sits on this line.
            const u64 new_line = (word & bit) == 0;
            word |= bit;
            first_bits[j >> 6] |= new_line << (j & 63);
            misses += new_line & (j >= warmup_mem);
            if (set_count) {
                u32 &lines = set_count[line & sets_mask];
                lines += static_cast<u32>(new_line);
                if (lines > ways) {
                    fits = false; // Data lines alone overflow this set.
                    break;
                }
            }
        }
        // lint:hot-end
    }
    out.pages.resize(n_pages);
    out.pageMask.resize(n_pages * words);
    out.sum.l2DataMisses = misses;
    return fits;
}

/**
 * The shared form's level source (core/cyclesum.hh): where no L2 set
 * can overflow, an access that missed the L1D misses the L2 exactly at
 * the first access to its L2 line. Nothing fetches: fetchPerSet()'s
 * outcome is added per layout.
 */
struct SharedLevels
{
    const u64 *l2First;

    // lint:hot-begin shared level source (tools/lint_hotpath.py)
    Cycle beforeEvent(size_t) const { return 0; }
    cache::HitLevel belowL1(size_t mem) const
    {
        return (l2First[mem >> 6] >> (mem & 63)) & 1 ? cache::HitLevel::Memory
                                                     : cache::HitLevel::L2;
    }
    void redirect() {}
    // lint:hot-end
    void warmup() {}
};

/** Whether @p plan_part was built for @p plan. */
bool
covers(const PlanOutcomes &plan_part, const ReplayPlan &plan)
{
    return plan_part.eventCount == plan.eventCount() &&
           plan_part.siteFirstEvent.size() == plan.siteCount();
}

/** The most fetch lines any layout's sites can span: a site of b bytes
 *  spans at most (b + 2 * line - 2) / line lines. */
size_t
siteLineBound(const MachineConfig &machine, const ReplayPlan &plan)
{
    const u32 line = machine.hierarchy.l1i.lineBytes;
    size_t bound = 0;
    for (u32 bytes : plan.siteBytes)
        bound += (bytes + 2 * line - 2) / line;
    return bound;
}

/** Set @p firsts to each fetch line (a line number at the L1I line
 *  size) that a site @p plan executes spans, as @p tables place it,
 *  once, sorted, with its first demand position: the first event of any
 *  site spanning it << 32 | the line's slot in that site. */
void
firstDemands(const MachineConfig &machine, const ReplayPlan &plan,
             const trace::LayoutTables &tables, const PlanOutcomes &plan_part,
             std::vector<std::pair<Addr, u64>> &firsts)
{
    const u32 shift = static_cast<u32>(
        std::countr_zero(machine.hierarchy.l1i.lineBytes));
    firsts.clear();
    // One allocation of a bound every layout of the plan fits, not a
    // doubling series nor one per larger layout: a Machine's buffer
    // reallocated after a layout's tables pins the hole they leave, and
    // glibc's heap of a long optimizer search or of each campaign worker
    // grew by megabytes (DESIGN.md §5w, §5x).
    firsts.reserve(siteLineBound(machine, plan));
    for (size_t s = 0; s < plan.siteCount(); ++s) {
        const u32 first = plan_part.siteFirstEvent[s];
        if (first == ReplayPlan::kNoSite)
            continue;
        const u32 start = tables.siteLineStart[s];
        for (u32 li = start; li < tables.siteLineStart[s + 1]; ++li)
            firsts.push_back({tables.linePhys[li] >> shift,
                              u64{first} << 32 | (li - start)});
    }
    // Sorted pairs: the first of each line is its earliest demand.
    std::sort(firsts.begin(), firsts.end());
    firsts.erase(std::unique(firsts.begin(), firsts.end(),
                             [](const auto &a, const auto &b) {
                                 return a.first == b.first;
                             }),
                 firsts.end());
}

/** Per-set distinct counts -> facts. */
void
tally(const std::vector<u32> &per_set, u32 ways, ConflictFacts &facts)
{
    for (u32 c : per_set) {
        facts.overflowingSets += c > ways;
        facts.maxPerSet = std::max(facts.maxPerSet, c);
    }
}

/** Set @p firsts to the first demands (firstDemands) and @p per_set to
 *  the distinct lines each L1I set receives, each line an executed site
 *  spans and, with the prefetcher, its successor counted once. linePhys
 *  is physical, so the successor of a page's last line is line 0 of the
 *  next *physical* page, as MemoryHierarchy::fetchInst prefetches it. */
void
histogramL1i(const MachineConfig &machine, const ReplayPlan &plan,
             const trace::LayoutTables &tables, const PlanOutcomes &plan_part,
             std::vector<std::pair<Addr, u64>> &firsts,
             std::vector<u32> &per_set)
{
    const cache::HierarchyConfig &h = machine.hierarchy;
    firstDemands(machine, plan, tables, plan_part, firsts);
    per_set.assign(h.l1i.numSets(), 0);
    const Addr set_mask = h.l1i.numSets() - 1;
    for (size_t i = 0; i < firsts.size(); ++i) {
        const Addr line = firsts[i].first;
        ++per_set[line & set_mask];
        if (h.nextLinePrefetch &&
            (i + 1 == firsts.size() || firsts[i + 1].first != line + 1))
            ++per_set[(line + 1) & set_mask];
    }
}

/** Whether the L1I's sets can be counted and its fetch outcome taken
 *  per set: a plan part for @p plan, tables with fetch lines of the L1I
 *  line size, and L1I lines equal to L2 lines, so that a fetch miss is
 *  one L2 line's first touch or an L2 hit. */
bool
l1iCheckable(const MachineConfig &machine, const ReplayPlan &plan,
             const trace::LayoutTables &tables, const PlanOutcomes &plan_part)
{
    const cache::HierarchyConfig &h = machine.hierarchy;
    return covers(plan_part, plan) && h.l1i.geometryError().empty() &&
           h.l1i.lineBytes == h.l2.lineBytes &&
           tables.fetchLineBytes() == h.l1i.lineBytes &&
           tables.siteLineStart.size() == plan.siteCount() + 1;
}

/** Set @p over, per set, to 1 where more lines enter it than it has
 *  ways. */
void
overflowing(const std::vector<u32> &per_set, u32 ways, std::vector<u8> &over)
{
    over.resize(per_set.size());
    for (size_t s = 0; s < per_set.size(); ++s)
        over[s] = per_set[s] > ways;
}

/** Set @p hot, per site of @p plan, to 1 where its fetch reaches a set
 *  that @p over marks, through a line it spans or, with the prefetcher,
 *  through a line's successor, since the prefetch of line + 1 acts on
 *  the set of line + 1. */
void
hotSites(const MachineConfig &machine, const ReplayPlan &plan,
         const trace::LayoutTables &tables, const std::vector<u8> &over,
         std::vector<u8> &hot)
{
    const u32 shift = static_cast<u32>(
        std::countr_zero(machine.hierarchy.l1i.lineBytes));
    const Addr set_mask = over.size() - 1;
    const u8 prefetch = machine.hierarchy.nextLinePrefetch;
    hot.assign(plan.siteCount(), 0);
    for (size_t s = 0; s < plan.siteCount(); ++s)
        for (u32 li = tables.siteLineStart[s];
             li < tables.siteLineStart[s + 1]; ++li) {
            const Addr line = tables.linePhys[li] >> shift;
            hot[s] |= over[line & set_mask] |
                      (prefetch & over[(line + 1) & set_mask]);
        }
}

/**
 * The demand misses, from the warmup event on, of the L1I sets that
 * @p over marks: those sets alone, simulated in @p l1i from power-on in
 * event order over the events whose site @p hot marks (DESIGN.md §5w). A
 * set's contents depend only on the fetches and prefetches that reach
 * it, in their order, and, under Random replacement, on the victim
 * draws, which only evictions make, so only these sets; no other set
 * is simulated. Each hot event repeats the decisions the in-line fetch
 * (SimulatedLevels, core/timing.cc) and MemoryHierarchy::fetchInst take
 * from event e - 1, the only fetch state they keep: a first line equal
 * to e - 1's last line continues its fetch group and is skipped, unless
 * e - 1 redirected (a return or a taken branch); then it is fetched
 * again, refreshing its LRU position, but the hierarchy, whose last
 * line ignores redirects, skips its prefetch check.
 */
Count
overflowMisses(const MachineConfig &machine, const ReplayPlan &plan,
               const trace::LayoutTables &tables,
               const std::vector<u8> &over, const std::vector<u8> &hot,
               cache::Cache &l1i)
{
    const cache::HierarchyConfig &h = machine.hierarchy;
    const u32 shift = static_cast<u32>(std::countr_zero(h.l1i.lineBytes));
    const Addr set_mask = over.size() - 1;
    const bool prefetch = h.nextLinePrefetch;
    const u32 *ev_site = plan.site.data();
    const u8 *ev_flags = plan.flags.data();
    const u32 *line_start = tables.siteLineStart.data();
    const Addr *line_phys = tables.linePhys.data();
    const u8 *over_set = over.data();
    const u8 *hot_site = hot.data();
    const size_t n = plan.eventCount();
    const size_t warmup_event = warmupEvent(machine, plan);
    INTERF_ASSERT(l1i.config().numSets() == h.l1i.numSets() &&
                  l1i.config().assoc == h.l1i.assoc &&
                  l1i.config().lineBytes == h.l1i.lineBytes);
    l1i.reset(); // power-on state
    Count misses = 0;
    // lint:hot-begin per-set fetch (tools/lint_hotpath.py)
    for (size_t e = 0; e < n; ++e) {
        const u32 s = ev_site[e];
        if (!hot_site[s])
            continue;
        u32 li = line_start[s];
        bool check_prefetch = true;
        if (e > 0 &&
            line_phys[line_start[ev_site[e - 1] + 1] - 1] == line_phys[li]) {
            const u8 f = ev_flags[e - 1];
            if (!(f & ReplayPlan::kHasBranch) ||
                !(f & (ReplayPlan::kReturn | ReplayPlan::kTaken)))
                ++li; // The same fetch group continuing.
            else
                check_prefetch = false;
        }
        for (; li < line_start[s + 1]; ++li, check_prefetch = true) {
            const Addr line = line_phys[li] >> shift;
            if (over_set[line & set_mask] && !l1i.access(line_phys[li]))
                misses += e >= warmup_event;
            if (prefetch && check_prefetch &&
                over_set[(line + 1) & set_mask]) {
                const Addr next = (line + 1) << shift;
                if (!l1i.contains(next))
                    l1i.install(next);
            }
        }
    }
    // lint:hot-end
    return misses;
}

/** The plan part's RAS verdicts (PlanOutcomes::rasMissBits). */
std::vector<u64>
simulateRas(const MachineConfig &machine, const trace::ReplayPlan &plan)
{
    // bpred::ReturnAddressStack over site ids: an empty pop yields
    // kNoSite where the address-keyed stack yields 0, and neither
    // equals any return site.
    const size_t n = plan.eventCount();
    const u32 depth = machine.rasDepth;
    INTERF_ASSERT(depth >= 1);
    std::vector<u64> out = zeroBits(n);
    std::vector<u32> ring(depth, ReplayPlan::kNoSite);
    u32 top = 0;
    u32 occupancy = 0;
    for (size_t e = 0; e < n; ++e) {
        const u8 f = plan.flags[e];
        if (!(f & ReplayPlan::kHasBranch))
            continue;
        if (f & ReplayPlan::kReturn) {
            u32 predicted = ReplayPlan::kNoSite;
            if (occupancy > 0) {
                top = (top + depth - 1) % depth;
                --occupancy;
                predicted = ring[top];
            }
            const u32 actual = plan.returnSite[e];
            if (actual != ReplayPlan::kNoSite && predicted != actual)
                setBit(out, e);
        } else if ((f & ReplayPlan::kTaken) && (f & ReplayPlan::kCall) &&
                   plan.rasPushSite[e] != ReplayPlan::kNoSite) {
            ring[top] = plan.rasPushSite[e];
            top = (top + 1) % depth;
            occupancy += occupancy < depth;
        }
    }
    return out;
}

} // anonymous namespace

void
StreamScratch::reserve(const MachineConfig &machine,
                       const trace::ReplayPlan &plan)
{
    const size_t words = (plan.memCount() + 63) / 64;
    const size_t ids = plan.memUniverse.size();
    const u64 lines_per_page =
        kPageBytes >> std::countr_zero(machine.hierarchy.l2.lineBytes);
    L2FirstTouch &l2 = stream.l2 ? *stream.l2 : spare;
    stream.hitBits.reserve(words);
    l2.firstBits.reserve(words);
    l2.pages.reserve(ids);
    l2.pageMask.reserve(ids * ((lines_per_page + 63) / 64));
    l2.sum.delta.reserve(plan.condSite.size());
    pageIndex.reserve(ids + ids / 4 + 1);
    perSet.reserve(machine.hierarchy.l2.numSets());
}

void
FetchScratch::reserve(const MachineConfig &machine,
                      const trace::ReplayPlan &plan)
{
    firsts.reserve(siteLineBound(machine, plan));
    perSet.reserve(machine.hierarchy.l1i.numSets());
    overSets.reserve(machine.hierarchy.l1i.numSets());
    hotSites.reserve(plan.siteCount());
}

size_t
warmupEvent(const MachineConfig &machine, const trace::ReplayPlan &plan)
{
    return static_cast<size_t>(static_cast<double>(plan.eventCount()) *
                               machine.warmupFraction);
}

PlanOutcomes
simulatePlan(const MachineConfig &machine, const trace::ReplayPlan &plan)
{
    PlanOutcomes out;
    out.eventCount = plan.eventCount();
    out.rasMissBits = simulateRas(machine, plan);
    // A BTB that never evicts holds each site's last target token.
    std::vector<u32> last(plan.siteCount(), ReplayPlan::kNoSite);
    auto first_touch = [&](u32 site, u32 target) {
        INTERF_ASSERT(target != ReplayPlan::kNoSite);
        const bpred::BtbResult held{last[site] != ReplayPlan::kNoSite,
                                    last[site]};
        if (!held.hit)
            out.btbSites.push_back(site);
        last[site] = target;
        return held;
    };
    buildBtb(machine, plan, first_touch, out.btb);
    out.siteFirstEvent.assign(plan.siteCount(), ReplayPlan::kNoSite);
    for (size_t e = plan.eventCount(); e-- > 0;)
        out.siteFirstEvent[plan.site[e]] = static_cast<u32>(e);
    return out;
}

StreamOutcomes
simulateStream(const MachineConfig &machine, const trace::ReplayPlan &plan,
               const layout::HeapLayout &heap, const layout::PageMap &pages,
               const PlanOutcomes &plan_part)
{
    INTERF_ASSERT(covers(plan_part, plan));
    const trace::LayoutTables data(
        plan, heap,
        canShareL1d(machine.hierarchy.l1d, true, false) ? layout::PageMap()
                                                        : pages);
    const size_t warmup_mem = warmupMem(machine, plan);
    StreamOutcomes out;
    buildL1d(machine, plan, data, warmup_mem, out);
    // Lines wider than a page would straddle page-map moves.
    if (machine.hierarchy.l2.lineBytes > kPageBytes)
        return out;
    std::vector<u32> index;
    buildL2(machine, plan, data, warmup_mem, index, nullptr,
            out.l2.emplace());
    addStreamSum(machine, plan, plan_part, out);
    return out;
}

const StreamOutcomes &
simulateStream(const MachineConfig &machine, const trace::ReplayPlan &plan,
               const trace::LayoutTables &data, StreamScratch &scratch)
{
    StreamOutcomes &out = scratch.stream;
    const size_t warmup_mem = warmupMem(machine, plan);
    buildL1d(machine, plan, data, warmup_mem, out);
    // The L2 part's buffers move between the stream and the spare, so
    // neither path frees them. Lines wider than a page would straddle
    // page-map moves: no L2 part.
    if (!out.l2)
        out.l2.emplace(std::move(scratch.spare));
    if (machine.hierarchy.l2.lineBytes > kPageBytes ||
        !buildL2(machine, plan, data, warmup_mem, scratch.pageIndex,
                 &scratch.perSet, *out.l2)) {
        scratch.spare = std::move(*out.l2);
        out.l2.reset();
    }
    return out;
}

void
addStreamSum(const MachineConfig &machine, const trace::ReplayPlan &plan,
             const PlanOutcomes &plan_part, StreamOutcomes &stream)
{
    INTERF_ASSERT(covers(plan_part, plan) && stream.l2 &&
                  stream.memCount == plan.memCount());
    L2FirstTouch &l2 = *stream.l2;
    l2.sum.l1dMisses = stream.misses;
    machine.validate(); // Proves every charge fits a CycleDelta.
    SharedLevels levels{l2.firstBits.data()};
    buildSum(machine, plan, stream.hitBits.data(),
             plan_part.rasMissBits.data(), plan_part.btb.condMissBits.data(),
             levels, l2.sum);
}

bool
canShareL1d(const cache::CacheConfig &l1d, bool same_heap, bool same_pages)
{
    if (!same_heap)
        return false;
    const u64 index_span =
        static_cast<u64>(l1d.numSets()) * l1d.lineBytes;
    return same_pages || index_span <= kPageBytes;
}

bool
canShareL2Data(const MachineConfig &machine, const trace::ReplayPlan &plan,
               const trace::LayoutTables &tables,
               const StreamOutcomes &stream, ConflictFacts *facts)
{
    ConflictFacts local;
    ConflictFacts &f = facts ? *facts : local;
    f = ConflictFacts();
    const cache::HierarchyConfig &h = machine.hierarchy;
    // An L2 miss is a first touch only if an access's L1D line lies in
    // one L2 line, and lines move with whole pages only if none is
    // wider than a page.
    const layout::PageMap &pages = tables.pages();
    if (!stream.l2 ||
        (!stream.l2->pageMap.isIdentity() && stream.l2->pageMap != pages) ||
        stream.memCount != plan.memCount() ||
        tables.siteAddr.size() != plan.siteCount() ||
        !h.l2.geometryError().empty() ||
        h.l1d.lineBytes > h.l2.lineBytes || h.l2.lineBytes > kPageBytes ||
        h.l1i.lineBytes > kPageBytes) {
        f.checked = false;
        return false;
    }
    const L2FirstTouch &l2 = *stream.l2;
    const bool translate_data = l2.pageMap.isIdentity();
    const u32 l1i_line = h.l1i.lineBytes;
    const u64 l1i_mask = ~static_cast<u64>(l1i_line - 1);
    const u32 l2_shift = static_cast<u32>(std::countr_zero(h.l2.lineBytes));
    const u64 lines_per_page = kPageBytes >> l2_shift;
    const u32 words = l2.pageWords;

    // Code-reachable lines per virtual page: each line a site spans and
    // its successor. A successor inside the page is the translation of
    // the next virtual line; past a page end it is line 0 of the next
    // *physical* page, which may belong to anything.
    const size_t n_sites = plan.siteCount();
    Addr lo = ~Addr{0};
    Addr hi = 0;
    for (size_t s = 0; s < n_sites; ++s) {
        lo = std::min(lo, tables.siteAddr[s]);
        hi = std::max(hi, tables.siteAddr[s] + plan.siteBytes[s]);
    }
    const Addr page_lo = n_sites ? lo >> kPageBits : 0;
    const size_t code_pages_span =
        n_sites ? static_cast<size_t>((hi >> kPageBits) - page_lo + 1) : 0;
    std::vector<u64> code_mask(code_pages_span * words, 0);
    std::vector<u8> page_end(code_pages_span, 0);
    auto mark = [&](Addr vpage, Addr offset) {
        const u64 b = offset >> l2_shift;
        code_mask[vpage * words + b / 64] |= u64{1} << (b % 64);
    };
    for (size_t s = 0; s < n_sites; ++s) {
        const Addr first = tables.siteAddr[s] & l1i_mask;
        const Addr last =
            (tables.siteAddr[s] + plan.siteBytes[s] - 1) & l1i_mask;
        for (Addr line = first; line <= last; line += l1i_line) {
            const Addr vpage = (line >> kPageBits) - page_lo;
            const Addr offset = line & (kPageBytes - 1);
            mark(vpage, offset);
            if (offset + l1i_line < kPageBytes)
                mark(vpage, offset + l1i_line);
            else
                page_end[vpage] = 1;
        }
    }

    // The code-reachable lines by physical page: few pages, so sorted
    // and merged; a page-end successor may land on a code page.
    std::vector<std::pair<Addr, u32>> code_pages; // ppage, mask row
    std::vector<u64> end_mask(words, 0);
    end_mask[0] = 1;
    for (size_t v = 0; v < code_pages_span; ++v) {
        const Addr ppage =
            pages.translate((page_lo + v) << kPageBits) >> kPageBits;
        if (std::any_of(code_mask.begin() + v * words,
                        code_mask.begin() + (v + 1) * words,
                        [](u64 w) { return w != 0; }))
            code_pages.push_back({ppage, static_cast<u32>(v)});
        if (page_end[v])
            code_pages.push_back({ppage + 1, kPageEndRow});
    }
    std::sort(code_pages.begin(), code_pages.end());
    auto row = [&](u32 r) {
        return r == kPageEndRow ? end_mask.data()
                                : code_mask.data() + size_t{r} * words;
    };

    // Distinct lines per set. Without facts to report, stop at the
    // first overflow.
    const u32 sets = h.l2.numSets();
    const u32 ways = h.l2.assoc;
    std::vector<u32> per_set(sets, 0);
    bool overflow = false;
    auto count = [&](Addr ppage, const u64 *mask) {
        for (u32 w = 0; w < words; ++w)
            for (u64 m = mask[w]; m; m &= m - 1) {
                const Addr line = ppage * lines_per_page + w * 64 +
                                  static_cast<u32>(std::countr_zero(m));
                overflow |= ++per_set[line & (sets - 1)] > ways;
            }
    };
    std::vector<u64> merged(words);
    for (size_t i = 0; i < code_pages.size();) {
        const Addr ppage = code_pages[i].first;
        std::fill(merged.begin(), merged.end(), 0);
        for (; i < code_pages.size() && code_pages[i].first == ppage; ++i)
            for (u32 w = 0; w < words; ++w)
                merged[w] |= row(code_pages[i].second)[w];
        count(ppage, merged.data());
    }
    // Distinct data pages sit on distinct physical pages; only a code
    // page can share one, and then no line may be both.
    for (size_t g = 0; g < l2.pages.size(); ++g) {
        if (overflow && !facts)
            return false;
        const Addr ppage =
            translate_data
                ? pages.translate(l2.pages[g] << kPageBits) >> kPageBits
                : l2.pages[g];
        const u64 *mask = l2.pageMask.data() + g * words;
        auto it = std::lower_bound(
            code_pages.begin(), code_pages.end(),
            std::pair<Addr, u32>{ppage, 0});
        for (; it != code_pages.end() && it->first == ppage; ++it)
            for (u32 w = 0; w < words; ++w)
                if (row(it->second)[w] & mask[w])
                    f.checked = false; // Code can reach a data line.
        count(ppage, mask);
    }
    tally(per_set, ways, f);
    return f.holds();
}

bool
canShareBtb(const MachineConfig &machine, const trace::ReplayPlan &plan,
            const trace::LayoutTables &tables, const PlanOutcomes &plan_part,
            ConflictFacts *facts)
{
    ConflictFacts local;
    ConflictFacts &f = facts ? *facts : local;
    f = ConflictFacts();
    const u32 sets = machine.btbSets;
    const u32 ways = machine.btbWays;
    if (plan_part.eventCount != plan.eventCount() ||
        tables.branchAddr.size() != plan.siteCount() ||
        !bpred::Btb::geometryError(sets, ways).empty()) {
        f.checked = false;
        return false;
    }
    // The BTB pass's bpred::Btb tags full u32 PCs, so distinct PCs never
    // alias; the first `ways` PCs of each set are kept to prove the
    // sites' PCs distinct (a set past `ways` fails the proof anyway).
    std::vector<u32> per_set(sets, 0);
    std::vector<Addr> held(static_cast<size_t>(sets) * ways);
    for (u32 s : plan_part.btbSites) {
        const Addr pc = tables.branchAddr[s];
        if (pc >= ~u32{0}) {
            f.checked = false; // Past the u32 tag: bpred::Btb asserts.
            continue;
        }
        const u32 set = bpred::Btb::setOf(pc, sets);
        Addr *row = held.data() + static_cast<size_t>(set) * ways;
        const u32 kept = std::min(per_set[set], ways);
        if (std::find(row, row + kept, pc) != row + kept)
            f.checked = false; // Two sites on one PC.
        else if (kept < ways)
            row[kept] = pc;
        ++per_set[set];
    }
    tally(per_set, ways, f);
    return f.holds();
}

bool
canShareL1i(const MachineConfig &machine, const trace::ReplayPlan &plan,
            const trace::LayoutTables &tables, const PlanOutcomes &plan_part,
            ConflictFacts *facts)
{
    ConflictFacts local;
    ConflictFacts &f = facts ? *facts : local;
    f = ConflictFacts();
    if (!l1iCheckable(machine, plan, tables, plan_part)) {
        f.checked = false;
        return false;
    }
    std::vector<std::pair<Addr, u64>> firsts;
    std::vector<u32> per_set;
    histogramL1i(machine, plan, tables, plan_part, firsts, per_set);
    const u32 ways = machine.hierarchy.l1i.assoc;
    tally(per_set, ways, f);
    if (facts && f.overflowingSets > 0) {
        std::vector<u8> over, hot;
        overflowing(per_set, ways, over);
        hotSites(machine, plan, tables, over, hot);
        for (u32 s : plan.site)
            f.hotEvents += hot[s];
    }
    return f.holds();
}

SharedPaths
choosePaths(const MachineConfig &machine, const trace::ReplayPlan &plan,
            const trace::LayoutTables &tables, const PlanOutcomes &plan_part,
            const StreamOutcomes &stream, PathFacts *facts)
{
    SharedPaths paths;
    // Fetch misses are first L2 touches or L2 hits only where no L2 set
    // overflows, and one L2 line's only where the L1I and L2 lines are
    // equal. fetchPerSet() counts the L1I's sets itself, so they are
    // counted here only for the facts.
    paths.l2Data = canShareL2Data(machine, plan, tables, stream,
                                  facts ? &facts->l2 : nullptr) &&
                   l1iCheckable(machine, plan, tables, plan_part);
    paths.btb = canShareBtb(machine, plan, tables, plan_part,
                            facts ? &facts->btb : nullptr);
    if (facts)
        canShareL1i(machine, plan, tables, plan_part, &facts->l1i);
    return paths;
}

FetchOutcome
fetchPerSet(const MachineConfig &machine, const trace::ReplayPlan &plan,
            const trace::LayoutTables &tables, const PlanOutcomes &plan_part,
            FetchScratch &scratch)
{
    const cache::HierarchyConfig &h = machine.hierarchy;
    INTERF_ASSERT(covers(plan_part, plan));
    INTERF_ASSERT(tables.fetchLineBytes() == h.l1i.lineBytes);
    histogramL1i(machine, plan, tables, plan_part, scratch.firsts,
                 scratch.perSet);
    overflowing(scratch.perSet, h.l1i.assoc, scratch.overSets);
    const std::vector<u8> &over = scratch.overSets;
    const Addr set_mask = over.size() - 1;
    const auto &firsts = scratch.firsts;
    const u64 counted_from = u64{warmupEvent(machine, plan)} << 32;
    const bool prefetch = h.nextLinePrefetch;
    FetchOutcome out;
    for (size_t i = 0; i < firsts.size(); ++i) {
        const auto [line, at] = firsts[i];
        if (at < counted_from)
            continue;
        // The line first arrives at its first demand unless the
        // prefetch after its physical predecessor's first demand brought
        // it in earlier. A first arrival misses the L1I and the L2; in a
        // set that never evicts, it is the line's only miss.
        const bool prefetched = prefetch && i > 0 &&
                                firsts[i - 1].first + 1 == line &&
                                firsts[i - 1].second < at;
        out.l2InstMisses += !prefetched;
        out.l1iMisses += !prefetched && !over[line & set_mask];
        // Its own prefetch is the successor's first arrival unless the
        // successor was demanded earlier.
        const bool demanded = i + 1 < firsts.size() &&
                              firsts[i + 1].first == line + 1 &&
                              firsts[i + 1].second < at;
        out.l2PrefMisses += prefetch && !demanded;
    }
    if (std::find(over.begin(), over.end(), 1) != over.end()) {
        INTERF_TELEM_COUNT("replay.l1i_per_set", 1);
        hotSites(machine, plan, tables, over, scratch.hotSites);
        out.l1iMisses += overflowMisses(machine, plan, tables, over,
                                        scratch.hotSites, scratch.l1i);
    } else {
        INTERF_TELEM_COUNT("replay.l1i_shared", 1);
    }
    // The L2 never evicts a code line under the L2 proof: a line's
    // first arrival is served from memory, every later L1I miss by the
    // L2.
    out.stallCycles =
        out.l2InstMisses * fetchStall(machine.memLatency) +
        (out.l1iMisses - out.l2InstMisses) * fetchStall(machine.l2Latency);
    return out;
}

} // namespace interf::core
