/**
 * @file
 * Branch target buffer: a set-associative cache of branch targets.
 *
 * Section 4.1 of the paper lists the BTB among the address-hashed
 * structures that code placement perturbs: "A branch target buffer
 * (BTB) or indirect branch predictor would use lower-order bits of the
 * branch address to index a table of branch targets." The machine
 * timing model charges a misfetch penalty on BTB misses for taken
 * branches and a full misprediction penalty for wrong indirect targets;
 * this adds layout-dependent CPI variance *not* explained by MPKI,
 * which is part of why the paper's branch-only r^2 averages 27%.
 *
 * The representation is compact: tags are stored once as u32 (branch
 * PCs are text-segment addresses, far below 2^32 — installs assert
 * it), targets are u32 *tokens* the caller chooses (the BTB pass
 * stores plan site indices instead of 8-byte addresses; equality of
 * tokens is equality of targets because block addresses are injective
 * per layout), and recency is a u8 age per way against a u8 per-set
 * clock (free at BTB touch rates; see touchLru). reset() clears
 * eagerly: unlike the caches, the full u32-PC tags leave no spare bits
 * for an epoch salt, and a per-set generation check on every probe
 * measured ~3% of replay throughput (see Btb::reset in btb.cc).
 */

#ifndef INTERF_BPRED_BTB_HH
#define INTERF_BPRED_BTB_HH

#include <string>
#include <vector>

#include "util/logging.hh"
#include "util/types.hh"

#if defined(__x86_64__) || defined(_M_X64)
#include <emmintrin.h>
#define INTERF_BTB_HAVE_SSE2 1
#endif

namespace interf::bpred
{

/** Result of a BTB lookup. The target is the u32 token the last
 *  update for this branch stored (a plan site index in the BTB pass;
 *  any caller-defined encoding elsewhere). */
struct BtbResult
{
    bool hit = false;
    u32 target = 0;
};

/** Set-associative branch target buffer with LRU replacement. */
class Btb
{
  public:
    /**
     * @param sets Number of sets (power of two).
     * @param ways Associativity (1..32).
     */
    Btb(u32 sets, u32 ways);

    /**
     * The geometry rule the constructor enforces: power-of-two sets,
     * 1..32 ways. Returns why (@p sets, @p ways) is invalid, or an
     * empty string when it is valid.
     */
    static std::string geometryError(u32 sets, u32 ways);

    /**
     * Look up the predicted target for a branch; no state change.
     * Inlined (with SoA tag storage) for the BTB pass, which calls
     * this once per taken branch.
     */
    BtbResult lookup(Addr pc) const
    {
        const u32 set = setIndex(pc);
        const size_t base = static_cast<size_t>(set) * ways_;
        u32 w = findWay(base, tagOf(pc));
        if (w != ways_)
            return {true, targets_[base + w]};
        return {};
    }

    /**
     * lookup() followed by update() with a single tag scan: returns
     * what lookup(pc) would have, then installs/refreshes the target.
     * The BTB pass always pairs the two on taken branches, and the
     * scan is the dominant cost of each.
     */
    BtbResult lookupUpdate(Addr pc, u32 target)
    {
        return updateFound(pc, target, probeWay(pc));
    }

    /** Install/refresh the target for a branch (LRU update). */
    void update(Addr pc, u32 target)
    {
        updateFound(pc, target, probeWay(pc));
    }

    /** Restore the power-on (empty) state (eager ~45 KB clear; see
     *  the rationale in btb.cc). */
    void reset();

    /** The set a @p sets-set BTB files @p pc under (the sharing proof
     *  in core/shared.hh histograms with it). */
    static u32 setOf(Addr pc, u32 sets)
    {
        return static_cast<u32>(pc ^ (pc >> 13)) & (sets - 1);
    }

    u32 sets() const { return sets_; }
    u32 ways() const { return ways_; }

    /** Bytes of per-replay mutable state (tag/target/age arrays). */
    u64 hotStateBytes() const
    {
        return tags_.size() * sizeof(u32) +
               targets_.size() * sizeof(u32) + lru_.size() +
               setClock_.size();
    }

    /** Storage estimate in bits (tags + targets). */
    u64 sizeBits() const;

  private:
    /** Way holding @p pc's entry, or ways_ if absent; no state change. */
    u32 probeWay(Addr pc) const
    {
        const u32 set = setIndex(pc);
        return findWay(static_cast<size_t>(set) * ways_, tagOf(pc));
    }

    /** Apply lookupUpdate()'s effects given probeWay()'s result @p w;
     *  returns what lookup() would have. */
    BtbResult updateFound(Addr pc, u32 target, u32 w)
    {
        const u32 set = setIndex(pc);
        const size_t base = static_cast<size_t>(set) * ways_;
        if (w != ways_) {
            BtbResult before{true, targets_[base + w]};
            targets_[base + w] = target;
            touchLru(base, set, w);
            return before;
        }
        const u32 tag = tagOf(pc);
        INTERF_ASSERT(static_cast<Addr>(tag) == pc && tag != kNoTag);
        u32 victim = pickVictim(base);
        tags_[base + victim] = tag;
        targets_[base + victim] = target;
        touchLru(base, set, victim);
        return {};
    }

    /**
     * Tag of an invalid way; branch PCs are text-segment code
     * addresses far below the all-ones value (installs assert the u32
     * tag round-trips), so the sentinel can never collide.
     */
    static constexpr u32 kNoTag = ~u32{0};

    u32 setIndex(Addr pc) const { return setOf(pc, sets_); }

    static u32 tagOf(Addr pc)
    {
        // Full (truncated-to-u32) tags: conflicts come from the set
        // index only. Installs assert the truncation is lossless.
        return static_cast<u32>(pc);
    }

    /** Stamp way @p w most-recent; rank-renormalize the set's u8 ages
     *  when its clock saturates (order-preserving). The cache's LRU
     *  keeps wide write-only stamps because a per-set clock's
     *  load-increment-store chain cost ~10-15% of replay throughput
     *  there; the BTB touches LRU only on taken branches — an order
     *  of magnitude rarer — where the same scheme measured free, so
     *  the u8 narrowing stays. */
    void touchLru(size_t base, u32 set, u32 w)
    {
        u8 clock = setClock_[set];
        if (clock == 0xff) {
            renormalizeLru(base);
            clock = static_cast<u8>(ways_ - 1);
        }
        ++clock;
        setClock_[set] = clock;
        lru_[base + w] = clock;
    }

    void renormalizeLru(size_t base)
    {
        u8 *ages = lru_.data() + base;
        u8 ranked[32]; // ctor caps ways at 32
        for (u32 w = 0; w < ways_; ++w) {
            u8 r = 0;
            for (u32 v = 0; v < ways_; ++v)
                r += static_cast<u8>(
                    ages[v] < ages[w] ||
                    (ages[v] == ages[w] && v < w));
            ranked[w] = r;
        }
        for (u32 w = 0; w < ways_; ++w)
            ages[w] = ranked[w];
    }

    /** Victim way: first invalid way (way order), else least recent.
     *  The caller materialized the set. */
    u32 pickVictim(size_t base) const
    {
        const u32 *tags = tags_.data() + base;
        const u8 *lru = lru_.data() + base;
        u32 victim = 0;
        for (u32 v = 0; v < ways_; ++v) {
            if (tags[v] == kNoTag)
                return v;
            if (lru[v] < lru[victim])
                victim = v;
        }
        return victim;
    }

    /**
     * Way of the row at @p base holding @p tag, or ways_ if absent.
     * Branchless packed compare of the u32 tags into an exact equality
     * mask — same scheme as cache::Cache::findWay (see the rationale
     * there), exact without a confirm step because the stored tag is
     * the full u32. The caller must have checked the set is live.
     */
    u32 findWay(size_t base, u32 tag) const
    {
#ifdef INTERF_BTB_HAVE_SSE2
        if (ways_ % 4 == 0 && ways_ <= 32) {
            const u32 *tags = tags_.data() + base;
            const __m128i key =
                _mm_set1_epi32(static_cast<int>(tag));
            u32 mask = 0;
            for (u32 w = 0; w < ways_; w += 4) {
                __m128i eq = _mm_cmpeq_epi32(
                    _mm_loadu_si128(
                        reinterpret_cast<const __m128i *>(tags + w)),
                    key);
                mask |= static_cast<u32>(
                            _mm_movemask_ps(_mm_castsi128_ps(eq)))
                        << w;
            }
            return mask ? static_cast<u32>(__builtin_ctz(mask)) : ways_;
        }
#endif
        const u32 *tags = tags_.data() + base;
        for (u32 w = 0; w < ways_; ++w)
            if (tags[w] == tag)
                return w;
        return ways_;
    }

    u32 sets_;
    u32 ways_;
    /** @{ sets_ * ways_, row-major by set; parallel arrays. */
    std::vector<u32> tags_;    ///< u32 tags (sentinel kNoTag).
    std::vector<u32> targets_; ///< Caller-defined target tokens.
    std::vector<u8> lru_;      ///< Per-way age; higher = more recent.
    std::vector<u8> setClock_; ///< Per-set age clock.
    /** @} */
};

} // namespace interf::bpred

#endif // INTERF_BPRED_BTB_HH
