/**
 * @file
 * Reference microarchitecture models for Machine::runReference().
 *
 * These are the original event-at-a-time implementations of the cache,
 * hierarchy and BTB (array-of-line-structs storage, out-of-line
 * methods), kept verbatim as the executable specification after the
 * hot-path versions in cache/ and bpred/ moved to inlined SoA storage
 * with branchless tag scans. Keeping them separate serves two roles:
 *
 *  - tests/test_replay.cc checks Machine::replay against
 *    runReference(), so the optimized structures are verified
 *    bit-for-bit against these independent, obviously-correct models
 *    rather than against themselves;
 *  - bench_micro_replay's "legacy" mode measures the pre-plan
 *    measurement path with the storage layout it actually had, giving
 *    an honest baseline for the replay speedup.
 *
 * Nothing here is for hot loops; do not optimize these.
 */

#ifndef INTERF_CORE_REFMODEL_HH
#define INTERF_CORE_REFMODEL_HH

#include <vector>

#include "bpred/btb.hh"
#include "cache/cache.hh"
#include "cache/hierarchy.hh"
#include "util/random.hh"
#include "util/types.hh"

namespace interf::core::refmodel
{

/** Reference set-associative tag-only cache (line structs, LRU). */
class RefCache
{
  public:
    explicit RefCache(const cache::CacheConfig &config);

    /** Access one line: true on hit; installs on miss. */
    bool access(Addr addr);

    /** Probe without updating replacement state or installing. */
    bool contains(Addr addr) const;

    /** Install without touching the hit/miss statistics. */
    void install(Addr addr);

    /** Clear statistics only, keeping contents (warmup end). */
    void clearStats() { stats_ = cache::CacheStats(); }

    const cache::CacheStats &stats() const { return stats_; }

  private:
    struct Line
    {
        bool valid = false;
        Addr tag = 0;
        u32 lru = 0;
    };

    u32 setIndex(Addr addr) const
    {
        return static_cast<u32>(addr >> lineShift_) & (sets_ - 1);
    }
    Addr tagOf(Addr addr) const { return addr >> lineShift_; }
    u32 pickVictim(const Line *row);

    cache::CacheConfig cfg_;
    u32 sets_;
    u32 lineShift_;
    u32 lruClock_ = 0;
    Rng victimRng_{0x5eed};
    std::vector<Line> lines_; ///< sets_ * assoc, row-major by set.
    cache::CacheStats stats_;
};

/** Reference L1I/L1D/L2 hierarchy with next-line I-prefetch. */
class RefHierarchy
{
  public:
    explicit RefHierarchy(const cache::HierarchyConfig &config);

    cache::HitLevel fetchInst(Addr addr);
    cache::HitLevel accessData(Addr addr);
    void clearStats();
    cache::HierarchyStats stats() const;

  private:
    cache::HierarchyConfig cfg_;
    RefCache l1i_;
    RefCache l1d_;
    RefCache l2_;
    Addr lastFetchLine_ = ~Addr{0};
    Count l2InstMisses_ = 0;
    Count l2PrefMisses_ = 0;
    Count l2DataMisses_ = 0;
};

/** Result of a RefBtb lookup: full target address (the reference
 *  model stays address-tagged and address-valued; the optimized Btb
 *  stores u32 tokens instead, which the replay proves
 *  equivalent through site-address injectivity). */
struct RefBtbResult
{
    bool hit = false;
    Addr target = 0;
};

/** Reference branch target buffer (entry structs, LRU). */
class RefBtb
{
  public:
    RefBtb(u32 sets, u32 ways);

    RefBtbResult lookup(Addr pc) const;
    void update(Addr pc, Addr target);

  private:
    struct Entry
    {
        bool valid = false;
        Addr tag = 0;
        Addr target = 0;
        u32 lru = 0;
    };

    u32 setIndex(Addr pc) const
    {
        return static_cast<u32>(pc ^ (pc >> 13)) & (sets_ - 1);
    }
    static Addr tagOf(Addr pc) { return pc; }

    u32 sets_;
    u32 ways_;
    u32 lruClock_ = 0;
    std::vector<Entry> entries_; ///< sets_ * ways_, row-major by set.
};

} // namespace interf::core::refmodel

#endif // INTERF_CORE_REFMODEL_HH
