/**
 * @file
 * Virtual-to-physical page mapping.
 *
 * The Xeon's L1 caches are effectively page-offset-indexed (32 KB,
 * 8-way, 64 B lines: the set index fits inside the 4 KB page offset),
 * but the large L2 is *physically* indexed: bits of the physical page
 * number select the set. Which physical pages a process receives
 * depends on OS allocator state and differs per execution setup — this
 * is the mechanism through which heap randomization (and plain reruns)
 * perturb L2 conflict behaviour on real machines, since pure
 * virtual-address placement cannot move lines between the sets of a
 * highly-associative LRU cache.
 *
 * PageMap models that: a seeded bijective permutation of page numbers
 * (a small Feistel network) that preserves page offsets. Identity maps
 * are available for studies that want virtual-indexed behaviour.
 */

#ifndef INTERF_LAYOUT_PAGEMAP_HH
#define INTERF_LAYOUT_PAGEMAP_HH

#include "util/types.hh"

namespace interf::layout
{

/** Seeded bijective virtual-to-physical page mapping. */
class PageMap
{
  public:
    /** Identity mapping (physical == virtual). */
    PageMap();

    /**
     * Random-looking but bijective mapping keyed by seed; equal seeds
     * give identical mappings.
     */
    explicit PageMap(u64 seed);

    /** Translate a full address (page offset preserved). */
    Addr translate(Addr vaddr) const;

    /** Whether this is the identity mapping. */
    bool isIdentity() const { return identity_; }

    u64 seed() const { return seed_; }

    /** Same mapping (identity, or the same seed). */
    bool operator==(const PageMap &other) const = default;

    /** Page size (fixed 4 KiB, as on the measured system). */
    static constexpr u32 pageBits = 12;

    /**
     * The Feistel permutation covers this many page-number bits;
     * addresses at or above 1 << (pageBits + permutedVpnBits) pass
     * through translate() unchanged. The soundness analyzer uses this
     * to bound the post-translation address space: translate() can
     * lift a low address to at most that ceiling, never beyond.
     */
    static constexpr u32 permutedVpnBits = 32;

  private:
    u32 permutePage(u32 vpn) const;

    bool identity_ = true;
    u64 seed_ = 0;
    u32 keys_[4] = {0, 0, 0, 0};
};

} // namespace interf::layout

#endif // INTERF_LAYOUT_PAGEMAP_HH
