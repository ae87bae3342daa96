#include "bpred/btb.hh"

#include <algorithm>

#include "util/logging.hh"

namespace interf::bpred
{

std::string
Btb::geometryError(u32 sets, u32 ways)
{
    if (sets == 0 || (sets & (sets - 1)) != 0)
        return strprintf("%u sets is not a power of two; the set index "
                         "masks low PC bits, so a non-power-of-two "
                         "count would silently alias sets",
                         sets);
    if (ways == 0)
        return "associativity must be >= 1";
    if (ways > 32)
        return strprintf("associativity %u exceeds 32 (u8 per-set ages "
                         "and the packed scan's u32 mask cap the ways)",
                         ways);
    return {};
}

Btb::Btb(u32 sets, u32 ways) : sets_(sets), ways_(ways)
{
    // A typed construction-time diagnostic rather than an assert: a bad
    // geometry is a configuration error.
    const std::string error = geometryError(sets, ways);
    if (!error.empty())
        fatal("btb: %s", error.c_str());
    size_t n = static_cast<size_t>(sets) * ways;
    tags_.resize(n, kNoTag);
    targets_.resize(n, 0);
    lru_.resize(n, 0);
    setClock_.resize(sets, 0);
}

void
Btb::reset()
{
    // Eager clear. An epoch-versioned lazy reset (as the caches use)
    // was implemented and measured here too: full-u32-PC tags leave
    // no spare bits to fold an epoch salt into, so every probe had to
    // test a per-set generation tag, and that check alone cost ~3% of
    // replay throughput. The BTB's whole state is ~45 KB —
    // the memset is trivial next to a layout replay.
    std::fill(tags_.begin(), tags_.end(), kNoTag);
    std::fill(targets_.begin(), targets_.end(), u32{0});
    std::fill(lru_.begin(), lru_.end(), u8{0});
    std::fill(setClock_.begin(), setClock_.end(), u8{0});
}

u64
Btb::sizeBits() const
{
    // Tag (approx. 20 bits stored in real designs) + target (32 offset
    // bits) per entry, as a rough budget figure.
    return static_cast<u64>(sets_) * ways_ * (20 + 32);
}

} // namespace interf::bpred
