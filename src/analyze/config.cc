/**
 * @file
 * ConfigSoundness: interval/width analysis of one MachineConfig.
 *
 * The abstract domain is deliberately tiny — exclusive upper bounds on
 * the addresses each hardware structure can ever be asked to index
 * (see analyze.hh's AddressSpace). Everything the pass proves reduces
 * to bit-width comparisons against those bounds: a cache tag of
 * Cache::kTagBits bits with an epoch salt at kEpochShift covers the
 * space iff the width of the largest line number stays at or below
 * kEpochShift; u32 BTB full-PC tags cover it iff the largest PC stays
 * below the all-ones sentinel. The geometry rules themselves live with
 * the structures (CacheConfig::geometryError, Btb::geometryError);
 * this pass reports them as typed diagnostics, so a fleet sweep learns
 * *which* config is broken and why instead of dying on the first.
 */

#include "analyze/analyze.hh"

#include <bit>

#include "bpred/btb.hh"
#include "core/config.hh"
#include "layout/heap.hh"
#include "layout/linker.hh"
#include "layout/pagemap.hh"
#include "trace/program.hh"

#include "util/logging.hh"

namespace interf::analyze
{

// The salt layout the width analysis assumes: the 6-bit epoch field
// sits exactly on top of the real tag bits, and the salt value space
// excludes all-ones so the kNoTag sentinel can never be produced.
static_assert(cache::Cache::kEpochShift + 6 == cache::Cache::kTagBits,
              "epoch salt must fill the tag bits above kEpochShift");
static_assert(cache::Cache::kEpochPeriod <= 63,
              "epoch salt must leave the all-ones sentinel unreachable");
static_assert(cache::Cache::kNoTag ==
                  (Addr{1} << cache::Cache::kTagBits) - 1,
              "sentinel is all-ones in the stored tag width");

namespace
{

constexpr const char *kPassName = "config-soundness";

/** Exclusive code-address ceiling when no program bounds it: the
 *  non-PIE text model anchors text at kDefaultTextBase and interferometry
 *  programs are trace-scale, far below the low 2 GiB this contract
 *  grants. forProgram() proves a per-program bound instead. */
constexpr Addr kContractCodeCeiling = Addr{1} << 31;

bool
isPow2(u64 v)
{
    return v != 0 && (v & (v - 1)) == 0;
}

} // anonymous namespace

AddressSpace
AddressSpace::engineDefault()
{
    // Data: globals pack up from kGlobalBase, heap arenas from
    // kHeapBase, stack regions down from kStackBase — all below
    // kStackBase. Code sits below the data space entirely. The page
    // map can lift any of them to at most 2^(pageBits +
    // permutedVpnBits); addresses above that window pass through
    // untranslated, so the overall ceiling is the larger of the two.
    constexpr Addr permuted_ceiling =
        Addr{1} << (layout::PageMap::pageBits +
                    layout::PageMap::permutedVpnBits);
    AddressSpace space;
    space.lineCeiling = layout::kStackBase > permuted_ceiling
                            ? layout::kStackBase
                            : permuted_ceiling;
    space.codeCeiling = kContractCodeCeiling;
    return space;
}

AddressSpace
AddressSpace::forProgram(const trace::Program &prog)
{
    AddressSpace space = engineDefault();
    // Worst-case text extent over every permutation the Linker can
    // produce: each procedure contributes at most (align - 1) padding
    // bytes regardless of where the link order places it.
    Addr extent = layout::kDefaultTextBase;
    for (const auto &proc : prog.procedures()) {
        u32 align = proc.align ? proc.align : 1;
        extent += static_cast<Addr>(align - 1) + proc.bytes();
    }
    space.codeCeiling = extent;
    return space;
}

u32
requiredTagBits(u32 line_bytes, Addr ceiling)
{
    INTERF_ASSERT(isPow2(line_bytes));
    if (ceiling <= 1)
        return 0;
    u32 line_shift = static_cast<u32>(std::countr_zero(line_bytes));
    return static_cast<u32>(std::bit_width((ceiling - 1) >> line_shift));
}

namespace
{

void
auditCacheConfigIn(const cache::CacheConfig &cfg, u32 cache_index,
                   Addr line_ceiling, verify::Sink &sink)
{
    using cache::Cache;
    using verify::EntityKind;
    const std::string geometry = cfg.geometryError();
    if (!geometry.empty()) {
        sink.error(EntityKind::Cache, cache_index,
                   strprintf("'%s': %s", cfg.name.c_str(),
                             geometry.c_str()));
        return;
    }

    u32 required = requiredTagBits(cfg.lineBytes, line_ceiling);
    if (required > Cache::kTagBits) {
        sink.error(
            EntityKind::Cache, cache_index,
            strprintf("'%s': addresses below %#llx need %u-bit line "
                      "tags; the split u32/u16 pair stores only %u "
                      "bits, so distinct lines would alias",
                      cfg.name.c_str(),
                      static_cast<unsigned long long>(line_ceiling),
                      required, Cache::kTagBits));
    } else if (required > Cache::kEpochShift) {
        // Smallest line size whose line numbers stay out of the salt
        // field: one address bit per doubling of the line.
        u32 addr_bits =
            static_cast<u32>(std::bit_width(line_ceiling - 1));
        u64 min_line = Addr{1} << (addr_bits - Cache::kEpochShift);
        sink.error(
            EntityKind::Cache, cache_index,
            strprintf("'%s': addresses below %#llx need %u-bit line "
                      "tags, overlapping the epoch salt at tag bits "
                      "%u..%u — a line installed in one reset epoch "
                      "could hit a probe from another; lines must be "
                      ">= %llu bytes for this address space",
                      cfg.name.c_str(),
                      static_cast<unsigned long long>(line_ceiling),
                      required, Cache::kEpochShift,
                      Cache::kTagBits - 1,
                      static_cast<unsigned long long>(min_line)));
    }
}

void
auditBtbConfigIn(u32 sets, u32 ways, Addr code_ceiling,
                 verify::Sink &sink)
{
    using verify::EntityKind;
    const std::string geometry = bpred::Btb::geometryError(sets, ways);
    if (!geometry.empty()) {
        sink.error(EntityKind::Btb, 0, geometry);
        return;
    }
    // Full-PC u32 tags: every branch PC must round-trip through the
    // cast, and the all-ones value is the invalid-way sentinel.
    if (code_ceiling > Addr{~u32{0}}) {
        sink.error(
            EntityKind::Btb, 0,
            strprintf("branch PCs can reach %#llx; u32 full-PC tags "
                      "cover only addresses below %#llx (all-ones is "
                      "the invalid-way sentinel)",
                      static_cast<unsigned long long>(code_ceiling - 1),
                      static_cast<unsigned long long>(Addr{~u32{0}})));
    }
}

class ConfigSoundness : public verify::Pass
{
  public:
    const char *name() const override { return kPassName; }

    bool applicable(const verify::Artifacts &a) const override
    {
        return a.machine != nullptr;
    }

    void run(const verify::Artifacts &a,
             verify::VerifyResult &out) const override
    {
        AddressSpace space = a.program
                                 ? AddressSpace::forProgram(*a.program)
                                 : AddressSpace::engineDefault();
        if (a.lineAddrCeiling)
            space.lineCeiling = a.lineAddrCeiling;

        verify::Sink sink(out, a.path, kPassName);
        const core::MachineConfig &m = *a.machine;
        const cache::CacheConfig *caches[3] = {&m.hierarchy.l1i,
                                               &m.hierarchy.l1d,
                                               &m.hierarchy.l2};
        for (u32 i = 0; i < 3; ++i)
            auditCacheConfigIn(*caches[i], i, space.lineCeiling, sink);
        auditBtbConfigIn(m.btbSets, m.btbWays, space.codeCeiling,
                         sink);
    }
};

} // anonymous namespace

void
auditCacheConfig(const cache::CacheConfig &cfg, u32 cache_index,
                 Addr line_ceiling, const std::string &path,
                 verify::VerifyResult &out)
{
    verify::Sink sink(out, path, kPassName);
    auditCacheConfigIn(cfg, cache_index, line_ceiling, sink);
}

void
auditBtbConfig(u32 sets, u32 ways, Addr code_ceiling,
               const std::string &path, verify::VerifyResult &out)
{
    verify::Sink sink(out, path, kPassName);
    auditBtbConfigIn(sets, ways, code_ceiling, sink);
}

std::unique_ptr<verify::Pass>
makeConfigSoundness()
{
    return std::make_unique<ConfigSoundness>();
}

} // namespace interf::analyze
