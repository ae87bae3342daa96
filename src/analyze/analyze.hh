/**
 * @file
 * Static soundness analysis of machine configurations.
 *
 * PR 8's hot-state compaction made replay correctness rest on
 * *narrowing invariants*: 48-bit split tags with a 6-bit epoch salt at
 * bits 42..47, a u32 LRU stamp clock restarted per reset, and u32
 * site-index BTB tags that require per-layout address injectivity.
 * Those invariants hold on the default Xeon E5440 config — tests pin
 * them there — but the fleet roadmap item runs campaigns across many
 * cache/BTB geometries, exactly where a narrowing trick that is sound
 * on one config silently goes wrong on another.
 *
 * This module *proves* the invariants per MachineConfig before any
 * replay runs, without constructing a Cache or materializing a single
 * layout table, and reports through the verify diagnostics-as-data
 * framework. Three passes (DESIGN.md §5k):
 *
 *   - ConfigSoundness:   interval/width analysis. Derives the required
 *     tag bits from the address space the layout engines + page maps
 *     can reach and proves the split tagsLo(u32)/tagsHi(u16) pair plus
 *     epoch-salt bits cover it with no overlap, for every cache and
 *     the BTB; re-derives the geometry preconditions as typed
 *     diagnostics.
 *   - PlanBounds:        wrap-bound analysis. Bounds LRU clock advance
 *     per replay from a ReplayPlan's event counts and proves the u32
 *     stamp clock (restarted every reset) can never wrap — hence never
 *     invert victim choice — within one replay; checks the plan's
 *     index widths against their u32 sentinels.
 *   - LayoutInjectivity: proves, for explicit LayoutSpec permutations,
 *     that every basic-block address is distinct (so u32 site-index
 *     BTB target tokens compare equal iff the targets are equal) by
 *     replaying the linker's address arithmetic abstractly — O(procs)
 *     per spec, generalizing the runtime fillCode check to arbitrary
 *     candidate layouts with no table materialization.
 *
 * Trust boundaries: Campaign and opt::FitnessOracle refuse unsound
 * configs fail-closed (always, not only under verifyOnTrust() — the
 * analysis is a few hundred comparisons per campaign). The
 * tools/interf_analyze CLI exposes the same passes for fleet audits.
 */

#ifndef INTERF_ANALYZE_ANALYZE_HH
#define INTERF_ANALYZE_ANALYZE_HH

#include <memory>
#include <string>
#include <vector>

#include "cache/cache.hh"
#include "verify/verify.hh"

#include "util/types.hh"

namespace interf::core
{
struct MachineConfig;
}
namespace interf::trace
{
class Program;
class ReplayPlan;
}

namespace interf::analyze
{

/**
 * Exclusive upper bounds of the address space the soundness analysis
 * must cover. Two ceilings because two different structures index
 * them: caches see post-page-map line addresses (data up to the stack
 * anchor, code possibly lifted by the Feistel permutation), the BTB
 * sees raw branch PCs.
 */
struct AddressSpace
{
    Addr lineCeiling = 0; ///< Any cache-indexed address is below this.
    Addr codeCeiling = 0; ///< Any branch PC is below this.

    /**
     * The engine contract with no program bound: data addresses stay
     * below the stack anchor (layout::kStackBase — globals, heap and
     * stack regions are all placed under it, and the page-map Feistel
     * permutation can lift an address to at most 2^(pageBits +
     * permutedVpnBits), which is lower still); code addresses stay
     * within the non-PIE text model's low 2 GiB. forProgram() replaces
     * the code ceiling with a proven per-program bound.
     */
    static AddressSpace engineDefault();

    /**
     * engineDefault() tightened by @p prog: the code ceiling becomes
     * the worst-case text extent over *all* layout permutations
     * (textBase + sum of every procedure's size plus maximal alignment
     * padding — sound for any link order the Linker can produce).
     */
    static AddressSpace forProgram(const trace::Program &prog);
};

/** @{ Pure derived facts, shared by the passes, the CLI report and
 *  the seeded-unsoundness tests. */

/** Tag bits needed to address lines below @p ceiling: the bit width
 *  of the largest line number, (ceiling - 1) >> log2(line_bytes).
 *  @p line_bytes must be a nonzero power of two. */
u32 requiredTagBits(u32 line_bytes, Addr ceiling);

/**
 * Upper bounds on LRU clock advance within ONE replay of @p plan —
 * the interval the per-reset stamp-clock restart re-establishes.
 * fetchLines bounds the demand-fetched L1I lines per replay; each can
 * advance the L1I clock at most twice (demand touch + prefetch
 * install) and the L2 clock at most twice (demand miss + prefetch
 * fill probe). Every data access advances L1D at most once and L2 at
 * most once.
 */
struct LruAdvanceBounds
{
    u64 fetchLines = 0;
    u64 l1i = 0;
    u64 l1d = 0;
    u64 l2 = 0;

    u64 forCache(u32 cache_index) const
    {
        return cache_index == 0 ? l1i : cache_index == 1 ? l1d : l2;
    }
};

LruAdvanceBounds lruAdvanceBounds(const core::MachineConfig &machine,
                                  const trace::ReplayPlan &plan);
/** @} */

/**
 * @{ Lower-level seams the passes delegate to, exposed (mirroring
 * verify::verifyPlacements and friends) so the seeded-unsoundness
 * matrix in tests/test_analyze.cc can feed hand-built inputs. Cache
 * indices follow EntityKind::Cache: 0 = L1I, 1 = L1D,
 * 2 = L2.
 */

/** Geometry preconditions + tag-width/epoch-salt coverage of one
 *  cache against @p line_ceiling. */
void auditCacheConfig(const cache::CacheConfig &cfg, u32 cache_index,
                      Addr line_ceiling, const std::string &path,
                      verify::VerifyResult &out);

/** BTB geometry + u32 full-PC tag coverage against @p code_ceiling. */
void auditBtbConfig(u32 sets, u32 ways, Addr code_ceiling,
                    const std::string &path, verify::VerifyResult &out);

/** Prove a per-replay LRU clock advance bound safe: an LRU cache's
 *  u32 stamp clock must advance fewer than 2^32 times per replay. */
void checkLruAdvanceBound(const cache::CacheConfig &cfg,
                          u64 advance_bound, u32 cache_index,
                          const std::string &path,
                          verify::VerifyResult &out);

/**
 * Check an explicit site -> address table for branch-target
 * injectivity: no two sites that can be branch targets
 * (site_is_target[s] != 0) may share an address. The static
 * counterpart of the LayoutTables::fillCode runtime check.
 */
void checkSiteAddressInjectivity(const std::vector<Addr> &site_addr,
                                 const std::vector<u8> &site_is_target,
                                 const std::string &path,
                                 verify::VerifyResult &out);
/** @} */

/** @{ Pass factories (verify::Pass; see verify/verify.hh). */
std::unique_ptr<verify::Pass> makeConfigSoundness();
std::unique_ptr<verify::Pass> makePlanBounds();
std::unique_ptr<verify::Pass> makeLayoutInjectivity();
/** @} */

/** All three soundness passes in dependency order. */
verify::PassManager soundnessPasses();

/**
 * Convenience entry point: analyze @p machine (plus whatever optional
 * artifacts are supplied) and return the merged result.
 */
verify::VerifyResult
analyzeMachine(const core::MachineConfig &machine,
               const trace::ReplayPlan *plan = nullptr,
               const trace::Program *prog = nullptr,
               const std::vector<layout::LayoutSpec> *specs = nullptr,
               const std::string &path = "<machine>");

/**
 * Fail-closed trust boundary: panic with the diagnostics when
 * @p machine (optionally checked against @p plan) breaks a compaction
 * invariant. Campaign and FitnessOracle call this before any replay
 * state is built, so an unsound fleet config dies with a typed
 * explanation instead of asserting (Debug) or silently corrupting
 * victim choice (Release) deep inside the kernel.
 */
void requireSoundMachine(const core::MachineConfig &machine,
                         const trace::ReplayPlan *plan,
                         const char *what);

/**
 * Apply a fleet-override spec ("l1i.line=16,l2.assoc=24,btb.sets=512")
 * to @p machine. Keys: {l1i,l1d,l2}.{size,assoc,line,repl} (repl takes
 * lru|random; sizes accept k/m suffixes) and btb.{sets,ways}. Returns
 * false and sets @p error on a malformed spec.
 */
bool applyConfigOverride(core::MachineConfig &machine,
                         const std::string &spec, std::string *error);

} // namespace interf::analyze

#endif // INTERF_ANALYZE_ANALYZE_HH
