/**
 * @file
 * Composable static-analysis passes over interferometry artifacts.
 *
 * The whole method rests on artifacts being semantically equivalent by
 * construction: hundreds of reordered layouts must encode the same
 * program, and a regression conclusion is garbage if a trace, replay
 * plan or cached store batch is silently inconsistent. This module is
 * the LLVM-module-verifier analogue for that IR-like pipeline
 * (Program -> Trace -> ReplayPlan -> Layout tables -> Store batches):
 * each pass re-derives an artifact's invariants independently of the
 * code that built it and reports violations as Diagnostics instead of
 * crashing deep inside a replay hours later.
 *
 * Passes (each usable alone or through PassManager):
 *   - ProgramVerifier:    CFG well-formedness, file partition,
 *     memref/region sanity, structure-digest agreement.
 *   - TraceVerifier:      event sites valid, outcomes consistent with
 *     the CFG, memory stream in-bounds, header counts re-derived.
 *   - ReplayPlanVerifier: SoA arrays mutually sized, site table and
 *     cross-references in range, plan equivalent to its source trace
 *     entity by entity.
 *   - LayoutVerifier:     procedure placements non-overlapping and
 *     aligned, page map bijective and offset-preserving.
 *   - StoreVerifier:      every store file through its one parser
 *     (store/format.hh), the same one the fail-closed reads use, plus
 *     the directory sweeps: orphan batches, stale temp files, foreign
 *     files — without fatal()ing on the first bad entry.
 *   - ConfigSoundness and PlanBounds (src/analyze): the machine
 *     passes, proving the replay's compaction invariants for a
 *     MachineConfig (and a plan's LRU clock advance) before any replay.
 *
 * Where they run (see DESIGN.md §5f): trace::io load paths always;
 * ReplayPlan construction and Campaign inputs in Debug builds or with
 * INTERF_VERIFY=1; the machine passes at every Campaign/FitnessOracle
 * construction; everything on demand through tools/interf_verify.
 * Store files need no boundary of their own: every store read parses
 * them with the same parser the StoreVerifier runs. Verification is
 * never on the per-layout replay hot path.
 */

#ifndef INTERF_VERIFY_VERIFY_HH
#define INTERF_VERIFY_VERIFY_HH

#include <memory>
#include <string>
#include <vector>

#include "verify/diagnostic.hh"

#include "util/types.hh"

namespace interf::core
{
struct MachineConfig;
}
namespace interf::layout
{
class CodeLayout;
class PageMap;
}
namespace interf::trace
{
class Program;
class Trace;
class ReplayPlan;
}

namespace interf::verify
{

/**
 * The artifacts one verification run may examine. Passes declare what
 * they need via Pass::applicable(); unset pointers simply skip the
 * passes that would need them. All pointers are borrowed and must
 * outlive the run.
 */
struct Artifacts
{
    const trace::Program *program = nullptr;
    const trace::Trace *trace = nullptr;
    const trace::ReplayPlan *plan = nullptr;
    const layout::CodeLayout *codeLayout = nullptr;
    const layout::PageMap *pageMap = nullptr;

    /** Machine geometry for the src/analyze machine passes. */
    const core::MachineConfig *machine = nullptr;

    /**
     * Exclusive upper bound on any cache-indexed (post-page-map)
     * address, overriding the engine's layout constants (0 = derive).
     */
    Addr lineAddrCeiling = 0;

    /** Store entry to verify: root directory + campaign key. */
    std::string storeRoot;
    bool hasStoreKey = false;
    u64 storeKey = 0;
    /** Also recompute every batch's payload checksum (reads all data). */
    bool deepStore = true;

    /** Expected programStructureDigest (0 = don't check). */
    u64 expectedProgramDigest = 0;

    /** Artifact label used in diagnostics ("<program>", a path, ...). */
    std::string path = "<artifacts>";
};

/** One composable static-analysis pass. */
class Pass
{
  public:
    virtual ~Pass() = default;

    /** Stable pass name, embedded in every diagnostic it emits. */
    virtual const char *name() const = 0;

    /** True when @p a carries everything this pass needs. */
    virtual bool applicable(const Artifacts &a) const = 0;

    /** Analyze; report through @p out. Must never panic or fatal(). */
    virtual void run(const Artifacts &a, VerifyResult &out) const = 0;
};

/** @{ Pass factories. */
std::unique_ptr<Pass> makeProgramVerifier();
std::unique_ptr<Pass> makeTraceVerifier();
std::unique_ptr<Pass> makeReplayPlanVerifier();
std::unique_ptr<Pass> makeLayoutVerifier();
std::unique_ptr<Pass> makeStoreVerifier();
/** @} */

/** Runs every added pass whose requirements an Artifacts set meets. */
class PassManager
{
  public:
    PassManager &add(std::unique_ptr<Pass> pass);

    /**
     * The one pass list: the five artifact passes in dependency
     * order, then the two machine passes (analyze/analyze.hh).
     */
    static PassManager standard();

    /** Run applicable passes; merge their diagnostics. */
    VerifyResult run(const Artifacts &a) const;

    size_t passCount() const { return passes_.size(); }

  private:
    std::vector<std::unique_ptr<Pass>> passes_;
};

/** @{ Convenience single-artifact entry points. */
VerifyResult verifyProgram(const trace::Program &prog,
                           const std::string &path = "<program>");
VerifyResult verifyTrace(const trace::Program &prog,
                         const trace::Trace &trace,
                         const std::string &path = "<trace>");
VerifyResult verifyPlan(const trace::Program &prog,
                        const trace::Trace &trace,
                        const trace::ReplayPlan &plan,
                        const std::string &path = "<plan>");
VerifyResult verifyLayout(const trace::Program &prog,
                          const layout::CodeLayout &code,
                          const std::string &path = "<layout>");
VerifyResult verifyStoreEntry(const std::string &root, u64 key,
                              bool deep = true);
/** @} */

/**
 * @{ Lower-level seams the composite passes delegate to, exposed so
 * corruption tests (and tools) can feed hand-built tables.
 */

/** Check an explicit proc-id -> base-address placement table. */
void verifyPlacements(const trace::Program &prog,
                      const std::vector<Addr> &proc_base,
                      const std::string &path, VerifyResult &out);

/** Check an explicit vpn -> ppn table for bijectivity. */
void verifyPageTable(const std::vector<u32> &vpn_to_ppn,
                     const std::string &path, VerifyResult &out);

/** Check a PageMap over its first @p pages page numbers. */
void verifyPageMap(const layout::PageMap &pages, u32 n_pages,
                   const std::string &path, VerifyResult &out);

/**
 * Check an explicit site -> address table for branch-target
 * injectivity: no two sites that can be branch targets
 * (site_is_target[s] != 0) may share an address.
 */
void checkSiteAddressInjectivity(const std::vector<Addr> &site_addr,
                                 const std::vector<u8> &site_is_target,
                                 const std::string &path,
                                 VerifyResult &out);
/** @} */

/**
 * Verify every campaign entry and every optimizer fitness directory
 * (`opt-<base key>`) under a store root. Other subdirectories get a
 * warning; a missing/unreadable root is an error.
 *
 * @param keys Out-param (optional): the campaign keys found, in scan
 *             order.
 */
VerifyResult verifyStoreRoot(const std::string &root, bool deep = true,
                             std::vector<u64> *keys = nullptr);

/**
 * Lint a trace file without fatal()ing: format/framing problems and
 * program-checksum mismatches become diagnostics, and a structurally
 * readable trace is additionally run through TraceVerifier.
 */
VerifyResult verifyTraceFile(const std::string &path,
                             const trace::Program &prog);

/**
 * True when artifact verification should run at trust boundaries:
 * Debug builds (NDEBUG unset) always, any build with INTERF_VERIFY=1
 * in the environment (INTERF_VERIFY=0 forces it off, Debug included).
 * Cached after the first call.
 */
bool verifyOnTrust();

/**
 * panic() with the first few diagnostics when @p result has errors —
 * the trust-boundary reaction to a corrupt artifact produced by our
 * own pipeline (a library bug by definition).
 */
void requireClean(const VerifyResult &result, const char *what);

} // namespace interf::verify

#endif // INTERF_VERIFY_VERIFY_HH
