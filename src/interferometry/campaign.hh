/**
 * @file
 * Interferometry campaigns: the paper's experimental loop.
 *
 * A campaign takes one benchmark and measures it under many random but
 * reproducible layouts (Section 4.4): build the program once, generate
 * its layout-invariant trace once, then for each layout seed link a new
 * "executable" (code layout, optionally a randomized heap) and measure
 * it with the median-of-five counter protocol.
 *
 * Sample-count escalation follows Section 6.3: start at 100 layouts and
 * add batches of 100 until the CPI~MPKI correlation t-test rejects the
 * null hypothesis or the cap (300) is reached. "We do not discard any
 * data when building or testing our regression models."
 */

#ifndef INTERF_INTERFEROMETRY_CAMPAIGN_HH
#define INTERF_INTERFEROMETRY_CAMPAIGN_HH

#include <memory>
#include <string>
#include <vector>

#include "interferometry/evaluator.hh"
#include "telemetry/manifest.hh"

namespace interf::store
{
class CampaignStore;
}

namespace interf::interferometry
{

/** Parameters of one campaign. */
struct CampaignConfig
{
    u64 instructionBudget = 1'000'000;
    u32 initialLayouts = 100; ///< The paper's first batch.
    u32 escalationStep = 100; ///< Added when not yet significant.
    u32 maxLayouts = 300;     ///< The paper: "a few require 300".
    double alpha = 0.05;
    /**
     * Minimum coefficient of variation of MPKI across layouts for the
     * benchmark to count as having "enough range of MPKI to predict
     * CPI" (Section 4.6). Below this, a t-test verdict would rest on
     * meaninglessly small MPKI movement, so the benchmark is excluded
     * just as the paper excludes its three.
     */
    double minMpkiCv = 0.0025;
    bool randomizeHeap = false; ///< Figure-3 mode (DieHard allocator).
    /**
     * Worker threads for measureLayouts: 0 = one per hardware thread,
     * 1 = serial on the calling thread. Layouts are measured from
     * power-on state with per-worker machines and results land in
     * layout-indexed slots, so every value of jobs produces
     * byte-identical samples (see tests/test_campaign.cc).
     */
    u32 jobs = 0;
    /** Model physically-indexed L2 placement (per-layout page maps).
     *  Disable to ablate: a virtually-indexed L2 loses its placement
     *  sensitivity entirely. */
    bool physicalPages = true;
    u64 layoutSeedBase = 1000;  ///< Layout i uses seed base + i.
    /**
     * Root of the on-disk campaign artifact store (see store/store.hh);
     * empty disables persistence entirely. With a store, measured
     * batches are checkpointed as they complete and already-persisted
     * layouts are served from disk instead of re-measured, so a killed
     * campaign resumes at the first unmeasured batch and a repeated
     * campaign is a pure cache hit with byte-identical samples. Like
     * jobs, this knob cannot change a single sample's bytes.
     */
    std::string storeDir;
    core::MachineConfig machine = core::MachineConfig::xeonE5440();
    core::RunnerConfig runner;
};

/** Outcome of a campaign. */
struct CampaignResult
{
    std::vector<core::Measurement> samples;
    bool significant = false; ///< CPI~MPKI t-test at alpha + range gate.
    bool enoughMpkiRange = true; ///< False: "not enough range of MPKI".
    u32 layoutsUsed = 0;
    /** @{ Where this run's samples came from: freshly measured vs
     *  loaded from the artifact store. A repeated campaign with a warm
     *  store reports measuredLayouts == 0 (a pure cache hit). */
    u32 measuredLayouts = 0;
    u32 cachedLayouts = 0;
    /** @} */
};

/**
 * One benchmark's interferometry campaign. Owns a LayoutEvaluator (the
 * program, the trace and the measurement machinery) and maps layout
 * indices to seeds; run() executes the escalation loop,
 * measureLayouts() gives finer-grained control.
 */
class Campaign
{
  public:
    Campaign(const workloads::WorkloadProfile &profile,
             const CampaignConfig &config);
    ~Campaign();

    /**
     * The escalation loop of Section 6.3. Dies with fatal() before
     * measuring anything when initialLayouts < 3 (the t-test's
     * minimum), escalationStep == 0 or maxLayouts < initialLayouts.
     */
    CampaignResult run();

    /**
     * Measure layouts [first, first + count) without any testing.
     *
     * Fans the layouts out to config().jobs worker threads through the
     * LayoutEvaluator, so the result is identical to the serial path
     * for any jobs value.
     *
     * With config().storeDir set, layouts already persisted under this
     * campaign's key are loaded instead of re-measured, and freshly
     * measured layouts extending the persisted prefix are checkpointed
     * before returning. Both paths return byte-identical samples.
     */
    std::vector<core::Measurement> measureLayouts(u32 first, u32 count);

    /** @{ Lifetime tallies of where samples came from (store hits vs
     *  actual measurements); run() reports per-run deltas of these. */
    u32 measuredLayouts() const { return measuredLayouts_; }
    u32 cachedLayouts() const { return cachedLayouts_; }
    /** @} */

    /** The static program (built once per campaign). */
    const trace::Program &program() const { return evaluator_.program(); }

    /** The layout-invariant dynamic trace (generated once). */
    const trace::Trace &trace() const { return evaluator_.trace(); }

    /**
     * The compiled replay plan (trace flattened once per campaign);
     * immutable, shared read-only by all pool workers.
     */
    const trace::ReplayPlan &plan() const { return evaluator_.plan(); }

    /** The code layout for layout index i. */
    layout::CodeLayout codeLayoutFor(u32 index) const;

    /** The heap layout for layout index i (per config.randomizeHeap). */
    layout::HeapLayout heapLayoutFor(u32 index) const;

    /**
     * The virtual-to-physical page mapping for layout index i. Each
     * layout is one execution setup, and real executions get different
     * physical pages, which is what moves lines between L2 sets.
     */
    layout::PageMap pageMapFor(u32 index) const;

    const CampaignConfig &config() const { return cfg_; }

    /**
     * Snapshot of everything this campaign did so far as a run
     * manifest (see telemetry/manifest.hh). With telemetry enabled the
     * destructor writes this next to the store and/or into
     * telemetry::outputDir(); callers wanting the document earlier (or
     * without telemetry) can build it themselves.
     */
    telemetry::RunManifest buildManifest() const;

  private:
    /**
     * The artifact store for this campaign's key, opened (and its
     * samples loaded) on first use; nullptr when storeDir is empty.
     */
    store::CampaignStore *store();

    workloads::WorkloadProfile profile_;
    CampaignConfig cfg_;
    /** @{ Taken before the evaluator's set-up, so the manifest's wall
     *  time and phases cover it. */
    u64 startNs_ = 0;
    std::vector<telemetry::PhaseStat> phaseBase_;
    /** @} */
    LayoutEvaluator evaluator_;
    u64 campaignKey_ = 0;
    std::unique_ptr<store::CampaignStore> store_; ///< See store().
    bool storeOpened_ = false;
    std::vector<core::Measurement> cached_; ///< Store's samples [0, n).
    u32 measuredLayouts_ = 0;
    u32 cachedLayouts_ = 0;

    /** @{ Telemetry bookkeeping for buildManifest(); maintained
     *  unconditionally (cheap), observed only. */
    u32 batchIndex_ = 0; ///< measureLayouts calls so far (trace ctx).
    u64 measureNs_ = 0; ///< Wall time inside fresh measurements.
    u64 storeBatches_ = 0;
    double storeCommitMs_ = 0.0;
    bool regressionRan_ = false;
    bool lastSignificant_ = false;
    bool lastEnoughRange_ = false;
    u32 lastLayoutsUsed_ = 0;
    double lastSlope_ = 0.0;
    double lastIntercept_ = 0.0;
    double lastR2_ = 0.0;
    /** @} */
};

} // namespace interf::interferometry

#endif // INTERF_INTERFEROMETRY_CAMPAIGN_HH
