#include "interferometry/campaign.hh"

#include <algorithm>

#include "stats/descriptive.hh"
#include "stats/hypothesis.hh"
#include "stats/regression.hh"
#include "store/store.hh"
#include "telemetry/metrics.hh"
#include "telemetry/span.hh"
#include "telemetry/telemetry.hh"
#include "telemetry/trace_ctx.hh"
#include "util/digest.hh"
#include "util/logging.hh"

namespace interf::interferometry
{

Campaign::Campaign(const workloads::WorkloadProfile &profile,
                   const CampaignConfig &config)
    : profile_(profile),
      cfg_(config),
      startNs_(telemetry::nowNs()),
      phaseBase_(telemetry::phaseStats()),
      evaluator_(profile, config.instructionBudget, config.machine,
                 config.runner, config.jobs, !config.randomizeHeap,
                 !config.physicalPages, "Campaign", "campaign.verify"),
      campaignKey_(store::campaignKey(evaluator_.program(),
                                      profile.behaviourSeed, config))
{
}

Campaign::~Campaign()
{
    if (!telemetry::enabled())
        return;
    telemetry::RunManifest manifest = buildManifest();
    if (store_)
        manifest.writeAtomic(store_->dir() + "/run-manifest.json");
    std::string out_dir = telemetry::outputDir();
    if (!out_dir.empty())
        manifest.writeAtomic(
            strprintf("%s/manifest-%s-%s.json", out_dir.c_str(),
                      profile_.name.c_str(),
                      digestHex(campaignKey_).c_str()));
}

store::CampaignStore *
Campaign::store()
{
    if (!storeOpened_) {
        storeOpened_ = true;
        if (!cfg_.storeDir.empty()) {
            store_ = std::make_unique<store::CampaignStore>(
                cfg_.storeDir, campaignKey_);
            cached_ = store_->loadSamples();
        }
    }
    return store_.get();
}

layout::CodeLayout
Campaign::codeLayoutFor(u32 index) const
{
    layout::LayoutKey key;
    key.seed = cfg_.layoutSeedBase + index;
    return evaluator_.linker().link(program(), key);
}

layout::HeapLayout
Campaign::heapLayoutFor(u32 index) const
{
    layout::HeapKey key;
    key.randomize = cfg_.randomizeHeap;
    key.seed = cfg_.layoutSeedBase + index;
    return layout::HeapLayout(program(), key);
}

layout::PageMap
Campaign::pageMapFor(u32 index) const
{
    if (!cfg_.physicalPages)
        return layout::PageMap(); // identity: virtually-indexed L2
    return layout::PageMap(cfg_.layoutSeedBase + index);
}

std::vector<core::Measurement>
Campaign::measureLayouts(u32 first, u32 count)
{
    // Every span recorded below (this thread and the pool workers, via
    // ThreadPool::submit's capture) carries this campaign/batch id.
    telemetry::ScopedTraceContext trace_ctx(campaignKey_, batchIndex_);
    ++batchIndex_;
    std::vector<core::Measurement> out(count);
    auto *st = store();

    // Serve the prefix that overlaps the store's persisted samples.
    u32 have = 0;
    if (st && first < cached_.size()) {
        have = std::min(count, static_cast<u32>(cached_.size()) - first);
        std::copy_n(cached_.begin() + first, have, out.begin());
    }
    cachedLayouts_ += have;
    measuredLayouts_ += count - have;
    INTERF_TELEM_COUNT("store.sample_hits", have);
    INTERF_TELEM_COUNT("store.sample_misses", count - have);
    telemetry::ProgressTracker tracker("campaign.measure", count);
    if (have > 0)
        tracker.add(have, have, 0);
    if (have == count) {
        tracker.finish();
        return out;
    }

    const u32 start = first + have;
    const LayoutRecipe recipe{
        [&](u32 k) { return codeLayoutFor(start + k); },
        [&](u32 k) { return heapLayoutFor(start + k); },
        [&](u32 k) { return pageMapFor(start + k); },
        [&](u32 k) { return cfg_.layoutSeedBase + start + k; }};
    const u64 measure_start = telemetry::nowNs();
    std::vector<core::Measurement> fresh =
        evaluator_.measure(count - have, recipe, &tracker);
    measureNs_ += telemetry::nowNs() - measure_start;
    tracker.finish();
    std::copy(fresh.begin(), fresh.end(), out.begin() + have);

    // Checkpoint the fresh samples if they extend the persisted prefix
    // contiguously; a gap (a caller jumping ahead of the store) is
    // measured but not persisted, since resume relies on contiguity.
    if (st && start == st->storedCount()) {
        const u64 commit_start = telemetry::nowNs();
        st->appendBatch(start, fresh);
        ++storeBatches_;
        storeCommitMs_ +=
            (telemetry::nowNs() - commit_start) / 1e6;
        cached_.insert(cached_.end(), fresh.begin(), fresh.end());
    }
    return out;
}

CampaignResult
Campaign::run()
{
    // Refuse configs the escalation loop cannot honour before
    // measuring anything: the t-test needs three samples, and a zero
    // step would repeat empty batches forever.
    if (cfg_.initialLayouts < 3)
        fatal("CampaignConfig.initialLayouts must be >= 3 (the "
              "correlation t-test needs 3 samples), got %u",
              cfg_.initialLayouts);
    if (cfg_.escalationStep == 0)
        fatal("CampaignConfig.escalationStep must be >= 1, got 0");
    if (cfg_.maxLayouts < cfg_.initialLayouts)
        fatal("CampaignConfig.maxLayouts (%u) must be >= "
              "initialLayouts (%u)",
              cfg_.maxLayouts, cfg_.initialLayouts);
    INTERF_SPAN_PHASE("campaign.run");
    CampaignResult res;
    res.samples.reserve(cfg_.maxLayouts);
    const u32 measured_before = measuredLayouts_;
    const u32 cached_before = cachedLayouts_;
    // Escalation appends: the regression inputs grow with each batch
    // instead of being rebuilt from res.samples every round.
    std::vector<double> mpki, cpi;
    mpki.reserve(cfg_.maxLayouts);
    cpi.reserve(cfg_.maxLayouts);
    u32 next = 0;
    u32 batch = cfg_.initialLayouts;
    while (next < cfg_.maxLayouts) {
        u32 count = std::min(batch, cfg_.maxLayouts - next);
        auto batch_samples = measureLayouts(next, count);
        for (const auto &m : batch_samples) {
            mpki.push_back(m.mpki);
            cpi.push_back(m.cpi);
        }
        res.samples.insert(res.samples.end(), batch_samples.begin(),
                           batch_samples.end());
        next += count;

        INTERF_SPAN("campaign.regression");
        auto test = stats::correlationTTest(mpki, cpi);
        double mean_mpki = stats::mean(mpki);
        double cv = mean_mpki > 0.0
                        ? stats::sampleStdDev(mpki) / mean_mpki
                        : 0.0;
        res.enoughMpkiRange = cv >= cfg_.minMpkiCv;
        res.significant =
            test.significantAt(cfg_.alpha) && res.enoughMpkiRange;
        if (res.significant)
            break;
        batch = cfg_.escalationStep;
    }
    res.layoutsUsed = next;
    res.measuredLayouts = measuredLayouts_ - measured_before;
    res.cachedLayouts = cachedLayouts_ - cached_before;

    stats::LinearFit fit(mpki, cpi);
    regressionRan_ = true;
    lastSignificant_ = res.significant;
    lastEnoughRange_ = res.enoughMpkiRange;
    lastLayoutsUsed_ = res.layoutsUsed;
    lastSlope_ = fit.slope();
    lastIntercept_ = fit.intercept();
    lastR2_ = fit.r2();
    return res;
}

telemetry::RunManifest
Campaign::buildManifest() const
{
    telemetry::RunManifest m;
    m.benchmark = profile_.name;
    m.configDigest = digestHex(campaignKey_);
    if (store_) {
        m.storeKey = m.configDigest;
        m.storeDir = store_->dir();
        m.storeBatchesCommitted = storeBatches_;
        m.storeCommitMs = storeCommitMs_;
    }
    m.instructionBudget = cfg_.instructionBudget;
    m.jobs = exec::ThreadPool::resolveJobs(cfg_.jobs);
    m.layoutsUsed = regressionRan_ ? lastLayoutsUsed_
                                   : measuredLayouts_ + cachedLayouts_;
    m.layoutsMeasured = measuredLayouts_;
    m.layoutsCached = cachedLayouts_;
    m.wallMs = (telemetry::nowNs() - startNs_) / 1e6;
    m.layoutsPerSec = measureNs_ > 0
                          ? measuredLayouts_ / (measureNs_ / 1e9)
                          : 0.0;
    m.phases = telemetry::phaseStatsSince(phaseBase_);
    m.verifyErrors = evaluator_.verifyErrors();
    m.verifyWarnings = evaluator_.verifyWarnings();
    telemetry::LogCaptureSnapshot logs = telemetry::logCapture();
    m.logWarns = logs.warns;
    m.logInforms = logs.informs;
    m.recentWarnings = logs.recentWarnings;
    m.spansDropped = telemetry::droppedSpans();
    m.spansDroppedByName = telemetry::droppedSpansByName();
    m.regressionRan = regressionRan_;
    m.regressionSignificant = lastSignificant_;
    m.enoughMpkiRange = lastEnoughRange_;
    m.slope = lastSlope_;
    m.intercept = lastIntercept_;
    m.r2 = lastR2_;
    m.metrics = telemetry::Registry::global().snapshot().toJson();
    return m;
}

} // namespace interf::interferometry
