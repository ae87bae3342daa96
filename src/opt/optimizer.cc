#include "opt/optimizer.hh"

#include <algorithm>
#include <cmath>

#include "telemetry/metrics.hh"
#include "telemetry/span.hh"
#include "telemetry/trace_ctx.hh"
#include "util/digest.hh"
#include "util/logging.hh"

namespace interf::opt
{

const char *
strategyName(Strategy strategy)
{
    switch (strategy) {
    case Strategy::Greedy:
        return "greedy";
    case Strategy::Anneal:
        return "anneal";
    }
    return "unknown";
}

bool
parseStrategy(const std::string &text, Strategy &out)
{
    if (text == "greedy") {
        out = Strategy::Greedy;
        return true;
    }
    if (text == "anneal" || text == "sa") {
        out = Strategy::Anneal;
        return true;
    }
    return false;
}

Json
SearchTrajectory::toJson() const
{
    Json doc = Json::object();
    doc.set("schema", kTrajectorySchema);
    doc.set("schema_version", kTrajectorySchemaVersion);
    doc.set("benchmark", benchmark);
    doc.set("strategy", strategy);
    doc.set("seed", seed);
    doc.set("budget", budget);
    doc.set("proposals_per_step", proposalsPerStep);
    doc.set("base_key", digestHex(baseKey));
    doc.set("initial_cycles", initialCycles);
    doc.set("initial_digest", digestHex(initialDigest));
    doc.set("final_cycles", finalCycles);
    doc.set("final_digest", digestHex(finalDigest));
    Json steps_json = Json::array();
    for (const auto &s : steps) {
        Json step = Json::object();
        step.set("step", s.step);
        step.set("kind", moveKindName(s.move.kind));
        step.set("a", s.move.a);
        step.set("b", s.move.b);
        step.set("c", s.move.c);
        step.set("digest", digestHex(s.candDigest));
        step.set("cycles", s.cycles);
        step.set("accepted", s.accepted);
        step.set("temperature", s.temperature);
        step.set("best_cycles", s.bestCycles);
        steps_json.push(std::move(step));
    }
    doc.set("steps", std::move(steps_json));
    return doc;
}

std::string
SearchTrajectory::dump() const
{
    return toJson().dump(2) + "\n";
}

FitnessOracle::FitnessOracle(const workloads::WorkloadProfile &profile,
                             const OptConfig &cfg)
    : profile_(profile),
      cfg_(cfg),
      // A search has one page map, hence same_pages.
      evaluator_(profile, cfg.instructionBudget, cfg.machine, cfg.runner,
                 cfg.jobs, !cfg.randomizeHeap, true, "Optimizer",
                 "opt.verify"),
      baseKey_(store::fitnessBaseKey(
          evaluator_.program(), profile.behaviourSeed,
          cfg.instructionBudget, cfg.physicalPages, cfg.pageSeed,
          cfg.randomizeHeap, cfg.machine, cfg.runner))
{
    if (!cfg_.storeDir.empty())
        store_ = std::make_unique<store::FitnessStore>(cfg_.storeDir,
                                                       baseKey_);
}

layout::PageMap
FitnessOracle::pageMap() const
{
    if (!cfg_.physicalPages)
        return layout::PageMap(); // Identity: virtually-indexed L2.
    return layout::PageMap(cfg_.pageSeed);
}

CandidateLayout
FitnessOracle::seededCandidate(u64 layout_seed) const
{
    layout::LayoutKey key;
    key.seed = layout_seed;
    CandidateLayout cand;
    cand.code = linker().specFor(program(), key);
    cand.heapSeed = layout_seed;
    return cand;
}

std::vector<core::Measurement>
FitnessOracle::evaluate(const std::vector<CandidateLayout> &cands,
                        telemetry::ProgressTracker *progress)
{
    // Spans below (including the pool workers', via submit's context
    // capture) carry this search's base key and evaluate-call ordinal.
    telemetry::ScopedTraceContext trace_ctx(baseKey_, evalBatch_);
    ++evalBatch_;
    const u32 count = static_cast<u32>(cands.size());
    std::vector<core::Measurement> out(count);
    std::vector<u64> digests(count);
    std::vector<u32> fresh;              ///< First-occurrence misses.
    std::vector<std::pair<u32, u32>> dups; ///< (index, source index).
    std::unordered_map<u64, u32> first_at;
    for (u32 i = 0; i < count; ++i) {
        const u64 d = digests[i] = digestOf(cands[i]);
        auto memo_it = memo_.find(d);
        if (memo_it != memo_.end()) {
            out[i] = memo_it->second;
            ++cachedEvals_;
            continue;
        }
        if (store_) {
            if (auto m = store_->load(d)) {
                out[i] = *m;
                memo_.emplace(d, *m);
                ++cachedEvals_;
                continue;
            }
        }
        auto f = first_at.find(d);
        if (f != first_at.end()) {
            // The same candidate proposed twice in one batch: measure
            // once, copy after the fresh results land.
            dups.emplace_back(i, f->second);
            ++cachedEvals_;
            continue;
        }
        first_at.emplace(d, i);
        fresh.push_back(i);
    }
    INTERF_TELEM_COUNT("opt.evals_cached", count - fresh.size());
    INTERF_TELEM_COUNT("opt.evals_fresh", fresh.size());
    if (progress && count > fresh.size())
        progress->add(count - fresh.size(), count - fresh.size(), 0);

    const interferometry::LayoutRecipe recipe{
        [&](u32 k) { return linker().link(program(), cands[fresh[k]].code); },
        [&](u32 k) {
            layout::HeapKey key;
            key.randomize = cfg_.randomizeHeap;
            key.seed = cands[fresh[k]].heapSeed;
            return layout::HeapLayout(program(), key);
        },
        [&](u32) { return pageMap(); },
        [&](u32 k) { return digests[fresh[k]]; }};
    const auto ms = evaluator_.measure(static_cast<u32>(fresh.size()),
                                       recipe, progress);
    freshEvals_ += fresh.size();
    for (size_t k = 0; k < fresh.size(); ++k) {
        const u32 i = fresh[k];
        out[i] = ms[k];
        memo_.emplace(digests[i], out[i]);
        if (store_)
            store_->save(digests[i], out[i]);
    }
    for (auto [i, src] : dups)
        out[i] = out[src];
    return out;
}

namespace
{

/**
 * Shared search loop: seed (authored + blame layouts), then propose
 * P candidates per step from the current point until the evaluation
 * budget runs out. Subclasses decide acceptance per step.
 */
class SearchBase : public Optimizer
{
  public:
    SearchBase(FitnessOracle &oracle, const OptConfig &cfg)
        : oracle_(oracle), cfg_(cfg), acceptRng_(0)
    {
    }

    OptResult run() final;

  protected:
    /**
     * Decide acceptance for one step's proposals (ms[i] measures
     * cands[i], a neighbor of the pre-step current_). Must update
     * current_/currentM_ on acceptance and push one TrajectoryStep per
     * proposal via record().
     */
    virtual void decide(u32 step, const std::vector<CandidateLayout> &cands,
                        const std::vector<Move> &moves,
                        const std::vector<core::Measurement> &ms) = 0;

    /** Record one proposal, maintaining the champion. */
    void record(u32 step, const CandidateLayout &cand, const Move &move,
                const core::Measurement &m, bool accepted,
                double temperature);

    FitnessOracle &oracle_;
    OptConfig cfg_;
    Rng acceptRng_; ///< Reseeded from the search seed in run().
    CandidateLayout current_;
    core::Measurement currentM_;
    OptResult result_;
};

void
SearchBase::record(u32 step, const CandidateLayout &cand, const Move &move,
                   const core::Measurement &m, bool accepted,
                   double temperature)
{
    if (m.cycles < result_.bestSample.cycles) {
        result_.best = cand;
        result_.bestSample = m;
    }
    TrajectoryStep ts;
    ts.step = step;
    ts.move = move;
    ts.candDigest = oracle_.digestOf(cand);
    ts.cycles = m.cycles;
    ts.accepted = accepted;
    ts.temperature = temperature;
    ts.bestCycles = result_.bestSample.cycles;
    result_.trajectory.steps.push_back(ts);
}

OptResult
SearchBase::run()
{
    INTERF_SPAN_PHASE("opt.search");
    INTERF_ASSERT(cfg_.budget >= 1);
    const u64 fresh0 = oracle_.freshEvals();
    const u64 cached0 = oracle_.cachedEvals();
    result_ = OptResult();
    SearchTrajectory &traj = result_.trajectory;
    traj.benchmark = oracle_.profile().name;
    traj.strategy = strategyName(cfg_.strategy);
    traj.seed = cfg_.seed;
    traj.budget = cfg_.budget;
    traj.proposalsPerStep = std::max<u32>(1, cfg_.proposalsPerStep);
    traj.baseKey = oracle_.baseKey();

    // Independent substreams: seeding, proposals and acceptance never
    // perturb each other's sequences.
    Rng base(cfg_.seed);
    Rng seed_rng = base.fork(1);
    Rng move_rng = base.fork(2);
    acceptRng_ = base.fork(3);

    Neighborhood nb(oracle_.program(), cfg_.randomizeHeap);

    // Live progress over the evaluation budget, ticked by the oracle
    // per cached candidate and per finished replay.
    telemetry::ProgressTracker progress(
        strprintf("opt.%s", strategyName(cfg_.strategy)), cfg_.budget);

    u32 evals_left = cfg_.budget;

    // Seed pool: the authored layout plus cfg.blameLayouts random
    // ones. All count against the budget; the best seeds the walk and,
    // once the pool holds enough samples for the campaign model, the
    // model's blame weights the moves (uniform weights otherwise).
    std::vector<CandidateLayout> pool;
    {
        CandidateLayout authored;
        authored.code = layout::LayoutSpec::authored(oracle_.program());
        authored.heapSeed = seed_rng.next();
        pool.push_back(std::move(authored));
    }
    for (u32 b = 0; b < cfg_.blameLayouts && pool.size() < evals_left;
         ++b)
        pool.push_back(oracle_.seededCandidate(seed_rng.next()));
    auto seed_ms = oracle_.evaluate(pool, &progress);
    evals_left -= static_cast<u32>(pool.size());

    u32 best_seed = 0;
    for (u32 i = 1; i < seed_ms.size(); ++i)
        if (seed_ms[i].cycles < seed_ms[best_seed].cycles)
            best_seed = i;
    current_ = pool[best_seed];
    currentM_ = seed_ms[best_seed];
    result_.best = current_;
    result_.bestSample = currentM_;
    if (seed_ms.size() >= interferometry::PerformanceModel::kMinSamples) {
        interferometry::PerformanceModel model(traj.benchmark, seed_ms);
        nb.setBlame(model.blame());
    }
    traj.initialCycles = currentM_.cycles;
    traj.initialDigest = oracle_.digestOf(current_);

    u32 step = 0;
    while (evals_left > 0) {
        INTERF_SPAN_PHASE("opt.step");
        const u32 p = std::min(traj.proposalsPerStep, evals_left);
        std::vector<CandidateLayout> cands(p, current_);
        std::vector<Move> moves(p);
        for (u32 i = 0; i < p; ++i)
            moves[i] = nb.propose(cands[i], move_rng);
        auto ms = oracle_.evaluate(cands, &progress);
        evals_left -= p;
        decide(step, cands, moves, ms);
        ++step;
    }

    progress.finish();
    traj.finalCycles = result_.bestSample.cycles;
    traj.finalDigest = oracle_.digestOf(result_.best);
    result_.freshEvals = oracle_.freshEvals() - fresh0;
    result_.cachedEvals = oracle_.cachedEvals() - cached0;
    INTERF_TELEM_COUNT("opt.steps", step);
    return result_;
}

/** Hill-climb: accept the best proposal of the step iff it improves. */
class GreedyOptimizer final : public SearchBase
{
  public:
    using SearchBase::SearchBase;

  protected:
    void
    decide(u32 step, const std::vector<CandidateLayout> &cands,
           const std::vector<Move> &moves,
           const std::vector<core::Measurement> &ms) override
    {
        const u32 p = static_cast<u32>(cands.size());
        u32 win = 0;
        for (u32 i = 1; i < p; ++i)
            if (ms[i].cycles < ms[win].cycles)
                win = i;
        const bool improves = ms[win].cycles < currentM_.cycles;
        for (u32 i = 0; i < p; ++i)
            record(step, cands[i], moves[i], ms[i],
                   improves && i == win, 0.0);
        if (improves) {
            current_ = cands[win];
            currentM_ = ms[win];
        }
    }
};

/**
 * Simulated annealing: Metropolis acceptance per proposal, geometric
 * cooling per step. The temperature schedule and every acceptance draw
 * are pure functions of the search seed and the deterministic
 * measurements, so the walk is as replayable as the greedy one.
 */
class AnnealingOptimizer final : public SearchBase
{
  public:
    AnnealingOptimizer(FitnessOracle &oracle, const OptConfig &cfg)
        : SearchBase(oracle, cfg)
    {
    }

  protected:
    void
    decide(u32 step, const std::vector<CandidateLayout> &cands,
           const std::vector<Move> &moves,
           const std::vector<core::Measurement> &ms) override
    {
        if (step == 0)
            temp_ = cfg_.initialTemp *
                    static_cast<double>(currentM_.cycles);
        const u32 p = static_cast<u32>(cands.size());
        for (u32 i = 0; i < p; ++i) {
            const double delta = static_cast<double>(ms[i].cycles) -
                                 static_cast<double>(currentM_.cycles);
            bool accept = delta <= 0.0;
            if (!accept && temp_ > 0.0)
                accept =
                    acceptRng_.nextDouble() < std::exp(-delta / temp_);
            record(step, cands[i], moves[i], ms[i], accept, temp_);
            if (accept) {
                current_ = cands[i];
                currentM_ = ms[i];
            }
        }
        temp_ *= cfg_.coolRate;
    }

  private:
    double temp_ = 0.0;
};

} // anonymous namespace

std::unique_ptr<Optimizer>
makeOptimizer(FitnessOracle &oracle, const OptConfig &cfg)
{
    switch (cfg.strategy) {
    case Strategy::Greedy:
        return std::make_unique<GreedyOptimizer>(oracle, cfg);
    case Strategy::Anneal:
        return std::make_unique<AnnealingOptimizer>(oracle, cfg);
    }
    panic("unknown optimizer strategy %d",
          static_cast<int>(cfg.strategy));
}

OptResult
bestOfRandom(FitnessOracle &oracle, const OptConfig &cfg)
{
    INTERF_SPAN_PHASE("opt.baseline");
    INTERF_ASSERT(cfg.budget >= 1);
    const u64 fresh0 = oracle.freshEvals();
    const u64 cached0 = oracle.cachedEvals();
    // Stream 4: disjoint from the search's seeding(1)/move(2)/accept(3)
    // streams, so optimizer and baseline never share layout draws.
    Rng rng = Rng(cfg.seed).fork(4);
    std::vector<CandidateLayout> cands;
    cands.reserve(cfg.budget);
    for (u32 i = 0; i < cfg.budget; ++i)
        cands.push_back(oracle.seededCandidate(rng.next()));
    telemetry::ProgressTracker progress("opt.random", cfg.budget);
    auto ms = oracle.evaluate(cands, &progress);
    progress.finish();
    u32 best = 0;
    for (u32 i = 1; i < ms.size(); ++i)
        if (ms[i].cycles < ms[best].cycles)
            best = i;

    OptResult res;
    res.best = cands[best];
    res.bestSample = ms[best];
    SearchTrajectory &traj = res.trajectory;
    traj.benchmark = oracle.profile().name;
    traj.strategy = "random";
    traj.seed = cfg.seed;
    traj.budget = cfg.budget;
    traj.proposalsPerStep = std::max<u32>(1, cfg.proposalsPerStep);
    traj.baseKey = oracle.baseKey();
    traj.initialCycles = ms[0].cycles;
    traj.initialDigest = oracle.digestOf(cands[0]);
    traj.finalCycles = ms[best].cycles;
    traj.finalDigest = oracle.digestOf(cands[best]);
    res.freshEvals = oracle.freshEvals() - fresh0;
    res.cachedEvals = oracle.cachedEvals() - cached0;
    return res;
}

} // namespace interf::opt
