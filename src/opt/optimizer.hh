/**
 * @file
 * Layout-space search with replay as the fitness oracle.
 *
 * Interferometry measures how much performance a layout is worth; this
 * subsystem turns the instrument around and *searches* the layout
 * space: propose neighbors of the current candidate (opt/neighborhood),
 * measure each with one Machine::replay, and walk toward
 * fewer cycles. Two strategies sit behind the one Optimizer interface —
 * greedy hill-climbing (accept the best improving proposal) and
 * simulated annealing (Metropolis acceptance under a deterministic
 * SplitMix-seeded cooling schedule).
 *
 * Determinism discipline, same as campaigns: the search seed fixes the
 * full proposal/acceptance sequence; a candidate's measurement noise
 * seed is its content digest, so its fitness is identical no matter
 * when or on which worker it is measured; and
 * fitness caching (in-memory memo + store::FitnessStore) can therefore
 * never change a result, only skip a measurement. Consequently the
 * SearchTrajectory is byte-identical across reruns for a fixed seed at
 * any --jobs and cold or warm store — which the
 * determinism tests assert literally (tests/test_opt.cc).
 */

#ifndef INTERF_OPT_OPTIMIZER_HH
#define INTERF_OPT_OPTIMIZER_HH

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "interferometry/evaluator.hh"
#include "opt/neighborhood.hh"
#include "store/fitness.hh"
#include "util/json.hh"
#include "workloads/profile.hh"

namespace interf::opt
{

/** Search strategies behind the Optimizer interface. */
enum class Strategy : u8
{
    Greedy, ///< Hill-climb: accept the best improving proposal.
    Anneal, ///< Simulated annealing with geometric cooling.
};

/** "greedy" / "anneal". */
const char *strategyName(Strategy strategy);

/** Parse a strategy name; false on unknown input. */
bool parseStrategy(const std::string &text, Strategy &out);

/** Parameters of one search. */
struct OptConfig
{
    u64 instructionBudget = 1'000'000;
    u64 seed = 1;  ///< Search seed: proposals, acceptance, seeding.
    u32 budget = 64; ///< Total candidate evaluations allowed.
    /**
     * Candidates proposed from the current point per search step. This
     * is search semantics (it shapes the trajectory), distinct from
     * jobs, which only spreads fresh measurements over workers and can
     * never change a byte of output.
     */
    u32 proposalsPerStep = 4;
    u32 jobs = 1;       ///< Execution knob: 0 = hardware threads.
    /**
     * Random layouts evaluated first (counted against the budget) to
     * seed the search: the best becomes the starting point, and once
     * they and the authored layout reach
     * interferometry::PerformanceModel::kMinSamples, the model's
     * BlameVector weights the move kinds (uniform weights below). 0
     * starts from the authored layout.
     */
    u32 blameLayouts = 8;
    bool randomizeHeap = false; ///< Add heap seeds to the search space.
    bool physicalPages = true;  ///< Model physically-indexed L2.
    u64 pageSeed = 1; ///< One fixed page mapping for the whole search.
    Strategy strategy = Strategy::Greedy;
    double initialTemp = 0.01; ///< SA: T0 as a fraction of start cycles.
    double coolRate = 0.9;     ///< SA: geometric cooling per step.
    std::string storeDir; ///< FitnessStore root; empty = no persistence.
    core::MachineConfig machine = core::MachineConfig::xeonE5440();
    core::RunnerConfig runner;
};

/** One recorded proposal (accepted or not) of the search. */
struct TrajectoryStep
{
    u32 step = 0; ///< Search step (one batch of proposals per step).
    Move move;
    u64 candDigest = 0;
    u64 cycles = 0; ///< The candidate's measured (noisy) cycles.
    bool accepted = false;
    double temperature = 0.0; ///< 0 under the greedy strategy.
    u64 bestCycles = 0; ///< Champion cycles after this proposal.
};

/** Schema identity of the trajectory document. */
constexpr const char *kTrajectorySchema = "interf-opt-trajectory-1";
constexpr u32 kTrajectorySchemaVersion = 1;

/**
 * The full, replayable record of one search. Deliberately excludes
 * anything execution-dependent (cache hits, wall time, jobs), so equal
 * seeds dump() equal bytes regardless of how the search was run.
 */
struct SearchTrajectory
{
    std::string benchmark;
    std::string strategy;
    u64 seed = 0;
    u32 budget = 0;
    u32 proposalsPerStep = 0;
    u64 baseKey = 0;
    u64 initialCycles = 0; ///< Cycles of the starting candidate.
    u64 initialDigest = 0;
    u64 finalCycles = 0; ///< Champion cycles at budget exhaustion.
    u64 finalDigest = 0;
    std::vector<TrajectoryStep> steps;

    /** The docs/opt-trajectory.schema.json document. */
    Json toJson() const;

    /** Pretty-printed JSON (trailing newline included). */
    std::string dump() const;
};

/** Outcome of a search (or of the random baseline). */
struct OptResult
{
    CandidateLayout best;
    core::Measurement bestSample; ///< best's cached-or-fresh measurement.
    SearchTrajectory trajectory;
    u64 freshEvals = 0;  ///< Measured by replay during this run.
    u64 cachedEvals = 0; ///< Served from memo or FitnessStore.
};

/**
 * Measurement backend of the search: owns a LayoutEvaluator (the
 * program, trace and compiled plan, built once exactly like a
 * Campaign's) plus the fitness memo and optional on-disk cache.
 * evaluate() is the only entry point; it maps fresh candidates to
 * layouts and lets the evaluator fan them out to jobs workers, one
 * replay each, which cannot change a byte of any result.
 */
class FitnessOracle
{
  public:
    FitnessOracle(const workloads::WorkloadProfile &profile,
                  const OptConfig &cfg);

    const trace::Program &program() const { return evaluator_.program(); }
    const layout::Linker &linker() const { return evaluator_.linker(); }
    const workloads::WorkloadProfile &profile() const { return profile_; }
    const OptConfig &config() const { return cfg_; }

    /** The fitness base key (store/fitness.hh) of this search setup. */
    u64 baseKey() const { return baseKey_; }

    /** A candidate's content digest (= its noise seed / cache name). */
    u64 digestOf(const CandidateLayout &cand) const
    {
        return cand.digest(baseKey_);
    }

    /** The candidate the seeded LayoutKey path would produce: the
     *  random-restart and baseline sampling primitive. */
    CandidateLayout seededCandidate(u64 layout_seed) const;

    /**
     * Measurements for @p cands, element i for candidate i. Each
     * candidate is served from the memo, then the FitnessStore, and
     * only then measured fresh (and persisted). Duplicate candidates
     * within one call are measured once. @p progress (may be null) is
     * ticked per cached candidate and per finished replay, the latter
     * from pool workers too.
     */
    std::vector<core::Measurement>
    evaluate(const std::vector<CandidateLayout> &cands,
             telemetry::ProgressTracker *progress = nullptr);

    /** @{ Lifetime tallies across evaluate() calls. */
    u64 freshEvals() const { return freshEvals_; }
    u64 cachedEvals() const { return cachedEvals_; }
    /** @} */

  private:
    layout::PageMap pageMap() const;

    workloads::WorkloadProfile profile_;
    OptConfig cfg_;
    interferometry::LayoutEvaluator evaluator_;
    std::unique_ptr<store::FitnessStore> store_;
    std::unordered_map<u64, core::Measurement> memo_;
    u64 baseKey_ = 0;
    u64 freshEvals_ = 0;
    u64 cachedEvals_ = 0;
    u32 evalBatch_ = 0; ///< evaluate() calls so far (trace ctx).
};

/** One search strategy over a shared oracle. */
class Optimizer
{
  public:
    virtual ~Optimizer() = default;

    /** Run the search to budget exhaustion. */
    virtual OptResult run() = 0;
};

/** The strategy selected by @p cfg.strategy, searching via @p oracle.
 *  The oracle must outlive the optimizer. */
std::unique_ptr<Optimizer> makeOptimizer(FitnessOracle &oracle,
                                         const OptConfig &cfg);

/**
 * The baseline the deliverable compares against: evaluate cfg.budget
 * independent seeded-random layouts (an independent PRNG stream from
 * the search's) and keep the best. Returns a trajectory with strategy
 * "random" and no steps.
 */
OptResult bestOfRandom(FitnessOracle &oracle, const OptConfig &cfg);

} // namespace interf::opt

#endif // INTERF_OPT_OPTIMIZER_HH
