/**
 * @file
 * The measurement protocol: perfex-style counter collection.
 *
 * Section 5.5 of the paper: the Xeon counts two programmable events at
 * a time, so three groups of two are measured in separate runs; "For
 * each set we run each benchmark five times and take the measurements
 * given by the run with the median number of cycles."
 *
 * MeasurementRunner performs exactly that protocol against the timing
 * model + noise model: per layout, for each of the three event groups,
 * five noisy runs are taken and the median-cycle run's counters kept.
 * CPI comes from the branch group's run (any group would do); per-kilo
 * event rates use each group's own instruction count, just like
 * dividing raw perfex counters.
 *
 * Because the timing model is deterministic for a fixed layout, the
 * fifteen physical runs differ only in noise; the runner therefore
 * executes timing once and synthesizes the noisy repetitions, which is
 * behaviourally identical and an order of magnitude faster.
 */

#ifndef INTERF_CORE_RUNNER_HH
#define INTERF_CORE_RUNNER_HH

#include <vector>

#include "core/noise.hh"
#include "core/timing.hh"

namespace interf::core
{

/** One layout's final measured sample (after median-of-five). */
struct Measurement
{
    u64 layoutSeed = 0;

    double cpi = 0.0;
    double mpki = 0.0;    ///< Mispredicted branches / kilo-instruction.
    double l1iMpki = 0.0; ///< L1I misses / kilo-instruction.
    double l1dMpki = 0.0;
    double l2Mpki = 0.0;
    double btbMpki = 0.0;

    /** @{ Raw counters from the groups' median runs. */
    Cycle cycles = 0;
    Count instructions = 0;
    Count condBranches = 0;
    Count mispredicts = 0;
    Count l1iMisses = 0;
    Count l1dMisses = 0;
    Count l2Misses = 0;
    Count btbMisses = 0;
    /** @} */
};

/** Protocol parameters. */
struct RunnerConfig
{
    u32 runsPerGroup = 5; ///< The paper's five repetitions.
    NoiseConfig noise;
};

/** A measurement paired with its deterministic (noise-free) truth. */
struct MeasuredRun
{
    Measurement sample; ///< What the counter protocol reports.
    RunResult truth;    ///< What the machine actually did (pre-noise).
};

/**
 * Executes the three-group, median-of-five measurement protocol.
 *
 * A runner keeps no per-measurement state — everything a call produces
 * is in its return value — but it owns a mutable Machine, so one runner
 * must not be shared across threads. Parallel campaigns give each
 * worker its own runner (see interferometry::LayoutEvaluator).
 */
class MeasurementRunner
{
  public:
    MeasurementRunner(const MachineConfig &machine,
                      const RunnerConfig &runner);

    /**
     * @{ Measure one layout: replay a compiled ReplayPlan under the
     * layout's address tables and run the protocol over the result
     * (Machine::replay is bit-identical to the reference loop).
     *
     * @param noise_seed Seed for this layout's measurement noise; pass
     *        the layout seed so campaigns are reproducible end to end.
     */
    Measurement measure(const trace::ReplayPlan &plan,
                        const trace::LayoutTables &tables, u64 noise_seed);

    /** As measure(), also returning the noise-free ground truth. */
    MeasuredRun measureWithTruth(const trace::ReplayPlan &plan,
                                 const trace::LayoutTables &tables,
                                 u64 noise_seed);

    /** With outcomes shared across layouts (core/shared.hh): the
     *  replay reads @p plan_part, @p stream and the structures @p paths
     *  names in place of simulating them (Machine::replay). */
    Measurement measure(const trace::ReplayPlan &plan,
                        const trace::LayoutTables &tables,
                        const PlanOutcomes &plan_part,
                        const StreamOutcomes &stream, SharedPaths paths,
                        u64 noise_seed);

    /** With only @p plan_part shared (a randomized heap): the layout's
     *  own stream and paths (Machine::replayOwnStream). */
    Measurement measure(const trace::ReplayPlan &plan,
                        const trace::LayoutTables &tables,
                        const PlanOutcomes &plan_part, u64 noise_seed);
    /** @} */

    /** Machine::reserveFor on this runner's Machine. */
    void reserveFor(const trace::ReplayPlan &plan, bool own_stream)
    {
        machine_.reserveFor(plan, own_stream);
    }

  private:
    /** The three-group median-of-five protocol over one truth run. */
    MeasuredRun protocol(RunResult truth, u64 noise_seed);

    Machine machine_;
    RunnerConfig cfg_;
};

} // namespace interf::core

#endif // INTERF_CORE_RUNNER_HH
