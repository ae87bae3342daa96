/**
 * @file
 * Pin-style functional branch-predictor simulation.
 *
 * Section 5.6 / 7.1 of the paper: "Our Pin tool instruments each branch
 * with a callback to code that simulates a set of branch predictors.
 * The tool counts the number of branches executed and the number of
 * branches mispredicted for each predictor simulated. ... Pin runs only
 * once for each reordering; since we control the initial conditions of
 * the simulator and Pin is not affected by system-level events, there
 * is no variance in the simulation result."
 *
 * PinSim replays a trace's conditional-branch stream (with the branch
 * addresses of a given layout) through a set of predictor models, one
 * predictor at a time: each runs the whole stream from power-on state
 * in a single BranchPredictor::replayStream call (DESIGN.md §5l).
 * Functional only, no timing, deterministic.
 */

#ifndef INTERF_PINSIM_PINSIM_HH
#define INTERF_PINSIM_PINSIM_HH

#include <string>
#include <vector>

#include "bpred/predictor.hh"
#include "layout/linker.hh"
#include "trace/replay.hh"
#include "trace/trace.hh"

namespace interf::pinsim
{

/** Per-predictor result of one instrumented run. */
struct PredictorResult
{
    std::string name;
    Count branches = 0;   ///< Conditional branches executed.
    Count mispredicts = 0;
    Count instructions = 0;

    double mpki() const;
    double accuracy() const;
};

/**
 * The instrumentation engine: owns a set of predictors and replays
 * traces through each of them.
 */
class PinSim
{
  public:
    /** Build predictors from spec strings (see bpred/factory.hh). */
    explicit PinSim(const std::vector<std::string> &specs);

    /**
     * One (trace, layout) pair: compiles the plan and code tables and
     * calls replay(). Sweeps over many layouts of one trace should
     * compile the plan once and call replay() directly.
     */
    std::vector<PredictorResult> run(const trace::Program &prog,
                                     const trace::Trace &trace,
                                     const layout::CodeLayout &code);

    /**
     * Replay a compiled plan's conditional-branch substream, at a
     * layout's branch addresses, through every predictor from power-on
     * state. Deterministic.
     */
    std::vector<PredictorResult> replay(const trace::ReplayPlan &plan,
                                        const trace::LayoutTables &tables);

    /** Number of predictors simulated. */
    size_t numPredictors() const { return predictors_.size(); }

    /** Name of predictor i. */
    const std::string &predictorName(size_t i) const;

  private:
    std::vector<bpred::PredictorPtr> predictors_;
    std::vector<std::string> names_;
};

/**
 * Convenience: average each predictor's MPKI over many layouts, as
 * Figure 7 does ("these data are averaged over 100 different
 * pseudo-randomly generated code reorderings").
 */
std::vector<double> averageMpki(
    const std::vector<std::vector<PredictorResult>> &per_layout);

} // namespace interf::pinsim

#endif // INTERF_PINSIM_PINSIM_HH
