/**
 * @file
 * The layout evaluation: the one unit of work that campaigns and the
 * layout optimizer share (DESIGN.md §5o).
 *
 * A LayoutEvaluator does the per-benchmark set-up once: build the
 * program, generate the layout-invariant trace, verify both at the
 * trust boundary, compile the replay plan and refuse an unsound
 * machine. measure() then evaluates a batch of layouts: for each, link
 * the code, place the heap, build the address tables and run the
 * median-of-five protocol over one replay.
 *
 * Its owners keep only what differs between them: which code, heap,
 * pages and seed layout k of a batch means (a LayoutRecipe), and how
 * results are cached. interferometry::Campaign maps layout indices to
 * seeds; opt::FitnessOracle maps candidates to their digests.
 *
 * Determinism: a batch fans out in contiguous chunks over a lazily
 * sized pool, one MeasurementRunner per chunk, every replay starts
 * from power-on state and sample k lands in slot k, so the result is
 * identical at any jobs value.
 */

#ifndef INTERF_INTERFEROMETRY_EVALUATOR_HH
#define INTERF_INTERFEROMETRY_EVALUATOR_HH

#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "core/runner.hh"
#include "exec/threadpool.hh"
#include "layout/heap.hh"
#include "layout/linker.hh"
#include "layout/pagemap.hh"
#include "telemetry/progress.hh"
#include "trace/generator.hh"
#include "trace/replay.hh"
#include "workloads/profile.hh"

namespace interf::interferometry
{

/**
 * What layout k of one batch is. Pool workers call these, so each must
 * be safe to call concurrently.
 */
struct LayoutRecipe
{
    std::function<layout::CodeLayout(u32)> code;
    std::function<layout::HeapLayout(u32)> heap;
    std::function<layout::PageMap(u32)> pages;
    /** The noise seed; also the candidate id on the layout's spans. */
    std::function<u64(u32)> seed;
};

/** Program, trace and plan of one benchmark, and the batch evaluator
 *  over them. */
class LayoutEvaluator
{
  public:
    /**
     * Build, trace, verify and compile @p profile.
     *
     * @param same_heap, same_pages Whether every layout this evaluator
     *        measures shares one heap layout, resp. one page map: the
     *        inputs of core::canShareL1d.
     * @param owner Names the caller in fail-closed messages
     *        ("Campaign", "Optimizer").
     * @param verify_span Span name of the trust-boundary verification;
     *        must be a string literal.
     */
    LayoutEvaluator(const workloads::WorkloadProfile &profile,
                    u64 instruction_budget,
                    const core::MachineConfig &machine,
                    const core::RunnerConfig &runner, u32 jobs,
                    bool same_heap, bool same_pages, const char *owner,
                    const char *verify_span);

    const trace::Program &program() const { return program_; }
    const trace::Trace &trace() const { return trace_; }
    const trace::ReplayPlan &plan() const { return plan_; }
    const layout::Linker &linker() const { return linker_; }

    /** @{ Findings of the trust-boundary verification (0 when it did
     *  not run). */
    u64 verifyErrors() const { return verifyErrors_; }
    u64 verifyWarnings() const { return verifyWarnings_; }
    /** @} */

    /**
     * Measure layouts [0, count) of @p recipe; element k is layout k.
     * Ticks @p progress (may be null) once per finished layout, from
     * whichever thread measured it. With count == 0 nothing in
     * @p recipe is called.
     */
    std::vector<core::Measurement>
    measure(u32 count, const LayoutRecipe &recipe,
            telemetry::ProgressTracker *progress);

  private:
    /** Build layout @p k's tables and measure it with @p runner. */
    core::Measurement measureOne(core::MeasurementRunner &runner,
                                 const LayoutRecipe &recipe, u32 k) const;

    core::MachineConfig machine_;
    core::RunnerConfig runnerConfig_;
    u32 jobs_;
    bool shareL1d_; ///< core::canShareL1d for this evaluator's layouts.
    trace::Program program_;
    trace::Trace trace_;
    trace::ReplayPlan plan_;
    layout::Linker linker_;
    core::MeasurementRunner runner_; ///< Serial path (jobs == 1).
    /** @{ The outcomes every layout shares (DESIGN.md §5n, §5p, §5r,
     *  §5v): the plan part always; the data-stream part when
     *  shareL1d_. Built once, serially, before the first fan-out, then
     *  read-only. */
    std::optional<core::PlanOutcomes> planPart_;
    std::optional<core::StreamOutcomes> stream_;
    /** @} */
    std::unique_ptr<exec::ThreadPool> pool_; ///< Lazily sized to jobs.
    u64 verifyErrors_ = 0;
    u64 verifyWarnings_ = 0;
};

} // namespace interf::interferometry

#endif // INTERF_INTERFEROMETRY_EVALUATOR_HH
