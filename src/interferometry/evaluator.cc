#include "interferometry/evaluator.hh"

#include "analyze/analyze.hh"
#include "telemetry/metrics.hh"
#include "telemetry/span.hh"
#include "telemetry/trace_ctx.hh"
#include "util/logging.hh"
#include "verify/verify.hh"
#include "workloads/builder.hh"

namespace interf::interferometry
{

LayoutEvaluator::LayoutEvaluator(const workloads::WorkloadProfile &profile,
                                 u64 instruction_budget,
                                 const core::MachineConfig &machine,
                                 const core::RunnerConfig &runner,
                                 u32 jobs, bool same_heap, bool same_pages,
                                 const char *owner,
                                 const char *verify_span)
    : machine_(machine),
      runnerConfig_(runner),
      jobs_(jobs),
      shareL1d_(core::canShareL1d(machine.hierarchy.l1d, same_heap,
                                  same_pages)),
      program_(workloads::buildProgram(profile)),
      linker_(),
      runner_(machine, runner)
{
    {
        INTERF_SPAN("trace.generate");
        trace::TraceGenerator gen(program_, profile.behaviourSeed);
        trace_ = gen.makeTrace(instruction_budget);
        trace_.validate(program_);
    }
    // Trust boundary: Debug builds / INTERF_VERIFY=1 prove the built
    // program and generated trace before compiling anything from them.
    if (verify::verifyOnTrust()) {
        INTERF_SPAN(verify_span);
        auto prog_result = verify::verifyProgram(program_);
        auto trace_result = verify::verifyTrace(program_, trace_);
        verifyErrors_ =
            prog_result.errorCount() + trace_result.errorCount();
        verifyWarnings_ =
            prog_result.warningCount() + trace_result.warningCount();
        verify::requireClean(prog_result,
                             strprintf("%s program", owner).c_str());
        verify::requireClean(trace_result,
                             strprintf("%s trace", owner).c_str());
    }
    // Compile the trace once; every layout measurement replays the
    // plan through flat per-layout address tables (the ReplayPlan
    // constructor records the "plan.compile" span itself).
    plan_ = trace::ReplayPlan(program_, trace_);
    // Fail closed, in every build type: a machine geometry that breaks
    // a compaction invariant (tag width, epoch salt, LRU wrap bound)
    // must never reach Machine::replay's caches, where it would assert
    // in Debug and silently corrupt victim choice in Release. The static
    // analysis is a few hundred comparisons per set-up.
    analyze::requireSoundMachine(
        machine_, &plan_, strprintf("%s machine config", owner).c_str());
}

core::Measurement
LayoutEvaluator::measureOne(core::MeasurementRunner &runner,
                            const LayoutRecipe &recipe, u32 k) const
{
    const u64 seed = recipe.seed(k);
    // Attribute this layout's spans to its seed (the owner's key and
    // batch ordinal are already on the thread's context).
    telemetry::ScopedCandidateDigest candidate(seed);
    // With a shared data stream the tables start without data
    // addresses: only a simulated L2 reads them (DESIGN.md §5p).
    const u32 line = machine_.hierarchy.l1i.lineBytes;
    layout::CodeLayout code;
    auto tables_for = [&](bool with_data) {
        return with_data ? trace::LayoutTables(plan_, code, recipe.heap(k),
                                               recipe.pages(k), line)
                         : trace::LayoutTables(plan_, code, recipe.pages(k),
                                               line);
    };
    trace::LayoutTables tables = [&] {
        INTERF_SPAN("layout.gen");
        code = recipe.code(k);
        return tables_for(!shareL1d_);
    }();
    INTERF_TELEM_COUNT("layout.tables_built", 1);
    // No shared stream (a randomized heap): the layout proves its own
    // (DESIGN.md §5x).
    if (!stream_)
        return runner.measure(plan_, tables, *planPart_, seed);
    // Each shared outcome applies only where this layout's proof holds;
    // elsewhere the replay simulates the structure for this layout.
    const core::SharedPaths paths =
        core::choosePaths(machine_, plan_, tables, *planPart_, *stream_);
    if (!paths.l2Data) {
        INTERF_SPAN("layout.gen");
        tables = tables_for(true);
    }
    return runner.measure(plan_, tables, *planPart_, *stream_, paths, seed);
}

std::vector<core::Measurement>
LayoutEvaluator::measure(u32 count, const LayoutRecipe &recipe,
                         telemetry::ProgressTracker *progress)
{
    std::vector<core::Measurement> out(count);
    if (count == 0)
        return out;
    // The shared pass runs here, serially, so workers only ever read
    // it and a run served wholly from a cache never pays it.
    if (!planPart_) {
        INTERF_SPAN("replay.shared_pass");
        planPart_ = core::simulatePlan(machine_, plan_);
        if (shareL1d_)
            stream_ = core::simulateStream(machine_, plan_, recipe.heap(0),
                                           recipe.pages(0), *planPart_);
    }
    auto run_one = [&](core::MeasurementRunner &runner, u32 k) {
        out[k] = measureOne(runner, recipe, k);
        if (progress)
            progress->add(1, 0, 1);
    };
    const u32 jobs = exec::ThreadPool::resolveJobs(jobs_);
    if (jobs <= 1 || count <= 1) {
        INTERF_SPAN_PHASE("replay.batch");
        runner_.reserveFor(plan_, !shareL1d_);
        for (u32 k = 0; k < count; ++k)
            run_one(runner_, k);
        return out;
    }
    if (!pool_ || pool_->workers() != jobs)
        pool_ = std::make_unique<exec::ThreadPool>(jobs);
    // Workers share the immutable program, trace and plan and own
    // everything mutable: a fresh MeasurementRunner (Machine) per chunk
    // plus the per-layout tables built inside measureOne. Slot k always
    // holds layout k, so scheduling cannot reorder or otherwise perturb
    // the samples.
    exec::parallelForChunks(*pool_, count, [&](size_t begin, size_t end) {
        INTERF_SPAN_PHASE("replay.batch");
        core::MeasurementRunner runner(machine_, runnerConfig_);
        runner.reserveFor(plan_, !shareL1d_);
        for (size_t k = begin; k < end; ++k)
            run_one(runner, static_cast<u32>(k));
    });
    return out;
}

} // namespace interf::interferometry
