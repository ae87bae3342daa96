/**
 * @file
 * Dynamic trace generation: a structured-CFG interpreter.
 *
 * The generator walks a Program the way the benchmark would execute:
 * main (procedure 0) is invoked repeatedly; inside a procedure, each
 * block's terminating branch decides the successor (backward conditional
 * = loop, forward conditional = if, call/return across procedures,
 * indirect = switch dispatch). Branch outcomes come from per-site
 * pattern state machines and a seeded Rng, so the same seed always
 * yields the same trace.
 *
 * Run-length control models the paper's Camino instrumentation
 * (Section 5.7): the first "profiling pass" measures instructions per
 * main invocation, then the "instrumented" run executes whole main
 * invocations until the instruction budget is met — every layout of a
 * benchmark therefore retires exactly the same instructions.
 */

#ifndef INTERF_TRACE_GENERATOR_HH
#define INTERF_TRACE_GENERATOR_HH

#include <vector>

#include "trace/program.hh"
#include "trace/trace.hh"
#include "util/random.hh"

namespace interf::trace
{

/**
 * The smallest instruction budget the command-line tools accept: the
 * warmup fraction and the per-layout statistics need a trace of some
 * length, and a budget of 0 would measure no events at all.
 */
inline constexpr u64 kMinInstructionBudget = 10000;

/** Tunable safety limits for the interpreter. */
struct GeneratorLimits
{
    u32 maxCallDepth = 64;      ///< Calls deeper than this fall through.
    u64 maxLoopIterations = 1u << 16; ///< Per loop entry, then forced exit.
    u64 maxEventsPerMain = 1u << 26;  ///< Hard stop for runaway walks.
};

/**
 * Generates dynamic traces from a static Program.
 *
 * The generator owns the per-site dynamic state (periodic-branch
 * counters, memory-walk positions, the global outcome history) so that
 * repeated generate() calls continue the program's behaviour stream,
 * while makeTrace() resets everything for a fresh, reproducible run.
 */
class TraceGenerator
{
  public:
    /**
     * @param prog The static program; must outlive the generator.
     * @param seed Behaviour seed; fully determines the trace.
     */
    TraceGenerator(const Program &prog, u64 seed,
                   GeneratorLimits limits = GeneratorLimits());

    /**
     * Produce a fresh trace of at least inst_budget instructions,
     * rounded up to a whole main() invocation (the Camino run-length
     * rule). State is reset first, so equal seeds give equal traces.
     */
    Trace makeTrace(u64 inst_budget);

    /** Instructions retired by a single main() invocation (measured). */
    u64 instructionsPerMainCall();

  private:
    struct SiteState
    {
        u32 periodicPos = 0;  ///< Execution count for Periodic sites.
        u64 consecTaken = 0;  ///< Consecutive taken outcomes (loop guard).
    };

    void reset();
    void runMain(Trace &trace);
    bool decideConditional(u32 proc_id, u32 block_id,
                           const StaticBranch &br);
    void pushHistory(bool taken);
    void emitMemRefs(const BasicBlock &bb, Trace &trace);

    const Program &prog_;
    u64 seed_;
    GeneratorLimits limits_;
    Rng rng_;
    u64 history_ = 0; ///< Global branch-outcome history (bit 0 newest).
    std::vector<SiteState> siteState_;  ///< Per cond-branch site.
    std::vector<u64> memPos_;           ///< Per memory-site walk state.
    std::vector<u32> siteIndex_;        ///< (proc, block) -> site slot.
    std::vector<u32> siteIndexBase_;    ///< Per-proc offset into the map.
    u64 cachedInstsPerMain_ = 0;
};

} // namespace interf::trace

#endif // INTERF_TRACE_GENERATOR_HH
