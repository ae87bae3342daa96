/**
 * @file
 * Replay micro-benchmark: events/sec and layouts/sec of the
 * four per-layout measurement paths, on bench_scaling_parallel's
 * workload (445.gobmk, 300k instructions, 40 layouts by default),
 * every layout under its own randomized PageMap:
 *
 *   reference        link + heap + runReference() — the event-at-a-time
 *                    pre-plan path (what campaigns paid before the
 *                    compiled ReplayPlan existed);
 *   plan             link + heap + LayoutTables + Machine::replay()
 *                    with a randomized heap — one L1D pass per layout,
 *                    the L2 simulated and the BTB in its own pass;
 *   plan_shared_l1d  plan with a fixed heap: one L1D pass before the
 *                    batch, its outcome reused by every layout
 *                    (DESIGN.md §5n);
 *   plan_shared      the fixed heap as campaigns run it by default:
 *                    every shared outcome built once before the batch,
 *                    cycle sum included, and each layout's paths set
 *                    by core::choosePaths, as LayoutEvaluator sets
 *                    them (§5p, §5r, §5s, §5v). Where the L2 proof
 *                    holds (every layout on this workload), the layout
 *                    runs no event loop: its cycles are the cycle sum
 *                    over its predictor's pass on the branch stream
 *                    (§5t).
 *
 * Each path's per-layout cost includes everything a campaign pays for
 * that layout (layout construction and proofs included; the shared
 * passes are inside the batch's time), so layouts/sec ratios are
 * end-to-end speedups. Rounds are interleaved across paths —
 * reference, plan, shared L1D, shared, repeat — and the per-path
 * minimum over rounds is reported, so machine-noise epochs hit all
 * paths alike rather than whichever ran last. Every replay path must
 * produce the reference model's cycle counts (the replay golden
 * contract) — the fixed-heap paths against a fixed-heap reference run
 * — and the bench checks that, making the CI smoke run a correctness
 * probe too.
 *
 * --json writes the standard machine-readable report; --smoke shrinks
 * the scale for CI.
 */

#include <chrono>
#include <cstdio>
#include <iterator>
#include <optional>
#include <string>
#include <vector>

#include "bench_common.hh"
#include "core/timing.hh"
#include "exec/threadpool.hh"
#include "layout/heap.hh"
#include "layout/linker.hh"
#include "layout/pagemap.hh"
#include "trace/generator.hh"
#include "trace/replay.hh"
#include "workloads/builder.hh"
#include "workloads/spec.hh"

namespace
{

using namespace interf;
using Clock = std::chrono::steady_clock;

enum class Path : u32 { Reference, Plan, PlanSharedL1d, PlanShared };

const char *const kPathNames[] = {"reference", "plan", "plan_shared_l1d",
                                  "plan_shared"};

bool
fixedHeap(Path path)
{
    return path == Path::PlanSharedL1d || path == Path::PlanShared;
}

/** Layout @p i of the batch: code, heap and page map for @p path. */
struct BenchLayout
{
    layout::CodeLayout code;
    layout::HeapLayout heap;
    layout::PageMap pages;
};

BenchLayout
layoutFor(Path path, const trace::Program &prog, size_t i)
{
    const u64 seed = static_cast<u64>(i) + 1;
    layout::HeapKey hk = fixedHeap(path) ? layout::HeapKey::deterministic()
                                         : layout::HeapKey{seed, true};
    return {layout::Linker().link(prog, layout::LayoutKey{seed, true, true}),
            layout::HeapLayout(prog, hk), layout::PageMap(seed * 31 + 7)};
}

/** Sum of the reference model's cycles over the batch's layouts as
 *  @p path places them (untimed; the checksum each path must match). */
u64
referenceChecksum(Path path, u32 layouts, const trace::Program &prog,
                  const trace::Trace &trace, const core::MachineConfig &cfg)
{
    u64 sum = 0;
    core::Machine machine(cfg);
    for (size_t i = 0; i < layouts; ++i) {
        BenchLayout l = layoutFor(path, prog, i);
        sum += machine.runReference(prog, trace, l.code, l.heap, l.pages)
                   .cycles;
    }
    return sum;
}

struct PathTiming
{
    double wallMs = 0.0; ///< Best full-batch wall time over rounds.
    u64 checksum = 0;    ///< Sum of per-layout cycle counts.
};

/**
 * Measure one path's full layout batch once: every worker chunk owns a
 * Machine and walks its layouts in ascending order (the pool's static
 * partition keeps this deterministic). Returns wall ms and the cycle
 * checksum used for the reference-vs-plan identity check.
 */
PathTiming
runBatch(Path path, exec::ThreadPool &pool, u32 layouts,
         const trace::Program &prog, const trace::Trace &trace,
         const trace::ReplayPlan &plan, const core::MachineConfig &cfg)
{
    std::vector<u64> cycles(layouts, 0);
    auto start = Clock::now();
    // The shared paths pay their shared passes up front, serially, as a
    // campaign does before its fan-out.
    const u32 line = cfg.hierarchy.l1i.lineBytes;
    std::optional<core::PlanOutcomes> plan_part;
    std::optional<core::StreamOutcomes> stream;
    if (fixedHeap(path) && layouts > 0) {
        BenchLayout l = layoutFor(path, prog, 0);
        plan_part = core::simulatePlan(cfg, plan);
        if (path == Path::PlanSharedL1d)
            stream = core::simulateL1d(
                cfg, plan, trace::LayoutTables(plan, l.heap, l.pages));
        else
            stream = core::simulateStream(cfg, plan, l.heap, l.pages,
                                          *plan_part);
    }
    exec::parallelForChunks(pool, layouts, [&](size_t lo, size_t hi) {
        core::Machine machine(cfg);
        for (size_t i = lo; i < hi; ++i) {
            BenchLayout l = layoutFor(path, prog, i);
            core::RunResult res;
            if (path == Path::Reference) {
                res = machine.runReference(prog, trace, l.code, l.heap,
                                           l.pages);
            } else if (path == Path::PlanShared) {
                // LayoutEvaluator::measureOne: tables without data
                // addresses unless the L2 proof refuses.
                trace::LayoutTables tables(plan, l.code, l.pages, line);
                const core::SharedPaths paths = core::choosePaths(
                    cfg, plan, tables, *plan_part, &*stream);
                if (!paths.l2Data)
                    tables = trace::LayoutTables(plan, l.code, l.heap,
                                                 l.pages, line);
                res = machine.replay(plan, tables, *plan_part, &*stream,
                                     paths);
            } else {
                trace::LayoutTables tables(plan, l.code, l.heap, l.pages,
                                           line);
                res = stream ? machine.replay(plan, tables, *plan_part,
                                              &*stream)
                             : machine.replay(plan, tables);
            }
            cycles[i] = res.cycles;
        }
    });
    auto stop = Clock::now();
    PathTiming t;
    t.wallMs = std::chrono::duration<double, std::milli>(stop - start).count();
    for (u64 c : cycles)
        t.checksum += c;
    return t;
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    OptionParser opts(
        "bench_micro_replay",
        "events/sec of the reference, plan and shared replay paths");
    bench::addScaleOptions(opts);
    opts.addInt("rounds", 5,
                "interleaved measurement rounds per thread count; the "
                "per-path minimum is reported");
    opts.addFlag("smoke",
                 "CI scale: 6 layouts, 60k instructions, 2 rounds");
    opts.parse(argc, argv);
    bench::Scale scale = bench::readScale(opts);
    u32 rounds = static_cast<u32>(opts.getInt("rounds"));
    if (rounds < 1)
        fatal("--rounds must be >= 1");
    if (opts.getFlag("smoke")) {
        scale.layouts = 6;
        scale.instructions = 60000;
        rounds = 2;
    }

    auto profile = workloads::specFor("445.gobmk").profile;
    trace::Program prog = workloads::buildProgram(profile);
    trace::Trace trace =
        trace::TraceGenerator(prog, profile.behaviourSeed)
            .makeTrace(scale.instructions);
    trace::ReplayPlan plan(prog, trace);
    auto cfg = core::MachineConfig::xeonE5440();
    const u64 state_bytes = core::Machine(cfg).hotStateBytes();

    std::printf("workload: 445.gobmk, %zu events, %llu instructions, "
                "%u layouts, %u rounds\n",
                plan.eventCount(),
                static_cast<unsigned long long>(plan.instCount),
                scale.layouts, rounds);
    std::printf("machine state: %llu bytes (%.2f MiB) microarchitectural "
                "state per replay\n\n",
                static_cast<unsigned long long>(state_bytes),
                static_cast<double>(state_bytes) / (1024.0 * 1024.0));
    std::printf("%-16s %8s %14s %12s %14s\n", "path", "threads",
                "ms/layout", "layouts/sec", "events/sec");

    const Path paths[] = {Path::Reference, Path::Plan, Path::PlanSharedL1d,
                          Path::PlanShared};
    constexpr size_t kPaths = std::size(paths);
    std::vector<u32> threadAxis = {1};
    u32 hw = exec::ThreadPool::resolveJobs(scale.jobs);
    if (hw > 1)
        threadAxis.push_back(hw);

    const u64 fixedHeapRefChecksum = referenceChecksum(
        Path::PlanShared, scale.layouts, prog, trace, cfg);
    bench::JsonReport report;
    double refSingle = 0.0, planSingle = 0.0;
    for (u32 threads : threadAxis) {
        exec::ThreadPool pool(threads);
        std::vector<PathTiming> best(kPaths);
        for (u32 round = 0; round < rounds; ++round) {
            for (size_t pi = 0; pi < kPaths; ++pi) {
                PathTiming t =
                    runBatch(paths[pi], pool, scale.layouts, prog, trace,
                             plan, cfg);
                if (round == 0 || t.wallMs < best[pi].wallMs)
                    best[pi].wallMs = t.wallMs;
                best[pi].checksum = t.checksum;
            }
        }
        for (size_t pi = 1; pi < kPaths; ++pi) {
            // The fixed-heap paths replay another heap than the
            // reference path.
            const u64 want = fixedHeap(paths[pi]) ? fixedHeapRefChecksum
                                                  : best[0].checksum;
            if (best[pi].checksum != want)
                fatal("reference and %s paths disagree (checksum %llu vs "
                      "%llu): the replay kernel broke bit-identity",
                      kPathNames[pi], static_cast<unsigned long long>(want),
                      static_cast<unsigned long long>(best[pi].checksum));
        }
        for (size_t pi = 0; pi < kPaths; ++pi) {
            double perLayoutMs = best[pi].wallMs / scale.layouts;
            double layoutsPerSec = 1000.0 / perLayoutMs;
            double eventsPerSec =
                layoutsPerSec * static_cast<double>(plan.eventCount());
            std::printf("%-16s %8u %14.3f %12.1f %14.3e\n",
                        kPathNames[pi], threads, perLayoutMs,
                        layoutsPerSec, eventsPerSec);
            if (threads == 1 && paths[pi] == Path::Reference)
                refSingle = perLayoutMs;
            if (threads == 1 && paths[pi] == Path::Plan)
                planSingle = perLayoutMs;
            char config[128];
            std::snprintf(config, sizeof config,
                          "jobs=%u layouts=%u instructions=%llu rounds=%u",
                          threads, scale.layouts,
                          static_cast<unsigned long long>(
                              scale.instructions),
                          rounds);
            report.add({std::string("micro_replay/") + kPathNames[pi],
                        config, layoutsPerSec, eventsPerSec,
                        best[pi].wallMs, state_bytes});
        }
    }

    if (planSingle > 0.0)
        std::printf("\nplan vs reference, 1 thread: %.2fx layouts/sec\n",
                    refSingle / planSingle);
    if (!scale.jsonPath.empty()) {
        report.write(scale.jsonPath);
        std::printf("wrote JSON report to %s\n", scale.jsonPath.c_str());
    }
    bench::finishTelemetry(scale);
    return 0;
}
