/**
 * @file
 * Replay micro-benchmark: events/sec and layouts/sec of the
 * per-layout measurement paths, on bench_scaling_parallel's
 * workload (445.gobmk, 300k instructions, 40 layouts by default),
 * plus the optimizer's shape, every layout under its own randomized
 * PageMap:
 *
 *   reference        link + heap + runReference() — the event-at-a-time
 *                    pre-plan path (what campaigns paid before the
 *                    compiled ReplayPlan existed);
 *   plan_shared      the fixed heap as campaigns run it by default:
 *                    every shared outcome built once before the batch,
 *                    cycle sum included, and each layout's paths set
 *                    by core::choosePaths, as LayoutEvaluator sets
 *                    them (DESIGN.md §5p, §5r, §5s, §5v). Where the L2
 *                    proof holds (every layout on this workload), the
 *                    layout runs no event loop: its cycles are the cycle
 *                    sum over its predictor's pass on the branch stream
 *                    (§5t);
 *   optimize_gcc     plan_shared on the `optimize` benchmark's program
 *                    and budget, 403.gcc at 1M instructions (300k with
 *                    --smoke), whose layouts overflow L1I sets and take
 *                    the per-set fetch (§5w). Its `paths ms` column is
 *                    choosePaths()'s time per layout, the proofs alone;
 *   own_stream       the reference path's layouts (randomized heap) as
 *                    a LayoutEvaluator replays them: each builds its own
 *                    data stream, proves its own L2 and, where the proof
 *                    holds (every layout on this workload), takes the
 *                    shared paths with its own cycle sum
 *                    (Machine::replayOwnStream, §5x);
 *   own_stream_mcf   own_stream on 429.mcf at 1M instructions (300k
 *                    with --smoke), whose data lines overflow L2 sets
 *                    at 1M: the proof refuses, and the layout builds its
 *                    sum with the L2 simulated (§5u).
 *
 * Each path's per-layout cost includes everything a campaign pays for
 * that layout (layout construction and proofs included; the shared
 * passes are inside the batch's time), so layouts/sec ratios are
 * end-to-end speedups. Rounds are interleaved across paths —
 * reference, shared, gcc, own stream, mcf, repeat — and the per-path
 * minimum over rounds is reported, so machine-noise epochs hit all
 * paths alike rather than whichever ran last. Every replay path must
 * produce the reference model's cycle counts (the replay golden
 * contract) — each path on another heap or workload than the reference
 * path against a reference run of its own layouts — and the bench
 * checks that, making the CI smoke run a correctness probe too.
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

enum class Path : u32
{
    Reference,
    PlanShared,
    OptimizeGcc,
    OwnStream,
    OwnStreamMcf
};

const char *const kPathNames[] = {"reference", "plan_shared",
                                  "optimize_gcc", "own_stream",
                                  "own_stream_mcf"};

/** Whether @p path shares one fixed heap's stream and picks its
 *  layouts' paths with choosePaths(). */
bool
fixedHeap(Path path)
{
    return path == Path::PlanShared || path == Path::OptimizeGcc;
}

/** Whether @p path replays the reference path's layouts: gobmk with a
 *  randomized heap. */
bool
referenceLayouts(Path path)
{
    return path == Path::Reference || path == Path::OwnStream;
}

/** One benchmark program and its trace, compiled. */
struct Workload
{
    std::string name;
    u64 budget; ///< Instructions asked of the trace generator.
    trace::Program prog;
    trace::Trace trace;
    trace::ReplayPlan plan;

    Workload(const std::string &bench, u64 instructions)
        : name(bench),
          budget(instructions),
          prog(workloads::buildProgram(workloads::specFor(bench).profile)),
          trace(trace::TraceGenerator(
                    prog, workloads::specFor(bench).profile.behaviourSeed)
                    .makeTrace(instructions)),
          plan(prog, trace)
    {
    }
};

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
referenceChecksum(Path path, u32 layouts, const Workload &w,
                  const core::MachineConfig &cfg)
{
    u64 sum = 0;
    core::Machine machine(cfg);
    for (size_t i = 0; i < layouts; ++i) {
        BenchLayout l = layoutFor(path, w.prog, i);
        sum += machine.runReference(w.prog, w.trace, l.code, l.heap, l.pages)
                   .cycles;
    }
    return sum;
}

struct PathTiming
{
    double wallMs = 0.0;  ///< Best full-batch wall time over rounds.
    double pathsMs = 0.0; ///< choosePaths() time of that batch, summed.
    u64 checksum = 0;     ///< Sum of per-layout cycle counts.
};

/**
 * Measure one path's full layout batch once: every worker chunk owns a
 * Machine and walks its layouts in ascending order (the pool's static
 * partition keeps this deterministic). Returns wall ms and the cycle
 * checksum its layouts' reference runs must match.
 */
PathTiming
runBatch(Path path, exec::ThreadPool &pool, u32 layouts, const Workload &w,
         const core::MachineConfig &cfg)
{
    const trace::Program &prog = w.prog;
    const trace::Trace &trace = w.trace;
    const trace::ReplayPlan &plan = w.plan;
    std::vector<u64> cycles(layouts, 0);
    std::vector<double> paths_ms(layouts, 0.0);
    auto start = Clock::now();
    // The shared paths pay their shared passes up front, serially, as a
    // campaign does before its fan-out.
    const u32 line = cfg.hierarchy.l1i.lineBytes;
    std::optional<core::PlanOutcomes> plan_part;
    std::optional<core::StreamOutcomes> stream;
    if (path != Path::Reference && layouts > 0)
        plan_part = core::simulatePlan(cfg, plan);
    if (fixedHeap(path) && layouts > 0) {
        BenchLayout l = layoutFor(path, prog, 0);
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
            } else if (!fixedHeap(path)) {
                // LayoutEvaluator::measureOne with no shared stream.
                trace::LayoutTables tables(plan, l.code, l.heap, l.pages,
                                           line);
                res = machine.replayOwnStream(plan, tables, *plan_part);
            } else {
                // LayoutEvaluator::measureOne: tables without data
                // addresses unless the L2 proof refuses.
                trace::LayoutTables tables(plan, l.code, l.pages, line);
                const auto paths_start = Clock::now();
                const core::SharedPaths paths = core::choosePaths(
                    cfg, plan, tables, *plan_part, *stream);
                paths_ms[i] = std::chrono::duration<double, std::milli>(
                                  Clock::now() - paths_start)
                                  .count();
                if (!paths.l2Data)
                    tables = trace::LayoutTables(plan, l.code, l.heap,
                                                 l.pages, line);
                res = machine.replay(plan, tables, *plan_part, *stream,
                                     paths);
            }
            cycles[i] = res.cycles;
        }
    });
    auto stop = Clock::now();
    PathTiming t;
    t.wallMs = std::chrono::duration<double, std::milli>(stop - start).count();
    for (u64 c : cycles)
        t.checksum += c;
    for (double ms : paths_ms)
        t.pathsMs += ms;
    return t;
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    OptionParser opts(
        "bench_micro_replay",
        "events/sec of the reference, shared and own-stream replay "
        "paths");
    bench::addScaleOptions(opts);
    opts.addInt("rounds", 5,
                "interleaved measurement rounds per thread count; the "
                "per-path minimum is reported");
    opts.addFlag("smoke",
                 "CI scale: 6 layouts, 60k instructions (gcc, mcf: "
                 "300k), 2 rounds");
    opts.parse(argc, argv);
    bench::Scale scale = bench::readScale(opts);
    bench::rejectOnly(scale);
    u32 rounds = static_cast<u32>(opts.getInt("rounds"));
    if (rounds < 1)
        fatal("--rounds must be >= 1");
    // The optimizer's budget; at 300k gcc still overflows L1I sets. At
    // 1M, mcf's data lines overflow L2 sets on every layout.
    u64 gcc_instructions = 1000000;
    u64 mcf_instructions = 1000000;
    if (opts.getFlag("smoke")) {
        scale.layouts = 6;
        scale.instructions = 60000;
        gcc_instructions = 300000;
        mcf_instructions = 300000;
        rounds = 2;
    }

    const Workload gobmk("445.gobmk", scale.instructions);
    const Workload gcc("403.gcc", gcc_instructions);
    const Workload mcf("429.mcf", mcf_instructions);
    auto workload_of = [&](Path path) -> const Workload & {
        return path == Path::OptimizeGcc    ? gcc
               : path == Path::OwnStreamMcf ? mcf
                                            : gobmk;
    };
    auto cfg = core::MachineConfig::xeonE5440();
    const u64 state_bytes = core::Machine(cfg).hotStateBytes();

    for (const Workload *w : {&gobmk, &gcc, &mcf})
        std::printf("workload: %s, %zu events, %llu instructions, "
                    "%u layouts, %u rounds\n",
                    w->name.c_str(), w->plan.eventCount(),
                    static_cast<unsigned long long>(w->plan.instCount),
                    scale.layouts, rounds);
    std::printf("machine state: %llu bytes (%.2f MiB) microarchitectural "
                "state per replay\n\n",
                static_cast<unsigned long long>(state_bytes),
                static_cast<double>(state_bytes) / (1024.0 * 1024.0));
    std::printf("%-16s %8s %14s %12s %14s %10s\n", "path", "threads",
                "ms/layout", "layouts/sec", "events/sec", "paths ms");

    const Path paths[] = {Path::Reference, Path::PlanShared,
                          Path::OptimizeGcc, Path::OwnStream,
                          Path::OwnStreamMcf};
    constexpr size_t kPaths = std::size(paths);
    std::vector<u32> threadAxis = {1};
    u32 hw = exec::ThreadPool::resolveJobs(scale.jobs);
    if (hw > 1)
        threadAxis.push_back(hw);

    // Paths on another heap or workload than the reference path.
    std::vector<u64> own_ref(kPaths, 0);
    for (size_t pi = 0; pi < kPaths; ++pi)
        if (!referenceLayouts(paths[pi]))
            own_ref[pi] = referenceChecksum(
                paths[pi], scale.layouts, workload_of(paths[pi]), cfg);
    bench::JsonReport report;
    double refSingle = 0.0, ownSingle = 0.0;
    for (u32 threads : threadAxis) {
        exec::ThreadPool pool(threads);
        std::vector<PathTiming> best(kPaths);
        for (u32 round = 0; round < rounds; ++round) {
            for (size_t pi = 0; pi < kPaths; ++pi) {
                PathTiming t = runBatch(paths[pi], pool, scale.layouts,
                                        workload_of(paths[pi]), cfg);
                if (round == 0 || t.wallMs < best[pi].wallMs) {
                    best[pi].wallMs = t.wallMs;
                    best[pi].pathsMs = t.pathsMs;
                }
                best[pi].checksum = t.checksum;
            }
        }
        for (size_t pi = 1; pi < kPaths; ++pi) {
            const u64 want = referenceLayouts(paths[pi]) ? best[0].checksum
                                                         : own_ref[pi];
            if (best[pi].checksum != want)
                fatal("reference and %s paths disagree (checksum %llu vs "
                      "%llu): the replay broke bit-identity",
                      kPathNames[pi], static_cast<unsigned long long>(want),
                      static_cast<unsigned long long>(best[pi].checksum));
        }
        for (size_t pi = 0; pi < kPaths; ++pi) {
            const Workload &w = workload_of(paths[pi]);
            double perLayoutMs = best[pi].wallMs / scale.layouts;
            double layoutsPerSec = 1000.0 / perLayoutMs;
            double eventsPerSec =
                layoutsPerSec * static_cast<double>(w.plan.eventCount());
            const std::string paths_ms =
                fixedHeap(paths[pi])
                    ? strprintf("%.3f", best[pi].pathsMs / scale.layouts)
                    : std::string("-");
            std::printf("%-16s %8u %14.3f %12.1f %14.3e %10s\n",
                        kPathNames[pi], threads, perLayoutMs,
                        layoutsPerSec, eventsPerSec, paths_ms.c_str());
            if (threads == 1 && paths[pi] == Path::Reference)
                refSingle = perLayoutMs;
            if (threads == 1 && paths[pi] == Path::OwnStream)
                ownSingle = perLayoutMs;
            char config[160];
            std::snprintf(config, sizeof config,
                          "jobs=%u layouts=%u instructions=%llu rounds=%u",
                          threads, scale.layouts,
                          static_cast<unsigned long long>(w.budget),
                          rounds);
            report.add({std::string("micro_replay/") + kPathNames[pi],
                        config, layoutsPerSec, eventsPerSec,
                        best[pi].wallMs, state_bytes});
        }
    }

    if (ownSingle > 0.0)
        std::printf("\nown_stream vs reference, 1 thread: %.2fx "
                    "layouts/sec\n",
                    refSingle / ownSingle);
    if (!scale.jsonPath.empty()) {
        report.write(scale.jsonPath);
        std::printf("wrote JSON report to %s\n", scale.jsonPath.c_str());
    }
    bench::finishTelemetry(scale);
    return 0;
}
