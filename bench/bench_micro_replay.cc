/**
 * @file
 * Replay-kernel micro-benchmark: events/sec and layouts/sec of the
 * three per-layout measurement paths, on bench_scaling_parallel's
 * workload (445.gobmk, 300k instructions, 40 layouts by default):
 *
 *   reference      link + heap + runReference() — the event-at-a-time
 *                  pre-plan path (what campaigns paid before the
 *                  compiled ReplayPlan existed);
 *   plan           link + heap + LayoutTables + Machine::replay() with
 *                  a randomized PageMap — the campaign hot path;
 *   plan_identity  same, with the identity PageMap, which replay()
 *                  specializes into a no-translation fast path.
 *
 * Each path's per-layout cost includes everything a campaign pays for
 * that layout (layout construction included), so layouts/sec ratios
 * are end-to-end speedups. Rounds are interleaved across paths —
 * reference, plan, identity, repeat — and the per-path minimum over
 * rounds is reported, so machine-noise epochs hit all paths alike
 * rather than whichever ran last. The reference and plan paths must
 * produce bit-identical cycle counts (the replay golden contract);
 * the bench checks that, making the CI smoke run a correctness probe
 * too.
 *
 * --json writes the standard machine-readable report; --smoke shrinks
 * the scale for CI.
 */

#include <chrono>
#include <cstdio>
#include <iterator>
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

enum class Path : u32 { Reference, Plan, PlanIdentity };

const char *const kPathNames[] = {"reference", "plan", "plan_identity"};

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
    exec::parallelForChunks(pool, layouts, [&](size_t lo, size_t hi) {
        core::Machine machine(cfg);
        layout::Linker linker;
        auto tablesFor = [&](size_t i) {
            u64 seed = static_cast<u64>(i) + 1;
            auto code =
                linker.link(prog, layout::LayoutKey{seed, true, true});
            layout::HeapKey hk;
            hk.seed = seed;
            hk.randomize = true;
            layout::HeapLayout heap(prog, hk);
            layout::PageMap pages = path == Path::PlanIdentity
                                        ? layout::PageMap()
                                        : layout::PageMap(seed * 31 + 7);
            return trace::LayoutTables(plan, code, heap, pages,
                                       cfg.hierarchy.l1i.lineBytes);
        };
        for (size_t i = lo; i < hi; ++i) {
            u64 seed = static_cast<u64>(i) + 1;
            core::RunResult res;
            if (path == Path::Reference) {
                auto code = linker.link(
                    prog, layout::LayoutKey{seed, true, true});
                layout::HeapKey hk;
                hk.seed = seed;
                hk.randomize = true;
                layout::HeapLayout heap(prog, hk);
                res = machine.runReference(prog, trace, code, heap,
                                           layout::PageMap(seed * 31 + 7));
            } else {
                auto tables = tablesFor(i);
                res = machine.replay(plan, tables);
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
        "events/sec of the reference, plan and identity replay paths");
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
    std::printf("%-14s %8s %14s %12s %14s\n", "path", "threads",
                "ms/layout", "layouts/sec", "events/sec");

    const Path paths[] = {Path::Reference, Path::Plan, Path::PlanIdentity};
    constexpr size_t kPaths = std::size(paths);
    std::vector<u32> threadAxis = {1};
    u32 hw = exec::ThreadPool::resolveJobs(scale.jobs);
    if (hw > 1)
        threadAxis.push_back(hw);

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
        if (best[0].checksum != best[1].checksum)
            fatal("reference and plan paths disagree (checksum %llu vs "
                  "%llu): the replay kernel broke bit-identity",
                  static_cast<unsigned long long>(best[0].checksum),
                  static_cast<unsigned long long>(best[1].checksum));
        for (size_t pi = 0; pi < kPaths; ++pi) {
            double perLayoutMs = best[pi].wallMs / scale.layouts;
            double layoutsPerSec = 1000.0 / perLayoutMs;
            double eventsPerSec =
                layoutsPerSec * static_cast<double>(plan.eventCount());
            std::printf("%-14s %8u %14.3f %12.1f %14.3e\n",
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
