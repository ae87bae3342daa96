/**
 * @file
 * Ablation: the machine-model features DESIGN.md calls out.
 *
 * Each row disables one modeled mechanism and re-runs a two-benchmark
 * campaign, showing which mechanism carries which observable:
 *
 *  - next-line I-prefetch: without it, sequential fetch misses flood
 *    the L1I counter and CPI rises;
 *  - physical page mapping: without it, the L2 loses all placement
 *    sensitivity (L2-MPKI variance collapses to zero);
 *  - warmup: without it, cold-start compulsory misses pollute every
 *    counter;
 *  - L2 random replacement: with true LRU the capacity behaviour turns
 *    all-or-nothing.
 */

#include <iostream>

#include "bench_common.hh"
#include "interferometry/model.hh"
#include "stats/descriptive.hh"
#include "util/table.hh"
#include "workloads/spec.hh"

using namespace interf;
using namespace interf::interferometry;

namespace
{

struct Variant
{
    const char *label;
    bool prefetch;
    bool physicalPages;
    double warmup;
    cache::Replacement l2Replacement;
};

void
runVariant(const Variant &v, const std::string &bench_name,
           const bench::Scale &scale, TableWriter &table)
{
    auto cfg = bench::campaignConfig(scale);
    cfg.randomizeHeap = true;
    cfg.physicalPages = v.physicalPages;
    cfg.machine.hierarchy.nextLinePrefetch = v.prefetch;
    cfg.machine.warmupFraction = v.warmup;
    cfg.machine.hierarchy.l2.replacement = v.l2Replacement;
    Campaign camp(workloads::specFor(bench_name).profile, cfg);
    auto samples = camp.measureLayouts(0, scale.layouts);
    PerformanceModel model(bench_name, samples);

    auto l2 = column(samples, &core::Measurement::l2Mpki);
    table.beginRow();
    table.cell(std::string(v.label));
    table.cell(bench_name);
    table.cell(model.meanCpi(), "%.3f");
    table.cell(model.meanL1iMpki(), "%.3f");
    table.cell(model.meanL2Mpki(), "%.3f");
    table.cell(stats::sampleStdDev(l2), "%.4f");
    table.cell(model.branchModel().fit.r2(), "%.3f");
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    OptionParser opts("bench_ablation_machine",
                      "ablation: prefetch, physical pages, warmup, L2 "
                      "replacement");
    // L2-capacity variance and I-prefetch coverage are long-run,
    // large-footprint phenomena; default to scales where they show.
    bench::addScaleOptions(opts, 14, 8000000);
    opts.parse(argc, argv);
    auto scale = bench::readScale(opts, bench::kModelLayouts);

    const Variant variants[] = {
        {"full model", true, true, 0.25, cache::Replacement::Random},
        {"no I-prefetch", false, true, 0.25, cache::Replacement::Random},
        {"virtual-indexed L2", true, false, 0.25,
         cache::Replacement::Random},
        {"no warmup", true, true, 0.0, cache::Replacement::Random},
        {"L2 true LRU", true, true, 0.25, cache::Replacement::Lru},
    };

    std::cout << "Machine-model ablation (" << scale.layouts
              << " layouts, " << scale.instructions
              << " instructions, heap randomization on)\n\n";

    TableWriter table;
    table.addColumn("variant", Align::Left);
    table.addColumn("benchmark", Align::Left);
    table.addColumn("CPI");
    table.addColumn("L1I/KI");
    table.addColumn("L2/KI");
    table.addColumn("sd L2/KI");
    table.addColumn("branch r2");

    for (const auto &v : variants)
        for (const char *name : {"403.gcc", "454.calculix"})
            if (bench::selected(scale, name))
                runVariant(v, name, scale, table);

    table.print(std::cout);
    std::cout << "\nKey rows: 'virtual-indexed L2' collapses the L2 "
                 "variance (sd column) that Figure 3(b) depends on; "
                 "'no I-prefetch' inflates demand L1I misses on the "
                 "big-text benchmark; 'no warmup' inflates every miss "
                 "counter with cold-start transients; 'L2 true LRU' "
                 "narrows the placement sensitivity that random "
                 "(pseudo-LRU-like) replacement spreads smoothly.\n";
    bench::finishTelemetry(scale);
    return 0;
}
