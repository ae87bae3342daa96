/**
 * @file
 * Figure 6: "assigning blame" — cumulative r^2 of CPI against branch
 * mispredictions, L1I misses and L2 misses, plus the combined
 * multi-linear model, per benchmark.
 *
 * "On average, 27% of the CPI difference between different code
 * reorderings can be explained by branch misprediction. Some benchmarks
 * are more sensitive; for instance, 84.2% of the CPI variance of
 * 462.libquantum is due to branch mispredictions." The combined bar
 * does not reach the sum of the three because the events are not
 * independent (Section 6.1).
 */

#include <iostream>

#include "bench_common.hh"
#include "interferometry/model.hh"
#include "util/table.hh"
#include "workloads/spec.hh"

using namespace interf;
using namespace interf::interferometry;

int
main(int argc, char **argv)
{
    OptionParser opts("bench_fig6_blame",
                      "Figure 6: r^2 blame assignment per event + "
                      "combined model");
    bench::addScaleOptions(opts);
    opts.parse(argc, argv);
    auto scale = bench::readScale(opts, bench::kModelLayouts);

    std::cout << "Figure 6: fraction of CPI variance (r^2) explained "
                 "by each event over " << scale.layouts
              << " code reorderings\n\n";

    TableWriter table;
    table.addColumn("Benchmark", Align::Left);
    table.addColumn("branch r2");
    table.addColumn("L1I r2");
    table.addColumn("L2 r2");
    table.addColumn("combined r2");
    table.addColumn("F-test p");

    double sum_branch = 0, sum_l1i = 0, sum_l2 = 0, sum_comb = 0;
    int n = 0;
    TableWriter csv;
    csv.addColumn("benchmark", Align::Left);
    csv.addColumn("branch_r2");
    csv.addColumn("l1i_r2");
    csv.addColumn("l2_r2");
    csv.addColumn("combined_r2");

    for (const auto &entry : workloads::specSuite()) {
        const auto &name = entry.profile.name;
        if (!bench::selected(scale, name))
            continue;
        Campaign camp(entry.profile, bench::campaignConfig(scale));
        auto samples = camp.measureLayouts(0, scale.layouts);
        PerformanceModel model(name, samples);

        // The typed Figure-6 path: the same BlameVector the layout
        // optimizer consumes, not a re-derivation from the raw fits.
        const BlameVector blame = model.blame();
        table.beginRow();
        table.cell(name);
        table.cell(blame.branch, "%.3f");
        table.cell(blame.l1i, "%.3f");
        table.cell(blame.l2, "%.3f");
        table.cell(blame.combined, "%.3f");
        table.cell(blame.combinedP, "%.4f");
        csv.beginRow();
        csv.cell(name);
        csv.cell(blame.branch, "%.4f");
        csv.cell(blame.l1i, "%.4f");
        csv.cell(blame.l2, "%.4f");
        csv.cell(blame.combined, "%.4f");
        sum_branch += blame.branch;
        sum_l1i += blame.l1i;
        sum_l2 += blame.l2;
        sum_comb += blame.combined;
        ++n;
    }
    table.beginRow();
    table.cell(std::string("AVERAGE"));
    table.cell(sum_branch / n, "%.3f");
    table.cell(sum_l1i / n, "%.3f");
    table.cell(sum_l2 / n, "%.3f");
    table.cell(sum_comb / n, "%.3f");
    table.cell(std::string("-"));
    table.print(std::cout);

    std::cout << "\n(paper: branch misprediction explains 27% of CPI "
                 "variance on average; the combined bar is below the "
                 "sum of the three because the events are not "
                 "independent)\n";
    if (!scale.csvPath.empty())
        csv.writeCsv(scale.csvPath);
    bench::finishTelemetry(scale);
    return 0;
}
