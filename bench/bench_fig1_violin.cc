/**
 * @file
 * Figure 1: violin plots of percentage CPI variation under code
 * reordering, for all 23 benchmarks.
 *
 * "Figure 1 shows the percent difference from average performance as
 * measured by cycles-per-instruction (CPI) caused by 100 random but
 * plausible code reorderings for the SPEC CPU 2006 benchmarks. ...
 * Clearly, some benchmarks are greatly affected by differences in
 * instruction addresses while some are less sensitive."
 */

#include <iostream>

#include "bench_common.hh"
#include "interferometry/report.hh"
#include "stats/descriptive.hh"
#include "stats/kde.hh"
#include "util/table.hh"
#include "workloads/spec.hh"

using namespace interf;
using namespace interf::interferometry;

int
main(int argc, char **argv)
{
    OptionParser opts("bench_fig1_violin",
                      "Figure 1: CPI variation violins under code "
                      "reordering");
    bench::addScaleOptions(opts);
    opts.addFlag("violins", "print an ASCII violin per benchmark");
    opts.parse(argc, argv);
    auto scale = bench::readScale(opts, bench::kKdeLayouts);

    std::cout << "Figure 1: % CPI variation over " << scale.layouts
              << " code reorderings\n\n";

    TableWriter table;
    table.addColumn("Benchmark", Align::Left);
    table.addColumn("meanCPI");
    table.addColumn("min%");
    table.addColumn("max%");
    table.addColumn("sd%");
    table.addColumn("mode%");

    TableWriter csv;
    csv.addColumn("benchmark", Align::Left);
    csv.addColumn("grid_pct");
    csv.addColumn("density");

    for (const auto &entry : workloads::specSuite()) {
        const auto &name = entry.profile.name;
        if (!bench::selected(scale, name))
            continue;
        Campaign camp(entry.profile, bench::campaignConfig(scale));
        auto samples = camp.measureLayouts(0, scale.layouts);

        std::vector<double> cpi;
        for (const auto &m : samples)
            cpi.push_back(m.cpi);
        double mean = stats::mean(cpi);
        std::vector<double> pct;
        for (double c : cpi)
            pct.push_back(100.0 * (c - mean) / mean);

        auto violin = stats::kernelDensity(pct, 64);
        table.beginRow();
        table.cell(name);
        table.cell(mean, "%.3f");
        table.cell(stats::minValue(pct), "%+.2f");
        table.cell(stats::maxValue(pct), "%+.2f");
        table.cell(stats::sampleStdDev(pct), "%.3f");
        table.cell(violin.mode(), "%+.2f");

        for (size_t i = 0; i < violin.grid.size(); ++i) {
            csv.beginRow();
            csv.cell(name);
            csv.cell(violin.grid[i], "%.4f");
            csv.cell(violin.density[i], "%.6f");
        }

        if (opts.getFlag("violins")) {
            std::cout << name << ":\n";
            for (const auto &line : asciiViolin(violin, 11, 24))
                std::cout << "  " << line << '\n';
            std::cout << '\n';
        }
    }

    table.print(std::cout);
    std::cout << "\n(percentages are CPI deviation from each "
                 "benchmark's mean; the paper's violins span roughly "
                 "-2% to +2% for sensitive benchmarks)\n";
    if (!scale.csvPath.empty())
        csv.writeCsv(scale.csvPath);
    bench::finishTelemetry(scale);
    return 0;
}
