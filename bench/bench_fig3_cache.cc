/**
 * @file
 * Figure 3: modeling cache effects on performance with heap
 * randomization, for 454.calculix.
 *
 * "The data reordering is done using a specially crafted memory
 * allocator that randomizes the placement of heap-allocated data. ...
 * Figure 3 shows that performance varies linearly with L1 and L2 cache
 * misses for the SPEC CPU 2006 benchmark 454.calculix", with confidence
 * and prediction intervals; "the experiments were done using heap
 * randomization combined with code reordering."
 */

#include <iostream>

#include "bench_common.hh"
#include "interferometry/model.hh"
#include "stats/descriptive.hh"
#include "stats/hypothesis.hh"
#include "util/table.hh"
#include "workloads/spec.hh"

using namespace interf;
using namespace interf::interferometry;

namespace
{

void
reportFit(const char *label, const std::vector<double> &xs,
          const std::vector<double> &cpi, TableWriter &csv,
          const std::string &bench_name)
{
    double cv = stats::mean(xs) > 0
                    ? stats::sampleStdDev(xs) / stats::mean(xs)
                    : 0.0;
    if (cv < 1e-3) {
        std::cout << "  CPI ~ " << label
                  << ": miss counts are layout-invariant here (cv "
                  << strprintf("%.2g", cv)
                  << "); no meaningful regression\n\n";
        return;
    }
    stats::LinearFit fit(xs, cpi);
    auto test = stats::correlationTTest(fit.r(), xs.size());
    std::cout << "  CPI ~ " << label << ": slope "
              << strprintf("%.5f", fit.slope()) << ", intercept "
              << strprintf("%.4f", fit.intercept()) << ", r2 "
              << strprintf("%.3f", fit.r2()) << ", t "
              << strprintf("%.2f", test.statistic)
              << (test.significantAt(0.05) ? " (significant)"
                                           : " (not significant)")
              << '\n';

    TableWriter table;
    table.addColumn(label);
    table.addColumn("fit CPI");
    table.addColumn("CI lo");
    table.addColumn("CI hi");
    table.addColumn("PI lo");
    table.addColumn("PI hi");
    double lo = stats::minValue(xs) * 0.95;
    double hi = stats::maxValue(xs) * 1.05;
    for (int i = 0; i <= 8; ++i) {
        double x = lo + (hi - lo) * i / 8.0;
        auto ci = fit.confidenceInterval(x);
        auto pi = fit.predictionInterval(x);
        table.beginRow();
        table.cell(x, "%.3f");
        table.cell(fit.predict(x), "%.4f");
        table.cell(ci.lo, "%.4f");
        table.cell(ci.hi, "%.4f");
        table.cell(pi.lo, "%.4f");
        table.cell(pi.hi, "%.4f");

        csv.beginRow();
        csv.cell(bench_name);
        csv.cell(std::string(label));
        csv.cell(x, "%.4f");
        csv.cell(fit.predict(x), "%.5f");
        csv.cell(pi.lo, "%.5f");
        csv.cell(pi.hi, "%.5f");
    }
    table.print(std::cout);
    std::cout << '\n';
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    OptionParser opts("bench_fig3_cache",
                      "Figure 3: CPI vs L1/L2 misses under heap "
                      "randomization (calculix)");
    // L2-capacity effects are a steady-state phenomenon: panel (b)
    // needs long runs (the paper measured ~2-minute executions).
    bench::addScaleOptions(opts, 40, 20000000);
    opts.addString("benchmark", "454.calculix",
                   "suite benchmark to analyze");
    opts.parse(argc, argv);
    auto scale = bench::readScale(opts, bench::kFitLayouts);
    bench::rejectOnly(scale);

    const std::string name = opts.getString("benchmark");
    std::cout << "Figure 3: cache effects on performance for " << name
              << " (heap randomization + code reordering, "
              << scale.layouts << " layouts)\n\n";

    auto cfg = bench::campaignConfig(scale);
    cfg.randomizeHeap = true; // the DieHard-style allocator
    Campaign camp(workloads::specFor(name).profile, cfg);
    auto samples = camp.measureLayouts(0, scale.layouts);

    auto cpi = column(samples, &core::Measurement::cpi);
    auto l1d = column(samples, &core::Measurement::l1dMpki);
    auto l2 = column(samples, &core::Measurement::l2Mpki);

    std::cout << "  mean CPI " << strprintf("%.3f", stats::mean(cpi))
              << ", L1D misses/KI "
              << strprintf("%.2f", stats::mean(l1d)) << " (sd "
              << strprintf("%.3f", stats::sampleStdDev(l1d))
              << "), L2 misses/KI " << strprintf("%.3f", stats::mean(l2))
              << " (sd " << strprintf("%.4f", stats::sampleStdDev(l2))
              << ")\n\n";

    TableWriter csv;
    csv.addColumn("benchmark", Align::Left);
    csv.addColumn("event", Align::Left);
    csv.addColumn("x");
    csv.addColumn("fit_cpi");
    csv.addColumn("pi_lo");
    csv.addColumn("pi_hi");

    std::cout << "(a) L1 data cache misses:\n";
    reportFit("L1D-MPKI", l1d, cpi, csv, name);
    std::cout << "(b) L2 cache misses:\n";
    reportFit("L2-MPKI", l2, cpi, csv, name);

    if (!scale.csvPath.empty())
        csv.writeCsv(scale.csvPath);
    bench::finishTelemetry(scale);
    return 0;
}
