/**
 * @file
 * Figure 2: MPKI-vs-CPI regression with 95% confidence and prediction
 * intervals for 400.perlbench and 471.omnetpp, plus the Section 1.4
 * what-if predictions for perlbench.
 *
 * Paper reference line: CPI = 0.02799 * MPKI + 0.51667 (perlbench);
 * perfect prediction CPI 0.517 +- 0.029 (26.0% +- 4.2% better); halving
 * MPKI improves CPI 13.0% +- 2.2%; a 10% CPI gain needs a 38% MPKI
 * reduction. omnetpp: perfect-prediction CPI in [1.86, 1.94].
 */

#include <iostream>

#include "bench_common.hh"
#include "interferometry/model.hh"
#include "interferometry/predict.hh"
#include "interferometry/report.hh"
#include "stats/descriptive.hh"
#include "util/table.hh"
#include "workloads/spec.hh"

using namespace interf;
using namespace interf::interferometry;

namespace
{

void
reportBenchmark(const std::string &name, const bench::Scale &scale,
                TableWriter &csv)
{
    Campaign camp(workloads::specFor(name).profile,
                  bench::campaignConfig(scale));
    auto samples = camp.measureLayouts(0, scale.layouts);
    PerformanceModel model(name, samples);

    std::cout << "== " << name << " (" << scale.layouts
              << " reorderings)\n";
    std::cout << "   " << regressionLine(model) << '\n';
    std::cout << "   observed MPKI range ["
              << strprintf("%.3f", stats::minValue(column(
                                       samples, &core::Measurement::mpki)))
              << ", "
              << strprintf("%.3f", stats::maxValue(column(
                                       samples, &core::Measurement::mpki)))
              << "], mean CPI "
              << strprintf("%.3f", model.meanCpi()) << "\n\n";

    TableWriter table;
    table.addColumn("MPKI");
    table.addColumn("fit CPI");
    table.addColumn("CI lo");
    table.addColumn("CI hi");
    table.addColumn("PI lo");
    table.addColumn("PI hi");
    double lo = 0.0;
    double hi = stats::maxValue(
                    column(samples, &core::Measurement::mpki)) * 1.1;
    for (int i = 0; i <= 10; ++i) {
        double x = lo + (hi - lo) * i / 10.0;
        auto ci = model.confidenceInterval(x);
        auto pi = model.predictionInterval(x);
        table.beginRow();
        table.cell(x, "%.3f");
        table.cell(model.predictCpi(x), "%.4f");
        table.cell(ci.lo, "%.4f");
        table.cell(ci.hi, "%.4f");
        table.cell(pi.lo, "%.4f");
        table.cell(pi.hi, "%.4f");

        csv.beginRow();
        csv.cell(name);
        csv.cell(x, "%.4f");
        csv.cell(model.predictCpi(x), "%.5f");
        csv.cell(ci.lo, "%.5f");
        csv.cell(ci.hi, "%.5f");
        csv.cell(pi.lo, "%.5f");
        csv.cell(pi.hi, "%.5f");
    }
    table.print(std::cout);
    std::cout << '\n';

    // Section 1.4 what-ifs (the paper quotes these for perlbench).
    PredictorEvaluator eval(model, model.meanCpi());
    auto perfect = eval.evaluatePerfect();
    std::cout << "   perfect predictor: CPI "
              << strprintf("%.3f [%.3f, %.3f]", perfect.cpi,
                           perfect.pi.lo, perfect.pi.hi)
              << ", improvement "
              << strprintf("%.1f%% [%.1f%%, %.1f%%]",
                           100 * perfect.improvementVsReal,
                           100 * perfect.improvementInterval.lo,
                           100 * perfect.improvementInterval.hi)
              << '\n';
    auto half = eval.evaluate("half-mpki", model.meanMpki() / 2.0);
    std::cout << "   halving MPKI ("
              << strprintf("%.2f -> %.2f", model.meanMpki(),
                           model.meanMpki() / 2)
              << "): CPI " << strprintf("%.3f", half.cpi)
              << ", improvement "
              << strprintf("%.1f%%", 100 * half.improvementVsReal)
              << '\n';
    std::cout << "   a 10% CPI improvement requires a "
              << strprintf("%.0f%%",
                           100 * eval.mpkiReductionForCpiGain(0.10))
              << " reduction in mispredictions\n\n";
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    OptionParser opts("bench_fig2_regression",
                      "Figure 2: CPI~MPKI regression with intervals "
                      "(perlbench, omnetpp)");
    bench::addScaleOptions(opts, 60, 300000);
    opts.parse(argc, argv);
    auto scale = bench::readScale(opts, bench::kModelLayouts);

    std::cout << "Figure 2: performance vs branch prediction accuracy\n"
              << "(paper: perlbench CPI = 0.02799*MPKI + 0.51667; "
                 "omnetpp perfect CPI in [1.86, 1.94])\n\n";

    TableWriter csv;
    csv.addColumn("benchmark", Align::Left);
    csv.addColumn("mpki");
    csv.addColumn("fit_cpi");
    csv.addColumn("ci_lo");
    csv.addColumn("ci_hi");
    csv.addColumn("pi_lo");
    csv.addColumn("pi_hi");

    for (const char *name : {"400.perlbench", "471.omnetpp"})
        if (bench::selected(scale, name))
            reportBenchmark(name, scale, csv);

    if (!scale.csvPath.empty())
        csv.writeCsv(scale.csvPath);
    bench::finishTelemetry(scale);
    return 0;
}
