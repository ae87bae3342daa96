/**
 * @file
 * Figure 8: predicted CPI of the real and simulated branch predictors
 * using the interferometry regression models, with 95% prediction
 * intervals as error bars (the real predictor carries the tighter
 * confidence interval, being an observation).
 *
 * Headline numbers (Section 7.2): real predictor CPI 1.387 +- 0.012;
 * perfect prediction 1.223 +- 0.061 (7-16% better, avg 11.8%); L-TAGE
 * 1.320 +- 0.03 (2.4-6.8% better, avg 4.8%).
 */

#include <iostream>

#include "bench_common.hh"
#include "bpred/factory.hh"
#include "interferometry/model.hh"
#include "interferometry/predict.hh"
#include "pinsim/pinsim.hh"
#include "util/table.hh"
#include "workloads/spec.hh"

using namespace interf;
using namespace interf::interferometry;

int
main(int argc, char **argv)
{
    OptionParser opts("bench_fig8_predicted_cpi",
                      "Figure 8: predicted CPI per candidate predictor "
                      "with 95% intervals");
    bench::addScaleOptions(opts, 30, 300000);
    opts.parse(argc, argv);
    auto scale = bench::readScale(opts, bench::kModelLayouts);

    auto specs = bpred::figureCandidateSpecs();
    pinsim::PinSim sim(specs);

    std::cout << "Figure 8: predicted CPI of real and simulated "
                 "predictors (" << scale.layouts
              << " reorderings per benchmark)\n\n";

    TableWriter table;
    table.addColumn("Benchmark", Align::Left);
    table.addColumn("real[CI]", Align::Left);
    for (size_t i = 0; i < sim.numPredictors(); ++i)
        table.addColumn(sim.predictorName(i) + "[PI]", Align::Left);
    table.addColumn("perfect[PI]", Align::Left);

    TableWriter csv;
    csv.addColumn("benchmark", Align::Left);
    csv.addColumn("predictor", Align::Left);
    csv.addColumn("cpi");
    csv.addColumn("lo");
    csv.addColumn("hi");

    double sum_real = 0, sum_perfect = 0, sum_ltage = 0;
    double sum_real_hw = 0, sum_perfect_hw = 0, sum_ltage_hw = 0;
    int n = 0;

    for (const auto &entry : workloads::specSuite()) {
        const auto &name = entry.profile.name;
        if (!bench::selected(scale, name))
            continue;
        if (!entry.expectSignificant)
            continue; // only interferometry-suitable benchmarks
        Campaign camp(entry.profile, bench::campaignConfig(scale));
        auto samples = camp.measureLayouts(0, scale.layouts);
        PerformanceModel model(name, samples);

        std::vector<std::vector<pinsim::PredictorResult>> per_layout;
        for (u32 i = 0; i < scale.layouts; ++i)
            per_layout.push_back(sim.replay(
                camp.plan(),
                trace::LayoutTables(camp.plan(), camp.codeLayoutFor(i))));
        auto mpki = pinsim::averageMpki(per_layout);

        PredictorEvaluator eval(model, model.meanCpi());

        table.beginRow();
        table.cell(name);
        // Real predictor: observation -> confidence interval.
        auto real_ci = model.confidenceInterval(model.meanMpki());
        table.cell(strprintf("%.3f[%.3f,%.3f]", model.meanCpi(),
                             real_ci.lo, real_ci.hi));
        csv.beginRow();
        csv.cell(name);
        csv.cell(std::string("real"));
        csv.cell(model.meanCpi(), "%.4f");
        csv.cell(real_ci.lo, "%.4f");
        csv.cell(real_ci.hi, "%.4f");

        for (size_t i = 0; i < mpki.size(); ++i) {
            auto p = eval.evaluate(sim.predictorName(i), mpki[i]);
            table.cell(strprintf("%.3f[%.3f,%.3f]", p.cpi, p.pi.lo,
                                 p.pi.hi));
            csv.beginRow();
            csv.cell(name);
            csv.cell(p.predictor);
            csv.cell(p.cpi, "%.4f");
            csv.cell(p.pi.lo, "%.4f");
            csv.cell(p.pi.hi, "%.4f");
        }
        auto perfect = eval.evaluatePerfect();
        table.cell(strprintf("%.3f[%.3f,%.3f]", perfect.cpi,
                             perfect.pi.lo, perfect.pi.hi));
        csv.beginRow();
        csv.cell(name);
        csv.cell(std::string("perfect"));
        csv.cell(perfect.cpi, "%.4f");
        csv.cell(perfect.pi.lo, "%.4f");
        csv.cell(perfect.pi.hi, "%.4f");

        sum_real += model.meanCpi();
        sum_perfect += perfect.cpi;
        sum_perfect_hw += perfect.pi.width() / 2.0;
        sum_real_hw += real_ci.width() / 2.0;
        auto ltage = eval.evaluate("ltage", mpki.back());
        sum_ltage += ltage.cpi;
        sum_ltage_hw += ltage.pi.width() / 2.0;
        ++n;
    }

    table.print(std::cout);

    double real = sum_real / n, perfect = sum_perfect / n,
           ltage = sum_ltage / n;
    std::cout << "\naverages over " << n << " benchmarks:\n";
    std::cout << strprintf("  real predictor CPI    %.3f +- %.3f  "
                           "(paper: 1.387 +- 0.012)\n",
                           real, sum_real_hw / n);
    std::cout << strprintf("  perfect prediction    %.3f +- %.3f  -> "
                           "%.1f%% improvement (paper: 1.223 +- 0.061, "
                           "11.8%%)\n",
                           perfect, sum_perfect_hw / n,
                           100 * (real - perfect) / real);
    std::cout << strprintf("  L-TAGE                %.3f +- %.3f  -> "
                           "%.1f%% improvement (paper: 1.320 +- 0.030, "
                           "4.8%%)\n",
                           ltage, sum_ltage_hw / n,
                           100 * (real - ltage) / real);

    if (!scale.csvPath.empty())
        csv.writeCsv(scale.csvPath);
    bench::finishTelemetry(scale);
    return 0;
}
