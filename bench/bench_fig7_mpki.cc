/**
 * @file
 * Figure 7: MPKI of the real branch predictor and of simulated
 * predictors (GAs 2-16 KB, L-TAGE), averaged over the same code
 * reorderings.
 *
 * "The average MPKI over all benchmarks and code reorderings for the
 * real branch predictor is 6.306, compared with 5.729 for a simulated
 * 8KB GAs predictor. A 16KB simulated GAs branch predictor yields
 * 5.542 MPKI." L-TAGE: "On average, L-TAGE yields 3.995 MPKI, compared
 * with 6.306 MPKI for the real Intel predictor, an improvement of 37%."
 */

#include <iostream>

#include "bench_common.hh"
#include "bpred/factory.hh"
#include "pinsim/pinsim.hh"
#include "stats/descriptive.hh"
#include "util/table.hh"
#include "workloads/spec.hh"

using namespace interf;
using namespace interf::interferometry;

int
main(int argc, char **argv)
{
    OptionParser opts("bench_fig7_mpki",
                      "Figure 7: MPKI of real and simulated predictors");
    bench::addScaleOptions(opts, 30, 300000);
    opts.parse(argc, argv);
    auto scale = bench::readScale(opts);

    auto specs = bpred::figureCandidateSpecs();
    pinsim::PinSim sim(specs);

    std::cout << "Figure 7: average MPKI over " << scale.layouts
              << " code reorderings (Pin-style simulation; the real "
                 "predictor is measured by the machine's counters)\n\n";

    TableWriter table;
    table.addColumn("Benchmark", Align::Left);
    table.addColumn("real");
    for (size_t i = 0; i < sim.numPredictors(); ++i)
        table.addColumn(sim.predictorName(i));

    TableWriter csv;
    csv.addColumn("benchmark", Align::Left);
    csv.addColumn("predictor", Align::Left);
    csv.addColumn("mpki");

    std::vector<double> mean_by_pred(sim.numPredictors() + 1, 0.0);
    int n_benches = 0;

    for (const auto &entry : workloads::specSuite()) {
        const auto &name = entry.profile.name;
        if (!bench::selected(scale, name))
            continue;
        // Only benchmarks suitable for interferometry (Section 7.2).
        if (!entry.expectSignificant)
            continue;
        Campaign camp(entry.profile, bench::campaignConfig(scale));

        // Real predictor: measured MPKI averaged over the layouts.
        auto samples = camp.measureLayouts(0, scale.layouts);
        std::vector<double> real;
        for (const auto &m : samples)
            real.push_back(m.mpki);
        double real_avg = stats::mean(real);

        // Candidates: one deterministic Pin run per layout.
        std::vector<std::vector<pinsim::PredictorResult>> per_layout;
        for (u32 i = 0; i < scale.layouts; ++i)
            per_layout.push_back(sim.replay(
                camp.plan(),
                trace::LayoutTables(camp.plan(), camp.codeLayoutFor(i))));
        auto avg = pinsim::averageMpki(per_layout);

        table.beginRow();
        table.cell(name);
        table.cell(real_avg, "%.3f");
        csv.beginRow();
        csv.cell(name);
        csv.cell(std::string("real"));
        csv.cell(real_avg, "%.4f");
        mean_by_pred[0] += real_avg;
        for (size_t i = 0; i < avg.size(); ++i) {
            table.cell(avg[i], "%.3f");
            csv.beginRow();
            csv.cell(name);
            csv.cell(sim.predictorName(i));
            csv.cell(avg[i], "%.4f");
            mean_by_pred[i + 1] += avg[i];
        }
        ++n_benches;
    }

    table.beginRow();
    table.cell(std::string("MEAN"));
    for (double &v : mean_by_pred)
        table.cell(v / n_benches, "%.3f");
    table.print(std::cout);

    double real_mean = mean_by_pred[0] / n_benches;
    double ltage_mean = mean_by_pred.back() / n_benches;
    std::cout << "\nL-TAGE improves average MPKI by "
              << strprintf("%.0f%%",
                           100.0 * (real_mean - ltage_mean) / real_mean)
              << " over the real predictor (paper: 37%, 6.306 -> "
                 "3.995)\n";
    std::cout << "(GAs MPKI decreases monotonically with size, as in "
                 "the paper: 8KB 5.729, 16KB 5.542)\n";

    if (!scale.csvPath.empty())
        csv.writeCsv(scale.csvPath);
    bench::finishTelemetry(scale);
    return 0;
}
