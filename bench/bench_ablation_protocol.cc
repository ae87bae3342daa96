/**
 * @file
 * Ablation: the measurement protocol (Section 5.5/5.7 methodology).
 *
 * The paper runs each configuration five times on a quiesced, pinned
 * system and keeps the median-cycle run. This bench quantifies what
 * each of those choices buys: it repeats the perlbench campaign under
 * degraded protocols and reports how the regression model's quality
 * decays — slope error against the noise-free ground truth, r², and
 * the width of the perfect-prediction interval.
 */

#include <cmath>
#include <iostream>

#include "bench_common.hh"
#include "interferometry/model.hh"
#include "util/table.hh"
#include "workloads/spec.hh"

using namespace interf;
using namespace interf::interferometry;

namespace
{

struct Protocol
{
    const char *label;
    u32 runsPerGroup;
    bool quiescent;
    double jitterSigma;
    double spikeProb;
};

} // anonymous namespace

int
main(int argc, char **argv)
{
    OptionParser opts("bench_ablation_protocol",
                      "ablation: runs-per-group, median filtering and "
                      "system quiescing");
    bench::addScaleOptions(opts, 40, 300000);
    opts.addString("benchmark", "400.perlbench", "benchmark to study");
    opts.parse(argc, argv);
    auto scale = bench::readScale(opts, bench::kModelLayouts);
    bench::rejectOnly(scale);
    const std::string name = opts.getString("benchmark");
    const auto &profile = workloads::specFor(name).profile;

    // Ground truth: a noise-free campaign.
    double true_slope, true_intercept;
    {
        auto cfg = bench::campaignConfig(scale);
        cfg.runner.noise = core::NoiseConfig::none();
        cfg.runner.runsPerGroup = 1;
        Campaign camp(profile, cfg);
        PerformanceModel model(name,
                               camp.measureLayouts(0, scale.layouts));
        true_slope = model.branchModel().fit.slope();
        true_intercept = model.branchModel().fit.intercept();
    }

    std::cout << "Protocol ablation on " << name << " (" << scale.layouts
              << " layouts); noise-free truth: slope "
              << strprintf("%.5f", true_slope) << ", intercept "
              << strprintf("%.4f", true_intercept) << "\n\n";

    const Protocol protocols[] = {
        {"paper: median-of-5, quiesced", 5, true, 0.002, 0.04},
        {"median-of-3, quiesced", 3, true, 0.002, 0.04},
        {"single run, quiesced", 1, true, 0.002, 0.04},
        {"median-of-5, noisy system", 5, false, 0.002, 0.04},
        {"single run, noisy system", 1, false, 0.002, 0.04},
    };

    TableWriter table;
    table.addColumn("protocol", Align::Left);
    table.addColumn("slope");
    table.addColumn("slope err%");
    table.addColumn("r2");
    table.addColumn("t");
    table.addColumn("PI width @0");

    for (const auto &proto : protocols) {
        auto cfg = bench::campaignConfig(scale);
        cfg.runner.runsPerGroup = proto.runsPerGroup;
        cfg.runner.noise.quiescent = proto.quiescent;
        cfg.runner.noise.jitterSigma = proto.jitterSigma;
        cfg.runner.noise.spikeProb = proto.spikeProb;
        Campaign camp(profile, cfg);
        PerformanceModel model(name,
                               camp.measureLayouts(0, scale.layouts));
        const auto &fit = model.branchModel().fit;
        table.beginRow();
        table.cell(std::string(proto.label));
        table.cell(fit.slope(), "%.5f");
        table.cell(100.0 * (fit.slope() - true_slope) /
                       std::fabs(true_slope),
                   "%+.1f");
        table.cell(fit.r2(), "%.3f");
        table.cell(model.branchModel().test.statistic, "%.2f");
        table.cell(model.predictionInterval(0.0).width(), "%.4f");
    }
    table.print(std::cout);
    std::cout << "\nReading the table: measurement noise attenuates r² "
                 "and widens the perfect-prediction interval; the "
                 "median-of-five protocol recovers most of the loss, "
                 "and quiescing the system is worth more than extra "
                 "repetitions — the paper's §5.5 choices in numbers.\n";
    bench::finishTelemetry(scale);
    return 0;
}
