/**
 * @file
 * Building your own workload.
 *
 * The shipped suite models SPEC CPU 2006, but interferometry is a
 * general tool: any workload expressible as a WorkloadProfile (branch
 * character, working sets, code structure) can be measured. This
 * example models a little "key-value store" service — pointer-chasing
 * lookups over a heap-resident index, an unpredictable hit/miss branch
 * per request, a hot dispatch loop — runs a campaign on it, and asks
 * the two questions an architect would: how much is branch prediction
 * costing this service, and would an L-TAGE-class predictor help?
 */

#include <cstdlib>
#include <iostream>

#include "bpred/factory.hh"
#include "interferometry/campaign.hh"
#include "interferometry/model.hh"
#include "interferometry/predict.hh"
#include "interferometry/report.hh"
#include "pinsim/pinsim.hh"
#include "util/logging.hh"
#include "workloads/profile.hh"

using namespace interf;
using namespace interf::interferometry;

namespace
{

workloads::WorkloadProfile
kvStoreProfile()
{
    workloads::WorkloadProfile p;
    p.name = "kvstore";
    p.structureSeed = 0xcafe01;
    p.behaviourSeed = 0xcafe02;

    // Code: a modest service — dispatch loop, parsing, hash probing.
    p.procedures = 90;
    p.hotProcedures = 45;
    p.objectFiles = 14;
    p.meanBlocksPerProc = 9;
    p.callDensity = 0.12;
    p.indirectDensity = 0.02; // request-type dispatch

    // Branches: the hit/miss check per probe is data-dependent noise;
    // the rest is loop structure and well-biased validation checks.
    p.condFraction = 0.45;
    p.fracBiased = 0.40;
    p.fracPeriodic = 0.30;
    p.fracHistory = 0.12;
    p.fracRandom = 0.15; // hash hit/miss: unpredictable
    p.biasMin = 0.90;
    p.biasMax = 0.99;

    // Data: a heap-resident index too big for L1, mostly L2-resident,
    // with a tail of cold objects.
    p.loadsPerInst = 0.26;
    p.storesPerInst = 0.08;
    p.l1WorkingSet = 24 << 10;
    p.l2WorkingSet = 3 << 20;
    p.memWorkingSet = 64 << 20;
    p.fracL1 = 0.78;
    p.fracL2 = 0.18;
    p.fracMem = 0.04;
    p.heapFraction = 1.0; // everything allocated
    p.branchLoadDepProb = 0.35; // hit/miss branch waits on the probe load
    p.depLoadSlowTier = 0.5;

    p.meanExtraExecCycles = 0.8;
    p.validate();
    return p;
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    u32 layouts = argc > 1 ? std::atoi(argv[1]) : 40;
    u32 jobs = argc > 2 ? std::atoi(argv[2]) : 0;

    auto profile = kvStoreProfile();
    CampaignConfig cfg;
    cfg.instructionBudget = 400000;
    cfg.initialLayouts = layouts;
    cfg.maxLayouts = layouts * 3; // allow paper-style escalation
    cfg.jobs = jobs; // 0 = all cores; results identical at any value
    Campaign campaign(profile, cfg);

    std::cout << "Custom workload '" << profile.name << "': "
              << campaign.program().procedures().size()
              << " procedures, "
              << (campaign.program().totalCodeBytes() >> 10)
              << " KB text, "
              << campaign.trace().instCount << " instructions/run\n\n";

    auto result = campaign.run();
    if (!result.significant) {
        std::cout << "no significant CPI~MPKI correlation ("
                  << (result.enoughMpkiRange
                          ? "t-test failed"
                          : "not enough MPKI range")
                  << ") — this workload's performance is not "
                     "branch-bound; interferometry says so honestly\n";
        return 0;
    }

    PerformanceModel model(profile.name, result.samples);
    std::cout << "campaign: " << result.layoutsUsed << " layouts, "
              << regressionLine(model) << "\n\n";

    // Question 1: what is branch prediction costing us?
    PredictorEvaluator eval(model, model.meanCpi());
    auto perfect = eval.evaluatePerfect();
    std::cout << "cost of mispredictions today: "
              << strprintf("%.1f%% of cycles", 100 * perfect.improvementVsReal)
              << strprintf("  (CPI %.3f -> %.3f [%.3f, %.3f])",
                           model.meanCpi(), perfect.cpi, perfect.pi.lo,
                           perfect.pi.hi)
              << '\n';

    // Question 2: would an L-TAGE-class front end help?
    pinsim::PinSim sim({"ltage"});
    std::vector<std::vector<pinsim::PredictorResult>> runs;
    for (u32 i = 0; i < std::min(layouts, 16u); ++i)
        runs.push_back(sim.replay(
            campaign.plan(),
            trace::LayoutTables(campaign.plan(), campaign.codeLayoutFor(i))));
    double ltage_mpki = pinsim::averageMpki(runs)[0];
    auto ltage = eval.evaluate("ltage", ltage_mpki);
    std::cout << "L-TAGE-class predictor:       "
              << strprintf("%+.1f%%", 100 * ltage.improvementVsReal)
              << strprintf("  (MPKI %.2f -> %.2f, CPI %.3f [%.3f, %.3f])",
                           model.meanMpki(), ltage_mpki, ltage.cpi,
                           ltage.pi.lo, ltage.pi.hi)
              << '\n';

    std::cout << "\nSwap kvStoreProfile() for your own service's "
                 "character and re-run — no simulator of your whole "
                 "machine required.\n";
    return 0;
}
