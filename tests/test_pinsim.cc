/** @file Tests for the Pin-style functional predictor simulator. */

#include <gtest/gtest.h>

#include "bpred/factory.hh"
#include "bpred/ltage.hh"
#include "layout/linker.hh"
#include "pinsim/pinsim.hh"
#include "trace/generator.hh"
#include "trace/replay.hh"
#include "workloads/builder.hh"
#include "workloads/spec.hh"

namespace
{

using namespace interf;
using namespace interf::pinsim;

struct Fixture
{
    trace::Program prog;
    trace::Trace trace;
    layout::CodeLayout code;

    Fixture()
        : prog(workloads::buildProgram(workloads::defaultProfile("pin"))),
          trace(trace::TraceGenerator(prog, 4).makeTrace(80000)),
          code(layout::Linker().link(prog,
                                     layout::LayoutKey{9, true, true}))
    {
    }
};

Fixture &
fixture()
{
    static Fixture f;
    return f;
}

TEST(PinSim, PerfectPredictorHasZeroMpki)
{
    PinSim sim({"perfect"});
    auto res = sim.run(fixture().prog, fixture().trace, fixture().code);
    ASSERT_EQ(res.size(), 1u);
    EXPECT_EQ(res[0].mispredicts, 0u);
    EXPECT_DOUBLE_EQ(res[0].mpki(), 0.0);
    EXPECT_DOUBLE_EQ(res[0].accuracy(), 1.0);
}

TEST(PinSim, BranchCountMatchesTrace)
{
    PinSim sim({"bimodal:1024"});
    auto &f = fixture();
    auto res = sim.run(f.prog, f.trace, f.code);
    EXPECT_EQ(res[0].branches, f.trace.condBranches);
    EXPECT_EQ(res[0].instructions, f.trace.instCount);
}

TEST(PinSim, NoVarianceAcrossRepeatedRuns)
{
    // "Pin runs only once for each reordering; ... there is no variance
    // in the simulation result."
    PinSim sim({"gas:4096:8", "ltage"});
    auto &f = fixture();
    auto a = sim.run(f.prog, f.trace, f.code);
    auto b = sim.run(f.prog, f.trace, f.code);
    for (size_t i = 0; i < a.size(); ++i)
        EXPECT_EQ(a[i].mispredicts, b[i].mispredicts);
}

TEST(PinSim, AllPredictorsSeeSameBranches)
{
    PinSim sim({"bimodal:64", "gas:4096:8", "gshare:8192:10", "ltage",
                "perfect"});
    auto &f = fixture();
    auto res = sim.run(f.prog, f.trace, f.code);
    for (const auto &r : res)
        EXPECT_EQ(r.branches, res[0].branches);
}

TEST(PinSim, AccuracyOrderingSensible)
{
    PinSim sim({"bimodal:64", "gas:8192:10", "ltage", "perfect"});
    auto &f = fixture();
    auto res = sim.run(f.prog, f.trace, f.code);
    // tiny bimodal >= GAs >= ltage >= perfect in mispredictions.
    EXPECT_GE(res[0].mispredicts, res[1].mispredicts);
    EXPECT_GE(res[1].mispredicts, res[2].mispredicts);
    EXPECT_GE(res[2].mispredicts, res[3].mispredicts);
    EXPECT_GT(res[0].mispredicts, res[2].mispredicts);
}

TEST(PinSim, LayoutChangesMpki)
{
    PinSim sim({"gshare:1024:8"});
    auto &f = fixture();
    layout::Linker linker;
    auto l1 = linker.link(f.prog, layout::LayoutKey{1, true, true});
    auto l2 = linker.link(f.prog, layout::LayoutKey{2, true, true});
    auto a = sim.run(f.prog, f.trace, l1);
    auto b = sim.run(f.prog, f.trace, l2);
    EXPECT_NE(a[0].mispredicts, b[0].mispredicts)
        << "aliasing must depend on code placement";
    // Branch counts are layout-invariant.
    EXPECT_EQ(a[0].branches, b[0].branches);
}

TEST(PinSim, PredictorNamesExposed)
{
    PinSim sim({"ltage", "perfect"});
    EXPECT_EQ(sim.numPredictors(), 2u);
    EXPECT_NE(sim.predictorName(0).find("ltage"), std::string::npos);
    EXPECT_EQ(sim.predictorName(1), "perfect");
}

TEST(PinSim, AverageMpkiAveragesPerPredictor)
{
    std::vector<std::vector<PredictorResult>> per_layout(2);
    PredictorResult r;
    r.instructions = 1000;
    r.branches = 100;
    r.mispredicts = 10; // 10 MPKI
    per_layout[0].push_back(r);
    r.mispredicts = 20; // 20 MPKI
    per_layout[1].push_back(r);
    auto avg = averageMpki(per_layout);
    ASSERT_EQ(avg.size(), 1u);
    EXPECT_DOUBLE_EQ(avg[0], 15.0);
}

TEST(PinSim, CandidateSetRunsOnSuiteWorkload)
{
    auto specs = bpred::figureCandidateSpecs();
    PinSim sim(specs);
    auto &f = fixture();
    auto res = sim.run(f.prog, f.trace, f.code);
    ASSERT_EQ(res.size(), specs.size());
    for (const auto &r : res) {
        EXPECT_GT(r.branches, 0u);
        EXPECT_GT(r.accuracy(), 0.5);
    }
}

// --- Golden mispredict counts ---------------------------------------
//
// Exact counts captured from the reference L-TAGE implementation (a
// vector-of-vectors of 16-byte entries and out-of-line folded-history
// registers). Any change to the predictors' hot paths must reproduce
// them bit for bit: the Figure 7/8 MPKIs are fed to the regression, so
// a "harmless" one-mispredict drift changes the paper's numbers.

constexpr u64 kGoldenInstructions = 100000;
constexpr size_t kGoldenProfiles = 3;
constexpr size_t kGoldenLayouts = 4;
const char *const kGoldenProfileNames[kGoldenProfiles] = {
    "403.gcc", "429.mcf", "445.gobmk"};

struct GoldenWorkload
{
    trace::Program prog;
    trace::Trace trace;
    trace::ReplayPlan plan;
    std::vector<layout::CodeLayout> codes;
    std::vector<trace::LayoutTables> tables;

    explicit GoldenWorkload(const workloads::WorkloadProfile &profile)
        : prog(workloads::buildProgram(profile)),
          trace(trace::TraceGenerator(prog, profile.behaviourSeed)
                    .makeTrace(kGoldenInstructions)),
          plan(prog, trace)
    {
        for (u64 seed = 1; seed <= kGoldenLayouts; ++seed) {
            codes.push_back(layout::Linker().link(
                prog, layout::LayoutKey{seed, true, true}));
            tables.emplace_back(plan, codes.back());
        }
    }
};

const std::vector<GoldenWorkload> &
goldenWorkloads()
{
    static const std::vector<GoldenWorkload> all = [] {
        std::vector<GoldenWorkload> w;
        for (const char *name : kGoldenProfileNames)
            w.emplace_back(workloads::specFor(name).profile);
        return w;
    }();
    return all;
}

/** Mispredicts of @p pred over one layout's branch stream, one
 *  predictAndTrain call per branch from power-on state. */
Count
perBranchMispredicts(bpred::BranchPredictor &pred,
                     const trace::ReplayPlan &plan,
                     const trace::LayoutTables &tables)
{
    pred.reset();
    Count miss = 0;
    for (size_t j = 0; j < plan.condSite.size(); ++j) {
        const bool taken = plan.condTaken[j] != 0;
        miss += pred.predictAndTrain(tables.branchAddr[plan.condSite[j]],
                                     taken) != taken;
    }
    return miss;
}

/** Conditional branches per golden profile (layout-invariant). */
const Count kGoldenBranches[kGoldenProfiles] = {19810, 16489, 16480};

/** [profile][layout][figureCandidateSpecs() predictor]. */
const Count kGoldenCandidateMispredicts[kGoldenProfiles][kGoldenLayouts][5] =
    {
        {{1426, 1443, 1409, 1298, 783},
         {1436, 1455, 1400, 1360, 817},
         {1419, 1421, 1388, 1337, 805},
         {1445, 1453, 1404, 1307, 790}},
        {{1587, 1472, 1364, 1354, 970},
         {1587, 1472, 1411, 1346, 853},
         {1587, 1472, 1393, 1355, 874},
         {1587, 1472, 1411, 1342, 892}},
        {{1380, 1312, 1238, 1100, 741},
         {1380, 1312, 1188, 1130, 687},
         {1380, 1312, 1183, 1113, 695},
         {1380, 1312, 1142, 1082, 664}},
};

/** [config][profile][layout] for the three direct LtageConfigs below. */
const Count kGoldenLtageMispredicts[3][kGoldenProfiles][kGoldenLayouts] = {
    {{1000, 1006, 1038, 1010}, {1243, 1246, 1241, 1260}, {925, 917, 937, 935}},
    {{782, 824, 805, 790}, {971, 854, 874, 894}, {746, 690, 693, 660}},
    {{835, 847, 818, 818}, {969, 868, 905, 923}, {778, 730, 734, 669}},
};

TEST(PinSimGolden, CandidateMispredictsBitIdentical)
{
    const auto specs = bpred::figureCandidateSpecs();
    ASSERT_EQ(specs.size(), 5u);
    PinSim sim(specs);
    for (size_t p = 0; p < kGoldenProfiles; ++p) {
        const GoldenWorkload &w = goldenWorkloads()[p];
        for (size_t l = 0; l < kGoldenLayouts; ++l) {
            auto res = sim.replay(w.plan, w.tables[l]);
            ASSERT_EQ(res.size(), specs.size());
            for (size_t i = 0; i < res.size(); ++i) {
                EXPECT_EQ(res[i].branches, kGoldenBranches[p]);
                EXPECT_EQ(res[i].mispredicts,
                          kGoldenCandidateMispredicts[p][l][i])
                    << kGoldenProfileNames[p] << " layout " << l << " "
                    << specs[i];
            }
        }
    }
}

TEST(PinSimGolden, LtageConfigMispredictsBitIdentical)
{
    // Loop predictor off; aging every 4096 branches (fires several
    // times per stream); the 4-table small configuration.
    bpred::LtageConfig no_loop;
    no_loop.enableLoopPredictor = false;
    bpred::LtageConfig aging;
    aging.uResetPeriod = 1 << 12;
    bpred::LtageConfig small;
    small.numTables = 4;
    small.maxHistory = 64;
    small.logTaggedEntries = 7;
    small.logBimodalEntries = 9;
    const bpred::LtageConfig configs[] = {no_loop, aging, small};
    for (size_t c = 0; c < 3; ++c) {
        bpred::LtagePredictor pred(configs[c]);
        for (size_t p = 0; p < kGoldenProfiles; ++p) {
            const GoldenWorkload &w = goldenWorkloads()[p];
            for (size_t l = 0; l < kGoldenLayouts; ++l)
                EXPECT_EQ(perBranchMispredicts(pred, w.plan, w.tables[l]),
                          kGoldenLtageMispredicts[c][p][l])
                    << "config " << c << " " << kGoldenProfileNames[p]
                    << " layout " << l;
        }
    }
}

/** run() (event-walking adapter) and replay() agree on every
 *  candidate predictor, field by field. */
TEST(PinSimGolden, RunEqualsReplayForEveryCandidate)
{
    const auto specs = bpred::figureCandidateSpecs();
    PinSim a(specs), b(specs);
    for (const GoldenWorkload &w : goldenWorkloads()) {
        for (size_t l = 0; l < kGoldenLayouts; ++l) {
            auto slow = a.run(w.prog, w.trace, w.codes[l]);
            auto fast = b.replay(w.plan, w.tables[l]);
            ASSERT_EQ(slow.size(), fast.size());
            for (size_t i = 0; i < slow.size(); ++i) {
                EXPECT_EQ(slow[i].name, fast[i].name);
                EXPECT_EQ(slow[i].branches, fast[i].branches);
                EXPECT_EQ(slow[i].mispredicts, fast[i].mispredicts);
                EXPECT_EQ(slow[i].instructions, fast[i].instructions);
            }
        }
    }
}

} // anonymous namespace
