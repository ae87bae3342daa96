/** @file Tests for the machine timing model — the properties program
 *  interferometry depends on. */

#include <limits>

#include <gtest/gtest.h>

#include "core/timing.hh"
#include "layout/heap.hh"
#include "layout/linker.hh"
#include "trace/generator.hh"
#include "workloads/builder.hh"
#include "workloads/spec.hh"

namespace
{

using namespace interf;
using namespace interf::core;

struct Bench
{
    trace::Program prog;
    trace::Trace trace;

    explicit Bench(const workloads::WorkloadProfile &profile,
                   u64 insts = 120000)
        : prog(workloads::buildProgram(profile)),
          trace(trace::TraceGenerator(prog, profile.behaviourSeed)
                    .makeTrace(insts))
    {
    }

    RunResult
    run(const MachineConfig &cfg, u64 layout_seed = 1,
        bool random_heap = false) const
    {
        layout::Linker linker;
        auto code = linker.link(prog, layout::LayoutKey{layout_seed,
                                                        true, true});
        layout::HeapKey hk;
        hk.seed = layout_seed;
        hk.randomize = random_heap;
        layout::HeapLayout heap(prog, hk);
        Machine machine(cfg);
        return machine.run(prog, trace, code, heap);
    }
};

const Bench &
testBench()
{
    static Bench bench(workloads::defaultProfile("timing"));
    return bench;
}

TEST(Timing, DeterministicRuns)
{
    auto cfg = MachineConfig::xeonE5440();
    auto a = testBench().run(cfg, 7);
    auto b = testBench().run(cfg, 7);
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.mispredicts, b.mispredicts);
    EXPECT_EQ(a.l1iMisses, b.l1iMisses);
    EXPECT_EQ(a.l2Misses, b.l2Misses);
}

TEST(Timing, MachineReusableAcrossRuns)
{
    auto cfg = MachineConfig::xeonE5440();
    Machine machine(cfg);
    layout::Linker linker;
    auto code = linker.link(testBench().prog,
                            layout::LayoutKey{3, true, true});
    layout::HeapLayout heap(testBench().prog,
                            layout::HeapKey::deterministic());
    auto a = machine.run(testBench().prog, testBench().trace, code, heap);
    auto b = machine.run(testBench().prog, testBench().trace, code, heap);
    EXPECT_EQ(a.cycles, b.cycles) << "state must reset between runs";
}

TEST(Timing, InstructionCountLayoutInvariant)
{
    auto cfg = MachineConfig::xeonE5440();
    auto a = testBench().run(cfg, 1);
    auto b = testBench().run(cfg, 2);
    // The Camino invariant: every layout retires identical work.
    EXPECT_EQ(a.instructions, b.instructions);
    EXPECT_EQ(a.condBranches, b.condBranches);
}

TEST(Timing, CyclesVaryAcrossLayouts)
{
    auto cfg = MachineConfig::xeonE5440();
    auto a = testBench().run(cfg, 1);
    auto b = testBench().run(cfg, 2);
    EXPECT_NE(a.cycles, b.cycles);
}

TEST(Timing, CpiBoundedBelowByWidth)
{
    auto cfg = MachineConfig::xeonE5440();
    auto res = testBench().run(cfg);
    EXPECT_GE(res.cpi(), 1.0 / cfg.width);
    EXPECT_LT(res.cpi(), 20.0);
}

TEST(Timing, PerfectPredictorRemovesAllMispredicts)
{
    auto cfg = MachineConfig::xeonE5440().withPredictor("perfect");
    auto res = testBench().run(cfg);
    EXPECT_EQ(res.mispredicts, 0u);
    EXPECT_DOUBLE_EQ(res.mpki(), 0.0);
}

TEST(Timing, PerfectPredictionIsFaster)
{
    auto base = MachineConfig::xeonE5440();
    auto real = testBench().run(base);
    auto perfect =
        testBench().run(base.withPredictor("perfect"));
    EXPECT_LT(perfect.cycles, real.cycles);
    EXPECT_GT(real.mispredicts, 0u);
}

TEST(Timing, BetterPredictorFewerMispredictsFasterRun)
{
    auto base = MachineConfig::xeonE5440();
    auto weak = testBench().run(base.withPredictor("bimodal:256"));
    auto strong = testBench().run(base.withPredictor("ltage"));
    EXPECT_LT(strong.mispredicts, weak.mispredicts);
    EXPECT_LT(strong.cycles, weak.cycles);
}

TEST(Timing, PredictorIsTheOnlyCounterThatChanges)
{
    // Varying only the predictor must leave cache and BTB counts
    // untouched (the MASE single-variable property, Section 3.2).
    auto base = MachineConfig::xeonE5440();
    auto a = testBench().run(base.withPredictor("bimodal:1024"));
    auto b = testBench().run(base.withPredictor("ltage"));
    EXPECT_EQ(a.l1iMisses, b.l1iMisses);
    EXPECT_EQ(a.l1dMisses, b.l1dMisses);
    EXPECT_EQ(a.l2Misses, b.l2Misses);
    EXPECT_EQ(a.btbMisses, b.btbMisses);
    EXPECT_EQ(a.instructions, b.instructions);
}

TEST(Timing, MispredictPenaltyScalesWithDepth)
{
    auto shallow = MachineConfig::xeonE5440();
    shallow.frontendDepth = 5;
    auto deep = MachineConfig::xeonE5440();
    deep.frontendDepth = 40;
    auto a = testBench().run(shallow);
    auto b = testBench().run(deep);
    EXPECT_EQ(a.mispredicts, b.mispredicts);
    EXPECT_LT(a.cycles, b.cycles);
    // Cycle delta ~ mispredicts * depth delta (within 50% slack from
    // other redirect costs).
    double delta = double(b.cycles - a.cycles);
    double expect = double(a.mispredicts) * 35.0;
    EXPECT_GT(delta, expect * 0.5);
    EXPECT_LT(delta, expect * 1.5);
}

TEST(Timing, MemoryLatencyMatters)
{
    auto profile = workloads::defaultProfile("memtest");
    profile.fracMem = 0.1;
    profile.fracL1 = 0.8;
    profile.fracL2 = 0.1;
    profile.memWorkingSet = 32 << 20;
    Bench bench(profile);
    auto fast = MachineConfig::xeonE5440();
    fast.memLatency = 60;
    auto slow = MachineConfig::xeonE5440();
    slow.memLatency = 400;
    EXPECT_LT(bench.run(fast).cycles, bench.run(slow).cycles);
}

TEST(Timing, MlpOverlapReducesMemoryCost)
{
    auto profile = workloads::defaultProfile("mlptest");
    profile.fracMem = 0.15;
    profile.fracL1 = 0.75;
    profile.fracL2 = 0.1;
    profile.memWorkingSet = 32 << 20;
    Bench bench(profile);
    auto serial = MachineConfig::xeonE5440();
    serial.maxMlp = 1;
    auto parallel = MachineConfig::xeonE5440();
    parallel.maxMlp = 8;
    auto a = bench.run(serial);
    auto b = bench.run(parallel);
    EXPECT_EQ(a.l2Misses, b.l2Misses);
    EXPECT_GT(a.cycles, b.cycles);
}

TEST(Timing, WarmupExcludesColdStart)
{
    auto no_warm = MachineConfig::xeonE5440();
    no_warm.warmupFraction = 0.0;
    auto warm = MachineConfig::xeonE5440();
    warm.warmupFraction = 0.5;
    auto a = testBench().run(no_warm);
    auto b = testBench().run(warm);
    EXPECT_GT(a.instructions, b.instructions);
    // Cold-start misses make the unwarmed CPI higher.
    EXPECT_GT(a.perKilo(a.l2Misses), b.perKilo(b.l2Misses));
}

TEST(Timing, HeapRandomizationPerturbsDataCaches)
{
    // Figure 3's mechanism: with randomize=true, different heap seeds
    // give different L1D/L2 miss counts for the same code layout.
    auto spec = workloads::specFor("454.calculix");
    Bench bench(spec.profile);
    layout::Linker linker;
    auto code = linker.link(bench.prog, layout::LayoutKey{1, true, true});
    Machine machine(MachineConfig::xeonE5440());
    layout::HeapKey h1, h2;
    h1.seed = 1;
    h2.seed = 2;
    auto a = machine.run(bench.prog, bench.trace, code,
                         layout::HeapLayout(bench.prog, h1));
    auto b = machine.run(bench.prog, bench.trace, code,
                         layout::HeapLayout(bench.prog, h2));
    EXPECT_NE(a.l1dMisses, b.l1dMisses);
    // Branch behaviour is untouched by data placement.
    EXPECT_EQ(a.mispredicts, b.mispredicts);
}

TEST(Timing, L2BreakdownSumsToTotal)
{
    auto res = testBench().run(MachineConfig::xeonE5440());
    EXPECT_EQ(res.l2Misses,
              res.l2InstMisses + res.l2PrefMisses + res.l2DataMisses);
}

TEST(Timing, RunResultHelpers)
{
    RunResult r;
    r.cycles = 2000;
    r.instructions = 1000;
    r.mispredicts = 5;
    EXPECT_DOUBLE_EQ(r.cpi(), 2.0);
    EXPECT_DOUBLE_EQ(r.mpki(), 5.0);
    EXPECT_DOUBLE_EQ(r.perKilo(20), 20.0);
}

TEST(TimingDeathTest, InvalidConfigIsFatal)
{
    auto cfg = MachineConfig::xeonE5440();
    cfg.width = 0;
    EXPECT_EXIT(Machine{cfg}, ::testing::ExitedWithCode(1), "width");
    // The BTB geometry rule is Btb's own, ways cap included.
    auto wide_btb = MachineConfig::xeonE5440();
    wide_btb.btbWays = 33;
    EXPECT_EXIT(wide_btb.validate(), ::testing::ExitedWithCode(1),
                "exceeds 32");
}

/** A mispredict's cycle charge, frontendDepth plus at most memLatency,
 *  is stored in a CycleDelta: a memLatency one cycle past what fits is
 *  fatal, and the largest that fits is valid. */
TEST(TimingDeathTest, MemLatencyPastTheCycleDeltaIsFatal)
{
    auto cfg = MachineConfig::xeonE5440();
    cfg.memLatency =
        std::numeric_limits<CycleDelta>::max() - cfg.frontendDepth;
    cfg.validate();
    cfg.memLatency += 1;
    EXPECT_EXIT(cfg.validate(), ::testing::ExitedWithCode(1),
                "memLatency 65520 with frontendDepth 16 exceeds");
}

/** A mispredict suppresses a taken branch's misfetch, so the cycle sum
 *  subtracts misfetchPenalty from a charge of at least frontendDepth +
 *  1: a larger misfetchPenalty is fatal. */
TEST(TimingDeathTest, MisfetchPastTheFrontendRefillIsFatal)
{
    auto cfg = MachineConfig::xeonE5440();
    cfg.frontendDepth = 5;
    cfg.misfetchPenalty = 6;
    cfg.validate();
    cfg.misfetchPenalty = 7;
    EXPECT_EXIT(cfg.validate(), ::testing::ExitedWithCode(1),
                "misfetchPenalty 7 exceeds frontendDepth \\+ 1");
}

} // anonymous namespace
