/** @file Tests for the median-of-five, three-group measurement
 *  protocol. */

#include <cmath>

#include <gtest/gtest.h>

#include "core/runner.hh"
#include "layout/linker.hh"
#include "trace/replay.hh"
#include "trace/generator.hh"
#include "workloads/builder.hh"

namespace
{

using namespace interf;
using namespace interf::core;

struct Fixture
{
    trace::Program prog;
    trace::Trace trace;
    layout::CodeLayout code;
    layout::HeapLayout heap;
    trace::ReplayPlan plan;
    trace::LayoutTables tables; ///< Identity page map.

    Fixture()
        : prog(workloads::buildProgram(workloads::defaultProfile("run"))),
          trace(trace::TraceGenerator(prog, 2).makeTrace(80000)),
          code(layout::Linker().link(prog,
                                     layout::LayoutKey{5, true, true})),
          heap(prog, layout::HeapKey::deterministic()),
          plan(prog, trace),
          tables(plan, code, heap, layout::PageMap(),
                 MachineConfig::xeonE5440().hierarchy.l1i.lineBytes)
    {
    }
};

Fixture &
fixture()
{
    static Fixture f;
    return f;
}

TEST(Runner, NoiselessMeasurementMatchesTruth)
{
    RunnerConfig rc;
    rc.noise = NoiseConfig::none();
    MeasurementRunner runner(MachineConfig::xeonE5440(), rc);
    auto &f = fixture();
    auto run = runner.measureWithTruth(f.plan, f.tables, 1);
    const auto &m = run.sample;
    const auto &truth = run.truth;
    EXPECT_EQ(m.cycles, truth.cycles);
    EXPECT_EQ(m.instructions, truth.instructions);
    EXPECT_EQ(m.mispredicts, truth.mispredicts);
    EXPECT_EQ(m.l1iMisses, truth.l1iMisses);
    EXPECT_EQ(m.l2Misses, truth.l2Misses);
    // The truth is the machine's own run of the same layout.
    EXPECT_EQ(truth.cycles,
              Machine(MachineConfig::xeonE5440())
                  .run(f.prog, f.trace, f.code, f.heap)
                  .cycles);
}

TEST(Runner, DerivedRatesConsistent)
{
    RunnerConfig rc;
    rc.noise = NoiseConfig::none();
    MeasurementRunner runner(MachineConfig::xeonE5440(), rc);
    auto &f = fixture();
    auto m = runner.measure(f.plan, f.tables, 1);
    double kilo = double(m.instructions) / 1000.0;
    EXPECT_NEAR(m.mpki, double(m.mispredicts) / kilo, 1e-12);
    EXPECT_NEAR(m.l1iMpki, double(m.l1iMisses) / kilo, 1e-12);
    EXPECT_NEAR(m.l2Mpki, double(m.l2Misses) / kilo, 1e-12);
    EXPECT_NEAR(m.cpi, double(m.cycles) / double(m.instructions), 1e-12);
}

TEST(Runner, EventCountsImmuneToNoise)
{
    // User-mode event filtering: only cycles carry noise.
    RunnerConfig noisy;
    noisy.noise.jitterSigma = 0.01;
    noisy.noise.spikeProb = 0.3;
    RunnerConfig clean;
    clean.noise = NoiseConfig::none();
    MeasurementRunner a(MachineConfig::xeonE5440(), noisy);
    MeasurementRunner b(MachineConfig::xeonE5440(), clean);
    auto &f = fixture();
    auto ma = a.measure(f.plan, f.tables, 1);
    auto mb = b.measure(f.plan, f.tables, 1);
    EXPECT_EQ(ma.mispredicts, mb.mispredicts);
    EXPECT_EQ(ma.l1dMisses, mb.l1dMisses);
    EXPECT_EQ(ma.btbMisses, mb.btbMisses);
    EXPECT_NE(ma.cycles, mb.cycles);
}

TEST(Runner, MedianOfFiveBeatsSingleRun)
{
    RunnerConfig rc;
    rc.noise.jitterSigma = 0.004;
    rc.noise.spikeProb = 0.25;
    rc.noise.spikeMax = 0.08;
    auto &f = fixture();

    MeasurementRunner five(MachineConfig::xeonE5440(), rc);
    auto truth_runner = MeasurementRunner(
        MachineConfig::xeonE5440(),
        RunnerConfig{1, NoiseConfig::none()});
    auto truth = truth_runner
                     .measure(f.plan, f.tables, 0)
                     .cycles;

    RunnerConfig one = rc;
    one.runsPerGroup = 1;
    MeasurementRunner single(MachineConfig::xeonE5440(), one);

    double err5 = 0, err1 = 0;
    for (u64 seed = 0; seed < 12; ++seed) {
        auto m5 = five.measure(f.plan, f.tables, seed);
        auto m1 = single.measure(f.plan, f.tables, seed);
        err5 += std::fabs(double(m5.cycles) - double(truth));
        err1 += std::fabs(double(m1.cycles) - double(truth));
    }
    EXPECT_LT(err5, err1);
}

TEST(Runner, ReproduciblePerNoiseSeed)
{
    RunnerConfig rc;
    MeasurementRunner runner(MachineConfig::xeonE5440(), rc);
    auto &f = fixture();
    auto a = runner.measure(f.plan, f.tables, 77);
    auto b = runner.measure(f.plan, f.tables, 77);
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.cpi, b.cpi);
}

TEST(Runner, LayoutSeedRecorded)
{
    RunnerConfig rc;
    MeasurementRunner runner(MachineConfig::xeonE5440(), rc);
    auto &f = fixture();
    auto m = runner.measure(f.plan, f.tables, 1234);
    EXPECT_EQ(m.layoutSeed, 1234u);
}

TEST(RunnerDeathTest, ZeroRunsIsFatal)
{
    RunnerConfig rc;
    rc.runsPerGroup = 0;
    EXPECT_EXIT(MeasurementRunner(MachineConfig::xeonE5440(), rc),
                ::testing::ExitedWithCode(1), "runsPerGroup");
}

} // anonymous namespace
