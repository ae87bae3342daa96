/** @file Cross-cutting property tests: invariants that must hold for
 *  every benchmark, seed, and geometry — the guarantees program
 *  interferometry rests on. */

#include <algorithm>
#include <map>
#include <set>

#include <gtest/gtest.h>

#include "bpred/factory.hh"
#include "cache/cache.hh"
#include "interferometry/campaign.hh"
#include "layout/linker.hh"
#include "layout/pagemap.hh"
#include "pinsim/pinsim.hh"
#include "trace/generator.hh"
#include "stats/distributions.hh"
#include "stats/regression.hh"
#include "util/random.hh"
#include "workloads/builder.hh"
#include "workloads/spec.hh"

namespace
{

using namespace interf;

// ---------------------------------------------------------------------
// Property 1: the interferometry invariant. For every suite benchmark,
// every layout retires identical work; only addresses (and therefore
// timing) change.

class LayoutInvariance : public ::testing::TestWithParam<std::string>
{
};

TEST_P(LayoutInvariance, SemanticsFixedAddressesMoving)
{
    auto spec = workloads::specFor(GetParam());
    interferometry::CampaignConfig cfg;
    cfg.instructionBudget = 60000;
    interferometry::Campaign camp(spec.profile, cfg);
    auto samples = camp.measureLayouts(0, 4);
    for (const auto &m : samples) {
        EXPECT_EQ(m.instructions, samples[0].instructions);
        EXPECT_EQ(m.condBranches, samples[0].condBranches);
        EXPECT_GE(m.mpki, 0.0);
        EXPECT_GT(m.cpi, 0.2);
    }
    // Addresses genuinely move between layouts.
    auto a = camp.codeLayoutFor(0);
    auto b = camp.codeLayoutFor(1);
    int moved = 0;
    for (u32 p = 0; p < camp.program().procedures().size(); ++p)
        moved += a.procBase(p) != b.procBase(p);
    EXPECT_GT(moved, 0);
}

INSTANTIATE_TEST_SUITE_P(
    Suite, LayoutInvariance,
    ::testing::Values("400.perlbench", "429.mcf", "434.zeusmp",
                      "445.gobmk", "454.calculix", "470.lbm",
                      "483.xalancbmk"),
    [](const ::testing::TestParamInfo<std::string> &info) {
        std::string name = info.param;
        for (auto &ch : name)
            if (!isalnum(static_cast<unsigned char>(ch)))
                ch = '_';
        return name;
    });

// ---------------------------------------------------------------------
// Property 2: predictor quality ordering holds across workload seeds,
// not just the one we tuned on.

class PredictorOrdering : public ::testing::TestWithParam<u64>
{
};

TEST_P(PredictorOrdering, PerfectBeatsLtageBeatsTinyBimodal)
{
    auto profile = workloads::defaultProfile("order");
    profile.structureSeed = GetParam();
    profile.behaviourSeed = GetParam() + 1;
    auto prog = workloads::buildProgram(profile);
    auto trace =
        trace::TraceGenerator(prog, profile.behaviourSeed).makeTrace(60000);
    auto code = layout::Linker().link(
        prog, layout::LayoutKey{GetParam(), true, true});

    pinsim::PinSim sim({"perfect", "ltage", "bimodal:64"});
    auto res = sim.run(prog, trace, code);
    EXPECT_EQ(res[0].mispredicts, 0u);
    EXPECT_LE(res[1].mispredicts, res[2].mispredicts);
    EXPECT_LT(res[1].mispredicts, res[2].mispredicts)
        << "ltage must strictly beat a 64-byte bimodal";
}

INSTANTIATE_TEST_SUITE_P(Seeds, PredictorOrdering,
                         ::testing::Values(11u, 22u, 33u, 44u, 55u));

// ---------------------------------------------------------------------
// Property 3: larger caches never lose (statistically) on random
// traffic; same traffic, same seed, four geometries.

class CacheMonotonicity
    : public ::testing::TestWithParam<std::pair<u32, u32>>
{
};

TEST_P(CacheMonotonicity, BiggerCacheFewerMisses)
{
    auto [small_kb, big_kb] = GetParam();
    cache::Cache small({"s", small_kb << 10, 8, 64});
    cache::Cache big({"b", big_kb << 10, 8, 64});
    Rng rng(7);
    for (int i = 0; i < 200000; ++i) {
        Addr a = (rng.next() % (1u << 21)) & ~Addr{63}; // 2 MB span
        small.access(a);
        big.access(a);
    }
    EXPECT_LE(big.stats().misses, small.stats().misses);
}

INSTANTIATE_TEST_SUITE_P(Geometries, CacheMonotonicity,
                         ::testing::Values(std::make_pair(16u, 32u),
                                           std::make_pair(32u, 64u),
                                           std::make_pair(64u, 256u),
                                           std::make_pair(256u, 1024u)));

// ---------------------------------------------------------------------
// Property 4: the PageMap is a bijection (no two pages collide) and
// preserves page offsets.

class PageMapBijection : public ::testing::TestWithParam<u64>
{
};

TEST_P(PageMapBijection, NoCollisionsOffsetsPreserved)
{
    layout::PageMap map(GetParam());
    Rng rng(GetParam() ^ 0x1234);
    // Both directions over the random sample, local to this seed: the
    // same virtual page must always map to the same physical page
    // (forward), and no two virtual pages may share a physical one
    // (backward: injectivity across the sparse 16 TiB range).
    std::map<Addr, Addr> forward;
    std::map<Addr, Addr> backward;
    for (int i = 0; i < 20000; ++i) {
        Addr va = rng.next() & 0xffffffffffull; // low 16 TiB
        Addr pa = map.translate(va);
        EXPECT_EQ(pa & 0xfff, va & 0xfff) << "page offset must survive";
        Addr vpage = va >> 12;
        Addr ppage = pa >> 12;
        auto fwd = forward.try_emplace(vpage, ppage).first;
        EXPECT_EQ(fwd->second, ppage)
            << "page " << vpage << " translated two ways";
        auto bwd = backward.try_emplace(ppage, vpage).first;
        EXPECT_EQ(bwd->second, vpage)
            << "pages " << bwd->second << " and " << vpage
            << " collided under seed " << GetParam();
    }
    // Explicit injectivity check over a dense page range.
    std::set<u64> phys;
    for (u64 page = 0; page < 4096; ++page) {
        Addr pa = map.translate(page << 12);
        EXPECT_TRUE(phys.insert(pa >> 12).second)
            << "two pages collided under seed " << GetParam();
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PageMapBijection,
                         ::testing::Values(1u, 42u, 0xdeadbeefu));

TEST(PageMapProperties, IdentityIsIdentity)
{
    layout::PageMap identity;
    EXPECT_TRUE(identity.isIdentity());
    for (Addr a : {0x0ull, 0x400123ull, 0x7fff12345678ull})
        EXPECT_EQ(identity.translate(a), a);
}

TEST(PageMapProperties, SeedsGiveDifferentMappings)
{
    layout::PageMap a(1), b(2);
    int differ = 0;
    for (u64 page = 1; page <= 256; ++page)
        differ += a.translate(page << 12) != b.translate(page << 12);
    EXPECT_GT(differ, 200);
}

// ---------------------------------------------------------------------
// Property 5: 95% confidence intervals for the slope actually cover the
// true slope about 95% of the time.

TEST(RegressionProperties, SlopeCoverageNear95Percent)
{
    Rng rng(31);
    const double true_slope = 0.028, true_icept = 0.517;
    int covered = 0;
    const int trials = 300;
    for (int t = 0; t < trials; ++t) {
        std::vector<double> xs, ys;
        for (int i = 0; i < 40; ++i) {
            double x = 5.0 + rng.nextDouble() * 3.0;
            xs.push_back(x);
            ys.push_back(true_slope * x + true_icept +
                         rng.gaussian(0, 0.01));
        }
        stats::LinearFit fit(xs, ys);
        double nu = 38.0;
        double tq = stats::studentTQuantile(0.975, nu);
        double lo = fit.slope() - tq * fit.slopeStdError();
        double hi = fit.slope() + tq * fit.slopeStdError();
        covered += (true_slope >= lo && true_slope <= hi);
    }
    double rate = double(covered) / trials;
    EXPECT_GT(rate, 0.90);
    EXPECT_LT(rate, 0.99);
}

// ---------------------------------------------------------------------
// Property 6: campaign determinism end to end — two independently
// constructed campaigns at the same seeds agree bit for bit.

TEST(CampaignProperties, EndToEndDeterminism)
{
    for (const char *name : {"456.hmmer", "471.omnetpp"}) {
        auto spec = workloads::specFor(name);
        interferometry::CampaignConfig cfg;
        cfg.instructionBudget = 50000;
        cfg.randomizeHeap = true;
        interferometry::Campaign a(spec.profile, cfg);
        interferometry::Campaign b(spec.profile, cfg);
        auto sa = a.measureLayouts(0, 3);
        auto sb = b.measureLayouts(0, 3);
        for (size_t i = 0; i < sa.size(); ++i) {
            EXPECT_EQ(sa[i].cycles, sb[i].cycles) << name;
            EXPECT_EQ(sa[i].mispredicts, sb[i].mispredicts) << name;
            EXPECT_EQ(sa[i].l1dMisses, sb[i].l1dMisses) << name;
        }
    }
}

} // anonymous namespace
