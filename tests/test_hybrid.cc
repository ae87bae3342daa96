/** @file Tests for the hybrid (GAs/gshare + bimodal) predictor. */

#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <vector>

#include "bpred/bimodal.hh"
#include "bpred/hybrid.hh"
#include "bpred/ltage.hh"
#include "bpred/twolevel.hh"
#include "util/random.hh"

namespace
{

using namespace interf;
using namespace interf::bpred;

TEST(Hybrid, LearnsBiasedBranch)
{
    HybridPredictor pred(4096, 8, 1024, 1024);
    Addr pc = 0x400100;
    for (int i = 0; i < 64; ++i)
        pred.predictAndTrain(pc, true);
    int wrong = 0;
    for (int i = 0; i < 200; ++i)
        wrong += pred.predictAndTrain(pc, true) != true;
    EXPECT_EQ(wrong, 0);
}

TEST(Hybrid, LearnsPeriodicPatternViaGlobalComponent)
{
    HybridPredictor pred(8192, 8, 1024, 1024,
                         TwoLevelScheme::Gshare);
    Addr pc = 0x400200;
    auto outcome = [](int i) { return i % 4 != 0; };
    for (int i = 0; i < 500; ++i)
        pred.predictAndTrain(pc, outcome(i));
    int wrong = 0;
    for (int i = 500; i < 1000; ++i)
        wrong += pred.predictAndTrain(pc, outcome(i)) != outcome(i);
    EXPECT_LE(wrong, 5);
}

TEST(Hybrid, BeatsPureGlobalOnNoisyBranches)
{
    // A branch taken 90% at random: global history is useless noise,
    // the bimodal side nails it. The chooser should converge there.
    Rng rng(5);
    HybridPredictor hybrid(4096, 10, 1024, 1024,
                           TwoLevelScheme::Gshare);
    TwoLevelPredictor pure(TwoLevelScheme::Gshare, 4096, 10);
    Addr pc = 0x400300;
    int wrong_h = 0, wrong_p = 0;
    const int n = 8000;
    for (int i = 0; i < n; ++i) {
        bool t = rng.bernoulli(0.9);
        wrong_h += hybrid.predictAndTrain(pc, t) != t;
        wrong_p += pure.predictAndTrain(pc, t) != t;
    }
    EXPECT_LT(wrong_h, wrong_p);
    // Hybrid should approach the 10% floor.
    EXPECT_LT(wrong_h, n * 14 / 100);
}

TEST(Hybrid, ChooserAdaptsPerBranch)
{
    // Mix: one noisy-biased branch (bimodal wins) and one periodic
    // branch (global wins). The hybrid should do well on both at once.
    Rng rng(7);
    HybridPredictor pred(8192, 8, 2048, 2048,
                         TwoLevelScheme::Gshare);
    Addr noisy = 0x400400, periodic = 0x400500;
    int wrong = 0, total = 0;
    for (int i = 0; i < 6000; ++i) {
        bool tn = rng.bernoulli(0.92);
        bool tp = i % 4 != 0;
        bool gn = pred.predictAndTrain(noisy, tn);
        bool gp = pred.predictAndTrain(periodic, tp);
        if (i > 2000) {
            wrong += (gn != tn) + (gp != tp);
            total += 2;
        }
    }
    EXPECT_LT(wrong, total * 10 / 100);
}

TEST(Hybrid, ResetRestoresColdState)
{
    HybridPredictor pred(4096, 8, 1024, 1024);
    Addr pc = 0x400600;
    for (int i = 0; i < 200; ++i)
        pred.predictAndTrain(pc, false);
    pred.reset();
    EXPECT_TRUE(pred.predictAndTrain(pc, true));
}

TEST(Hybrid, SizeBitsSumsComponents)
{
    HybridPredictor pred(4096, 8, 2048, 1024);
    TwoLevelPredictor gas(TwoLevelScheme::GAs, 4096, 8);
    BimodalPredictor bim(2048);
    EXPECT_EQ(pred.sizeBits(),
              gas.sizeBits() + bim.sizeBits() + 1024 * 2);
}

TEST(Hybrid, NameMentionsBothComponents)
{
    HybridPredictor pred(4096, 8, 2048, 1024);
    auto n = pred.name();
    EXPECT_NE(n.find("gas"), std::string::npos);
    EXPECT_NE(n.find("bimodal"), std::string::npos);
}

TEST(HybridDeathTest, BadChooserGeometryPanics)
{
    EXPECT_DEATH(HybridPredictor(4096, 8, 1024, 1000), "assertion");
}

/** The stream engine the Machine's cycle sum and PinSim share: a
 *  weighted tallyStream from index k equals one predictAndTrain call per
 *  branch from power-on state, training on every branch but counting
 *  mispredicts and summing their weights only from k. Run through the
 *  base-class interface, as both callers do, for the hybrid, L-TAGE and
 *  a GAs two-level predictor, at k = 0, inside the stream and past its
 *  end, with and without weights. */
TEST(StreamEngine, WeightedTallyFromIndexMatchesPerBranchCalls)
{
    Rng rng(23);
    std::vector<Addr> site_pc;
    for (int s = 0; s < 61; ++s)
        site_pc.push_back(0x401000 + 20 * s + (rng.next() & 7));
    std::vector<u32> site;
    std::vector<u8> taken;
    std::vector<u16> weight;
    for (int i = 0; i < 12000; ++i) {
        const u32 s = static_cast<u32>(rng.next() % site_pc.size());
        site.push_back(s);
        taken.push_back(s % 4 == 0 ? rng.bernoulli(0.5) : (i / 5 + s) % 3 != 0);
        weight.push_back(static_cast<u16>(rng.next() % 65536));
    }
    const std::vector<std::function<std::unique_ptr<BranchPredictor>()>>
        makers = {
            [] {
                return std::make_unique<HybridPredictor>(4096, 8, 1024,
                                                         1024);
            },
            [] { return std::make_unique<LtagePredictor>(); },
            [] {
                return std::make_unique<TwoLevelPredictor>(TwoLevelScheme::GAs,
                                                           4096, 8);
            },
        };
    for (const auto &make : makers) {
        for (size_t from : {size_t{0}, size_t{1}, site.size() / 3,
                            site.size(), site.size() + 7}) {
            auto expected = make();
            Count misses = 0;
            u64 weight_sum = 0;
            for (size_t j = 0; j < site.size(); ++j) {
                const bool t = taken[j] != 0;
                const bool miss =
                    expected->predictAndTrain(site_pc[site[j]], t) != t;
                if (j >= from) {
                    misses += miss;
                    weight_sum += miss ? weight[j] : 0;
                }
            }
            const std::string what =
                expected->name() + " from " + std::to_string(from);
            BranchStream stream{site.data(), taken.data(), site.size(),
                                site_pc.data(), from, weight.data()};
            auto weighted = make();
            const StreamTally tally = weighted->tallyStream(stream);
            EXPECT_EQ(tally.mispredicts, misses) << what;
            EXPECT_EQ(tally.weight, weight_sum) << what;
            if (from < site.size() / 2) {
                EXPECT_GT(tally.weight, 0u) << what;
            }
            // Count-only: the same mispredicts, no weight.
            stream.weight = nullptr;
            auto counted = make();
            const StreamTally plain = counted->tallyStream(stream);
            EXPECT_EQ(plain.mispredicts, misses) << what;
            EXPECT_EQ(plain.weight, 0u) << what;
            auto replayed = make();
            EXPECT_EQ(replayed->replayStream(stream), misses) << what;
        }
    }
}

} // anonymous namespace
