/** @file Tests for the L-TAGE predictor. */

#include <gtest/gtest.h>

#include "bpred/ltage.hh"
#include "bpred/twolevel.hh"
#include "util/random.hh"

namespace
{

using namespace interf;
using namespace interf::bpred;

TEST(FoldedHistory, DependsOnlyOnWindowContents)
{
    // Two folded registers fed the same window contents agree, even if
    // their earlier (expired) histories differed. Window 16 folded to
    // 8 bits (outgoing bit at 16 % 8), over a ring of 40 (rounded up to 64)
    // so the longer prefix wraps it.
    auto run = [](const std::vector<int> &prefix,
                  const std::vector<int> &window) {
        u32 folded = 0;
        ltage::HistoryRing hist(40);
        auto push = [&](int b) {
            folded = ltage::foldStep(folded, b != 0, hist.bitAt(15),
                                     1u << (16 % 8), 8);
            hist.push(b != 0);
        };
        for (int b : prefix)
            push(b);
        for (int b : window)
            push(b);
        return folded;
    };
    std::vector<int> window;
    for (int i = 0; i < 16; ++i)
        window.push_back(i % 3 == 0);
    std::vector<int> long_prefix;
    for (int i = 0; i < 150; ++i)
        long_prefix.push_back(i % 5 < 2);
    u32 a = run({1, 1, 0, 1, 0, 0, 1}, window);
    u32 b = run({0, 0, 0}, window);
    u32 c = run({}, window);
    EXPECT_EQ(a, b);
    EXPECT_EQ(b, c);
    EXPECT_EQ(run(long_prefix, window), c);
    // Different window contents (usually) give a different fold.
    std::vector<int> other(16, 0);
    other[3] = 1;
    EXPECT_NE(run({}, other), a);
    // All-zero window folds to zero.
    EXPECT_EQ(run({1, 0, 1, 1}, std::vector<int>(16, 0)), 0u);

    // A window that is not a multiple of the folded width (13 into 5
    // bits, outgoing bit at 3) equals the direct XOR of its 5-bit chunks,
    // newest outcome in bit 0.
    Rng rng(5);
    std::vector<bool> bits;
    u32 folded = 0;
    ltage::HistoryRing hist(13);
    for (int i = 0; i < 200; ++i) {
        const bool bit = rng.bernoulli(0.5);
        folded = ltage::foldStep(folded, bit, hist.bitAt(12),
                                 1u << (13 % 5), 5);
        hist.push(bit);
        bits.push_back(bit);
        u32 direct = 0;
        for (u32 k = 0; k < 13 && k < bits.size(); ++k)
            direct ^= static_cast<u32>(bits[bits.size() - 1 - k])
                      << (k % 5);
        ASSERT_EQ(folded, direct) << "after " << i + 1 << " pushes";
    }
}

TEST(LongHistory, RingSemantics)
{
    ltage::HistoryRing hist(8);
    EXPECT_EQ(hist.capacity(), 8u);
    hist.push(true);
    hist.push(false);
    hist.push(true);
    EXPECT_TRUE(hist.bitAt(0));  // newest
    EXPECT_FALSE(hist.bitAt(1));
    EXPECT_TRUE(hist.bitAt(2));
    EXPECT_FALSE(hist.bitAt(3)); // never pushed: zero

    // A capacity that is not a power of two rounds up, and the ring
    // keeps the newest capacity() outcomes across many wraps.
    ltage::HistoryRing odd(10);
    EXPECT_EQ(odd.capacity(), 16u);
    std::vector<bool> pushed;
    for (int i = 0; i < 100; ++i) {
        const bool bit = (i * 7) % 3 == 0;
        odd.push(bit);
        pushed.push_back(bit);
    }
    for (u32 i = 0; i < odd.capacity(); ++i)
        EXPECT_EQ(odd.bitAt(i), pushed[pushed.size() - 1 - i]) << i;

    odd.reset();
    for (u32 i = 0; i < odd.capacity(); ++i)
        EXPECT_FALSE(odd.bitAt(i)) << i;
}

TEST(Ltage, GeometricHistoryLengths)
{
    LtagePredictor pred;
    u32 prev = 0;
    for (u32 t = 0; t < 12; ++t) {
        u32 len = pred.historyLength(t);
        EXPECT_GT(len, prev);
        prev = len;
    }
    EXPECT_EQ(pred.historyLength(0), 4u);
    EXPECT_EQ(pred.historyLength(11), 640u);
}

TEST(Ltage, LearnsBiasedBranch)
{
    LtagePredictor pred;
    Addr pc = 0x400100;
    for (int i = 0; i < 100; ++i)
        pred.predictAndTrain(pc, true);
    int wrong = 0;
    for (int i = 0; i < 500; ++i)
        wrong += pred.predictAndTrain(pc, true) != true;
    EXPECT_EQ(wrong, 0);
}

TEST(Ltage, LearnsLongPeriodicPattern)
{
    // Period 40 defeats a 12-bit gshare; TAGE's long histories and/or
    // the loop predictor must capture it.
    LtagePredictor pred;
    Addr pc = 0x400200;
    auto outcome = [](int i) { return i % 40 != 39; };
    int i = 0;
    for (; i < 4000; ++i)
        pred.predictAndTrain(pc, outcome(i));
    int wrong = 0;
    const int n = 4000;
    for (; i < 4000 + n; ++i)
        wrong += pred.predictAndTrain(pc, outcome(i)) != outcome(i);
    // Far better than the 1-in-40 exit-miss floor (100 misses).
    EXPECT_LT(wrong, 30);
}

TEST(Ltage, LoopPredictorCatchesConstantTripCounts)
{
    // A constant-trip-count loop whose body contains a *random* branch:
    // global history is useless noise, so only the loop predictor's
    // iteration counting can catch the exits.
    LtageConfig with, without;
    without.enableLoopPredictor = false;
    LtagePredictor a(with), b(without);
    Addr loop_pc = 0x400300, noise_pc = 0x400308;
    Rng rng(3);
    int wrong_with = 0, wrong_without = 0;
    for (int i = 0; i < 60000; ++i) {
        bool noise = rng.bernoulli(0.5);
        a.predictAndTrain(noise_pc, noise);
        b.predictAndTrain(noise_pc, noise);
        bool t = i % 50 != 49;
        wrong_with += a.predictAndTrain(loop_pc, t) != t;
        wrong_without += b.predictAndTrain(loop_pc, t) != t;
    }
    EXPECT_LT(wrong_with, wrong_without * 7 / 10)
        << "with " << wrong_with << " without " << wrong_without;
}

TEST(Ltage, BeatsGshareOnMixedWorkload)
{
    // The headline property: L-TAGE is substantially more accurate
    // than a same-era gshare on a mixed branch population.
    Rng rng(11);
    LtagePredictor ltage;
    TwoLevelPredictor gshare(TwoLevelScheme::Gshare, 16384, 12);
    const int sites = 64;
    std::vector<Addr> pcs;
    std::vector<int> kind;
    for (int s = 0; s < sites; ++s) {
        pcs.push_back(0x400000 + 13 * s);
        kind.push_back(s % 3);
    }
    // Structured execution (round-robin over the sites, like loop
    // nests in real code) so histories repeat and both predictors get
    // a fair shot.
    std::vector<int> phase(sites, 0);
    int wrong_l = 0, wrong_g = 0, total = 0;
    for (int round = 0; round < 1200; ++round) {
        for (int s = 0; s < sites; ++s) {
            bool t;
            switch (kind[s]) {
              case 0:
                t = rng.bernoulli(0.95);
                break;
              case 1:
                t = (phase[s]++ % 30) != 29;
                break;
              default:
                t = (phase[s]++ % 7) != 6;
                break;
            }
            wrong_l += ltage.predictAndTrain(pcs[s], t) != t;
            wrong_g += gshare.predictAndTrain(pcs[s], t) != t;
            ++total;
        }
    }
    EXPECT_LT(wrong_l, wrong_g)
        << "ltage " << wrong_l << " vs gshare " << wrong_g;
}

TEST(Ltage, ResetRestoresColdState)
{
    LtagePredictor pred;
    Addr pc = 0x400400;
    for (int i = 0; i < 1000; ++i)
        pred.predictAndTrain(pc, false);
    pred.reset();
    EXPECT_TRUE(pred.predictAndTrain(pc, true)); // cold default taken
}

TEST(Ltage, DeterministicAcrossInstances)
{
    LtagePredictor a, b;
    Rng rng(13);
    for (int i = 0; i < 5000; ++i) {
        Addr pc = 0x400000 + (rng.next() & 0xfff);
        bool t = rng.bernoulli(0.7);
        EXPECT_EQ(a.predictAndTrain(pc, t), b.predictAndTrain(pc, t));
    }
}

TEST(Ltage, SizeBitsInExpectedRange)
{
    LtagePredictor pred;
    // The CBP-2 design is ~256 Kbit; ours should be the same order.
    EXPECT_GT(pred.sizeBits(), 100u << 10);
    EXPECT_LT(pred.sizeBits(), 400u << 10);
    EXPECT_NE(pred.name().find("ltage"), std::string::npos);
}

TEST(Ltage, SmallConfigurationWorks)
{
    LtageConfig small;
    small.numTables = 4;
    small.maxHistory = 64;
    small.logTaggedEntries = 7;
    small.logBimodalEntries = 9;
    LtagePredictor pred(small);
    Addr pc = 0x400500;
    for (int i = 0; i < 200; ++i)
        pred.predictAndTrain(pc, true);
    EXPECT_TRUE(pred.predictAndTrain(pc, true));
}

/** replayStream over a branch stream equals one predictAndTrain call
 *  per branch, and continues from (does not reset) the current state. */
TEST(Ltage, ReplayStreamMatchesPerBranchCalls)
{
    Rng rng(17);
    std::vector<Addr> site_pc;
    for (int s = 0; s < 97; ++s)
        site_pc.push_back(0x400000 + 24 * s + (rng.next() & 7));
    std::vector<u32> site;
    std::vector<u8> taken;
    for (int i = 0; i < 20000; ++i) {
        const u32 s = static_cast<u32>(rng.next() % site_pc.size());
        site.push_back(s);
        taken.push_back(s % 3 == 0 ? rng.bernoulli(0.5)
                                   : (i / 7 + s) % 5 != 0);
    }
    const BranchStream stream{site.data(), taken.data(), site.size(),
                              site_pc.data()};

    LtageConfig aging;
    aging.uResetPeriod = 1 << 10;
    for (const LtageConfig &cfg : {LtageConfig(), aging}) {
        LtagePredictor a(cfg), b(cfg);
        Count per_branch = 0;
        for (int pass = 0; pass < 2; ++pass)
            for (size_t j = 0; j < site.size(); ++j)
                per_branch += a.predictAndTrain(site_pc[site[j]],
                                                taken[j] != 0) !=
                              (taken[j] != 0);
        // Through the base-class interface, as PinSim calls it.
        BranchPredictor &base = b;
        const Count streamed =
            base.replayStream(stream) + base.replayStream(stream);
        EXPECT_EQ(streamed, per_branch);
        EXPECT_GT(streamed, 0u);
    }
}

TEST(LtageDeathTest, BadConfigPanics)
{
    LtageConfig bad;
    bad.numTables = 1;
    EXPECT_DEATH(LtagePredictor{bad}, "assertion");

    // Aging period zero would never age (and used to divide by zero).
    LtageConfig no_aging;
    no_aging.uResetPeriod = 0;
    EXPECT_DEATH(LtagePredictor{no_aging}, "assertion");

    // Tags wider than the entry's 16 bits.
    LtageConfig wide_short;
    wide_short.tagBitsShort = 17;
    EXPECT_DEATH(LtagePredictor{wide_short}, "assertion");
    LtageConfig wide_long;
    wide_long.tagBitsLong = 17;
    EXPECT_DEATH(LtagePredictor{wide_long}, "assertion");

    // 16-bit tags are the widest that fit, and work.
    LtageConfig widest;
    widest.tagBitsShort = 16;
    widest.tagBitsLong = 16;
    LtagePredictor ok(widest);
    for (int i = 0; i < 100; ++i)
        ok.predictAndTrain(0x400600, true);
    EXPECT_TRUE(ok.predictAndTrain(0x400600, true));
}

} // anonymous namespace
