/** @file Tests for the layout-space optimizer (src/opt) and its
 *  fitness store: move validity under the LayoutVerifier across
 *  profiles, seeds and every move kind; candidate digests; trajectory
 *  byte-determinism at any jobs and cold vs warm store; the
 *  FitnessStore round trip; and the golden end-to-end claim that both
 *  strategies beat best-of-N random at an equal evaluation budget. */

#include <unistd.h>

#include <cmath>
#include <filesystem>
#include <fstream>
#include <functional>
#include <ostream>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "interferometry/model.hh"
#include "opt/neighborhood.hh"
#include "opt/optimizer.hh"
#include "store/fitness.hh"
#include "store/format.hh"
#include "store/serialize.hh"
#include "telemetry/metrics.hh"
#include "telemetry/telemetry.hh"
#include "trace/generator.hh"
#include "util/digest.hh"
#include "util/json.hh"
#include "verify/verify.hh"
#include "workloads/builder.hh"
#include "workloads/profile.hh"
#include "workloads/spec.hh"

namespace
{

using namespace interf;
using namespace interf::opt;
using layout::LayoutKey;
using layout::LayoutSpec;
using layout::Linker;

std::string
tempDir(const char *tag)
{
    auto dir = std::filesystem::temp_directory_path() /
               (std::string("interf-opt-") + tag + "-" +
                std::to_string(::getpid()));
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    return dir.string();
}

/** The satellite property-test matrix: >= 5 distinct program shapes. */
std::vector<workloads::WorkloadProfile>
propertyProfiles()
{
    std::vector<workloads::WorkloadProfile> out;
    out.push_back(workloads::defaultProfile("opt-prop"));
    for (const char *name : {"400.perlbench", "429.mcf", "445.gobmk",
                             "462.libquantum", "470.lbm"})
        out.push_back(workloads::specFor(name).profile);
    return out;
}

/** A search configuration small enough for determinism sweeps. */
OptConfig
quickSearch(Strategy strategy, u64 seed)
{
    OptConfig cfg;
    cfg.instructionBudget = 30000;
    cfg.budget = 10;
    cfg.proposalsPerStep = 3;
    cfg.blameLayouts = 4;
    cfg.seed = seed;
    cfg.strategy = strategy;
    cfg.randomizeHeap = true;
    return cfg;
}

OptResult
runSearch(const workloads::WorkloadProfile &profile, const OptConfig &cfg)
{
    FitnessOracle oracle(profile, cfg);
    return makeOptimizer(oracle, cfg)->run();
}

// ---------------------------------------------------------------------
// Neighborhood property tests: every move kind, across >= 5 profiles
// x 16 seeds, yields a layout the LayoutVerifier passes clean.
// ---------------------------------------------------------------------

TEST(OptNeighborhood, EveryMoveKindVerifiesCleanAcrossProfilesAndSeeds)
{
    Linker linker;
    for (const auto &profile : propertyProfiles()) {
        const auto prog = workloads::buildProgram(profile);
        const Neighborhood nb(prog, true);
        for (u64 seed = 1; seed <= 16; ++seed) {
            Rng rng(seed);
            CandidateLayout cand;
            cand.code = linker.specFor(prog, LayoutKey{seed, true, true});
            cand.heapSeed = seed;
            for (u32 k = 0; k < kMoveKinds; ++k) {
                const auto kind = static_cast<MoveKind>(k);
                if (!nb.kindAvailable(kind))
                    continue;
                nb.proposeOfKind(kind, cand, rng);
                cand.code.validate(prog);
                auto res = verify::verifyLayout(
                    prog, linker.link(prog, cand.code));
                EXPECT_TRUE(res.ok())
                    << profile.name << " seed " << seed << " "
                    << moveKindName(kind) << ": " << res.summary();
                EXPECT_EQ(res.warningCount(), 0u);
            }
        }
    }
}

TEST(OptNeighborhood, WeightedProposalsStayVerifiable)
{
    // The weighted propose() path (blame-skewed kind selection) is the
    // one the search actually runs; a long chain of weighted moves
    // must keep the layout valid too.
    Linker linker;
    const auto prog =
        workloads::buildProgram(workloads::defaultProfile("opt-chain"));
    Neighborhood nb(prog, true);
    interferometry::BlameVector blame;
    blame.branch = 0.7;
    blame.l1i = 0.2;
    blame.l2 = 0.4;
    nb.setBlame(blame);
    Rng rng(99);
    CandidateLayout cand;
    cand.code = LayoutSpec::authored(prog);
    for (u32 i = 0; i < 64; ++i) {
        nb.propose(cand, rng);
        cand.code.validate(prog);
    }
    EXPECT_TRUE(
        verify::verifyLayout(prog, linker.link(prog, cand.code)).ok());
}

TEST(OptNeighborhood, MovesNeverProposeNoOps)
{
    const auto prog =
        workloads::buildProgram(workloads::defaultProfile("opt-noop"));
    const Neighborhood nb(prog, true);
    Rng rng(5);
    for (u64 seed = 1; seed <= 16; ++seed) {
        CandidateLayout cand;
        cand.code = LayoutSpec::authored(prog);
        cand.heapSeed = seed;
        const u64 before_code = cand.digest(0);
        for (u32 k = 0; k < kMoveKinds; ++k) {
            const auto kind = static_cast<MoveKind>(k);
            if (!nb.kindAvailable(kind) || kind == MoveKind::HeapShuffle)
                continue;
            CandidateLayout moved = cand;
            nb.proposeOfKind(kind, moved, rng);
            EXPECT_NE(moved.digest(0), before_code)
                << moveKindName(kind) << " proposed a no-op";
        }
        CandidateLayout shuffled = cand;
        const Move mv =
            nb.proposeOfKind(MoveKind::HeapShuffle, shuffled, rng);
        // The heap move records the redrawn seed in its operands.
        EXPECT_EQ((static_cast<u64>(mv.a) << 32) | mv.b,
                  shuffled.heapSeed);
    }
}

TEST(OptNeighborhood, BlameKeepsEveryAvailableKindReachable)
{
    const auto prog =
        workloads::buildProgram(workloads::defaultProfile("opt-blame"));
    Neighborhood nb(prog, true);
    // Degenerate blame (NaN r^2 from zero-variance seed samples) must
    // not zero out or poison any weight: the epsilon floor holds.
    interferometry::BlameVector degenerate;
    degenerate.branch = std::nan("");
    degenerate.l1i = -1.0;
    degenerate.l2 = std::nan("");
    nb.setBlame(degenerate);
    for (u32 k = 0; k < kMoveKinds; ++k) {
        const auto kind = static_cast<MoveKind>(k);
        if (nb.kindAvailable(kind))
            EXPECT_GT(nb.kindWeights()[k], 0.0) << moveKindName(kind);
        else
            EXPECT_EQ(nb.kindWeights()[k], 0.0) << moveKindName(kind);
    }
    // And blame steers: heavy L2 blame raises heap/file weight above
    // what pure branch blame gives them.
    interferometry::BlameVector l2heavy;
    l2heavy.l2 = 0.9;
    nb.setBlame(l2heavy);
    const auto l2w = nb.kindWeights();
    interferometry::BlameVector branchy;
    branchy.branch = 0.9;
    nb.setBlame(branchy);
    const auto brw = nb.kindWeights();
    EXPECT_GT(l2w[static_cast<u32>(MoveKind::HeapShuffle)],
              brw[static_cast<u32>(MoveKind::HeapShuffle)]);
    EXPECT_GT(brw[static_cast<u32>(MoveKind::ProcSwap)],
              l2w[static_cast<u32>(MoveKind::ProcSwap)]);
}

TEST(OptNeighborhood, HeapMovesGatedByConfiguration)
{
    const auto prog =
        workloads::buildProgram(workloads::defaultProfile("opt-gate"));
    const Neighborhood no_heap(prog, false);
    EXPECT_FALSE(no_heap.kindAvailable(MoveKind::HeapShuffle));
    EXPECT_EQ(
        no_heap.kindWeights()[static_cast<u32>(MoveKind::HeapShuffle)],
        0.0);
    const Neighborhood with_heap(prog, true);
    EXPECT_TRUE(with_heap.kindAvailable(MoveKind::HeapShuffle));
}

TEST(OptCandidate, DigestBindsEveryField)
{
    const auto prog =
        workloads::buildProgram(workloads::defaultProfile("opt-digest"));
    CandidateLayout cand;
    cand.code = LayoutSpec::authored(prog);
    cand.heapSeed = 3;
    const u64 base = 0xabcdef;
    const u64 d0 = cand.digest(base);
    EXPECT_EQ(cand.digest(base), d0); // Pure function.
    EXPECT_NE(cand.digest(base + 1), d0);

    CandidateLayout heap = cand;
    heap.heapSeed = 4;
    EXPECT_NE(heap.digest(base), d0);

    CandidateLayout files = cand;
    ASSERT_GE(files.code.fileOrder.size(), 2u);
    std::swap(files.code.fileOrder[0], files.code.fileOrder[1]);
    EXPECT_NE(files.digest(base), d0);

    CandidateLayout procs = cand;
    for (auto &order : procs.code.procOrder) {
        if (order.size() >= 2) {
            std::swap(order[0], order[1]);
            break;
        }
    }
    EXPECT_NE(procs.digest(base), d0);
}

TEST(OptProperty, SearchPageMapsAreValidPermutations)
{
    // One fixed page mapping serves the whole search; it must be a
    // clean bijection for every seed a config might pin.
    for (u64 seed : {1ull, 2ull, 77ull}) {
        verify::VerifyResult r;
        verify::verifyPageMap(layout::PageMap(seed), 1u << 12,
                              "<opt-pagemap>", r);
        EXPECT_TRUE(r.ok()) << r.summary();
    }
}

// ---------------------------------------------------------------------
// FitnessStore: content-addressed measurement cache.
// ---------------------------------------------------------------------

core::Measurement
sampleMeasurement()
{
    core::Measurement m;
    m.layoutSeed = 77;
    m.cpi = 1.25;
    m.mpki = 4.5;
    m.l1iMpki = 1.5;
    m.l1dMpki = 2.5;
    m.l2Mpki = 0.5;
    m.btbMpki = 0.25;
    m.cycles = 125000;
    m.instructions = 100000;
    m.condBranches = 20000;
    m.mispredicts = 450;
    m.l1iMisses = 150;
    m.l1dMisses = 250;
    m.l2Misses = 50;
    m.btbMisses = 25;
    return m;
}

TEST(FitnessStore, MissThenRoundTrip)
{
    const auto root = tempDir("fitstore");
    const u64 base = 0x1122334455667788ull;
    store::FitnessStore fs(root, base);
    EXPECT_FALSE(fs.load(7).has_value());

    const auto m = sampleMeasurement();
    fs.save(7, m);
    fs.save(7, m); // Idempotent: racing writers commit equal bytes.
    auto got = fs.load(7);
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(store::samplesChecksum({*got}),
              store::samplesChecksum({m}));
    EXPECT_EQ(got->cycles, m.cycles);
    EXPECT_EQ(got->layoutSeed, m.layoutSeed);
    EXPECT_DOUBLE_EQ(got->cpi, m.cpi);

    // A second store over the same root and key sees the entry; one
    // over a different base key does not (different directory).
    store::FitnessStore again(root, base);
    EXPECT_TRUE(again.load(7).has_value());
    store::FitnessStore other(root, base + 1);
    EXPECT_FALSE(other.load(7).has_value());
    std::filesystem::remove_all(root);
}

TEST(FitnessStoreDeath, CorruptEntryFailsClosed)
{
    const auto root = tempDir("fitcorrupt");
    const u64 base = 42;
    store::FitnessStore fs(root, base);
    fs.save(9, sampleMeasurement());
    // Truncate the one entry file behind the store's back.
    std::filesystem::path entry;
    for (const auto &e :
         std::filesystem::recursive_directory_iterator(root))
        if (e.is_regular_file())
            entry = e.path();
    ASSERT_FALSE(entry.empty());
    std::filesystem::resize_file(entry, 8);
    EXPECT_EXIT((void)fs.load(9), ::testing::ExitedWithCode(1),
                "fitness");
    std::filesystem::remove_all(root);
}

// Each damaged fitness entry fails closed on load naming the fault, and
// the store lint (which reads it with the same parser) reports an
// error for that file.

/** XOR one byte of a file in place. */
void
flipFileByte(const std::string &path, u64 offset)
{
    std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
    ASSERT_TRUE(f) << path;
    f.seekg(static_cast<std::streamoff>(offset));
    char c = 0;
    f.get(c);
    f.seekp(static_cast<std::streamoff>(offset));
    f.put(static_cast<char>(c ^ 0x5a));
    ASSERT_TRUE(f) << path;
}

struct FitnessMutation
{
    const char *name;
    const char *fault; ///< Substring load's fatal message must carry.
    /** Damage the entry of candidate 9 in store @p fs; returns the
     *  (store, candidate) a load must now read from. */
    std::function<std::pair<u64, u64>(const std::string &root,
                                       const store::FitnessStore &fs,
                                       const std::string &entry)>
        mutate;
};

/** gtest prints a parameter into its test's ctest name: print the
 *  mutation's name rather than the object's bytes. */
void
PrintTo(const FitnessMutation &m, std::ostream *os)
{
    *os << m.name;
}

constexpr u64 kFitBase = 42;
constexpr u64 kFitCand = 9;

std::string
fitEntryPath(const store::FitnessStore &fs, u64 cand)
{
    return fs.dir() + "/fit-" + digestHex(cand) + ".bin";
}

class FitnessStoreDeathTest
    : public ::testing::TestWithParam<FitnessMutation>
{
};

TEST_P(FitnessStoreDeathTest, FailsClosedAndLintsTheFile)
{
    const FitnessMutation &m = GetParam();
    const auto root = tempDir((std::string("fitmut-") + m.name).c_str());
    store::FitnessStore fs(root, kFitBase);
    fs.save(kFitCand, sampleMeasurement());
    const auto [base, cand] = m.mutate(root, fs, fitEntryPath(fs, kFitCand));
    const store::FitnessStore damaged(root, base);

    EXPECT_EXIT((void)damaged.load(cand), ::testing::ExitedWithCode(1),
                m.fault);

    const auto lint = verify::verifyStoreRoot(root, true);
    bool flagged = false;
    for (const auto &d : lint.diagnostics())
        flagged |= d.severity == verify::Severity::Error &&
                   d.artifact == fitEntryPath(damaged, cand);
    EXPECT_TRUE(flagged) << lint.summary();
    std::filesystem::remove_all(root);
}

INSTANTIATE_TEST_SUITE_P(
    Mutations, FitnessStoreDeathTest,
    ::testing::Values(
        FitnessMutation{"BadMagic", "bad magic",
                        [](const auto &, const auto &, const auto &entry) {
                            flipFileByte(entry, 0);
                            return std::pair{kFitBase, kFitCand};
                        }},
        FitnessMutation{"VersionSkew", "unsupported format version",
                        [](const auto &, const auto &, const auto &entry) {
                            flipFileByte(entry, 8);
                            return std::pair{kFitBase, kFitCand};
                        }},
        FitnessMutation{
            "BaseKeyMismatch", "key mismatch",
            [](const auto &root, const auto &, const auto &entry) {
                // Copied under another search's directory.
                const store::FitnessStore other(root, kFitBase + 1);
                std::filesystem::copy_file(entry,
                                           fitEntryPath(other, kFitCand));
                std::filesystem::remove(entry);
                return std::pair{kFitBase + 1, kFitCand};
            }},
        FitnessMutation{
            "CandidateDigestMismatch", "digest mismatch",
            [](const auto &, const auto &fs, const auto &entry) {
                // Renamed to another candidate's file name.
                std::filesystem::rename(entry,
                                        fitEntryPath(fs, kFitCand + 1));
                return std::pair{kFitBase, kFitCand + 1};
            }},
        FitnessMutation{"FlippedPayloadByte", "payload checksum mismatch",
                        [](const auto &, const auto &, const auto &entry) {
                            flipFileByte(entry, store::format::
                                                    kFitnessHeaderBytes +
                                                3);
                            return std::pair{kFitBase, kFitCand};
                        }},
        FitnessMutation{"TruncatedPayload", "truncated fitness entry",
                        [](const auto &, const auto &, const auto &entry) {
                            std::filesystem::resize_file(
                                entry,
                                store::format::kFitnessHeaderBytes + 5);
                            return std::pair{kFitBase, kFitCand};
                        }}),
    [](const auto &info) { return std::string(info.param.name); });

TEST(FitnessStore, BaseKeySeparatesSearchSetups)
{
    const auto prog =
        workloads::buildProgram(workloads::defaultProfile("opt-key"));
    core::MachineConfig machine = core::MachineConfig::xeonE5440();
    core::RunnerConfig runner;
    const u64 k = store::fitnessBaseKey(prog, 1, 100000, true, 1, false,
                                        machine, runner);
    EXPECT_EQ(store::fitnessBaseKey(prog, 1, 100000, true, 1, false,
                                    machine, runner),
              k); // Pure function of the setup.
    EXPECT_NE(store::fitnessBaseKey(prog, 2, 100000, true, 1, false,
                                    machine, runner),
              k); // Behaviour seed.
    EXPECT_NE(store::fitnessBaseKey(prog, 1, 200000, true, 1, false,
                                    machine, runner),
              k); // Instruction budget.
    EXPECT_NE(store::fitnessBaseKey(prog, 1, 100000, false, 1, false,
                                    machine, runner),
              k); // Physical pages.
    EXPECT_NE(store::fitnessBaseKey(prog, 1, 100000, true, 2, false,
                                    machine, runner),
              k); // Page seed.
    EXPECT_NE(store::fitnessBaseKey(prog, 1, 100000, true, 1, true,
                                    machine, runner),
              k); // Heap randomization.
}

// ---------------------------------------------------------------------
// Determinism: identical seeds -> byte-identical trajectories and
// final layouts at any jobs, cold or warm store.
// ---------------------------------------------------------------------

void
expectSweepDeterminism(Strategy strategy)
{
    const auto profile = workloads::defaultProfile("opt-det");
    const OptConfig ref_cfg = quickSearch(strategy, 7);
    FitnessOracle ref_oracle(profile, ref_cfg);
    const OptResult ref = makeOptimizer(ref_oracle, ref_cfg)->run();
    const std::string ref_dump = ref.trajectory.dump();
    const u64 ref_digest = ref_oracle.digestOf(ref.best);
    const u64 ref_sample = store::samplesChecksum({ref.bestSample});
    EXPECT_EQ(ref.freshEvals + ref.cachedEvals, ref_cfg.budget);

    for (u32 jobs : {1u, 4u}) {
        OptConfig cfg = ref_cfg;
        cfg.jobs = jobs;
        FitnessOracle oracle(profile, cfg);
        EXPECT_EQ(oracle.baseKey(), ref_oracle.baseKey())
            << "execution knobs leaked into the base key";
        const OptResult res = makeOptimizer(oracle, cfg)->run();
        EXPECT_EQ(res.trajectory.dump(), ref_dump)
            << strategyName(strategy) << " jobs=" << jobs;
        EXPECT_EQ(oracle.digestOf(res.best), ref_digest);
        EXPECT_EQ(store::samplesChecksum({res.bestSample}), ref_sample);
    }
}

TEST(OptDeterminism, GreedyTrajectoryIdenticalAtAnyJobs)
{
    expectSweepDeterminism(Strategy::Greedy);
}

TEST(OptDeterminism, AnnealTrajectoryIdenticalAtAnyJobs)
{
    expectSweepDeterminism(Strategy::Anneal);
}

TEST(OptDeterminism, WarmStoreRerunIsByteIdenticalWithZeroFreshEvals)
{
    const auto profile = workloads::defaultProfile("opt-warm");
    const auto root = tempDir("optwarm");
    OptConfig cfg = quickSearch(Strategy::Anneal, 11);
    cfg.storeDir = root;

    FitnessOracle cold(profile, cfg);
    const OptResult first = makeOptimizer(cold, cfg)->run();
    EXPECT_GT(first.freshEvals, 0u);

    // A fresh process would reconstruct the oracle exactly like this:
    // everything measurable is already in the store.
    FitnessOracle warm(profile, cfg);
    const OptResult second = makeOptimizer(warm, cfg)->run();
    EXPECT_EQ(second.freshEvals, 0u) << "warm rerun measured fresh";
    EXPECT_EQ(second.cachedEvals, cfg.budget);
    EXPECT_EQ(second.trajectory.dump(), first.trajectory.dump());
    EXPECT_EQ(warm.digestOf(second.best), cold.digestOf(first.best));

    // Changing the search seed changes the walk but stays warm only
    // where candidates actually repeat -- and never changes base key.
    OptConfig other = cfg;
    other.seed = 12;
    FitnessOracle third(profile, other);
    EXPECT_EQ(third.baseKey(), cold.baseKey());
    std::filesystem::remove_all(root);
}

// ---------------------------------------------------------------------
// Trajectory document and search bookkeeping.
// ---------------------------------------------------------------------

TEST(OptTrajectory, DocumentParsesAndCarriesTheSchema)
{
    const auto profile = workloads::defaultProfile("opt-doc");
    const OptConfig cfg = quickSearch(Strategy::Greedy, 3);
    const OptResult res = runSearch(profile, cfg);

    Json doc;
    std::string err;
    ASSERT_TRUE(Json::parse(res.trajectory.dump(), doc, &err)) << err;
    ASSERT_TRUE(doc.isObject());
    for (const char *field :
         {"schema", "schema_version", "benchmark", "strategy", "seed",
          "budget", "proposals_per_step", "base_key", "initial_cycles",
          "initial_digest", "final_cycles", "final_digest", "steps"})
        EXPECT_NE(doc.find(field), nullptr) << field;
    EXPECT_EQ(doc.find("schema")->asString(), kTrajectorySchema);
    EXPECT_EQ(doc.find("strategy")->asString(), "greedy");
    EXPECT_EQ(doc.find("steps")->size(), res.trajectory.steps.size());

    const std::set<std::string> kinds = {"proc_swap", "proc_reinsert",
                                         "file_block_move",
                                         "heap_shuffle"};
    for (size_t i = 0; i < doc.find("steps")->size(); ++i) {
        const Json &step = doc.find("steps")->at(i);
        EXPECT_TRUE(kinds.count(step.find("kind")->asString()));
        EXPECT_GE(step.find("cycles")->asDouble(), 0.0);
    }
}

TEST(OptSearch, BudgetAndChampionBookkeepingHold)
{
    const auto profile = workloads::defaultProfile("opt-book");
    for (Strategy strategy : {Strategy::Greedy, Strategy::Anneal}) {
        const OptConfig cfg = quickSearch(strategy, 21);
        const OptResult res = runSearch(profile, cfg);
        const auto &traj = res.trajectory;
        // Every evaluation is either fresh or cached, and the recorded
        // proposals are exactly the budget minus the seed pool.
        EXPECT_EQ(res.freshEvals + res.cachedEvals, cfg.budget);
        EXPECT_EQ(traj.steps.size(),
                  cfg.budget - (1 + cfg.blameLayouts));
        // The champion line is monotone and lands on finalCycles,
        // which never regresses from the starting point.
        u64 best = traj.initialCycles;
        for (const auto &s : traj.steps) {
            EXPECT_LE(s.bestCycles, best);
            EXPECT_GE(s.bestCycles,
                      std::min<u64>(best, s.cycles));
            best = s.bestCycles;
            if (strategy == Strategy::Greedy) {
                EXPECT_EQ(s.temperature, 0.0);
            }
        }
        EXPECT_EQ(traj.finalCycles, best);
        EXPECT_LE(traj.finalCycles, traj.initialCycles);
        EXPECT_EQ(traj.finalCycles, res.bestSample.cycles);
    }
}

/** A seed pool one short of the performance model's minimum searches
 *  with uniform move weights instead of fitting the model: budget 4
 *  caps the pool at 4, and 3 blame layouts make it 4 with budget left
 *  to walk. */
TEST(OptSearch, SeedPoolBelowModelMinimumSearches)
{
    const auto profile = workloads::defaultProfile("opt-small-pool");
    ASSERT_EQ(interferometry::PerformanceModel::kMinSamples, 5u);
    for (Strategy strategy : {Strategy::Greedy, Strategy::Anneal}) {
        OptConfig cfg = quickSearch(strategy, 9);
        cfg.budget = 4;
        OptResult res = runSearch(profile, cfg);
        EXPECT_EQ(res.freshEvals + res.cachedEvals, 4u);
        EXPECT_TRUE(res.trajectory.steps.empty());

        cfg.budget = 10;
        cfg.blameLayouts = 3;
        res = runSearch(profile, cfg);
        EXPECT_EQ(res.freshEvals + res.cachedEvals, 10u);
        EXPECT_EQ(res.trajectory.steps.size(), 6u);
    }
}

/** Value of telemetry counter @p name accumulated while @p body runs
 *  with telemetry on. */
u64
counterDuring(const std::string &name, const std::function<void()> &body)
{
    telemetry::resetForTest();
    telemetry::enable();
    body();
    u64 value = 0;
    for (const auto &c :
         telemetry::Registry::global().snapshot().counters)
        if (c.name == name)
            value = c.value;
    telemetry::disable();
    telemetry::resetForTest();
    return value;
}

TEST(OptSearch, FixedHeapSearchRunsOneL1dPass)
{
    // With a fixed heap every candidate issues one data stream under
    // the search's one page map, so the whole search shares one L1D
    // pass — at any jobs, with the same trajectory — and the champion's
    // sample equals a replay that runs its own pass.
    const auto profile = workloads::defaultProfile("opt-l1d");
    OptConfig cfg = quickSearch(Strategy::Anneal, 5);
    cfg.randomizeHeap = false;
    std::string ref_dump;
    for (u32 jobs : {1u, 4u}) {
        cfg.jobs = jobs;
        OptResult res;
        const u64 passes = counterDuring("replay.l1d_passes", [&] {
            FitnessOracle oracle(profile, cfg);
            res = makeOptimizer(oracle, cfg)->run();
        });
        EXPECT_EQ(passes, 1u) << "jobs " << jobs;
        EXPECT_GT(res.freshEvals, 1u);
        if (ref_dump.empty())
            ref_dump = res.trajectory.dump();
        EXPECT_EQ(res.trajectory.dump(), ref_dump) << "jobs " << jobs;

        FitnessOracle oracle(profile, cfg);
        const trace::ReplayPlan plan(oracle.program(),
                                     trace::TraceGenerator(
                                         oracle.program(),
                                         profile.behaviourSeed)
                                         .makeTrace(cfg.instructionBudget));
        const trace::LayoutTables tables(
            plan, oracle.linker().link(oracle.program(), res.best.code),
            layout::HeapLayout(oracle.program(),
                               layout::HeapKey::deterministic()),
            layout::PageMap(cfg.pageSeed),
            cfg.machine.hierarchy.l1i.lineBytes);
        core::MeasurementRunner runner(cfg.machine, cfg.runner);
        EXPECT_EQ(store::samplesChecksum({runner.measure(
                      plan, tables, oracle.digestOf(res.best))}),
                  store::samplesChecksum({res.bestSample}))
            << "jobs " << jobs;
    }
}

TEST(OptSearch, EvaluateBuildsTablesOnlyForFirstOccurrenceMisses)
{
    // Layout tables are expensive to build: one evaluate batch with a
    // memo hit and an in-batch duplicate must build them once per
    // first-occurrence miss, on the serial and the pool path alike.
    const auto profile = workloads::defaultProfile("opt-tables");
    for (u32 jobs : {1u, 4u}) {
        OptConfig cfg = quickSearch(Strategy::Greedy, 9);
        cfg.jobs = jobs;
        FitnessOracle oracle(profile, cfg);
        const CandidateLayout a = oracle.seededCandidate(1);
        const CandidateLayout b = oracle.seededCandidate(2);
        const CandidateLayout c = oracle.seededCandidate(3);
        const auto primed = oracle.evaluate({a}); // a is now memoized.
        std::vector<core::Measurement> ms;
        const u64 built = counterDuring("layout.tables_built", [&] {
            ms = oracle.evaluate({a, b, c, b});
        });
        EXPECT_EQ(built, 2u) << "jobs " << jobs; // b and c only.
        EXPECT_EQ(oracle.freshEvals(), 3u);
        EXPECT_EQ(oracle.cachedEvals(), 2u); // The memo hit, the dup.
        ASSERT_EQ(ms.size(), 4u);
        EXPECT_EQ(store::samplesChecksum({ms[0]}),
                  store::samplesChecksum(primed));
        EXPECT_EQ(store::samplesChecksum({ms[3]}),
                  store::samplesChecksum({ms[1]}));
        EXPECT_NE(ms[1].layoutSeed, ms[2].layoutSeed);
    }
}

TEST(OptSearch, RandomizedHeapSearchRunsOneL1dPassPerFreshEval)
{
    const auto profile = workloads::defaultProfile("opt-l1d");
    const OptConfig cfg = quickSearch(Strategy::Greedy, 5);
    ASSERT_TRUE(cfg.randomizeHeap);
    OptResult res;
    const u64 passes = counterDuring("replay.l1d_passes", [&] {
        FitnessOracle oracle(profile, cfg);
        res = makeOptimizer(oracle, cfg)->run();
    });
    EXPECT_EQ(passes, res.freshEvals);
}

TEST(OptSearch, FixedHeapSearchSharesL2AndBtbOnEveryEval)
{
    // Every fresh evaluation of a fixed-heap search reads the L2 data
    // side and the BTB from the search's one shared pass.
    const auto profile = workloads::defaultProfile("opt-l1d");
    OptConfig cfg = quickSearch(Strategy::Anneal, 5);
    cfg.randomizeHeap = false;
    u64 fresh = 0;
    auto body = [&] {
        FitnessOracle oracle(profile, cfg);
        fresh = makeOptimizer(oracle, cfg)->run().freshEvals;
    };
    const u64 calls = counterDuring("replay.calls", body);
    EXPECT_EQ(calls, fresh);
    EXPECT_EQ(counterDuring("replay.l2_shared", body), calls);
    EXPECT_EQ(counterDuring("replay.btb_shared", body), calls);
    EXPECT_EQ(counterDuring("replay.l2_simulated", body), 0u);
    EXPECT_EQ(counterDuring("replay.btb_simulated", body), 0u);
}

TEST(OptSearch, SearchTakesTheL1iPathWhereTheL2ProofHolds)
{
    // Every fresh evaluation reads its fetch outcome from first touches
    // (DESIGN.md §5r) where its L2 proof holds: on the shared stream of
    // a fixed heap, or on the layout's own stream of a randomized one
    // (§5x). A 64 KiB L2 refuses the proof, and fetch is simulated in
    // line in the layout's own sum (§5u).
    const auto profile = workloads::defaultProfile("opt-l1d");
    for (bool randomize : {false, true})
        for (bool small_l2 : {false, true}) {
            OptConfig cfg = quickSearch(Strategy::Anneal, 5);
            cfg.randomizeHeap = randomize;
            if (small_l2)
                cfg.machine.hierarchy.l2 = cache::CacheConfig{
                    "L2", 64 << 10, 16, 64, cache::Replacement::Random};
            u64 fresh = 0;
            auto body = [&] {
                FitnessOracle oracle(profile, cfg);
                fresh = makeOptimizer(oracle, cfg)->run().freshEvals;
            };
            const u64 calls = counterDuring("replay.calls", body);
            EXPECT_EQ(calls, fresh);
            EXPECT_GT(calls, 1u);
            const std::string what =
                std::string("randomized heap ") + (randomize ? "1" : "0") +
                ", 64 KiB L2 " + (small_l2 ? "1" : "0");
            EXPECT_EQ(counterDuring("replay.l1i_shared", body),
                      small_l2 ? 0u : calls)
                << what;
            EXPECT_EQ(counterDuring("replay.l2_simulated", body),
                      small_l2 ? calls : 0u)
                << what;
        }
}

TEST(OptSearch, RandomizedHeapSearchProvesItsOwnL2)
{
    // Each fresh evaluation of a randomized-heap search builds its own
    // data stream and reads the L2 data side from it where its proof
    // holds, or simulates the L2 where a 64 KiB L2 refuses; the BTB is
    // shared either way.
    const auto profile = workloads::defaultProfile("opt-l1d");
    for (bool small_l2 : {false, true}) {
        OptConfig cfg = quickSearch(Strategy::Greedy, 5);
        ASSERT_TRUE(cfg.randomizeHeap);
        if (small_l2)
            cfg.machine.hierarchy.l2 = cache::CacheConfig{
                "L2", 64 << 10, 16, 64, cache::Replacement::Random};
        u64 fresh = 0;
        auto body = [&] {
            FitnessOracle oracle(profile, cfg);
            fresh = makeOptimizer(oracle, cfg)->run().freshEvals;
        };
        EXPECT_EQ(counterDuring("replay.calls", body), fresh);
        EXPECT_GT(fresh, 1u);
        EXPECT_EQ(counterDuring("replay.l2_shared", body),
                  small_l2 ? 0u : fresh)
            << "64 KiB L2 " << small_l2;
        EXPECT_EQ(counterDuring("replay.l2_simulated", body),
                  small_l2 ? fresh : 0u)
            << "64 KiB L2 " << small_l2;
        EXPECT_EQ(counterDuring("replay.btb_shared", body), fresh)
            << "64 KiB L2 " << small_l2;
    }
}

TEST(OptSearch, StrategyNamesRoundTrip)
{
    EXPECT_STREQ(strategyName(Strategy::Greedy), "greedy");
    EXPECT_STREQ(strategyName(Strategy::Anneal), "anneal");
    Strategy s;
    EXPECT_TRUE(parseStrategy("greedy", s));
    EXPECT_EQ(s, Strategy::Greedy);
    EXPECT_TRUE(parseStrategy("anneal", s));
    EXPECT_EQ(s, Strategy::Anneal);
    EXPECT_TRUE(parseStrategy("sa", s));
    EXPECT_EQ(s, Strategy::Anneal);
    EXPECT_FALSE(parseStrategy("gradient", s));
}

// ---------------------------------------------------------------------
// Golden end-to-end: at an equal evaluation budget, both strategies
// beat the best of N random layouts on multiple profiles.
// ---------------------------------------------------------------------

void
expectBeatsRandom(const char *benchmark, Strategy strategy)
{
    const auto profile = workloads::specFor(benchmark).profile;
    OptConfig cfg;
    cfg.instructionBudget = 80000;
    cfg.budget = 48;
    cfg.proposalsPerStep = 2;
    cfg.blameLayouts = 6;
    cfg.seed = 1;
    cfg.strategy = strategy;
    // One oracle for both contenders: the memo can only skip repeat
    // measurements, never change one, so sharing it is fair.
    FitnessOracle oracle(profile, cfg);
    const OptResult res = makeOptimizer(oracle, cfg)->run();
    const OptResult base = bestOfRandom(oracle, cfg);
    EXPECT_EQ(base.freshEvals + base.cachedEvals, cfg.budget);
    EXPECT_EQ(base.trajectory.strategy, "random");
    EXPECT_LT(res.bestSample.cycles, base.bestSample.cycles)
        << benchmark << " " << strategyName(strategy) << ": optimizer "
        << res.bestSample.cycles << " vs best-of-" << cfg.budget
        << " random " << base.bestSample.cycles;
}

TEST(OptGolden, GreedyBeatsBestOfRandomOnPerlbench)
{
    expectBeatsRandom("400.perlbench", Strategy::Greedy);
}

TEST(OptGolden, AnnealBeatsBestOfRandomOnPerlbench)
{
    expectBeatsRandom("400.perlbench", Strategy::Anneal);
}

TEST(OptGolden, GreedyBeatsBestOfRandomOnMcf)
{
    expectBeatsRandom("429.mcf", Strategy::Greedy);
}

TEST(OptGolden, AnnealBeatsBestOfRandomOnMcf)
{
    expectBeatsRandom("429.mcf", Strategy::Anneal);
}

} // anonymous namespace
