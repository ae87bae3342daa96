/** @file Tests for the artifact verifier passes: a seeded-corruption
 *  matrix proving every mutation class is flagged by the right pass
 *  with the right entity reference, and a clean-artifact property test
 *  proving the passes emit zero diagnostics across profiles and seeds. */

#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <optional>

#include <gtest/gtest.h>

#include "layout/linker.hh"
#include "layout/pagemap.hh"
#include "store/fitness.hh"
#include "store/format.hh"
#include "store/store.hh"
#include "trace/generator.hh"
#include "trace/io.hh"
#include "trace/program.hh"
#include "trace/replay.hh"
#include "trace/trace.hh"
#include "util/digest.hh"
#include "verify/verify.hh"
#include "workloads/builder.hh"
#include "workloads/spec.hh"

namespace
{

namespace fs = std::filesystem;
using namespace interf;
using verify::EntityKind;
using verify::Severity;
using verify::VerifyResult;

/** True when the result contains a matching diagnostic. */
bool
hasDiag(const VerifyResult &r, const char *pass, EntityKind kind,
        std::optional<u64> index = std::nullopt,
        Severity severity = Severity::Error)
{
    for (const auto &d : r.diagnostics()) {
        if (d.severity != severity || std::strcmp(d.pass, pass) != 0 ||
            d.entity != kind)
            continue;
        if (index.has_value() && d.index != *index)
            continue;
        return true;
    }
    return false;
}

/** Render every diagnostic for failure messages. */
std::string
render(const VerifyResult &r)
{
    std::string out;
    for (const auto &d : r.diagnostics())
        out += d.text() + "\n";
    return out.empty() ? "(no diagnostics)" : out;
}

#define EXPECT_CLEAN(result)                                             \
    do {                                                                 \
        const auto &r_ = (result);                                       \
        EXPECT_EQ(r_.errorCount(), 0u) << render(r_);                    \
        EXPECT_EQ(r_.warningCount(), 0u) << render(r_);                  \
    } while (0)

// ---------------------------------------------------------------------
// ProgramVerifier: corrupt programs built through the public API.
// ---------------------------------------------------------------------

/** Mutable pieces of the tiny two-procedure test program. */
struct TinySpec
{
    std::vector<trace::Procedure> procs;
    std::vector<std::pair<trace::RegionKind, u64>> regions;
    /** (file index, proc id) placements; files are {"a.o", "b.o"}. */
    std::vector<std::pair<u32, u32>> placements;
};

trace::Program
makeTiny(const std::function<void(TinySpec &)> &mutate = nullptr)
{
    using trace::BasicBlock;
    using trace::MemPattern;
    using trace::MemRef;
    using trace::OpClass;
    using trace::Procedure;

    TinySpec spec;
    spec.regions = {{trace::RegionKind::Global, 4096},
                    {trace::RegionKind::Heap, 65536}};
    spec.placements = {{0, 0}, {1, 1}};

    Procedure main;
    main.name = "main";
    main.fileIndex = 0;
    main.align = 16;
    {
        BasicBlock b0;
        b0.bytes = 12;
        b0.nInsts = 3;
        MemRef load;
        load.regionId = 0;
        load.pattern = MemPattern::Stride;
        load.stride = 8;
        b0.memRefs.push_back(load);
        b0.branch.kind = OpClass::CondBranch;
        b0.branch.pattern = trace::BranchPattern::Biased;
        b0.branch.takenProb = 0.6f;
        b0.branch.targetProc = 0;
        b0.branch.targetBlock = 2;
        main.blocks.push_back(b0);

        BasicBlock b1;
        b1.bytes = 8;
        b1.nInsts = 2;
        b1.branch.kind = OpClass::Call;
        b1.branch.targetProc = 1;
        b1.branch.targetBlock = 0;
        main.blocks.push_back(b1);

        BasicBlock b2;
        b2.bytes = 16;
        b2.nInsts = 4;
        MemRef store;
        store.regionId = 1;
        store.isStore = true;
        store.pattern = MemPattern::Random;
        b2.memRefs.push_back(store);
        b2.branch.kind = OpClass::Return;
        main.blocks.push_back(b2);
    }
    spec.procs.push_back(main);

    Procedure callee;
    callee.name = "callee";
    callee.fileIndex = 1;
    callee.align = 32;
    {
        BasicBlock b0;
        b0.bytes = 8;
        b0.nInsts = 2; // Branchless: falls through to b1.
        callee.blocks.push_back(b0);

        BasicBlock b1;
        b1.bytes = 4;
        b1.nInsts = 1;
        b1.branch.kind = OpClass::Return;
        callee.blocks.push_back(b1);
    }
    spec.procs.push_back(callee);

    if (mutate)
        mutate(spec);

    trace::Program prog;
    prog.addFile("a.o");
    prog.addFile("b.o");
    for (const auto &[kind, size] : spec.regions)
        prog.addRegion(kind, size);
    for (auto &p : spec.procs)
        prog.addProcedure(p);
    for (const auto &[file, pid] : spec.placements)
        prog.placeInFile(file, pid);
    return prog;
}

TEST(ProgramVerifier, CleanTinyProgramHasNoDiagnostics)
{
    EXPECT_CLEAN(verify::verifyProgram(makeTiny()));
}

TEST(ProgramVerifier, BranchTargetProcedureOutOfRange)
{
    auto prog = makeTiny([](TinySpec &s) {
        s.procs[0].blocks[1].branch.targetProc = 99;
    });
    auto r = verify::verifyProgram(prog);
    // Site 1 = main's second block, dense proc-major numbering.
    EXPECT_TRUE(hasDiag(r, "program", EntityKind::Branch, 1))
        << render(r);
}

TEST(ProgramVerifier, BranchTargetBlockOutOfRange)
{
    auto prog = makeTiny([](TinySpec &s) {
        s.procs[0].blocks[0].branch.targetBlock = 57;
    });
    auto r = verify::verifyProgram(prog);
    EXPECT_TRUE(hasDiag(r, "program", EntityKind::Branch, 0))
        << render(r);
}

TEST(ProgramVerifier, IndirectTargetWindowOverrunsProcedure)
{
    auto prog = makeTiny([](TinySpec &s) {
        auto &br = s.procs[0].blocks[1].branch;
        br.kind = trace::OpClass::IndirectBranch;
        br.targetProc = 1;
        br.targetBlock = 1;
        br.indirectTargets = 4; // Window [1, 5) in a 2-block callee.
    });
    auto r = verify::verifyProgram(prog);
    EXPECT_TRUE(hasDiag(r, "program", EntityKind::Branch, 1))
        << render(r);
}

TEST(ProgramVerifier, ConditionalBranchWithoutPattern)
{
    auto prog = makeTiny([](TinySpec &s) {
        s.procs[0].blocks[0].branch.pattern =
            trace::BranchPattern::None;
    });
    auto r = verify::verifyProgram(prog);
    EXPECT_TRUE(hasDiag(r, "program", EntityKind::Branch, 0))
        << render(r);
}

TEST(ProgramVerifier, ProcedureInTwoObjectFiles)
{
    auto prog = makeTiny([](TinySpec &s) {
        s.placements.push_back({1, 0}); // main also listed in b.o.
    });
    auto r = verify::verifyProgram(prog);
    EXPECT_TRUE(hasDiag(r, "program", EntityKind::Procedure, 0))
        << render(r);
}

TEST(ProgramVerifier, ProcedureInNoObjectFile)
{
    auto prog = makeTiny([](TinySpec &s) {
        s.placements = {{0, 0}}; // callee never placed.
    });
    auto r = verify::verifyProgram(prog);
    EXPECT_TRUE(hasDiag(r, "program", EntityKind::Procedure, 1))
        << render(r);
}

TEST(ProgramVerifier, PeriodicBranchWithZeroPeriod)
{
    auto prog = makeTiny([](TinySpec &s) {
        auto &br = s.procs[0].blocks[0].branch;
        br.pattern = trace::BranchPattern::Periodic;
        br.period = 0;
    });
    auto r = verify::verifyProgram(prog);
    EXPECT_TRUE(hasDiag(r, "program", EntityKind::Branch, 0))
        << render(r);
}

TEST(ProgramVerifier, AlignmentNotPowerOfTwo)
{
    auto prog = makeTiny([](TinySpec &s) { s.procs[1].align = 12; });
    auto r = verify::verifyProgram(prog);
    EXPECT_TRUE(hasDiag(r, "program", EntityKind::Procedure, 1))
        << render(r);
}

TEST(ProgramVerifier, ZeroByteBlock)
{
    auto prog = makeTiny([](TinySpec &s) {
        s.procs[1].blocks[0].bytes = 0;
    });
    auto r = verify::verifyProgram(prog);
    // Site 3 = callee's first block (main has 3 blocks).
    EXPECT_TRUE(hasDiag(r, "program", EntityKind::Block, 3))
        << render(r);
}

TEST(ProgramVerifier, MemRefNamesRegionOutOfRange)
{
    auto prog = makeTiny([](TinySpec &s) {
        s.procs[0].blocks[2].memRefs[0].regionId = 7;
    });
    auto r = verify::verifyProgram(prog);
    EXPECT_TRUE(hasDiag(r, "program", EntityKind::MemRef, 2))
        << render(r);
}

TEST(ProgramVerifier, MemRefTargetsEmptyRegion)
{
    auto prog = makeTiny([](TinySpec &s) {
        s.regions[0].second = 0;
    });
    auto r = verify::verifyProgram(prog);
    EXPECT_TRUE(hasDiag(r, "program", EntityKind::MemRef, 0))
        << render(r);
}

TEST(ProgramVerifier, StrideRefWithZeroStride)
{
    auto prog = makeTiny([](TinySpec &s) {
        s.procs[0].blocks[0].memRefs[0].stride = 0;
    });
    auto r = verify::verifyProgram(prog);
    EXPECT_TRUE(hasDiag(r, "program", EntityKind::MemRef, 0))
        << render(r);
}

TEST(ProgramVerifier, StructureDigestMismatchDetected)
{
    auto prog = makeTiny();
    verify::Artifacts a;
    a.program = &prog;
    a.expectedProgramDigest =
        trace::programStructureDigest(prog) ^ 0x1234;
    auto r = verify::PassManager::standard().run(a);
    EXPECT_TRUE(hasDiag(r, "program", EntityKind::Artifact, 0))
        << render(r);
}

// ---------------------------------------------------------------------
// TraceVerifier: a real generated trace, mutated one field at a time.
// ---------------------------------------------------------------------

struct TraceFixture
{
    trace::Program prog;
    trace::Trace trace;

    TraceFixture()
        : prog(workloads::buildProgram(
              workloads::specFor("429.mcf").profile))
    {
        trace::TraceGenerator gen(prog, 42);
        trace = gen.makeTrace(20000);
    }

    /** First event index satisfying @p pred. */
    size_t findEvent(
        const std::function<bool(const trace::BlockEvent &,
                                 const trace::BasicBlock &)> &pred) const
    {
        for (size_t i = 0; i < trace.events.size(); ++i) {
            const auto &ev = trace.events[i];
            if (pred(ev, prog.block(ev.proc, ev.block)))
                return i;
        }
        ADD_FAILURE() << "fixture trace lacks the wanted event shape";
        return 0;
    }
};

TEST(TraceVerifier, CleanGeneratedTraceHasNoDiagnostics)
{
    TraceFixture f;
    EXPECT_CLEAN(verify::verifyTrace(f.prog, f.trace));
}

TEST(TraceVerifier, EventProcedureOutOfRange)
{
    TraceFixture f;
    f.trace.events[5].proc = 0xffff;
    auto r = verify::verifyTrace(f.prog, f.trace);
    EXPECT_TRUE(hasDiag(r, "trace", EntityKind::Event, 5)) << render(r);
}

TEST(TraceVerifier, EventBlockOutOfRange)
{
    TraceFixture f;
    f.trace.events[9].block = 0xfffe;
    auto r = verify::verifyTrace(f.prog, f.trace);
    EXPECT_TRUE(hasDiag(r, "trace", EntityKind::Event, 9)) << render(r);
}

TEST(TraceVerifier, TakenFlagOnBranchlessBlock)
{
    TraceFixture f;
    const size_t i = f.findEvent(
        [](const trace::BlockEvent &, const trace::BasicBlock &bb) {
            return !bb.branch.exists();
        });
    f.trace.events[i].taken = 1;
    auto r = verify::verifyTrace(f.prog, f.trace);
    EXPECT_TRUE(hasDiag(r, "trace", EntityKind::Event, i)) << render(r);
}

TEST(TraceVerifier, IndirectChoiceOnNonIndirectEvent)
{
    TraceFixture f;
    const size_t i = f.findEvent(
        [](const trace::BlockEvent &, const trace::BasicBlock &bb) {
            return bb.branch.kind != trace::OpClass::IndirectBranch;
        });
    f.trace.events[i].indirectChoice = 3;
    auto r = verify::verifyTrace(f.prog, f.trace);
    EXPECT_TRUE(hasDiag(r, "trace", EntityKind::Event, i)) << render(r);
}

TEST(TraceVerifier, MemoryAccessNamesWrongRegion)
{
    TraceFixture f;
    ASSERT_FALSE(f.trace.memIds.empty());
    const u32 bad_region =
        static_cast<u32>(f.prog.regions().size()) + 5;
    f.trace.memIds[0] = trace::makeDataId(bad_region, 0);
    auto r = verify::verifyTrace(f.prog, f.trace);
    EXPECT_TRUE(hasDiag(r, "trace", EntityKind::MemAccess, 0))
        << render(r);
}

TEST(TraceVerifier, MemoryAccessOffsetOutsideRegion)
{
    TraceFixture f;
    ASSERT_FALSE(f.trace.memIds.empty());
    // Keep the access's own region so only the offset is wrong.
    const u32 region = trace::dataIdRegion(f.trace.memIds[0]);
    const u64 size = f.prog.region(region).size;
    f.trace.memIds[0] = trace::makeDataId(region, size + 64);
    auto r = verify::verifyTrace(f.prog, f.trace);
    EXPECT_TRUE(hasDiag(r, "trace", EntityKind::MemAccess, 0))
        << render(r);
}

TEST(TraceVerifier, MemoryStreamLengthMismatch)
{
    TraceFixture f;
    ASSERT_FALSE(f.trace.memIds.empty());
    f.trace.memIds.pop_back();
    auto r = verify::verifyTrace(f.prog, f.trace);
    EXPECT_TRUE(hasDiag(r, "trace", EntityKind::Artifact, 0))
        << render(r);
}

TEST(TraceVerifier, HeaderInstructionCountMismatch)
{
    TraceFixture f;
    f.trace.instCount += 7;
    auto r = verify::verifyTrace(f.prog, f.trace);
    EXPECT_TRUE(hasDiag(r, "trace", EntityKind::Artifact, 0))
        << render(r);
}

TEST(TraceVerifier, FlippedOutcomeBreaksContinuity)
{
    TraceFixture f;
    // A conditional whose taken target differs from its fall-through,
    // so flipping the outcome must contradict the recorded successor.
    const size_t i = f.findEvent(
        [](const trace::BlockEvent &ev, const trace::BasicBlock &bb) {
            const auto &br = bb.branch;
            return br.isConditional() &&
                   !(br.targetProc == ev.proc &&
                     br.targetBlock == ev.block + 1);
        });
    f.trace.events[i].taken ^= 1;
    auto r = verify::verifyTrace(f.prog, f.trace);
    EXPECT_TRUE(hasDiag(r, "trace", EntityKind::Event, i + 1))
        << render(r);
}

TEST(TraceVerifier, TraceMustStartAtMainEntry)
{
    TraceFixture f;
    f.trace.events[0].block = 1; // Main has >1 block in this profile.
    auto r = verify::verifyTrace(f.prog, f.trace);
    EXPECT_TRUE(hasDiag(r, "trace", EntityKind::Event, 0)) << render(r);
}

// ---------------------------------------------------------------------
// ReplayPlanVerifier: structural and equivalence mutations.
// ---------------------------------------------------------------------

struct PlanFixture : TraceFixture
{
    trace::ReplayPlan plan;

    PlanFixture() : plan(prog, trace) {}

    VerifyResult check() const
    {
        return verify::verifyPlan(prog, trace, plan);
    }
};

TEST(ReplayPlanVerifier, CleanCompiledPlanHasNoDiagnostics)
{
    PlanFixture f;
    EXPECT_CLEAN(f.check());
}

TEST(ReplayPlanVerifier, SoAArraySizeMismatch)
{
    PlanFixture f;
    f.plan.flags.pop_back();
    auto r = f.check();
    EXPECT_TRUE(hasDiag(r, "replay-plan", EntityKind::Artifact, 0))
        << render(r);
}

TEST(ReplayPlanVerifier, EventSiteOutOfRange)
{
    PlanFixture f;
    f.plan.site[3] = static_cast<u32>(f.plan.siteCount()) + 10;
    auto r = f.check();
    EXPECT_TRUE(hasDiag(r, "replay-plan", EntityKind::Event, 3))
        << render(r);
}

TEST(ReplayPlanVerifier, TargetSiteOutOfRange)
{
    PlanFixture f;
    f.plan.targetSite[4] = static_cast<u32>(f.plan.siteCount());
    auto r = f.check();
    EXPECT_TRUE(hasDiag(r, "replay-plan", EntityKind::Event, 4))
        << render(r);
}

TEST(ReplayPlanVerifier, MemoryRankOutOfRange)
{
    PlanFixture f;
    ASSERT_FALSE(f.plan.memRank.empty());
    f.plan.memRank[0] = static_cast<u32>(f.plan.memUniverse.size());
    auto r = f.check();
    EXPECT_TRUE(hasDiag(r, "replay-plan", EntityKind::MemAccess, 0))
        << render(r);
}

/** memFirst feeds the L2 first-touch pass, so a plan compiled from an
 *  on-disk trace must restate each id's first access exactly: a later
 *  access of the same id, a swapped pair, a position past the stream
 *  or a missing entry is each a typed diagnostic. */
TEST(ReplayPlanVerifier, CorruptedMemFirstIsRejected)
{
    PlanFixture clean;
    const trace::ReplayPlan &p = clean.plan;
    ASSERT_GT(p.memFirst.size(), 2u);
    // An id accessed twice, and its second access.
    size_t r = p.memFirst.size();
    u32 second = 0;
    for (u32 j = 0; j < p.memCount() && r == p.memFirst.size(); ++j)
        if (p.memFirst[p.memRank[j]] < j) {
            r = p.memRank[j];
            second = j;
        }
    ASSERT_LT(r, p.memFirst.size()) << "no id is accessed twice";
    const u32 first = p.memFirst[r];
    const size_t n_mem = p.memCount();
    auto expect_rejected = [&](const char *what, size_t index,
                               EntityKind kind, auto corrupt) {
        PlanFixture f;
        corrupt(f.plan);
        const auto res = f.check();
        EXPECT_FALSE(res.ok()) << what;
        EXPECT_TRUE(hasDiag(res, "replay-plan", kind, index))
            << what << "\n" << render(res);
    };
    // The id's first access now precedes its recorded first.
    expect_rejected("later access", first, EntityKind::MemAccess,
                    [&](trace::ReplayPlan &plan) {
                        plan.memFirst[r] = second;
                    });
    expect_rejected("swapped", 1, EntityKind::MemAccess,
                    [](trace::ReplayPlan &plan) {
                        std::swap(plan.memFirst[0], plan.memFirst[1]);
                    });
    expect_rejected("past the stream", 0, EntityKind::MemAccess,
                    [&](trace::ReplayPlan &plan) {
                        plan.memFirst[0] = static_cast<u32>(n_mem);
                    });
    expect_rejected("short", 0, EntityKind::Artifact,
                    [](trace::ReplayPlan &plan) {
                        plan.memFirst.pop_back();
                    });
}

TEST(ReplayPlanVerifier, ProcFirstSiteNotDense)
{
    PlanFixture f;
    ASSERT_GT(f.plan.procFirstSite.size(), 1u);
    f.plan.procFirstSite[1] += 1;
    auto r = f.check();
    EXPECT_TRUE(hasDiag(r, "replay-plan", EntityKind::Site))
        << render(r);
}

TEST(ReplayPlanVerifier, FlippedFlagBitBreaksEquivalence)
{
    PlanFixture f;
    f.plan.flags[6] ^= trace::ReplayPlan::kTaken;
    auto r = f.check();
    EXPECT_TRUE(hasDiag(r, "replay-plan", EntityKind::Event, 6))
        << render(r);
}

TEST(ReplayPlanVerifier, FlippedStoreFlagBreaksEquivalence)
{
    PlanFixture f;
    ASSERT_FALSE(f.plan.memIsStore.empty());
    f.plan.memIsStore[0] ^= 1;
    auto r = f.check();
    EXPECT_TRUE(hasDiag(r, "replay-plan", EntityKind::MemAccess, 0))
        << render(r);
}

TEST(ReplayPlanVerifier, FlippedConditionalOutcomeBreaksEquivalence)
{
    PlanFixture f;
    ASSERT_FALSE(f.plan.condTaken.empty());
    f.plan.condTaken[0] ^= 1;
    auto r = f.check();
    EXPECT_TRUE(hasDiag(r, "replay-plan", EntityKind::Event))
        << render(r);
}

TEST(ReplayPlanVerifier, InstCountMismatchBreaksEquivalence)
{
    PlanFixture f;
    f.plan.instCount += 1;
    auto r = f.check();
    EXPECT_TRUE(hasDiag(r, "replay-plan", EntityKind::Artifact, 0))
        << render(r);
}

// ---------------------------------------------------------------------
// LayoutVerifier: real layouts, plus hand-built corrupt tables through
// the verifyPlacements/verifyPageTable seams.
// ---------------------------------------------------------------------

TEST(LayoutVerifier, LinkedLayoutsVerifyClean)
{
    auto prog = workloads::buildProgram(
        workloads::specFor("429.mcf").profile);
    const layout::Linker linker;
    for (u64 seed : {0ull, 1ull, 17ull}) {
        layout::LayoutKey key;
        key.seed = seed;
        EXPECT_CLEAN(
            verify::verifyLayout(prog, linker.link(prog, key)));
    }
}

TEST(LayoutVerifier, OverlappingPlacementsDetected)
{
    auto prog = makeTiny();
    const layout::Linker linker;
    auto code = linker.link(prog, layout::LayoutKey::identity());
    std::vector<Addr> bases = {code.procBase(0), code.procBase(0)};
    VerifyResult r;
    verify::verifyPlacements(prog, bases, "<test>", r);
    EXPECT_TRUE(hasDiag(r, "layout", EntityKind::Placement))
        << render(r);
}

TEST(LayoutVerifier, MisalignedPlacementDetected)
{
    auto prog = makeTiny();
    // Far apart (no overlap), but proc 1 off its 32-byte alignment.
    std::vector<Addr> bases = {0x400000, 0x500010};
    VerifyResult r;
    verify::verifyPlacements(prog, bases, "<test>", r);
    EXPECT_TRUE(hasDiag(r, "layout", EntityKind::Placement, 1))
        << render(r);
}

TEST(LayoutVerifier, DuplicatePhysicalPageDetected)
{
    VerifyResult r;
    verify::verifyPageTable({0, 1, 1, 3}, "<test>", r);
    EXPECT_TRUE(hasDiag(r, "layout", EntityKind::Page, 2)) << render(r);
}

TEST(LayoutVerifier, SeededPageMapsAreBijective)
{
    for (u64 seed : {1ull, 2ull, 99ull}) {
        const layout::PageMap pages(seed);
        VerifyResult r;
        verify::verifyPageMap(pages, 1u << 12, "<test>", r);
        EXPECT_CLEAN(r);
    }
    const layout::PageMap identity;
    VerifyResult r;
    verify::verifyPageMap(identity, 1u << 12, "<test>", r);
    EXPECT_CLEAN(r);
}

// ---------------------------------------------------------------------
// StoreVerifier: on-disk mutations of a real store entry.
// ---------------------------------------------------------------------

struct StoreFixture
{
    static constexpr u64 kKey = 0x1234abcd5678ef01ULL;

    std::string root;

    StoreFixture()
    {
        const auto *info =
            ::testing::UnitTest::GetInstance()->current_test_info();
        root = ::testing::TempDir() + "interf_verify_" +
               info->test_suite_name() + "_" + info->name();
        fs::remove_all(root);
        fs::create_directories(root);

        store::CampaignStore st(root, kKey);
        std::vector<core::Measurement> samples(4);
        for (u32 i = 0; i < samples.size(); ++i) {
            samples[i].layoutSeed = i;
            samples[i].cycles = 1000 + i;
            samples[i].instructions = 900 + i;
        }
        st.appendBatch(0, samples);
    }

    ~StoreFixture() { fs::remove_all(root); }

    std::string manifest() const
    {
        return root + "/" + digestHex(kKey) + "/manifest.bin";
    }

    std::string batch0() const
    {
        return root + "/" + digestHex(kKey) + "/batch-00000000.bin";
    }

    void flipByte(const std::string &path, size_t offset) const
    {
        std::fstream f(path,
                       std::ios::binary | std::ios::in | std::ios::out);
        ASSERT_TRUE(f) << path;
        f.seekg(static_cast<std::streamoff>(offset));
        char c = 0;
        f.get(c);
        f.seekp(static_cast<std::streamoff>(offset));
        f.put(static_cast<char>(c ^ 0x5a));
        ASSERT_TRUE(f) << path;
    }

    void truncate(const std::string &path, size_t keep) const
    {
        fs::resize_file(path, keep);
    }

    VerifyResult check(bool deep = true) const
    {
        return verify::verifyStoreEntry(root, kKey, deep);
    }
};

TEST(StoreVerifier, FreshEntryVerifiesClean)
{
    StoreFixture f;
    EXPECT_CLEAN(f.check());
}

TEST(StoreVerifier, MissingEntryDirectoryIsAnError)
{
    StoreFixture f;
    auto r = verify::verifyStoreEntry(f.root, 0xdeadbeefdeadbeefULL);
    EXPECT_TRUE(hasDiag(r, "store", EntityKind::Artifact, 0))
        << render(r);
}

TEST(StoreVerifier, ManifestMagicCorruptionDetected)
{
    StoreFixture f;
    f.flipByte(f.manifest(), 0);
    auto r = f.check();
    EXPECT_TRUE(hasDiag(r, "store", EntityKind::Manifest, 0))
        << render(r);
}

TEST(StoreVerifier, ManifestSealDigestMismatchDetected)
{
    StoreFixture f;
    // A byte inside the batch table: framing stays sane, seal breaks.
    f.flipByte(f.manifest(), store::format::kManifestHeaderBytes + 4);
    auto r = f.check();
    EXPECT_TRUE(hasDiag(r, "store", EntityKind::Manifest, 0))
        << render(r);
}

TEST(StoreVerifier, TruncatedManifestDetected)
{
    StoreFixture f;
    f.truncate(f.manifest(), 10);
    auto r = f.check();
    EXPECT_TRUE(hasDiag(r, "store", EntityKind::Manifest, 0))
        << render(r);
}

TEST(StoreVerifier, MissingBatchFileDetected)
{
    StoreFixture f;
    fs::remove(f.batch0());
    auto r = f.check();
    EXPECT_TRUE(hasDiag(r, "store", EntityKind::Batch, 0)) << render(r);
}

TEST(StoreVerifier, BatchHeaderManifestMismatchDetected)
{
    StoreFixture f;
    // The batch header's `first` field (after magic+version+key).
    f.flipByte(f.batch0(), 8 + 4 + 8);
    auto r = f.check();
    EXPECT_TRUE(hasDiag(r, "store", EntityKind::Batch, 0)) << render(r);
}

TEST(StoreVerifier, BatchPayloadBitflipDetectedOnlyByDeepCheck)
{
    StoreFixture f;
    f.flipByte(f.batch0(), store::format::kBatchHeaderBytes + 3);
    auto deep = f.check(true);
    EXPECT_TRUE(hasDiag(deep, "store", EntityKind::Batch, 0))
        << render(deep);
    EXPECT_CLEAN(f.check(false)); // Shallow trusts the header checksum.
}

TEST(StoreVerifier, TruncatedBatchPayloadDetected)
{
    StoreFixture f;
    f.truncate(f.batch0(), store::format::kBatchHeaderBytes + 5);
    auto r = f.check();
    EXPECT_TRUE(hasDiag(r, "store", EntityKind::Batch, 0)) << render(r);
}

TEST(StoreVerifier, OrphanBatchIsAWarningNotAnError)
{
    StoreFixture f;
    // A batch committed right before a crash, manifest not yet
    // rewritten: valid crash window, must not fail verification.
    fs::copy_file(f.batch0(), f.root + "/" + digestHex(f.kKey) +
                                  "/batch-00000777.bin");
    auto r = f.check();
    EXPECT_TRUE(r.ok()) << render(r);
    EXPECT_TRUE(hasDiag(r, "store", EntityKind::Batch, 777,
                        Severity::Warning))
        << render(r);
}

TEST(StoreVerifier, StaleTempFileIsAWarning)
{
    StoreFixture f;
    std::ofstream(f.root + "/" + digestHex(f.kKey) +
                  "/batch-00000000.bin.tmp.123")
        << "partial";
    auto r = f.check();
    EXPECT_TRUE(r.ok()) << render(r);
    EXPECT_TRUE(hasDiag(r, "store", EntityKind::Artifact, 0,
                        Severity::Warning))
        << render(r);
}

TEST(StoreVerifier, RootSweepFindsCorruptEntryAndForeignDir)
{
    StoreFixture f;
    f.flipByte(f.manifest(), 0);
    fs::create_directories(f.root + "/not-a-key");
    std::vector<u64> keys;
    auto r = verify::verifyStoreRoot(f.root, true, &keys);
    EXPECT_FALSE(r.ok());
    ASSERT_EQ(keys.size(), 1u);
    EXPECT_EQ(keys[0], f.kKey);
    EXPECT_TRUE(hasDiag(r, "store", EntityKind::Artifact, 0,
                        Severity::Warning))
        << render(r);
}

TEST(StoreVerifier, FitnessRootVerifiesWithoutDiagnostics)
{
    // A store root shared by a campaign and an optimizer search: the
    // `opt-<base key>` directory is linted entry by entry, not flagged
    // as a foreign directory.
    StoreFixture f;
    store::FitnessStore fit(f.root, 0x0123456789abcdefULL);
    core::Measurement m;
    m.cycles = 5000;
    m.instructions = 4000;
    fit.save(1, m);
    fit.save(2, m);
    for (bool deep : {true, false}) {
        auto r = verify::verifyStoreRoot(f.root, deep);
        EXPECT_TRUE(r.diagnostics().empty()) << render(r);
    }
}

TEST(StoreVerifier, FitnessStaleTempFileIsAWarning)
{
    StoreFixture f;
    store::FitnessStore fit(f.root, 7);
    fit.save(1, core::Measurement{});
    std::ofstream(fit.dir() + "/fit-0000000000000001.bin.tmp.123")
        << "partial";
    auto r = verify::verifyStoreRoot(f.root, true);
    EXPECT_TRUE(r.ok()) << render(r);
    ASSERT_EQ(r.diagnostics().size(), 1u) << render(r);
    EXPECT_TRUE(hasDiag(r, "store", EntityKind::Artifact, 0,
                        Severity::Warning))
        << render(r);
    EXPECT_NE(r.diagnostics()[0].message.find("stale temp file"),
              std::string::npos)
        << render(r);
}

// ---------------------------------------------------------------------
// Trace files, the pass manager, and the diagnostics plumbing.
// ---------------------------------------------------------------------

TEST(VerifyTraceFile, CleanFileRoundTripsAndCorruptionIsDiagnosed)
{
    TraceFixture f;
    const std::string path =
        ::testing::TempDir() + "interf_verify_trace.bin";
    trace::saveTrace(path, f.prog, f.trace);

    EXPECT_CLEAN(verify::verifyTraceFile(path, f.prog));

    // Corrupt the magic: the file-level reader owns the diagnostic.
    {
        std::fstream fh(path, std::ios::binary | std::ios::in |
                                  std::ios::out);
        fh.put('X');
    }
    auto r = verify::verifyTraceFile(path, f.prog);
    EXPECT_TRUE(hasDiag(r, "trace-file", EntityKind::Artifact, 0))
        << render(r);
    fs::remove(path);
}

TEST(VerifyTraceFile, MissingFileIsDiagnosedNotFatal)
{
    TraceFixture f;
    auto r = verify::verifyTraceFile("/nonexistent/trace.bin", f.prog);
    EXPECT_TRUE(hasDiag(r, "trace-file", EntityKind::Artifact, 0))
        << render(r);
}

TEST(TryLoadTrace, HugeEventCountFailsAsTruncation)
{
    TraceFixture f;
    std::stringstream ss;
    trace::saveTrace(ss, f.prog, f.trace);
    std::string bytes = ss.str();
    // The event count sits after magic(8)+version(4)+checksum(8)+five
    // u64 aggregates: patch it to an absurd value.
    const u64 huge = 1ULL << 60;
    std::memcpy(&bytes[8 + 4 + 8 + 5 * 8], &huge, sizeof(huge));
    std::istringstream is(bytes);
    trace::Trace loaded;
    std::string error;
    EXPECT_FALSE(trace::tryLoadTrace(is, f.prog, loaded, error));
    EXPECT_NE(error.find("truncated"), std::string::npos) << error;
}

TEST(PassManager, StandardPipelineRunsOnlyApplicablePasses)
{
    // No artifacts at all: nothing runs, nothing is reported.
    verify::Artifacts empty;
    EXPECT_CLEAN(verify::PassManager::standard().run(empty));

    // Full program+trace+plan artifact set: clean across all passes.
    PlanFixture f;
    verify::Artifacts a;
    a.program = &f.prog;
    a.trace = &f.trace;
    a.plan = &f.plan;
    EXPECT_CLEAN(verify::PassManager::standard().run(a));
}

TEST(Diagnostics, JsonAndTextRenderingCarryTheEntityReference)
{
    auto prog = makeTiny([](TinySpec &s) {
        s.procs[0].blocks[0].branch.targetBlock = 57;
    });
    auto r = verify::verifyProgram(prog, "<tiny>");
    ASSERT_FALSE(r.ok());
    const std::string json = r.toJson();
    EXPECT_NE(json.find("\"clean\": false"), std::string::npos) << json;
    EXPECT_NE(json.find("\"pass\": \"program\""), std::string::npos)
        << json;
    EXPECT_NE(json.find("\"entity\": \"branch\""), std::string::npos)
        << json;
    const std::string text = r.diagnostics()[0].text();
    EXPECT_NE(text.find("<tiny>"), std::string::npos) << text;
}

TEST(Diagnostics, SinkCapsRunawayEmission)
{
    VerifyResult out;
    {
        verify::Sink sink(out, "<cap>", "test");
        for (u64 i = 0; i < 1000; ++i)
            sink.error(EntityKind::Event, i, "boom");
    }
    // The cap plus the suppression note.
    EXPECT_LE(out.diagnostics().size(),
              verify::Sink::kMaxDiagnostics + 1);
    EXPECT_EQ(out.errorCount() + out.warningCount(),
              out.diagnostics().size());
}

// ---------------------------------------------------------------------
// Clean-artifact property: across profiles and seeds, every pass over
// every pipeline artifact emits zero diagnostics.
// ---------------------------------------------------------------------

class CleanArtifacts : public ::testing::TestWithParam<const char *>
{
};

TEST_P(CleanArtifacts, WholePipelineVerifiesWithZeroDiagnostics)
{
    auto profile = workloads::specFor(GetParam()).profile;
    for (u64 seed_bump : {0ull, 1ull}) {
        profile.behaviourSeed += seed_bump;
        const auto prog = workloads::buildProgram(profile);
        EXPECT_CLEAN(verify::verifyProgram(prog));

        trace::TraceGenerator gen(prog, profile.behaviourSeed);
        const auto tr = gen.makeTrace(15000);
        EXPECT_CLEAN(verify::verifyTrace(prog, tr));

        const trace::ReplayPlan plan(prog, tr);
        EXPECT_CLEAN(verify::verifyPlan(prog, tr, plan));

        const layout::Linker linker;
        layout::LayoutKey key;
        key.seed = 7 + seed_bump;
        EXPECT_CLEAN(verify::verifyLayout(prog, linker.link(prog, key)));

        const layout::PageMap pages(11 + seed_bump);
        VerifyResult pr;
        verify::verifyPageMap(pages, 1u << 12, "<pagemap>", pr);
        EXPECT_CLEAN(pr);
    }
}

INSTANTIATE_TEST_SUITE_P(Profiles, CleanArtifacts,
                         ::testing::Values("400.perlbench", "429.mcf",
                                           "433.milc", "459.GemsFDTD",
                                           "483.xalancbmk"),
                         [](const auto &info) {
                             std::string name = info.param;
                             for (auto &c : name)
                                 if (c == '.')
                                     c = '_';
                             return name;
                         });

} // anonymous namespace
