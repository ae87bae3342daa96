/** @file Tests for the static soundness analyzer: a seeded-unsoundness
 *  matrix proving every invariant-breaking config class is rejected by
 *  the right pass with the right entity reference, clean-acceptance
 *  checks over the default machine and bundled profiles, and the
 *  fail-closed trust boundary. Mirrors the test_verify.cc
 *  corruption-matrix style. */

#include <cstdlib>
#include <cstring>
#include <optional>

#include <gtest/gtest.h>

#include "analyze/analyze.hh"
#include "core/config.hh"
#include "interferometry/campaign.hh"
#include "layout/linker.hh"
#include "trace/generator.hh"
#include "trace/program.hh"
#include "trace/replay.hh"
#include "verify/verify.hh"
#include "workloads/builder.hh"
#include "workloads/spec.hh"

namespace
{

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

core::MachineConfig
machineWith(const std::string &override_spec)
{
    core::MachineConfig m = core::MachineConfig::xeonE5440();
    std::string err;
    EXPECT_TRUE(analyze::applyConfigOverride(m, override_spec, &err))
        << err;
    return m;
}

// ---------------------------------------------------------------------
// Clean acceptance: the default machine and the bundled profiles.
// ---------------------------------------------------------------------

TEST(Analyze, DefaultConfigIsSound)
{
    EXPECT_CLEAN(
        analyze::analyzeMachine(core::MachineConfig::xeonE5440()));
}

TEST(Analyze, BundledProfilesAnalyzeClean)
{
    const auto machine = core::MachineConfig::xeonE5440();
    for (const char *name : {"400.perlbench", "429.mcf", "445.gobmk"}) {
        const auto &profile = workloads::specFor(name).profile;
        auto prog = workloads::buildProgram(profile);
        trace::TraceGenerator gen(prog, profile.behaviourSeed);
        auto tr = gen.makeTrace(30000);
        trace::ReplayPlan plan(prog, tr);
        EXPECT_CLEAN(analyze::analyzeMachine(machine, &plan, &prog, name));
    }
}

// ---------------------------------------------------------------------
// ConfigSoundness: tag width, epoch salt, geometry, representation.
// ---------------------------------------------------------------------

TEST(Analyze, EpochSaltCollisionRejected)
{
    // 16-byte lines need 44 tag bits for the default address space —
    // two of them land inside the epoch-salt field at bits 42..47, so
    // a salted tag could alias a real line address across epochs.
    auto r = analyze::analyzeMachine(machineWith("l1i.line=16"));
    EXPECT_TRUE(hasDiag(r, "config-soundness", EntityKind::Cache, 0))
        << render(r);
    // The other caches keep 64-byte lines and stay sound.
    EXPECT_FALSE(hasDiag(r, "config-soundness", EntityKind::Cache, 1))
        << render(r);
    EXPECT_FALSE(hasDiag(r, "config-soundness", EntityKind::Cache, 2))
        << render(r);
}

TEST(Analyze, ThirtyTwoByteLinesSitAtTheSaltBoundary)
{
    // 32-byte lines need exactly kEpochShift tag bits: the widest
    // geometry that is still sound. Guards off-by-one drift in the
    // boundary comparison.
    EXPECT_CLEAN(analyze::analyzeMachine(
        machineWith("l1i.line=32,l1d.line=32,l2.line=32")));
}

TEST(Analyze, TagWidthOverflowRejectedForHugeAddressSpace)
{
    // A 2^55 line-address ceiling needs 49 tag bits with 64-byte
    // lines — past the whole 48-bit split-tag field, caught for every
    // cache level independently.
    verify::Artifacts a;
    const auto machine = core::MachineConfig::xeonE5440();
    a.machine = &machine;
    a.lineAddrCeiling = Addr{1} << 55;
    a.path = "<huge address space>";
    auto r = verify::PassManager::standard().run(a);
    for (u64 cache : {0u, 1u, 2u})
        EXPECT_TRUE(
            hasDiag(r, "config-soundness", EntityKind::Cache, cache))
            << render(r);
}

TEST(Analyze, BrokenGeometryRejectedNotFatal)
{
    // Non-power-of-two line size: a typed diagnostic, no fatal().
    auto r = analyze::analyzeMachine(machineWith("l1d.line=48"));
    EXPECT_TRUE(hasDiag(r, "config-soundness", EntityKind::Cache, 1))
        << render(r);
}

TEST(Analyze, BtbTagOverflowRejected)
{
    // Branch PCs at 2^33 cannot round-trip through the u32 full-PC
    // BTB tag.
    VerifyResult r;
    analyze::auditBtbConfig(1024, 4, Addr{1} << 33, "<btb>", r);
    EXPECT_TRUE(hasDiag(r, "config-soundness", EntityKind::Btb, 0))
        << render(r);

    VerifyResult ok;
    analyze::auditBtbConfig(1024, 4, Addr{1} << 31, "<btb>", ok);
    EXPECT_CLEAN(ok);
}

TEST(Analyze, BtbBadGeometryRejected)
{
    VerifyResult r;
    analyze::auditBtbConfig(1000, 4, Addr{1} << 31, "<btb>", r);
    EXPECT_TRUE(hasDiag(r, "config-soundness", EntityKind::Btb, 0))
        << render(r);
    VerifyResult wide;
    analyze::auditBtbConfig(64, 33, Addr{1} << 31, "<btb>", wide);
    EXPECT_TRUE(hasDiag(wide, "config-soundness", EntityKind::Btb, 0))
        << render(wide);
}

// ---------------------------------------------------------------------
// PlanBounds: the u32 stamp-clock wrap bound.
// ---------------------------------------------------------------------

TEST(Analyze, StampWrapBoundSeam)
{
    const auto machine = core::MachineConfig::xeonE5440();
    const u64 wrap = u64{1} << 32;

    // An LRU cache (L1I geometry) whose per-replay advance can reach
    // the wrap: victim choice could invert mid-replay.
    VerifyResult over;
    analyze::checkLruAdvanceBound(machine.hierarchy.l1i, wrap, 0,
                                  "<plan>", over);
    EXPECT_TRUE(hasDiag(over, "plan-bounds", EntityKind::Cache, 0))
        << render(over);

    // One below the wrap is proven safe.
    VerifyResult under;
    analyze::checkLruAdvanceBound(machine.hierarchy.l1i, wrap - 1, 0,
                                  "<plan>", under);
    EXPECT_CLEAN(under);

    // Random-replacement caches keep no stamps: any bound is fine.
    auto random_l2 = machine.hierarchy.l2;
    random_l2.replacement = cache::Replacement::Random;
    VerifyResult random;
    analyze::checkLruAdvanceBound(random_l2, wrap * 16, 2, "<plan>",
                                  random);
    EXPECT_CLEAN(random);
}

TEST(Analyze, PlanWithWrappingAdvanceBoundRejected)
{
    // A hand-built plan whose blocks are so large the L1I fetch-line
    // bound overflows the u32 stamp clock within one replay. 70
    // events of ~4 GiB of code each bound ~4.7e9 fetch lines.
    const auto machine = core::MachineConfig::xeonE5440();
    trace::ReplayPlan plan;
    plan.site.assign(70, 0);
    plan.bytes.assign(70, 0xfff00000u);

    auto bounds = analyze::lruAdvanceBounds(machine, plan);
    EXPECT_GE(bounds.l1i, u64{1} << 32);

    auto r = analyze::analyzeMachine(machine, &plan);
    // The L1I and the L2 (both u32 stamps; the L2's advance bound is
    // 2 * fetchLines) trip the wrap bound; L1D advance is bounded by
    // the (empty) memory stream.
    EXPECT_TRUE(hasDiag(r, "plan-bounds", EntityKind::Cache, 0))
        << render(r);
    EXPECT_FALSE(hasDiag(r, "plan-bounds", EntityKind::Cache, 1))
        << render(r);
    EXPECT_TRUE(hasDiag(r, "plan-bounds", EntityKind::Cache, 2))
        << render(r);
}

TEST(Analyze, AdvanceBoundsFollowPlanCounts)
{
    const auto &profile = workloads::specFor("429.mcf").profile;
    auto prog = workloads::buildProgram(profile);
    trace::TraceGenerator gen(prog, profile.behaviourSeed);
    auto tr = gen.makeTrace(20000);
    trace::ReplayPlan plan(prog, tr);

    const auto machine = core::MachineConfig::xeonE5440();
    auto bounds = analyze::lruAdvanceBounds(machine, plan);

    u64 fetch = 0;
    const u32 line = machine.hierarchy.l1i.lineBytes;
    for (u32 b : plan.bytes)
        fetch += b / line + 1;
    EXPECT_EQ(bounds.fetchLines, fetch);
    EXPECT_EQ(bounds.l1i, 2 * fetch);
    EXPECT_EQ(bounds.l1d, plan.memCount());
    EXPECT_EQ(bounds.l2, 2 * fetch + plan.memCount());
    EXPECT_EQ(bounds.forCache(0), bounds.l1i);
    EXPECT_EQ(bounds.forCache(1), bounds.l1d);
    EXPECT_EQ(bounds.forCache(2), bounds.l2);
}

// ---------------------------------------------------------------------
// Branch-target site injectivity (verify::checkSiteAddressInjectivity).
// ---------------------------------------------------------------------

TEST(Analyze, AliasedBranchTargetSitesCaught)
{
    // Sites 0 and 2 are both branch targets at the same address: u32
    // site tokens would call unequal targets equal. The diagnostic
    // names the higher site.
    VerifyResult r;
    verify::checkSiteAddressInjectivity({0x1000, 0x2000, 0x1000},
                                        {1, 1, 1}, "<sites>", r);
    EXPECT_TRUE(hasDiag(r, "layout", EntityKind::Site, 2)) << render(r);

    // An alias is only unsound if both sites can be targets.
    VerifyResult ok;
    verify::checkSiteAddressInjectivity({0x1000, 0x1000}, {1, 0},
                                        "<sites>", ok);
    EXPECT_CLEAN(ok);
}

TEST(AnalyzeDeathTest, FillCodeRejectsAliasedTargetSites)
{
    // Two procedures of two 16-byte blocks each; callee's first block
    // (dense site 2) has zero bytes, so it shares its address with
    // site 3. A plan in which both are branch targets must not get
    // layout tables while verification is on.
    trace::Program prog;
    prog.addFile("a.o");
    prog.addFile("b.o");
    u32 site = 0;
    for (u32 p = 0; p < 2; ++p) {
        trace::Procedure proc;
        proc.name = p == 0 ? "main" : "callee";
        proc.fileIndex = p;
        proc.align = 16;
        for (u32 b = 0; b < 2; ++b, ++site) {
            trace::BasicBlock blk;
            blk.bytes = site == 2 ? 0 : 16;
            blk.nInsts = 4;
            if (b == 1)
                blk.branch.kind = trace::OpClass::Return;
            proc.blocks.push_back(blk);
        }
        prog.addProcedure(proc);
        prog.placeInFile(p, p);
    }
    trace::ReplayPlan plan;
    plan.siteProc = {0, 0, 1, 1};
    plan.siteBlock = {0, 1, 0, 1};
    plan.targetSite = {2, 3};
    const auto code =
        layout::Linker().link(prog, layout::LayoutSpec::authored(prog));

    // The threadsafe style re-runs this test in a fresh process, so
    // verifyOnTrust() reads INTERF_VERIFY there for the first time.
    ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
    const char *saved = std::getenv("INTERF_VERIFY");
    const std::string previous = saved ? saved : "";
    setenv("INTERF_VERIFY", "1", 1);
    EXPECT_DEATH(trace::LayoutTables(plan, code),
                 "branch-target sites 2 and 3 share address");
    if (saved)
        setenv("INTERF_VERIFY", previous.c_str(), 1);
    else
        unsetenv("INTERF_VERIFY");
}

// ---------------------------------------------------------------------
// Config overrides + the fail-closed trust boundary.
// ---------------------------------------------------------------------

TEST(Analyze, ConfigOverrideRoundTrip)
{
    auto m = machineWith(
        "l1i.line=32,l2.size=12m,l2.assoc=24,l1d.repl=random,"
        "btb.sets=4096,btb.ways=8");
    EXPECT_EQ(m.hierarchy.l1i.lineBytes, 32u);
    EXPECT_EQ(m.hierarchy.l2.sizeBytes, u64{12} << 20);
    EXPECT_EQ(m.hierarchy.l2.assoc, 24u);
    EXPECT_EQ(m.hierarchy.l1d.replacement, cache::Replacement::Random);
    EXPECT_EQ(m.btbSets, 4096u);
    EXPECT_EQ(m.btbWays, 8u);
}

TEST(Analyze, ConfigOverrideErrorsAreTyped)
{
    core::MachineConfig m = core::MachineConfig::xeonE5440();
    std::string err;
    EXPECT_FALSE(analyze::applyConfigOverride(m, "bogus=1", &err));
    EXPECT_NE(err.find("unit.field=value"), std::string::npos) << err;
    EXPECT_FALSE(analyze::applyConfigOverride(m, "l3.size=1m", &err));
    EXPECT_NE(err.find("unknown unit"), std::string::npos) << err;
    EXPECT_FALSE(analyze::applyConfigOverride(m, "l1i.line=huge", &err));
    EXPECT_NE(err.find("bad numeric"), std::string::npos) << err;
    EXPECT_FALSE(analyze::applyConfigOverride(m, "btb.assoc=4", &err));
    EXPECT_NE(err.find("unknown btb field"), std::string::npos) << err;

    // Nothing is truncated to its field: each of these used to be
    // analyzed as a different, valid machine (64-byte lines, 4 ways,
    // a 1 MiB L2).
    const core::MachineConfig before = m;
    EXPECT_FALSE(
        analyze::applyConfigOverride(m, "l1i.line=4294967360", &err));
    EXPECT_NE(err.find("does not fit its 32-bit field"),
              std::string::npos)
        << err;
    EXPECT_FALSE(
        analyze::applyConfigOverride(m, "btb.ways=4294967300", &err));
    EXPECT_NE(err.find("does not fit its 32-bit field"),
              std::string::npos)
        << err;
    EXPECT_FALSE(
        analyze::applyConfigOverride(m, "l2.size=17592186044417m", &err));
    EXPECT_NE(err.find("overflows 64 bits"), std::string::npos) << err;
    EXPECT_FALSE(analyze::applyConfigOverride(
        m, "l2.size=99999999999999999999", &err));
    EXPECT_NE(err.find("overflows 64 bits"), std::string::npos) << err;
    EXPECT_FALSE(analyze::applyConfigOverride(m, "l1d.assoc=-8", &err));
    EXPECT_NE(err.find("negative value"), std::string::npos) << err;
    EXPECT_FALSE(analyze::applyConfigOverride(m, "btb.sets= 512", &err));
    EXPECT_NE(err.find("bad numeric"), std::string::npos) << err;
    EXPECT_EQ(m.hierarchy.l1i.lineBytes, before.hierarchy.l1i.lineBytes);
    EXPECT_EQ(m.hierarchy.l2.sizeBytes, before.hierarchy.l2.sizeBytes);
    EXPECT_EQ(m.hierarchy.l1d.assoc, before.hierarchy.l1d.assoc);
    EXPECT_EQ(m.btbWays, before.btbWays);

    // The largest values that do fit are accepted as written.
    EXPECT_TRUE(
        analyze::applyConfigOverride(m, "l1i.line=4294967295", &err));
    EXPECT_EQ(m.hierarchy.l1i.lineBytes, 4294967295u);
    EXPECT_TRUE(
        analyze::applyConfigOverride(m, "l2.size=17592186044415m", &err));
    EXPECT_EQ(m.hierarchy.l2.sizeBytes, u64{17592186044415} << 20);
}

TEST(AnalyzeDeathTest, RequireSoundMachinePanicsOnUnsoundConfig)
{
    auto m = machineWith("l1i.line=16");
    EXPECT_DEATH(
        analyze::requireSoundMachine(m, nullptr, "test boundary"),
        "test boundary");
}

TEST(AnalyzeDeathTest, CampaignRefusesUnsoundMachine)
{
    interferometry::CampaignConfig cfg;
    cfg.instructionBudget = 20000;
    cfg.initialLayouts = 2;
    cfg.maxLayouts = 2;
    cfg.machine.hierarchy.l1i.lineBytes = 16;
    EXPECT_DEATH(interferometry::Campaign(
                     workloads::defaultProfile("unsound"), cfg),
                 "Campaign machine config");
}

} // anonymous namespace
