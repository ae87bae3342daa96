/**
 * @file
 * Run the verifier passes from the command line.
 *
 * Front-end to verify::PassManager::standard(): builds a MachineConfig
 * (the default Xeon E5440, optionally rewritten by --config fleet
 * overrides) plus whatever artifacts are requested, and runs every
 * applicable pass — the machine passes always. Prints the machine
 * facts the soundness passes reason over, then the diagnostics, as
 * text (default) or as one JSON report (--json; schema in
 * docs/verify-report.schema.json). With --profile and --layouts it
 * also reports the L2, BTB and L1I conflict facts of those layouts
 * under the fixed heap: overflowing sets, the largest per-set distinct
 * count and whether the sharing proofs of DESIGN.md §5p and §5r hold
 * (facts, not diagnostics: a refused proof only means the replay
 * simulates that structure), and for the L1I the share of events whose
 * fetch reaches an overflowing set on the worst layout that takes the
 * per-set fetch, the events it simulates (§5w). The exit code is the
 * verdict:
 *
 *   0  everything verified clean (warnings allowed unless --strict);
 *   1  at least one error diagnostic (--strict: any diagnostic);
 *   2  usage error (unknown profile, malformed --config, ...).
 *
 * Examples:
 *   interf_verify                                   # default machine
 *   interf_verify --config l1i.line=16              # salt collision
 *   interf_verify --profile 400.perlbench --budget 200000 --layouts 8
 *   interf_verify --profile 429.mcf --layouts 4 --config l2.size=64k,l2.assoc=16
 *   interf_verify --profile 429.mcf --trace /tmp/mcf.trace
 *   interf_verify --store /tmp/interf-store --json
 *   interf_verify --store /tmp/interf-store --key 1234abcd5678ef01
 */

#include <algorithm>
#include <cstdio>
#include <limits>
#include <string>

#include "analyze/analyze.hh"
#include "core/config.hh"
#include "core/shared.hh"
#include "layout/heap.hh"
#include "layout/linker.hh"
#include "layout/pagemap.hh"
#include "trace/generator.hh"
#include "trace/io.hh"
#include "trace/replay.hh"
#include "util/digest.hh"
#include "util/json.hh"
#include "util/logging.hh"
#include "util/options.hh"
#include "verify/verify.hh"
#include "workloads/builder.hh"
#include "workloads/spec.hh"

using namespace interf;

namespace
{

constexpr int kExitClean = 0;
constexpr int kExitDiagnostics = 1;
constexpr int kExitUsage = 2;

/** Trace size for the conflict facts when --layouts comes without
 *  --budget: the benches' default scale. */
constexpr i64 kConflictBudget = 300000;

int
usageError(const std::string &msg)
{
    std::fprintf(stderr, "interf_verify: %s\n", msg.c_str());
    return kExitUsage;
}

const char *
replacementName(cache::Replacement r)
{
    return r == cache::Replacement::Lru ? "lru" : "random";
}

/** One cache's facts. requiredTagBits presumes a valid geometry (its
 *  line size must be a power of two), so a cache whose geometry
 *  ConfigSoundness rejected reports none. */
Json
cacheFacts(const cache::CacheConfig &cfg, Addr line_ceiling,
           u64 lru_advance_bound)
{
    Json j = Json::object();
    j.set("name", cfg.name);
    j.set("sizeBytes", cfg.sizeBytes);
    j.set("assoc", cfg.assoc);
    j.set("lineBytes", cfg.lineBytes);
    j.set("replacement", replacementName(cfg.replacement));
    if (cfg.geometryError().empty())
        j.set("requiredTagBits",
              analyze::requiredTagBits(cfg.lineBytes, line_ceiling));
    j.set("tagBits", cache::Cache::kTagBits);
    j.set("epochShift", cache::Cache::kEpochShift);
    j.set("lruAdvanceBound", lru_advance_bound);
    return j;
}

/** One structure's conflict facts over every layout checked. */
struct ConflictSummary
{
    u32 overflowingSets = 0; ///< Worst layout.
    u32 maxPerSet = 0;       ///< Worst layout.
    u32 sharedLayouts = 0;   ///< Layouts whose proof holds.
    /** Layouts whose proof could not run or found an aliasing it must
     *  refuse (ConflictFacts::checked false). */
    u32 uncheckedLayouts = 0;

    void add(const core::ConflictFacts &f)
    {
        overflowingSets = std::max(overflowingSets, f.overflowingSets);
        maxPerSet = std::max(maxPerSet, f.maxPerSet);
        sharedLayouts += f.holds();
        uncheckedLayouts += !f.checked;
    }

    Json toJson(u32 ways, u32 layouts) const
    {
        Json j = Json::object();
        j.set("overflowingSets", overflowingSets);
        j.set("maxPerSet", maxPerSet);
        j.set("ways", ways);
        j.set("sharedLayouts", sharedLayouts);
        j.set("uncheckedLayouts", uncheckedLayouts);
        j.set("proofHolds", sharedLayouts == layouts);
        return j;
    }
};

} // anonymous namespace

int
main(int argc, char **argv)
{
    OptionParser opts("interf_verify",
                      "run the verifier passes over a machine config "
                      "and interferometry artifacts");
    opts.addString("config", "",
                   "fleet overrides applied to the default machine, "
                   "e.g. l1i.line=16,l2.assoc=24,btb.sets=512");
    opts.addString("profile", "",
                   "suite benchmark whose program to build and verify "
                   "(e.g. 400.perlbench)");
    opts.addInt("budget", 0,
                "instruction budget: generate a trace of this size and "
                "verify trace + replay plan (requires --profile; 0 or "
                "at least 10000)");
    opts.addInt("layouts", 0,
                "link this many seeded layouts, verify placements and "
                "page maps, and report their L2/BTB/L1I conflict facts "
                "(requires --profile; at most 4294967295; without "
                "--budget the facts use a 300000-instruction trace)");
    opts.addString("trace", "",
                   "trace file to lint against the profile's program "
                   "(requires --profile)");
    opts.addString("store", "", "artifact store root to verify");
    opts.addString("key", "",
                   "verify only this campaign key under --store "
                   "(16-digit hex, as printed by store_ls)");
    opts.addFlag("shallow",
                 "skip batch payload checksum recomputation in store "
                 "verification");
    opts.addFlag("strict", "any diagnostic (warnings too) exits 1");
    opts.addFlag("json", "print the report as JSON on stdout");
    opts.parse(argc, argv);

    const std::string profile_name = opts.getString("profile");
    const std::string override_spec = opts.getString("config");
    const std::string trace_path = opts.getString("trace");
    const std::string store_root = opts.getString("store");
    const std::string key_text = opts.getString("key");
    i64 budget = opts.getInt("budget");
    const i64 layouts = opts.getInt("layouts");

    if (profile_name.empty() &&
        (budget > 0 || layouts > 0 || !trace_path.empty()))
        return usageError("--budget, --layouts and --trace require "
                          "--profile");
    if (!key_text.empty() && store_root.empty())
        return usageError("--key requires --store");
    if (budget < 0 || layouts < 0)
        return usageError("--budget and --layouts must be >= 0");
    // Layouts are seeded and reported as u32.
    if (layouts > static_cast<i64>(std::numeric_limits<u32>::max()))
        return usageError(strprintf("--layouts must be <= %u",
                                    std::numeric_limits<u32>::max()));
    if (budget > 0 &&
        budget < static_cast<i64>(trace::kMinInstructionBudget))
        return usageError(strprintf(
            "--budget must be 0 (no plan) or >= %llu",
            static_cast<unsigned long long>(trace::kMinInstructionBudget)));

    if (layouts > 0 && budget == 0)
        budget = kConflictBudget;

    core::MachineConfig machine = core::MachineConfig::xeonE5440();
    std::string err;
    if (!analyze::applyConfigOverride(machine, override_spec, &err))
        return usageError("bad --config: " + err);

    // The artifacts the standard pass list runs over. Everything is
    // kept alive here so the borrowed pointers stay valid.
    trace::Program prog;
    trace::Trace tr;
    trace::ReplayPlan plan;
    verify::Artifacts arts;
    arts.machine = &machine;
    arts.path = "machine:" + machine.name;
    if (!profile_name.empty()) {
        if (!workloads::isSuiteBenchmark(profile_name))
            return usageError(strprintf("unknown profile '%s' (see "
                                        "workloads/spec.hh)",
                                        profile_name.c_str()));
        const auto &profile = workloads::specFor(profile_name).profile;
        prog = workloads::buildProgram(profile);
        arts.program = &prog;
        arts.path = "profile:" + profile_name;
        if (budget > 0) {
            trace::TraceGenerator gen(prog, profile.behaviourSeed);
            tr = gen.makeTrace(static_cast<u64>(budget));
            plan = trace::ReplayPlan(prog, tr);
            arts.trace = &tr;
            arts.plan = &plan;
        }
    }
    verify::VerifyResult all = verify::PassManager::standard().run(arts);

    const layout::Linker linker;
    for (i64 i = 0; i < layouts; ++i) {
        layout::LayoutKey key;
        key.seed = static_cast<u64>(i);
        const layout::CodeLayout code = linker.link(prog, key);
        all.merge(verify::verifyLayout(
            prog, code,
            strprintf("%s:layout[%lld]", arts.path.c_str(),
                      static_cast<long long>(i))));
        const layout::PageMap pages(static_cast<u64>(i) + 1);
        verify::verifyPageMap(pages, 1u << 14,
                              strprintf("%s:pagemap[%lld]",
                                        arts.path.c_str(),
                                        static_cast<long long>(i)),
                              all);
    }
    if (!trace_path.empty())
        all.merge(verify::verifyTraceFile(trace_path, prog));

    // Conflict facts, through the evaluator's own choosePaths: the fixed
    // heap's data stream, recorded under the identity map so each
    // layout's page map places it. Only a machine and plan that
    // verified clean can be simulated.
    ConflictSummary l2_facts, btb_facts, l1i_facts;
    // The share of events the per-set fetch simulates, on the worst
    // layout that takes it.
    double overflow_event_share = 0.0;
    const bool conflicts = layouts > 0 && arts.plan && all.ok();
    if (conflicts) {
        const layout::HeapLayout heap(prog,
                                      layout::HeapKey::deterministic());
        const core::PlanOutcomes plan_part =
            core::simulatePlan(machine, plan);
        const core::StreamOutcomes stream = core::simulateStream(
            machine, plan, heap, layout::PageMap(), plan_part);
        for (i64 i = 0; i < layouts; ++i) {
            layout::LayoutKey key;
            key.seed = static_cast<u64>(i);
            const trace::LayoutTables tables(
                plan, linker.link(prog, key),
                layout::PageMap(static_cast<u64>(i) + 1),
                machine.hierarchy.l1i.lineBytes);
            core::PathFacts f;
            const core::SharedPaths paths = core::choosePaths(
                machine, plan, tables, plan_part, stream, &f);
            l2_facts.add(f.l2);
            btb_facts.add(f.btb);
            l1i_facts.add(f.l1i);
            if (paths.l2Data)
                overflow_event_share =
                    std::max(overflow_event_share,
                             static_cast<double>(f.l1i.hotEvents) /
                                 static_cast<double>(plan.eventCount()));
        }
    }

    if (!store_root.empty()) {
        const bool deep = !opts.getFlag("shallow");
        if (!key_text.empty()) {
            u64 key = 0;
            if (!parseDigestHex(key_text, key))
                return usageError("--key must be a 16-digit hex "
                                  "campaign key");
            all.merge(verify::verifyStoreEntry(store_root, key, deep));
        } else {
            all.merge(verify::verifyStoreRoot(store_root, deep));
        }
    }

    const analyze::AddressSpace space =
        arts.program ? analyze::AddressSpace::forProgram(*arts.program)
                     : analyze::AddressSpace::engineDefault();
    analyze::LruAdvanceBounds bounds;
    if (arts.plan)
        bounds = analyze::lruAdvanceBounds(machine, *arts.plan);
    const cache::CacheConfig *caches[3] = {&machine.hierarchy.l1i,
                                           &machine.hierarchy.l1d,
                                           &machine.hierarchy.l2};

    if (opts.getFlag("json")) {
        Json report = Json::object();
        report.set("schemaVersion", 1);
        report.set("tool", "interf_verify");
        Json jm = Json::object();
        jm.set("name", machine.name);
        jm.set("lineCeiling", space.lineCeiling);
        jm.set("codeCeiling", space.codeCeiling);
        Json jcaches = Json::array();
        for (u32 i = 0; i < 3; ++i)
            jcaches.push(cacheFacts(*caches[i], space.lineCeiling,
                                    bounds.forCache(i)));
        jm.set("caches", std::move(jcaches));
        Json btb = Json::object();
        btb.set("sets", machine.btbSets);
        btb.set("ways", machine.btbWays);
        jm.set("btb", std::move(btb));
        report.set("machine", std::move(jm));
        if (conflicts) {
            Json jc = Json::object();
            jc.set("layouts", layouts);
            jc.set("instructions", budget);
            jc.set("l2", l2_facts.toJson(machine.hierarchy.l2.assoc,
                                         static_cast<u32>(layouts)));
            jc.set("btb", btb_facts.toJson(machine.btbWays,
                                           static_cast<u32>(layouts)));
            Json jl1i = l1i_facts.toJson(machine.hierarchy.l1i.assoc,
                                         static_cast<u32>(layouts));
            jl1i.set("overflowEventShare", overflow_event_share);
            jc.set("l1i", std::move(jl1i));
            report.set("conflicts", std::move(jc));
        }
        Json jr;
        if (!Json::parse(all.toJson(), jr, &err))
            panic("VerifyResult::toJson produced invalid JSON: %s",
                  err.c_str());
        report.set("result", std::move(jr));
        std::printf("%s\n", report.dump(2).c_str());
    } else {
        std::printf("machine '%s': line ceiling %#llx, code ceiling "
                    "%#llx\n",
                    machine.name.c_str(),
                    static_cast<unsigned long long>(space.lineCeiling),
                    static_cast<unsigned long long>(space.codeCeiling));
        for (const cache::CacheConfig *c : caches) {
            const std::string tags =
                c->geometryError().empty()
                    ? strprintf("%2u/%u tag bits",
                                analyze::requiredTagBits(
                                    c->lineBytes, space.lineCeiling),
                                cache::Cache::kTagBits)
                    : std::string("geometry rejected");
            std::printf("  %-4s %8llu B, %2u-way, %3u B lines, %-6s: "
                        "%s%s\n",
                        c->name.c_str(),
                        static_cast<unsigned long long>(c->sizeBytes),
                        c->assoc, c->lineBytes,
                        replacementName(c->replacement), tags.c_str(),
                        c->replacement == cache::Replacement::Lru
                            ? ", u32 stamps"
                            : "");
        }
        std::printf("  btb  %u sets x %u ways, u32 full-PC tags\n",
                    machine.btbSets, machine.btbWays);
        if (arts.plan)
            std::printf("  plan: %llu fetch lines -> LRU advance "
                        "bounds %llu / %llu / %llu\n",
                        static_cast<unsigned long long>(
                            bounds.fetchLines),
                        static_cast<unsigned long long>(bounds.l1i),
                        static_cast<unsigned long long>(bounds.l1d),
                        static_cast<unsigned long long>(bounds.l2));
        if (conflicts) {
            std::printf("  conflicts over %lld layouts, %lld "
                        "instructions, fixed heap:\n",
                        static_cast<long long>(layouts),
                        static_cast<long long>(budget));
            auto line = [&](const char *name, const ConflictSummary &c,
                            u32 ways) {
                std::printf("    %-4s %u overflowing sets, largest set "
                            "%u distinct / %u ways, shared on %u/%lld "
                            "layouts, %u unchecked\n",
                            name, c.overflowingSets, c.maxPerSet, ways,
                            c.sharedLayouts,
                            static_cast<long long>(layouts),
                            c.uncheckedLayouts);
            };
            line("l2", l2_facts, machine.hierarchy.l2.assoc);
            line("btb", btb_facts, machine.btbWays);
            line("l1i", l1i_facts, machine.hierarchy.l1i.assoc);
            std::printf("         overflowing sets reach %.1f%% of events "
                        "on the worst per-set layout\n",
                        100.0 * overflow_event_share);
        }
        all.printText(stdout);
    }

    const bool strict_fail =
        opts.getFlag("strict") && all.warningCount() > 0;
    return all.ok() && !strict_fail ? kExitClean : kExitDiagnostics;
}
