/**
 * @file
 * Run the machine-config soundness analyzer from the command line.
 *
 * Front-end to src/analyze: builds a MachineConfig (the default Xeon
 * E5440, optionally rewritten by --config fleet overrides), optionally
 * binds a profile's program / a generated replay plan / seeded layout
 * specs, and runs the ConfigSoundness / PlanBounds / LayoutInjectivity
 * passes. Prints the derived facts plus diagnostics as text (default)
 * or JSON (--json; schema in docs/analyze-report.schema.json). Exit
 * codes match interf_verify:
 *
 *   0  the config is proven sound (warnings allowed unless --strict);
 *   1  at least one error diagnostic (--strict: any diagnostic);
 *   2  usage error (unknown profile, malformed --config, ...).
 *
 * Examples:
 *   interf_analyze                                  # default machine
 *   interf_analyze --config l1i.line=16             # salt collision
 *   interf_analyze --profile 400.perlbench --budget 200000 --layouts 8
 *   interf_analyze --max-addr 52 --json             # huge address space
 */

#include <cstdio>
#include <string>
#include <vector>

#include "analyze/analyze.hh"
#include "core/config.hh"
#include "layout/linker.hh"
#include "trace/generator.hh"
#include "trace/replay.hh"
#include "util/json.hh"
#include "util/logging.hh"
#include "util/options.hh"
#include "workloads/builder.hh"
#include "workloads/spec.hh"

using namespace interf;

namespace
{

constexpr int kExitClean = 0;
constexpr int kExitDiagnostics = 1;
constexpr int kExitUsage = 2;

int
usageError(const std::string &msg)
{
    std::fprintf(stderr, "interf_analyze: %s\n", msg.c_str());
    return kExitUsage;
}

const char *
replacementName(cache::Replacement r)
{
    return r == cache::Replacement::Lru ? "lru" : "random";
}

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
    j.set("requiredTagBits",
          analyze::requiredTagBits(cfg.lineBytes, line_ceiling));
    j.set("tagBits", cache::Cache::kTagBits);
    j.set("epochShift", cache::Cache::kEpochShift);
    j.set("lruAdvanceBound", lru_advance_bound);
    return j;
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    OptionParser opts("interf_analyze",
                      "statically prove the replay kernel's compaction "
                      "invariants for a machine config");
    opts.addString("config", "",
                   "fleet overrides applied to the default machine, "
                   "e.g. l1i.line=16,l2.assoc=24,btb.sets=512");
    opts.addString("profile", "",
                   "suite benchmark whose program bounds the code "
                   "address space (e.g. 400.perlbench)");
    opts.addInt("budget", 0,
                "instruction budget: generate a trace and run the "
                "plan wrap-bound analysis (requires --profile)");
    opts.addInt("layouts", 0,
                "expand this many seeded layout specs and run the "
                "injectivity proof (requires --profile)");
    opts.addInt("max-addr", 0,
                "override the cache-indexed address ceiling to "
                "2^BITS (what-if analysis for larger address spaces)");
    opts.addFlag("strict", "any diagnostic (warnings too) exits 1");
    opts.addFlag("json", "print the report as JSON on stdout");
    opts.parse(argc, argv);

    const std::string profile_name = opts.getString("profile");
    const std::string override_spec = opts.getString("config");
    const i64 budget = opts.getInt("budget");
    const i64 layouts = opts.getInt("layouts");
    const i64 max_addr = opts.getInt("max-addr");

    if (profile_name.empty() && (budget > 0 || layouts > 0))
        return usageError("--budget and --layouts require --profile");
    if (budget < 0 || layouts < 0)
        return usageError("--budget and --layouts must be >= 0");
    if (max_addr < 0 || max_addr > 63)
        return usageError("--max-addr must be in 0..63");

    core::MachineConfig machine = core::MachineConfig::xeonE5440();
    if (!override_spec.empty()) {
        std::string err;
        if (!analyze::applyConfigOverride(machine, override_spec, &err))
            return usageError("bad --config: " + err);
    }

    // Bind the optional artifacts. Everything is kept alive here so
    // the borrowed Artifacts pointers stay valid through the run.
    trace::Program prog;
    trace::Trace tr;
    trace::ReplayPlan plan;
    std::vector<layout::LayoutSpec> specs;
    verify::Artifacts arts;
    arts.machine = &machine;
    arts.path = strprintf("<machine '%s'>", machine.name.c_str());

    if (!profile_name.empty()) {
        if (!workloads::isSuiteBenchmark(profile_name))
            return usageError(strprintf("unknown profile '%s' (see "
                                        "workloads/spec.hh)",
                                        profile_name.c_str()));
        const auto &profile = workloads::specFor(profile_name).profile;
        prog = workloads::buildProgram(profile);
        arts.program = &prog;
        arts.path = strprintf("<machine '%s' x %s>",
                              machine.name.c_str(),
                              profile_name.c_str());
        if (budget > 0) {
            trace::TraceGenerator gen(prog, profile.behaviourSeed);
            tr = gen.makeTrace(static_cast<u64>(budget));
            plan = trace::ReplayPlan(prog, tr);
            arts.plan = &plan;
        }
        const layout::Linker linker;
        for (i64 i = 0; i < layouts; ++i) {
            layout::LayoutKey key;
            key.seed = static_cast<u64>(i);
            specs.push_back(linker.specFor(prog, key));
        }
        if (!specs.empty())
            arts.layoutSpecs = &specs;
    }
    if (max_addr > 0)
        arts.lineAddrCeiling = Addr{1} << max_addr;

    const verify::VerifyResult result =
        analyze::soundnessPasses().run(arts);

    analyze::AddressSpace space =
        arts.program ? analyze::AddressSpace::forProgram(*arts.program)
                     : analyze::AddressSpace::engineDefault();
    if (arts.lineAddrCeiling)
        space.lineCeiling = arts.lineAddrCeiling;
    analyze::LruAdvanceBounds bounds;
    if (arts.plan)
        bounds = analyze::lruAdvanceBounds(machine, *arts.plan);

    if (opts.getFlag("json")) {
        Json report = Json::object();
        report.set("schemaVersion", 2);
        report.set("tool", "interf_analyze");
        Json jm = Json::object();
        jm.set("name", machine.name);
        jm.set("lineCeiling", space.lineCeiling);
        jm.set("codeCeiling", space.codeCeiling);
        Json caches = Json::array();
        caches.push(cacheFacts(machine.hierarchy.l1i,
                               space.lineCeiling, bounds.l1i));
        caches.push(cacheFacts(machine.hierarchy.l1d,
                               space.lineCeiling, bounds.l1d));
        caches.push(cacheFacts(machine.hierarchy.l2,
                               space.lineCeiling, bounds.l2));
        jm.set("caches", std::move(caches));
        Json btb = Json::object();
        btb.set("sets", machine.btbSets);
        btb.set("ways", machine.btbWays);
        jm.set("btb", std::move(btb));
        report.set("machine", std::move(jm));
        Json jr;
        std::string err;
        if (!Json::parse(result.toJson(), jr, &err))
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
        const cache::CacheConfig *caches[3] = {&machine.hierarchy.l1i,
                                               &machine.hierarchy.l1d,
                                               &machine.hierarchy.l2};
        for (u32 i = 0; i < 3; ++i) {
            const cache::CacheConfig &c = *caches[i];
            std::printf(
                "  %-4s %8llu B, %2u-way, %3u B lines, %-6s: "
                "%2u/%u tag bits%s\n",
                c.name.c_str(),
                static_cast<unsigned long long>(c.sizeBytes), c.assoc,
                c.lineBytes, replacementName(c.replacement),
                analyze::requiredTagBits(c.lineBytes,
                                         space.lineCeiling),
                cache::Cache::kTagBits,
                c.replacement == cache::Replacement::Lru ? ", u32 stamps"
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
        result.printText(stdout);
    }

    const bool strict_fail =
        opts.getFlag("strict") && result.warningCount() > 0;
    return result.ok() && !strict_fail ? kExitClean : kExitDiagnostics;
}
