/**
 * @file
 * Machine-pass entry points: the convenience analyzeMachine, the
 * fail-closed trust-boundary helper Campaign/FitnessOracle call, and
 * the fleet config-override parser interf_verify and CI sweeps use.
 */

#include "analyze/analyze.hh"

#include <cctype>
#include <cerrno>
#include <cstdlib>

#include "core/config.hh"

#include "util/logging.hh"

namespace interf::analyze
{

verify::VerifyResult
analyzeMachine(const core::MachineConfig &machine,
               const trace::ReplayPlan *plan,
               const trace::Program *prog, const std::string &path)
{
    verify::Artifacts a;
    a.machine = &machine;
    a.plan = plan;
    a.program = prog;
    a.path = path;
    return verify::PassManager::standard().run(a);
}

void
requireSoundMachine(const core::MachineConfig &machine,
                    const trace::ReplayPlan *plan, const char *what)
{
    verify::VerifyResult result = analyzeMachine(
        machine, plan, nullptr,
        strprintf("<machine '%s'>", machine.name.c_str()));
    verify::requireClean(result, what);
}

namespace
{

/** Parse "64", "32k", "6m" into @p out; on failure set @p error. */
bool
parseNumber(const std::string &text, u64 *out, std::string *error)
{
    // strtoull skips leading space and accepts (and wraps) a sign, so
    // only a leading digit is let through to it.
    if (!text.empty() && text[0] == '-') {
        *error = strprintf("negative value '%s'", text.c_str());
        return false;
    }
    if (text.empty() ||
        !std::isdigit(static_cast<unsigned char>(text[0]))) {
        *error = strprintf("bad numeric value '%s'", text.c_str());
        return false;
    }
    char *end = nullptr;
    errno = 0;
    const u64 value = std::strtoull(text.c_str(), &end, 10);
    const std::string suffix(end);
    u32 shift = 0;
    if (suffix == "k" || suffix == "K")
        shift = 10;
    else if (suffix == "m" || suffix == "M")
        shift = 20;
    else if (!suffix.empty() && suffix != "b") {
        *error = strprintf("bad numeric value '%s'", text.c_str());
        return false;
    }
    if (errno == ERANGE || value > (~u64{0} >> shift)) {
        *error = strprintf("value '%s' overflows 64 bits", text.c_str());
        return false;
    }
    *out = value << shift;
    return true;
}

/** Parse @p text into a u32 field named @p what. */
bool
parseU32(const std::string &text, const char *what, u32 *out,
         std::string *error)
{
    u64 n = 0;
    if (!parseNumber(text, &n, error))
        return false;
    if (n > ~u32{0}) {
        *error = strprintf("%s %s does not fit its 32-bit field", what,
                           text.c_str());
        return false;
    }
    *out = static_cast<u32>(n);
    return true;
}

bool
applyCacheKey(cache::CacheConfig &cfg, const std::string &field,
              const std::string &value, std::string *error)
{
    if (field == "repl") {
        if (value == "lru")
            cfg.replacement = cache::Replacement::Lru;
        else if (value == "random")
            cfg.replacement = cache::Replacement::Random;
        else {
            *error = strprintf("unknown replacement '%s' (lru|random)",
                               value.c_str());
            return false;
        }
        return true;
    }
    if (field == "size")
        return parseNumber(value, &cfg.sizeBytes, error);
    if (field == "assoc")
        return parseU32(value, "assoc", &cfg.assoc, error);
    if (field == "line")
        return parseU32(value, "line", &cfg.lineBytes, error);
    *error = strprintf("unknown cache field '%s' (size|assoc|line|repl)",
                       field.c_str());
    return false;
}

} // anonymous namespace

bool
applyConfigOverride(core::MachineConfig &machine,
                    const std::string &spec, std::string *error)
{
    std::string err;
    size_t pos = 0;
    while (pos < spec.size()) {
        size_t comma = spec.find(',', pos);
        if (comma == std::string::npos)
            comma = spec.size();
        std::string item = spec.substr(pos, comma - pos);
        pos = comma + 1;
        if (item.empty())
            continue;

        size_t eq = item.find('=');
        size_t dot = item.find('.');
        if (eq == std::string::npos || dot == std::string::npos ||
            dot > eq) {
            err = strprintf("override '%s' is not unit.field=value",
                            item.c_str());
            break;
        }
        std::string unit = item.substr(0, dot);
        std::string field = item.substr(dot + 1, eq - dot - 1);
        std::string value = item.substr(eq + 1);

        if (unit == "l1i" || unit == "l1d" || unit == "l2") {
            cache::CacheConfig &cfg =
                unit == "l1i"   ? machine.hierarchy.l1i
                : unit == "l1d" ? machine.hierarchy.l1d
                                : machine.hierarchy.l2;
            if (!applyCacheKey(cfg, field, value, &err))
                break;
        } else if (unit == "btb") {
            u32 *target = field == "sets"   ? &machine.btbSets
                          : field == "ways" ? &machine.btbWays
                                            : nullptr;
            if (target == nullptr) {
                err = strprintf("unknown btb field '%s' (sets|ways)",
                                field.c_str());
                break;
            }
            if (!parseU32(value, field.c_str(), target, &err))
                break;
        } else {
            err = strprintf("unknown unit '%s' (l1i|l1d|l2|btb)",
                            unit.c_str());
            break;
        }
    }
    if (err.empty())
        return true;
    if (error)
        *error = err;
    return false;
}

} // namespace interf::analyze
