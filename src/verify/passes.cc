/**
 * @file
 * PassManager plumbing, convenience entry points and the
 * trust-boundary policy (Debug builds / INTERF_VERIFY).
 */

#include <cstdlib>
#include <cstring>

#include "verify/verify.hh"

#include "analyze/analyze.hh"
#include "util/logging.hh"

namespace interf::verify
{

PassManager &
PassManager::add(std::unique_ptr<Pass> pass)
{
    passes_.push_back(std::move(pass));
    return *this;
}

PassManager
PassManager::standard()
{
    PassManager pm;
    pm.add(makeProgramVerifier())
        .add(makeTraceVerifier())
        .add(makeReplayPlanVerifier())
        .add(makeLayoutVerifier())
        .add(makeStoreVerifier())
        .add(analyze::makeConfigSoundness())
        .add(analyze::makePlanBounds());
    return pm;
}

VerifyResult
PassManager::run(const Artifacts &a) const
{
    VerifyResult out;
    for (const auto &pass : passes_)
        if (pass->applicable(a))
            pass->run(a, out);
    return out;
}

VerifyResult
verifyProgram(const trace::Program &prog, const std::string &path)
{
    Artifacts a;
    a.program = &prog;
    a.path = path;
    VerifyResult out;
    makeProgramVerifier()->run(a, out);
    return out;
}

VerifyResult
verifyTrace(const trace::Program &prog, const trace::Trace &trace,
            const std::string &path)
{
    Artifacts a;
    a.program = &prog;
    a.trace = &trace;
    a.path = path;
    VerifyResult out;
    makeTraceVerifier()->run(a, out);
    return out;
}

VerifyResult
verifyPlan(const trace::Program &prog, const trace::Trace &trace,
           const trace::ReplayPlan &plan, const std::string &path)
{
    Artifacts a;
    a.program = &prog;
    a.trace = &trace;
    a.plan = &plan;
    a.path = path;
    VerifyResult out;
    makeReplayPlanVerifier()->run(a, out);
    return out;
}

VerifyResult
verifyLayout(const trace::Program &prog, const layout::CodeLayout &code,
             const std::string &path)
{
    Artifacts a;
    a.program = &prog;
    a.codeLayout = &code;
    a.path = path;
    VerifyResult out;
    makeLayoutVerifier()->run(a, out);
    return out;
}

bool
verifyOnTrust()
{
#ifdef NDEBUG
    constexpr bool kDefault = false;
#else
    constexpr bool kDefault = true;
#endif
    // Cached: trust boundaries sit inside constructors that campaigns
    // and tests hit thousands of times.
    static const bool enabled = [] {
        const char *env = std::getenv("INTERF_VERIFY");
        if (env == nullptr || *env == '\0')
            return kDefault;
        return std::strcmp(env, "0") != 0;
    }();
    return enabled;
}

void
requireClean(const VerifyResult &result, const char *what)
{
    if (result.ok())
        return;
    size_t shown = 0;
    for (const auto &d : result.diagnostics()) {
        if (d.severity != Severity::Error)
            continue;
        warn("%s", d.text().c_str());
        if (++shown >= 8)
            break;
    }
    panic("%s failed verification: %s (see diagnostics above; "
          "artifacts produced by this pipeline must verify clean)",
          what, result.summary().c_str());
}

} // namespace interf::verify
