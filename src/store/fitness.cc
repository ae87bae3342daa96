#include "store/fitness.hh"

#include <filesystem>
#include <fstream>

#include "store/format.hh"
#include "store/serialize.hh"
#include "trace/io.hh"
#include "util/digest.hh"
#include "util/logging.hh"
#include "verify/diagnostic.hh"

namespace interf::store
{

namespace
{

using format::commitFile;
using format::kFitnessMagic;
using format::kFormatVersion;
using format::tmpPathFor;
using format::writePod;

} // anonymous namespace

u64
fitnessBaseKey(const trace::Program &prog, u64 behaviour_seed,
               u64 instruction_budget, bool physical_pages, u64 page_seed,
               bool randomize_heap, const core::MachineConfig &machine,
               const core::RunnerConfig &runner)
{
    Digest d;
    d.mix(kFitnessMagic); // Never collides with a campaignKey.
    d.mix(kFormatVersion);
    d.mix(trace::programStructureDigest(prog));
    d.mix(behaviour_seed);
    d.mix(instruction_budget);
    d.mixBool(physical_pages);
    d.mix(page_seed);
    d.mixBool(randomize_heap);
    format::mixMachineConfig(d, machine);
    format::mixRunnerConfig(d, runner);
    return d.value();
}

FitnessStore::FitnessStore(const std::string &root, u64 base_key)
    : baseKey_(base_key)
{
    namespace fs = std::filesystem;
    fs::path dir = fs::path(root) / ("opt-" + digestHex(base_key));
    std::error_code ec;
    fs::create_directories(dir, ec);
    if (ec)
        fatal("cannot create fitness store directory '%s': %s",
              dir.string().c_str(), ec.message().c_str());
    dir_ = dir.string();
}

std::string
FitnessStore::entryPath(u64 cand_digest) const
{
    return dir_ + "/fit-" + digestHex(cand_digest) + ".bin";
}

std::optional<core::Measurement>
FitnessStore::load(u64 cand_digest) const
{
    verify::VerifyResult parsed;
    auto m = format::parseFitnessEntry(entryPath(cand_digest), baseKey_,
                                       cand_digest, true, parsed);
    format::failClosed(parsed);
    return m;
}

void
FitnessStore::save(u64 cand_digest, const core::Measurement &m) const
{
    const std::string path = entryPath(cand_digest);
    const std::string tmp = tmpPathFor(path);
    {
        std::ofstream os(tmp, std::ios::binary | std::ios::trunc);
        if (!os)
            fatal("cannot open '%s' for writing", tmp.c_str());
        writePod(os, kFitnessMagic);
        writePod(os, kFormatVersion);
        writePod(os, baseKey_);
        writePod(os, cand_digest);
        writePod(os, samplesChecksum({m}));
        writeMeasurement(os, m);
        os.flush();
        if (!os)
            fatal("fitness entry write to '%s' failed", tmp.c_str());
    }
    commitFile(tmp, path, dir_);
}

} // namespace interf::store
