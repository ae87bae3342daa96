#include "store/store.hh"

#include <fcntl.h>
#include <sys/file.h>
#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <fstream>

#include "store/format.hh"
#include "store/serialize.hh"
#include "telemetry/metrics.hh"
#include "telemetry/span.hh"
#include "trace/io.hh"
#include "util/digest.hh"
#include "util/logging.hh"
#include "verify/diagnostic.hh"

namespace interf::store
{

namespace format
{

u64
manifestDigest(u64 key, const std::vector<BatchInfo> &batches)
{
    Digest d;
    d.mix(kManifestMagic);
    d.mix(kFormatVersion);
    d.mix(key);
    d.mix(batches.size());
    for (const auto &b : batches) {
        d.mix(b.first);
        d.mix(b.count);
        d.mix(b.checksum);
    }
    return d.value();
}

namespace
{

/** fsync @p path (a regular file or a directory) or die. */
void
syncPath(const std::string &path, bool directory)
{
    int fd = ::open(path.c_str(),
                    directory ? (O_RDONLY | O_DIRECTORY)
                              : (O_RDONLY | O_CLOEXEC));
    const bool ok = fd >= 0 && ::fsync(fd) == 0;
    if (fd >= 0)
        ::close(fd);
    if (!ok)
        fatal("cannot fsync store %s '%s'",
              directory ? "directory" : "file", path.c_str());
}

} // anonymous namespace

/**
 * Durably rename @p tmp onto @p path; the POSIX rename is atomic. The
 * temp file is fsynced before the rename and @p dir after it, so a
 * power loss can never make the rename durable while the contents are
 * not — which would brick the store with a permanently-empty artifact.
 */
void
commitFile(const std::string &tmp, const std::string &path,
           const std::string &dir)
{
    syncPath(tmp, false);
    if (std::rename(tmp.c_str(), path.c_str()) != 0)
        fatal("cannot commit store file '%s'", path.c_str());
    syncPath(dir, true);
}

/** A per-process unique temp sibling of @p path (crash leftovers of
 *  other processes can then never be half-overwritten). */
std::string
tmpPathFor(const std::string &path)
{
    return path + strprintf(".tmp.%ld", static_cast<long>(::getpid()));
}

void
mixMachineConfig(Digest &d, const core::MachineConfig &m)
{
    d.mixString(m.name);
    d.mix(m.width);
    d.mix(m.frontendDepth);
    d.mix(m.robSize);
    d.mix(m.l1Latency);
    d.mix(m.l2Latency);
    d.mix(m.memLatency);
    d.mix(m.maxMlp);
    d.mixString(m.predictorSpec);
    d.mix(m.btbSets);
    d.mix(m.btbWays);
    d.mix(m.rasDepth);
    d.mix(m.misfetchPenalty);
    for (const auto *c :
         {&m.hierarchy.l1i, &m.hierarchy.l1d, &m.hierarchy.l2}) {
        d.mixString(c->name);
        d.mix(c->sizeBytes);
        d.mix(c->assoc);
        d.mix(c->lineBytes);
        d.mix(static_cast<u64>(c->replacement));
    }
    d.mixBool(m.hierarchy.nextLinePrefetch);
    d.mixDouble(m.warmupFraction);
}

void
mixRunnerConfig(Digest &d, const core::RunnerConfig &r)
{
    d.mix(r.runsPerGroup);
    d.mixDouble(r.noise.jitterSigma);
    d.mixDouble(r.noise.spikeProb);
    d.mixDouble(r.noise.spikeMax);
    d.mixBool(r.noise.quiescent);
}

} // namespace format

namespace
{

using format::commitFile;
using format::kBatchMagic;
using format::kFormatVersion;
using format::kManifestMagic;
using format::manifestDigest;
using format::mixMachineConfig;
using format::mixRunnerConfig;
using format::tmpPathFor;
using format::writePod;

} // anonymous namespace

u64
campaignKey(const trace::Program &prog, u64 behaviour_seed,
            const interferometry::CampaignConfig &cfg)
{
    Digest d;
    d.mix(kFormatVersion); // A format bump invalidates every entry.
    // The exhaustive digest, not the trace-file checksum: every Program
    // field that can shape the trace or the layout must bind the key
    // (see campaignKey's doc comment).
    d.mix(trace::programStructureDigest(prog));
    d.mix(behaviour_seed);
    d.mix(cfg.instructionBudget);
    d.mix(cfg.initialLayouts);
    d.mix(cfg.escalationStep);
    d.mix(cfg.maxLayouts);
    d.mixDouble(cfg.alpha);
    d.mixDouble(cfg.minMpkiCv);
    d.mixBool(cfg.randomizeHeap);
    d.mixBool(cfg.physicalPages);
    d.mix(cfg.layoutSeedBase);
    mixMachineConfig(d, cfg.machine);
    mixRunnerConfig(d, cfg.runner);
    // cfg.jobs and cfg.storeDir are intentionally NOT mixed: neither
    // can change a sample's bytes (see campaignKey's doc comment).
    return d.value();
}

CampaignStore::CampaignStore(const std::string &root, u64 key)
    : key_(key)
{
    namespace fs = std::filesystem;
    fs::path dir = fs::path(root) / digestHex(key);
    std::error_code ec;
    fs::create_directories(dir, ec);
    if (ec)
        fatal("cannot create store directory '%s': %s",
              dir.string().c_str(), ec.message().c_str());
    dir_ = dir.string();
    readManifest();
}

CampaignStore::~CampaignStore()
{
    if (writeLockFd_ >= 0)
        ::close(writeLockFd_); // Releases the flock.
}

void
CampaignStore::acquireWriteLock()
{
    if (writeLockFd_ >= 0)
        return;
    const std::string path = dir_ + "/.lock";
    int fd = ::open(path.c_str(), O_CREAT | O_RDWR | O_CLOEXEC, 0644);
    if (fd < 0)
        fatal("cannot open store lock '%s'", path.c_str());
    if (::flock(fd, LOCK_EX | LOCK_NB) != 0) {
        ::close(fd);
        fatal("store entry '%s' is locked by another process; two "
              "campaigns cannot write the same store entry concurrently",
              dir_.c_str());
    }
    writeLockFd_ = fd;
    // Now that we are the exclusive writer, make sure no racing
    // campaign extended the entry between our (lockless) open and this
    // first write — appending from a stale view would clobber its
    // batches with differently-sized ones the manifest no longer
    // describes.
    const u64 opened = manifestDigest(key_, batches_);
    readManifest();
    if (manifestDigest(key_, batches_) != opened)
        fatal("store entry '%s' changed on disk since it was opened "
              "(a concurrent campaign wrote it); re-run to resume from "
              "its samples",
              dir_.c_str());
}

std::string
CampaignStore::manifestPath() const
{
    return dir_ + "/manifest.bin";
}

std::string
CampaignStore::batchPath(u32 first) const
{
    return dir_ + strprintf("/batch-%08u.bin", first);
}

void
CampaignStore::readManifest()
{
    verify::VerifyResult parsed;
    batches_ = format::parseManifest(manifestPath(), key_, parsed);
    format::failClosed(parsed);
    storedCount_ = 0;
    for (const auto &b : batches_)
        storedCount_ += b.count;
}

void
CampaignStore::writeManifest() const
{
    std::string tmp = tmpPathFor(manifestPath());
    {
        std::ofstream os(tmp, std::ios::binary | std::ios::trunc);
        if (!os)
            fatal("cannot open '%s' for writing", tmp.c_str());
        writePod(os, kManifestMagic);
        writePod(os, kFormatVersion);
        writePod(os, key_);
        writePod(os, static_cast<u32>(batches_.size()));
        for (const auto &b : batches_) {
            writePod(os, b.first);
            writePod(os, b.count);
            writePod(os, b.checksum);
        }
        writePod(os, manifestDigest(key_, batches_));
        os.flush();
        if (!os)
            fatal("store manifest write to '%s' failed", tmp.c_str());
    }
    commitFile(tmp, manifestPath(), dir_);
}

std::vector<core::Measurement>
CampaignStore::loadSamples() const
{
    INTERF_SPAN("store.load");
    // No reserve(storedCount_): that count comes from the manifest, and
    // only each batch's parser bounds it by the batch file's size.
    std::vector<core::Measurement> samples;
    for (const auto &entry : batches_) {
        verify::VerifyResult parsed;
        const auto batch = format::parseBatch(batchPath(entry.first), key_,
                                              entry, true, parsed);
        format::failClosed(parsed);
        samples.insert(samples.end(), batch.begin(), batch.end());
    }
    return samples;
}

void
CampaignStore::appendBatch(u32 first,
                           const std::vector<core::Measurement> &samples)
{
    if (samples.empty())
        return;
    INTERF_SPAN("store.commit");
    const u64 commit_start = telemetry::nowNs();
    // Exclusive writer for the rest of this store's lifetime; may
    // fatal() on a concurrent or raced writer.
    acquireWriteLock();
    // Contiguity is the caller's contract; violating it is a bug, not
    // a user error.
    if (first != storedCount_)
        panic("store append at layout %u, expected %u (non-contiguous)",
              first, storedCount_);

    BatchInfo entry;
    entry.first = first;
    entry.count = static_cast<u32>(samples.size());
    entry.checksum = samplesChecksum(samples);

    std::string path = batchPath(first);
    std::string tmp = tmpPathFor(path);
    {
        std::ofstream os(tmp, std::ios::binary | std::ios::trunc);
        if (!os)
            fatal("cannot open '%s' for writing", tmp.c_str());
        writePod(os, kBatchMagic);
        writePod(os, kFormatVersion);
        writePod(os, key_);
        writePod(os, entry.first);
        writePod(os, entry.count);
        writePod(os, entry.checksum);
        writeSamples(os, samples);
        os.flush();
        if (!os)
            fatal("store batch write to '%s' failed", tmp.c_str());
    }
    // Batch before manifest: a crash in between leaves an unindexed
    // batch file that the next run simply overwrites.
    commitFile(tmp, path, dir_);
    batches_.push_back(entry);
    writeManifest();
    storedCount_ += entry.count;
    INTERF_TELEM_COUNT("store.batches_committed", 1);
    INTERF_TELEM_COUNT("store.samples_committed", entry.count);
    INTERF_TELEM_HISTOGRAM(
        "store.commit_ms",
        (std::vector<u64>{1, 2, 5, 10, 20, 50, 100, 200, 500, 1000}),
        (telemetry::nowNs() - commit_start) / 1'000'000);
}

} // namespace interf::store
