/**
 * @file
 * Content-addressed campaign artifact store.
 *
 * Every sample a campaign produces is deterministic given (program,
 * trace seed, CampaignConfig), so re-measuring a previously-run
 * configuration is pure waste and a crash mid-campaign loses hours of
 * work. The store extends the invariant trace/io.hh enforces for traces
 * to whole campaigns: cached samples are cryptographically bound, via a
 * structural digest, to the exact program and configuration that
 * produced them, and anything that fails that binding is rejected
 * outright — a corrupt cache must fail closed, never hand back garbage
 * samples that would silently skew a regression model.
 *
 * On-disk layout (one directory per campaign key under the store root):
 *
 *   <root>/<16-hex-digit key>/
 *       manifest.bin        index: format version, key, batch table
 *       batch-00000000.bin  samples [first, first+count), checksummed
 *       batch-00000006.bin  ...
 *
 * Batches are contiguous from layout 0 and appended atomically
 * (write-temp-then-rename, batch file before manifest), so a killed
 * campaign leaves a valid store covering every completed batch and
 * resumes at the first unmeasured layout; a repeated campaign is a pure
 * cache hit returning byte-identical samples.
 */

#ifndef INTERF_STORE_STORE_HH
#define INTERF_STORE_STORE_HH

#include <string>
#include <vector>

#include "core/runner.hh"
#include "interferometry/campaign.hh"

namespace interf::store
{

/**
 * The campaign's content address: a digest of the program structure,
 * the trace behaviour seed, and every CampaignConfig field that can
 * influence a sample's bytes — machine, runner/noise protocol, layout
 * seed range and escalation shape included.
 *
 * The program is bound via trace::programStructureDigest — the
 * exhaustive every-field digest — not just the trace-file checksum,
 * because programChecksum omits behaviour- and layout-determining
 * fields (branch bias/period/history/load-dependence, store vs load,
 * strides and churn windows, extra exec cycles, alignment, authored
 * link order). Two profiles differing only in such knobs must never
 * share a cache entry.
 *
 * Deliberately excluded: `jobs` (the executor guarantees
 * byte-identical samples at any worker count, so serial and parallel
 * runs share cache entries)
 * and `storeDir` (where the cache lives cannot affect what it caches).
 */
u64 campaignKey(const trace::Program &prog, u64 behaviour_seed,
                const interferometry::CampaignConfig &cfg);

/** One persisted batch of contiguous samples. */
struct BatchInfo
{
    u32 first = 0;    ///< Index of the batch's first layout.
    u32 count = 0;    ///< Number of samples in the batch.
    u64 checksum = 0; ///< samplesChecksum of the payload.
};

/**
 * The persisted artifacts of one campaign key.
 *
 * Opening a store validates the manifest (magic, format version, key
 * binding, manifest digest, batch contiguity) and fatal()s on any
 * corruption; loadSamples() additionally validates every batch file
 * against the manifest and its own payload checksum. Append order is
 * the only write protocol: appendBatch(first, ...) requires
 * first == storedCount().
 *
 * Concurrency: opening and loading are lockless (committed files are
 * immutable and renames are atomic), but the first appendBatch takes an
 * exclusive advisory flock on the key directory, held for the store's
 * lifetime. A second concurrent writer on the same key fails fast with
 * a clear error instead of interleaving writes, and a writer whose
 * entry changed on disk between open and first append (a racing
 * campaign that finished first) refuses to clobber it.
 */
class CampaignStore
{
  public:
    /**
     * Open (creating directories as needed) the store for @p key under
     * @p root. Reads and validates the manifest if one exists.
     */
    CampaignStore(const std::string &root, u64 key);

    /** Releases the write lock, if held. */
    ~CampaignStore();

    CampaignStore(const CampaignStore &) = delete;
    CampaignStore &operator=(const CampaignStore &) = delete;

    u64 key() const { return key_; }

    /** This key's directory under the store root. */
    const std::string &dir() const { return dir_; }

    /** Contiguous samples available, i.e. the resume point. */
    u32 storedCount() const { return storedCount_; }

    const std::vector<BatchInfo> &batches() const { return batches_; }

    /**
     * Load all persisted samples (layouts [0, storedCount())),
     * verifying every batch; fatal() on corruption.
     */
    std::vector<core::Measurement> loadSamples() const;

    /**
     * Persist one batch atomically; requires first == storedCount().
     * The batch file lands (tmp + rename) before the manifest that
     * indexes it, so a crash between the two leaves a valid store.
     */
    void appendBatch(u32 first,
                     const std::vector<core::Measurement> &samples);

    /** @{ On-disk paths (exposed for tools and tests). */
    std::string manifestPath() const;
    std::string batchPath(u32 first) const;
    /** @} */

  private:
    void readManifest();
    void writeManifest() const;
    void acquireWriteLock();

    std::string dir_;
    u64 key_;
    std::vector<BatchInfo> batches_;
    u32 storedCount_ = 0;
    int writeLockFd_ = -1; ///< flock fd; -1 until the first append.
};

} // namespace interf::store

#endif // INTERF_STORE_STORE_HH
