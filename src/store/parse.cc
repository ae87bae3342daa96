/**
 * @file
 * The one parser of each store file (declared in store/format.hh).
 * FileReader holds what the three share: the header (magic, version,
 * binding key), fixed fields, and counts bounded by the file size
 * before anything is allocated.
 */

#include <filesystem>
#include <fstream>

#include "store/format.hh"
#include "store/serialize.hh"
#include "store/store.hh"
#include "util/digest.hh"
#include "util/logging.hh"
#include "verify/diagnostic.hh"

namespace interf::store::format
{

namespace
{

namespace fs = std::filesystem;
using verify::EntityKind;

/** One store file open for parsing; its problems go to one entity. */
class FileReader
{
  public:
    /** @p what names the file kind in messages ("store batch"). */
    FileReader(const std::string &path, const char *what,
               verify::VerifyResult &out, EntityKind entity, u64 index)
        : sink(out, path, kPassName), is_(path, std::ios::binary),
          what_(what), entity_(entity), index_(index)
    {
        std::error_code ec;
        if (is_)
            size_ = fs::file_size(path, ec);
        else
            absent = !fs::exists(path, ec) && !ec;
        if (ec || (!is_ && !absent)) {
            is_.setstate(std::ios::failbit);
            error(strprintf("%s is unreadable", what_));
        }
    }

    verify::Sink sink;
    bool absent = false; ///< The file does not exist (no diagnostic).

    void error(std::string message)
    {
        sink.error(entity_, index_, std::move(message));
    }

    /** Read the shared header. False when nothing more can be read; a
     *  key other than @p expect_key is an error that parsing survives. */
    bool header(u64 magic, u64 expect_key, u64 &key)
    {
        u64 got = 0;
        u32 version = 0;
        if (!field(got))
            return false;
        if (got != magic) {
            error(strprintf("not a %s (bad magic)", what_));
            return false;
        }
        if (!field(version))
            return false;
        if (version != kFormatVersion) {
            error(strprintf("%s has unsupported format version %u",
                            what_, version));
            return false;
        }
        if (!field(key))
            return false;
        if (key != expect_key)
            error(strprintf("%s is bound to key %s, not %s (key "
                            "mismatch)",
                            what_, digestHex(key).c_str(),
                            digestHex(expect_key).c_str()));
        return true;
    }

    /** Read one fixed-size field; a short file is an error. */
    template <typename T>
    bool field(T &value)
    {
        if (!is_)
            return false; // Unopened or already short: reported.
        readPod(is_, value);
        if (!is_)
            error(strprintf("truncated %s", what_));
        return static_cast<bool>(is_);
    }

    /** Require the file to hold @p fixed bytes and then @p need bytes
     *  of @p part; extra bytes are a warning (no writer makes them). */
    bool sized(u64 fixed, u64 need, const char *part)
    {
        if (size_ < fixed + need) {
            error(strprintf("truncated %s (%llu-byte %s overruns the "
                            "%llu-byte file)",
                            what_, static_cast<unsigned long long>(need),
                            part, static_cast<unsigned long long>(size_)));
            return false;
        }
        if (size_ > fixed + need)
            sink.warning(entity_, index_,
                         strprintf("trailing bytes after the %s", part));
        return true;
    }

    /** The @p count samples after the @p fixed-byte header, bounded by
     *  the file size; with @p payload, read and checked against
     *  @p checksum. Empty on any error and without @p payload. */
    std::vector<core::Measurement> samples(u64 fixed, u32 count,
                                           u64 checksum, bool payload)
    {
        if (!sized(fixed, u64{count} * kMeasurementBytes, "payload") ||
            !payload)
            return {};
        auto samples = readSamples(is_, count);
        if (!is_)
            error(strprintf("truncated %s payload", what_));
        else if (samplesChecksum(samples) != checksum)
            error(strprintf("%s payload checksum mismatch", what_));
        else
            return samples;
        return {};
    }

  private:
    std::ifstream is_;
    const char *what_;
    EntityKind entity_;
    u64 index_;
    u64 size_ = 0;
};

} // anonymous namespace

std::vector<BatchInfo>
parseManifest(const std::string &path, u64 key, verify::VerifyResult &out)
{
    FileReader r(path, "store manifest", out, EntityKind::Manifest, 0);
    u64 file_key = 0, seal = 0;
    u32 n_batches = 0;
    if (r.absent || !r.header(kManifestMagic, key, file_key) ||
        !r.field(n_batches) ||
        !r.sized(kManifestHeaderBytes + kManifestSealBytes,
                 u64{n_batches} * kManifestEntryBytes, "batch table"))
        return {};

    std::vector<BatchInfo> batches(n_batches);
    for (auto &b : batches)
        if (!r.field(b.first) || !r.field(b.count) ||
            !r.field(b.checksum))
            return {};
    if (!r.field(seal))
        return {};
    // Sealed over the key the file names, so a manifest moved under
    // another key reports the key mismatch alone.
    if (seal != manifestDigest(file_key, batches)) {
        r.error("store manifest seal digest mismatch (corrupt "
                "manifest)");
        return {};
    }
    u32 next = 0;
    for (size_t slot = 0; slot < batches.size(); ++slot) {
        const auto &b = batches[slot];
        if (b.first != next || b.count == 0) {
            r.sink.error(EntityKind::Manifest, slot,
                         strprintf("store manifest batch entry [%u, %u) "
                                   "breaks contiguity (expected first "
                                   "layout %u, nonzero count)",
                                   b.first, b.first + b.count, next));
            return {};
        }
        next += b.count;
    }
    return batches;
}

std::vector<core::Measurement>
parseBatch(const std::string &path, u64 key, const BatchInfo &entry,
           bool payload, verify::VerifyResult &out)
{
    FileReader r(path, "store batch", out, EntityKind::Batch,
                 entry.first);
    if (r.absent)
        r.error("store batch indexed by the manifest is missing");
    u64 file_key = 0, checksum = 0;
    u32 first = 0, count = 0;
    if (!r.header(kBatchMagic, key, file_key) || !r.field(first) ||
        !r.field(count) || !r.field(checksum))
        return {};
    if (first != entry.first || count != entry.count ||
        checksum != entry.checksum) {
        r.error(strprintf("store batch header [first %u, count %u, "
                          "checksum %s] does not match its manifest "
                          "entry",
                          first, count, digestHex(checksum).c_str()));
        return {};
    }
    return r.samples(kBatchHeaderBytes, count, checksum, payload);
}

std::optional<core::Measurement>
parseFitnessEntry(const std::string &path, u64 base_key, u64 cand_digest,
                  bool payload, verify::VerifyResult &out)
{
    FileReader r(path, "fitness entry", out, EntityKind::Artifact, 0);
    u64 file_key = 0, digest = 0, checksum = 0;
    if (r.absent || !r.header(kFitnessMagic, base_key, file_key) ||
        !r.field(digest) || !r.field(checksum))
        return std::nullopt;
    if (digest != cand_digest)
        r.error(strprintf("fitness entry holds candidate %s, not %s "
                          "(digest mismatch)",
                          digestHex(digest).c_str(),
                          digestHex(cand_digest).c_str()));
    const auto m = r.samples(kFitnessHeaderBytes, 1, checksum, payload);
    if (m.empty())
        return std::nullopt;
    return m[0];
}

void
failClosed(const verify::VerifyResult &result)
{
    if (result.ok())
        return;
    for (const auto &d : result.diagnostics())
        warn("%s", d.text().c_str());
    for (const auto &d : result.diagnostics())
        if (d.severity == verify::Severity::Error)
            fatal("%s: %s", d.artifact.c_str(), d.message.c_str());
}

} // namespace interf::store::format
