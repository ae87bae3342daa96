/**
 * @file
 * StoreVerifier: store directories linted without dying.
 *
 * Every store file goes through its one parser (store/format.hh), the
 * same one the stores' fail-closed reads use; this lint reports every
 * diagnostic instead of dying at the first, and adds the directory
 * sweeps. A campaign entry is its manifest and every indexed batch; an
 * optimizer fitness directory (`opt-<base key>`) is its
 * `fit-<candidate digest>.bin` entries, bound to the key and digest
 * their names carry. Payload checksums are recomputed only when deep.
 * Orphan batches (valid crash leftovers), stale temp files and foreign
 * files are warnings. An entry with no manifest and no batches is a
 * cold store: clean.
 */

#include <cstdio>
#include <filesystem>
#include <set>
#include <string>
#include <string_view>

#include "verify/verify.hh"

#include "store/format.hh"
#include "store/store.hh"
#include "util/digest.hh"
#include "util/logging.hh"

namespace interf::verify
{

namespace
{

namespace fs = std::filesystem;
namespace fmt = store::format;

using fmt::kPassName;

class StoreVerifier : public Pass
{
  public:
    const char *name() const override { return "store"; }

    bool applicable(const Artifacts &a) const override
    {
        return !a.storeRoot.empty() && a.hasStoreKey;
    }

    void run(const Artifacts &a, VerifyResult &out) const override
    {
        out.merge(verifyStoreEntry(a.storeRoot, a.storeKey,
                                   a.deepStore));
    }
};

/**
 * Sweep @p dir: a temp file is a crashed writer's stale leftover, and
 * a file @p known does not claim is foreign (both warnings).
 */
template <typename Known>
void
sweep(const fs::path &dir, Sink &sink, Known &&known)
{
    std::error_code ec;
    for (const auto &de : fs::directory_iterator(dir, ec)) {
        const std::string name = de.path().filename().string();
        if (name.find(".tmp.") != std::string::npos)
            sink.warning(EntityKind::Artifact, 0,
                         strprintf("stale temp file '%s' (crashed "
                                   "writer leftover)",
                                   name.c_str()));
        else if (!known(name))
            sink.warning(EntityKind::Artifact, 0,
                         strprintf("unexpected file '%s' in store entry",
                                   name.c_str()));
    }
    if (ec)
        sink.error(EntityKind::Artifact, 0,
                   "cannot iterate store directory");
}

/** Lint one optimizer fitness directory (store/fitness.hh). */
void
verifyFitnessDir(const fs::path &dir, u64 base_key, bool deep,
                 VerifyResult &out)
{
    Sink sink(out, dir.string(), kPassName);
    sweep(dir, sink, [&](std::string_view name) {
        u64 digest = 0;
        if (!name.starts_with("fit-") || !name.ends_with(".bin") ||
            !parseDigestHex(name.substr(4, name.size() - 8), digest))
            return false;
        (void)fmt::parseFitnessEntry((dir / name).string(), base_key,
                                     digest, deep, out);
        return true;
    });
}

} // anonymous namespace

std::unique_ptr<Pass>
makeStoreVerifier()
{
    return std::make_unique<StoreVerifier>();
}

VerifyResult
verifyStoreEntry(const std::string &root, u64 key, bool deep)
{
    VerifyResult out;
    const fs::path dir = fs::path(root) / digestHex(key);
    Sink sink(out, dir.string(), kPassName);

    std::error_code ec;
    if (!fs::is_directory(dir, ec) || ec) {
        sink.error(EntityKind::Artifact, 0,
                   "store entry directory does not exist");
        return out;
    }

    std::set<std::string> indexed;
    for (const auto &entry :
         fmt::parseManifest((dir / "manifest.bin").string(), key, out)) {
        const std::string name = strprintf("batch-%08u.bin", entry.first);
        indexed.insert(name);
        (void)fmt::parseBatch((dir / name).string(), key, entry, deep, out);
    }

    sweep(dir, sink, [&](const std::string &name) {
        u32 first = 0;
        if (name == "manifest.bin" || name == ".lock" ||
            name == "run-manifest.json" || indexed.count(name))
            return true;
        if (std::sscanf(name.c_str(), "batch-%8u.bin", &first) != 1)
            return false;
        // Valid crash window: batch committed, manifest not yet. The
        // next campaign run overwrites it, so a warning.
        sink.warning(EntityKind::Batch, first,
                     "batch file is not indexed by the manifest "
                     "(orphan)");
        return true;
    });
    return out;
}

VerifyResult
verifyStoreRoot(const std::string &root, bool deep,
                std::vector<u64> *keys)
{
    VerifyResult out;
    Sink sink(out, root, kPassName);
    std::error_code ec;
    if (!fs::is_directory(root, ec) || ec) {
        sink.error(EntityKind::Artifact, 0,
                   "store root is not a directory");
        return out;
    }
    for (const auto &de : fs::directory_iterator(root, ec)) {
        if (!de.is_directory())
            continue;
        u64 key = 0;
        const std::string name = de.path().filename().string();
        if (parseDigestHex(name, key)) {
            if (keys)
                keys->push_back(key);
            out.merge(verifyStoreEntry(root, key, deep));
        } else if (name.starts_with("opt-") &&
                   parseDigestHex(std::string_view(name).substr(4), key)) {
            verifyFitnessDir(de.path(), key, deep, out);
        } else {
            sink.warning(EntityKind::Artifact, 0,
                         strprintf("'%s' is neither a campaign key nor "
                                   "a fitness directory",
                                   name.c_str()));
        }
    }
    if (ec)
        sink.error(EntityKind::Artifact, 0, "cannot iterate store root");
    return out;
}

} // namespace interf::verify
