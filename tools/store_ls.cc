/**
 * @file
 * Inspect a campaign artifact store.
 *
 * Lists every campaign key under a store root with its batch table and
 * sample count; --verify additionally recomputes every batch's payload
 * checksum; --json emits the same inventory as one machine-readable
 * document (entry key, batch count, byte size, lint status and
 * diagnostics). Corrupt entries do not abort the listing: each entry is
 * first linted by the StoreVerifier pass (verify/verify.hh), and an
 * entry with errors is reported diagnostic-by-diagnostic while the
 * remaining entries still get listed. Optimizer fitness directories
 * are skipped; `interf_verify --store` lints those.
 *
 * Exit codes: 0 = store clean, 1 = corrupt entries found, 2 = the
 * store root is missing or not a directory.
 *
 *   store_ls --dir /tmp/interf-store [--verify] [--json]
 */

#include <cstdio>
#include <filesystem>
#include <string>

#include "store/store.hh"
#include "util/digest.hh"
#include "util/json.hh"
#include "util/logging.hh"
#include "util/options.hh"
#include "verify/verify.hh"

using namespace interf;

namespace
{

constexpr int kExitClean = 0;
constexpr int kExitCorrupt = 1;
constexpr int kExitNoStore = 2;

/** Total size in bytes of the regular files in one entry directory. */
u64
entryBytes(const std::filesystem::path &dir)
{
    u64 bytes = 0;
    std::error_code ec;
    for (const auto &f : std::filesystem::directory_iterator(dir, ec)) {
        if (f.is_regular_file(ec))
            bytes += static_cast<u64>(f.file_size(ec));
    }
    return bytes;
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    OptionParser opts("store_ls",
                      "list (and optionally verify) the campaigns in an "
                      "artifact store");
    opts.addString("dir", "", "store root directory");
    opts.addFlag("verify", "recompute every batch's payload checksum");
    opts.addFlag("json",
                 "write the inventory as one JSON document on stdout");
    opts.parse(argc, argv);

    const std::string root = opts.getString("dir");
    const bool json = opts.getFlag("json");
    if (root.empty())
        fatal("--dir is required");
    if (!std::filesystem::is_directory(root)) {
        std::fprintf(stderr, "store_ls: '%s' is not a directory\n",
                     root.c_str());
        return kExitNoStore;
    }

    const bool deep = opts.getFlag("verify");
    u32 campaigns = 0;
    u32 corrupt = 0;
    u64 total_samples = 0;
    Json entries = Json::array();
    for (const auto &entry : std::filesystem::directory_iterator(root)) {
        if (!entry.is_directory())
            continue;
        u64 key = 0;
        if (!parseDigestHex(entry.path().filename().string(), key)) {
            warn("skipping '%s': not a campaign key directory",
                 entry.path().string().c_str());
            continue;
        }
        ++campaigns;

        Json ej = Json::object();
        ej.set("key", digestHex(key));
        ej.set("bytes", entryBytes(entry.path()));

        // Lint before opening: CampaignStore's own read path is
        // fail-closed (first corrupt byte is fatal), which is right
        // for a resuming campaign but would kill this listing.
        auto lint = verify::verifyStoreEntry(root, key, deep);
        if (!lint.ok()) {
            ++corrupt;
            if (json) {
                ej.set("lint", "corrupt");
                ej.set("samples", 0);
                ej.set("batches", 0);
                Json diags = Json::array();
                for (const auto &d : lint.diagnostics())
                    diags.push(d.text());
                ej.set("diagnostics", std::move(diags));
                entries.push(std::move(ej));
            } else {
                std::printf("%s  CORRUPT (%s)\n", digestHex(key).c_str(),
                            lint.summary().c_str());
                lint.printText(stdout);
            }
            continue;
        }

        store::CampaignStore st(root, key);
        if (json) {
            ej.set("lint", "ok");
            ej.set("samples", st.storedCount());
            ej.set("batches", st.batches().size());
            ej.set("diagnostics", Json::array());
            entries.push(std::move(ej));
        } else {
            std::printf("%s  %4u samples in %zu batches\n",
                        digestHex(key).c_str(), st.storedCount(),
                        st.batches().size());
            for (const auto &b : st.batches())
                std::printf(
                    "    batch-%08u  layouts [%u, %u)  checksum %s\n",
                    b.first, b.first, b.first + b.count,
                    digestHex(b.checksum).c_str());
            // The deep lint above already recomputed every payload
            // checksum through the store's own batch parser.
            if (deep)
                std::printf("    verified %u samples\n",
                            st.storedCount());
        }
        total_samples += st.storedCount();
    }
    if (json) {
        Json doc = Json::object();
        doc.set("schema", "interf-store-ls-1");
        doc.set("schemaVersion", 1);
        doc.set("root", root);
        doc.set("verified", deep);
        doc.set("campaigns", campaigns);
        doc.set("corrupt", corrupt);
        doc.set("samples_total", total_samples);
        doc.set("entries", std::move(entries));
        std::printf("%s\n", doc.dump(1).c_str());
    } else {
        std::printf("%u campaigns, %llu samples total%s", campaigns,
                    static_cast<unsigned long long>(total_samples),
                    deep ? " (payloads verified)" : "");
        if (corrupt)
            std::printf(", %u CORRUPT", corrupt);
        std::printf("\n");
    }
    flushLog();
    return corrupt == 0 ? kExitClean : kExitCorrupt;
}
