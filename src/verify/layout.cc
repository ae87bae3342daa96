/**
 * @file
 * LayoutVerifier: code layouts and page maps.
 *
 * A layout is only a valid "semantically equivalent executable" if it
 * actually is an executable: every procedure at its declared
 * alignment, no two procedures overlapping, the link line a
 * permutation of the authored files, and block/branch addresses
 * contiguous inside each procedure. The page map must be a bijection
 * that preserves page offsets — a many-to-one map would alias
 * unrelated lines in the physically-indexed L2 and silently double
 * count conflicts.
 *
 * The placement and page-table checks are exposed as standalone seams
 * (verifyPlacements / verifyPageTable) operating on plain tables, so
 * corruption tests and tools can feed hand-built bad inputs that the
 * Linker/PageMap constructors could never produce.
 *
 * checkSiteAddressInjectivity is the one check that branch-target
 * sites keep distinct addresses in a layout: the replay's BTB
 * stores u32 site indices as target tokens, which agrees with the
 * address-tagged reference only under that property.
 * LayoutTables::fillCode runs it on every table it builds under
 * verifyOnTrust().
 */

#include <algorithm>
#include <unordered_set>
#include <vector>

#include "verify/verify.hh"

#include "layout/linker.hh"
#include "layout/pagemap.hh"
#include "trace/program.hh"
#include "util/logging.hh"

namespace interf::verify
{

namespace
{

constexpr const char *kPassName = "layout";

using trace::Program;

class LayoutVerifier : public Pass
{
  public:
    const char *name() const override { return kPassName; }

    bool applicable(const Artifacts &a) const override
    {
        return (a.codeLayout != nullptr && a.program != nullptr) ||
               a.pageMap != nullptr;
    }

    void run(const Artifacts &a, VerifyResult &out) const override;
};

/** True when @p order is a permutation of [0, n). */
bool
isPermutation(const std::vector<u32> &order, size_t n)
{
    if (order.size() != n)
        return false;
    std::vector<u8> seen(n, 0);
    for (u32 v : order) {
        if (v >= n || seen[v])
            return false;
        seen[v] = 1;
    }
    return true;
}

void
checkCodeLayout(const Program &prog, const layout::CodeLayout &code,
                const std::string &path, VerifyResult &out)
{
    Sink sink(out, path, kPassName);
    const auto &procs = prog.procedures();

    if (!isPermutation(code.fileOrder(), prog.files().size())) {
        sink.error(EntityKind::Artifact, 0,
                   strprintf("link line is not a permutation of the "
                             "%zu object files",
                             prog.files().size()));
        return;
    }
    if (!isPermutation(code.procOrder(), procs.size())) {
        sink.error(EntityKind::Artifact, 0,
                   strprintf("memory order is not a permutation of the "
                             "%zu procedures",
                             procs.size()));
        return;
    }

    // Blocks contiguous inside each procedure, branch addresses inside
    // their block.
    for (const auto &p : procs) {
        Addr expect = code.procBase(p.id);
        for (size_t b = 0; b < p.blocks.size(); ++b) {
            const Addr block_addr = code.blockAddr(p.id,
                                                   static_cast<u32>(b));
            const Addr branch_addr = code.branchAddr(
                p.id, static_cast<u32>(b));
            const u64 site = static_cast<u64>(b);
            if (block_addr != expect)
                sink.error(EntityKind::Placement, p.id,
                           strprintf("block %llu starts at %llx, "
                                     "contiguity requires %llx",
                                     static_cast<unsigned long long>(
                                         site),
                                     static_cast<unsigned long long>(
                                         block_addr),
                                     static_cast<unsigned long long>(
                                         expect)));
            if (branch_addr < block_addr ||
                branch_addr >= block_addr + p.blocks[b].bytes)
                sink.error(EntityKind::Placement, p.id,
                           strprintf("block %llu's terminator address "
                                     "lies outside the block",
                                     static_cast<unsigned long long>(
                                         site)));
            expect += p.blocks[b].bytes;
        }
    }

    std::vector<Addr> bases(procs.size());
    for (const auto &p : procs)
        bases[p.id] = code.procBase(p.id);
    verifyPlacements(prog, bases, path, out);
}

void
LayoutVerifier::run(const Artifacts &a, VerifyResult &out) const
{
    if (a.codeLayout != nullptr && a.program != nullptr)
        checkCodeLayout(*a.program, *a.codeLayout, a.path, out);
    if (a.pageMap != nullptr) {
        // 64 MiB of address space: covers any text segment and the
        // heap arenas the campaigns place.
        verifyPageMap(*a.pageMap, 1u << 14, a.path, out);
    }
}

} // anonymous namespace

std::unique_ptr<Pass>
makeLayoutVerifier()
{
    return std::make_unique<LayoutVerifier>();
}

void
verifyPlacements(const trace::Program &prog,
                 const std::vector<Addr> &proc_base,
                 const std::string &path, VerifyResult &out)
{
    Sink sink(out, path, kPassName);
    const auto &procs = prog.procedures();
    if (proc_base.size() != procs.size()) {
        sink.error(EntityKind::Artifact, 0,
                   strprintf("placement table has %zu entries, program "
                             "has %zu procedures",
                             proc_base.size(), procs.size()));
        return;
    }

    // Alignment respected.
    for (size_t pid = 0; pid < procs.size(); ++pid) {
        const u32 align = procs[pid].align;
        if (align != 0 && (align & (align - 1)) == 0 &&
            (proc_base[pid] & (align - 1)) != 0)
            sink.error(EntityKind::Placement, pid,
                       strprintf("base %llx violates the procedure's "
                                 "%u-byte alignment",
                                 static_cast<unsigned long long>(
                                     proc_base[pid]),
                                 align));
    }

    // No overlap: sort by base, then each extent must end before the
    // next begins.
    std::vector<u32> by_base(procs.size());
    for (u32 i = 0; i < by_base.size(); ++i)
        by_base[i] = i;
    std::sort(by_base.begin(), by_base.end(), [&](u32 l, u32 r) {
        return proc_base[l] < proc_base[r];
    });
    for (size_t i = 0; i + 1 < by_base.size(); ++i) {
        const u32 pid = by_base[i];
        const u32 next = by_base[i + 1];
        const Addr end = proc_base[pid] + procs[pid].bytes();
        if (end > proc_base[next])
            sink.error(EntityKind::Placement, pid,
                       strprintf("procedure [%llx, %llx) overlaps "
                                 "procedure %u at %llx",
                                 static_cast<unsigned long long>(
                                     proc_base[pid]),
                                 static_cast<unsigned long long>(end),
                                 next,
                                 static_cast<unsigned long long>(
                                     proc_base[next])));
    }
}

void
verifyPageTable(const std::vector<u32> &vpn_to_ppn,
                const std::string &path, VerifyResult &out)
{
    Sink sink(out, path, kPassName);
    std::unordered_set<u32> seen;
    seen.reserve(vpn_to_ppn.size());
    for (size_t vpn = 0; vpn < vpn_to_ppn.size(); ++vpn)
        if (!seen.insert(vpn_to_ppn[vpn]).second)
            sink.error(EntityKind::Page, vpn,
                       strprintf("physical page %u is mapped by more "
                                 "than one virtual page (map is not "
                                 "injective)",
                                 vpn_to_ppn[vpn]));
}

void
verifyPageMap(const layout::PageMap &pages, u32 n_pages,
              const std::string &path, VerifyResult &out)
{
    // Offset preservation and identity behaviour, checked directly...
    {
        Sink sink(out, path, kPassName);
        for (u32 vpn = 0; vpn < n_pages; ++vpn) {
            const Addr va =
                (static_cast<Addr>(vpn) << layout::PageMap::pageBits) |
                0x123;
            const Addr pa = pages.translate(va);
            if ((pa & ((1u << layout::PageMap::pageBits) - 1)) !=
                (va & ((1u << layout::PageMap::pageBits) - 1))) {
                sink.error(EntityKind::Page, vpn,
                           "translation does not preserve the page "
                           "offset");
                return;
            }
            if (pages.isIdentity() && pa != va) {
                sink.error(EntityKind::Page, vpn,
                           "identity page map moved a page");
                return;
            }
        }
    }

    // ...then injectivity over the window via the table seam.
    std::vector<u32> table(n_pages);
    for (u32 vpn = 0; vpn < n_pages; ++vpn)
        table[vpn] = static_cast<u32>(
            pages.translate(static_cast<Addr>(vpn)
                            << layout::PageMap::pageBits) >>
            layout::PageMap::pageBits);
    verifyPageTable(table, path, out);
}

void
checkSiteAddressInjectivity(const std::vector<Addr> &site_addr,
                            const std::vector<u8> &site_is_target,
                            const std::string &path, VerifyResult &out)
{
    Sink sink(out, path, kPassName);
    if (site_is_target.size() != site_addr.size()) {
        sink.error(EntityKind::Artifact, 0,
                   strprintf("site table sizes disagree: %zu "
                             "addresses vs %zu target flags",
                             site_addr.size(), site_is_target.size()));
        return;
    }
    // Sort target sites by address; equal neighbours are aliases.
    std::vector<u32> targets;
    targets.reserve(site_addr.size());
    for (u32 s = 0; s < site_addr.size(); ++s) {
        if (site_is_target[s])
            targets.push_back(s);
    }
    std::sort(targets.begin(), targets.end(), [&](u32 a, u32 b) {
        return site_addr[a] != site_addr[b] ? site_addr[a] < site_addr[b]
                                            : a < b;
    });
    for (size_t i = 1; i < targets.size(); ++i) {
        const u32 prev = targets[i - 1], cur = targets[i];
        if (site_addr[prev] == site_addr[cur]) {
            sink.error(
                EntityKind::Site, cur,
                strprintf("branch-target sites %u and %u share "
                          "address %#llx; u32 site tokens would call "
                          "unequal targets equal",
                          prev, cur,
                          static_cast<unsigned long long>(
                              site_addr[cur])));
        }
    }
}

} // namespace interf::verify
