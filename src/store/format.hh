/**
 * @file
 * On-disk format of the campaign artifact store and the fitness cache.
 *
 * Holds the format constants, the writers' shared helpers and the one
 * parser of each store file: the manifest, a batch and a fitness
 * entry. A parser reports every problem as a typed diagnostic and
 * never fatal()s: the stores' own reads pass its result to
 * failClosed(), and the StoreVerifier lint (verify/store.cc) reports
 * it. The layouts themselves are documented in store.hh and
 * fitness.hh.
 */

#ifndef INTERF_STORE_FORMAT_HH
#define INTERF_STORE_FORMAT_HH

#include <istream>
#include <optional>
#include <ostream>
#include <string>
#include <vector>

#include "core/runner.hh"
#include "util/types.hh"

namespace interf::verify
{
class VerifyResult;
}

namespace interf
{
class Digest;
}

namespace interf::store
{

struct BatchInfo;

namespace format
{

inline constexpr u64 kManifestMagic = 0x494e54465253544dULL; // INTFRSTM
inline constexpr u64 kBatchMagic = 0x494e544652535442ULL;    // INTFRSTB
inline constexpr u64 kFitnessMagic = 0x494e544652535446ULL;  // INTFRSTF
inline constexpr u32 kFormatVersion = 1;

/** @{ Fixed framing sizes (bytes). */
inline constexpr u64 kManifestHeaderBytes = 8 + 4 + 8 + 4;
inline constexpr u64 kManifestEntryBytes = 4 + 4 + 8;
inline constexpr u64 kManifestSealBytes = 8;
inline constexpr u64 kBatchHeaderBytes = 8 + 4 + 8 + 4 + 4 + 8;
inline constexpr u64 kFitnessHeaderBytes = 8 + 4 + 8 + 8 + 8;
/// One serialized Measurement; serialize.cc checks it at compile time.
inline constexpr u64 kMeasurementBytes = 15 * 8;
/** @} */

template <typename T>
void
writePod(std::ostream &os, const T &value)
{
    os.write(reinterpret_cast<const char *>(&value), sizeof(T));
}

template <typename T>
void
readPod(std::istream &is, T &value)
{
    is.read(reinterpret_cast<char *>(&value), sizeof(T));
}

/** Digest that seals a manifest: header plus every batch entry. */
u64 manifestDigest(u64 key, const std::vector<BatchInfo> &batches);

/** @{
 * Mix every timing-relevant field of a config into a store key. Both
 * campaignKey (store.cc) and fitnessBaseKey (fitness.cc) must bind the
 * same machine/runner fields, so the mixers live here rather than being
 * duplicated per key.
 */
void mixMachineConfig(Digest &d, const core::MachineConfig &m);
void mixRunnerConfig(Digest &d, const core::RunnerConfig &r);
/** @} */

/** @{
 * Durable-write discipline shared by every store artifact: write to a
 * per-process temp sibling, fsync, rename atomically onto the final
 * path, fsync the directory. See commitFile's comment in store.cc.
 */
std::string tmpPathFor(const std::string &path);
void commitFile(const std::string &tmp, const std::string &path,
                const std::string &dir);
/** @} */

/** Pass name on every store diagnostic. */
inline constexpr const char *kPassName = "store";

/** @{
 * The one parser of each store file. Each reads @p path, checks the
 * shared header (magic, format version, binding key), bounds every
 * count by the file size before allocating, and reports each problem
 * into @p out as a diagnostic whose artifact is @p path. None of them
 * fatal()s; with @p payload the payload is also read and checked
 * against its checksum, and what was read is returned.
 */

/** Diagnostics are EntityKind::Manifest (index = batch-table slot).
 *  Returns the batch table when its framing, seal and contiguity
 *  hold; a missing manifest is a cold entry (empty, no diagnostic). */
std::vector<BatchInfo> parseManifest(const std::string &path, u64 key,
                                     verify::VerifyResult &out);

/** A batch, checked against its manifest @p entry. Diagnostics are
 *  EntityKind::Batch (index = first layout). */
std::vector<core::Measurement> parseBatch(const std::string &path,
                                          u64 key,
                                          const BatchInfo &entry,
                                          bool payload,
                                          verify::VerifyResult &out);

/** A fitness entry of search @p base_key holding @p cand_digest.
 *  Diagnostics are EntityKind::Artifact; a missing file is a miss
 *  (nullopt, no diagnostic). */
std::optional<core::Measurement>
parseFitnessEntry(const std::string &path, u64 base_key, u64 cand_digest,
                  bool payload, verify::VerifyResult &out);
/** @} */

/** The fail-closed reaction to a parse: when @p result has errors,
 *  warn() every diagnostic and fatal() with the first error. */
void failClosed(const verify::VerifyResult &result);

} // namespace format

} // namespace interf::store

#endif // INTERF_STORE_FORMAT_HH
