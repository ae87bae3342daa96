#include "store/serialize.hh"

#include <istream>
#include <ostream>
#include <type_traits>

#include "store/format.hh"
#include "util/digest.hh"

namespace interf::store
{

namespace
{

using format::readPod;
using format::writePod;

/**
 * Apply @p fn to every field of @p m in the canonical order. Writer,
 * reader and checksum all walk the same list, so they cannot drift
 * apart when Measurement grows a field.
 */
template <typename M, typename Fn>
constexpr void
forEachField(M &m, Fn &&fn)
{
    fn(m.layoutSeed);
    fn(m.cpi);
    fn(m.mpki);
    fn(m.l1iMpki);
    fn(m.l1dMpki);
    fn(m.l2Mpki);
    fn(m.btbMpki);
    fn(m.cycles);
    fn(m.instructions);
    fn(m.condBranches);
    fn(m.mispredicts);
    fn(m.l1iMisses);
    fn(m.l1dMisses);
    fn(m.l2Misses);
    fn(m.btbMisses);
}

} // anonymous namespace

void
writeMeasurement(std::ostream &os, const core::Measurement &m)
{
    forEachField(m, [&os](const auto &field) { writePod(os, field); });
}

static_assert(
    [] {
        const core::Measurement m;
        u64 bytes = 0;
        forEachField(m, [&bytes](const auto &f) { bytes += sizeof(f); });
        return bytes;
    }() == format::kMeasurementBytes,
    "kMeasurementBytes must match the serialized field list");

core::Measurement
readMeasurement(std::istream &is)
{
    core::Measurement m;
    forEachField(m, [&is](auto &field) { readPod(is, field); });
    return m;
}

void
writeSamples(std::ostream &os,
             const std::vector<core::Measurement> &samples)
{
    for (const auto &m : samples)
        writeMeasurement(os, m);
}

std::vector<core::Measurement>
readSamples(std::istream &is, u32 count)
{
    std::vector<core::Measurement> samples;
    samples.reserve(count);
    for (u32 i = 0; i < count; ++i)
        samples.push_back(readMeasurement(is));
    return samples;
}

u64
samplesChecksum(const std::vector<core::Measurement> &samples)
{
    Digest d;
    d.mix(samples.size());
    for (const auto &m : samples) {
        forEachField(m, [&d](const auto &field) {
            using Field = std::remove_cvref_t<decltype(field)>;
            if constexpr (std::is_same_v<Field, double>)
                d.mixDouble(field);
            else
                d.mix(static_cast<u64>(field));
        });
    }
    return d.value();
}

} // namespace interf::store
