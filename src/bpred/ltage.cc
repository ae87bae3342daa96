#include "bpred/ltage.hh"

#include <algorithm>
#include <bit>
#include <cmath>

#include "util/logging.hh"

namespace interf::bpred
{

namespace ltage
{

namespace
{

u32
ringCapacity(u32 min_capacity)
{
    INTERF_ASSERT(min_capacity >= 1 && min_capacity <= (u32{1} << 31));
    return std::bit_ceil(min_capacity);
}

} // anonymous namespace

HistoryRing::HistoryRing(u32 min_capacity)
    : ring_(ringCapacity(min_capacity), 0),
      mask_(static_cast<u32>(ring_.size()) - 1)
{
}

void
HistoryRing::reset()
{
    std::fill(ring_.begin(), ring_.end(), u8{0});
    head_ = 0;
}

} // namespace ltage

LtagePredictor::LtagePredictor(LtageConfig config)
    : cfg_(config), history_(config.maxHistory + 8),
      untilAging_(config.uResetPeriod), allocRng_(0xdead)
{
    INTERF_ASSERT(cfg_.numTables >= 2 && cfg_.numTables <= kMaxTables);
    INTERF_ASSERT(cfg_.minHistory >= 2);
    INTERF_ASSERT(cfg_.maxHistory > cfg_.minHistory);
    // Entries hold a 16-bit tag; the flat table is indexed with u32.
    INTERF_ASSERT(cfg_.tagBitsShort >= 1 && cfg_.tagBitsShort <= 16);
    INTERF_ASSERT(cfg_.tagBitsLong >= 1 && cfg_.tagBitsLong <= 16);
    INTERF_ASSERT(cfg_.logTaggedEntries >= 1 && cfg_.logTaggedEntries <= 24);
    INTERF_ASSERT(cfg_.logLoopEntries <= 24);
    // Usefulness aging counts down from this period; zero never ages.
    INTERF_ASSERT(cfg_.uResetPeriod > 0);

    const u32 n = cfg_.numTables;

    // Geometric history lengths L(i) = L1 * r^(i-1), r chosen so the
    // last table reaches maxHistory.
    double ratio = std::pow(
        static_cast<double>(cfg_.maxHistory) / cfg_.minHistory,
        1.0 / static_cast<double>(n - 1));
    double len = cfg_.minHistory;
    for (u32 i = 0; i < n; ++i) {
        histLen_[i] = std::max<u32>(
            static_cast<u32>(len + 0.5),
            i > 0 ? histLen_[i - 1] + 1 : cfg_.minHistory);
        len *= ratio;
    }
    histLen_[n - 1] = cfg_.maxHistory;

    entryMask_ = (u32{1} << cfg_.logTaggedEntries) - 1;
    bimodalMask_ = (u64{1} << cfg_.logBimodalEntries) - 1;
    loopMask_ = (u32{1} << cfg_.logLoopEntries) - 1;
    tagged_.assign(size_t{n} << cfg_.logTaggedEntries, TaggedEntry());

    groups_[0] = {0, n / 2, cfg_.tagBitsShort,
                  std::max<u32>(cfg_.tagBitsShort - 1, 1)};
    groups_[1] = {n / 2, n, cfg_.tagBitsLong,
                  std::max<u32>(cfg_.tagBitsLong - 1, 1)};
    for (const TagGroup &g : groups_) {
        for (u32 t = g.begin; t < g.end; ++t) {
            indexOutMask_[t] = u32{1}
                               << (histLen_[t] % cfg_.logTaggedEntries);
            tag1OutMask_[t] = u32{1} << (histLen_[t] % g.bits);
            tag2OutMask_[t] = u32{1} << (histLen_[t] % g.fold2Bits);
        }
    }

    bimodal_ = counter2::CounterTable(
        static_cast<u32>(u64{1} << cfg_.logBimodalEntries), 2);
    loop_.assign(u64{1} << cfg_.logLoopEntries, LoopEntry());
}

// lint:hot-begin L-TAGE per-branch predict/update path
bool
LtagePredictor::loopLookup(Addr pc, u32 loop_idx, bool &loop_pred) const
{
    const u16 tag = static_cast<u16>((pc >> 4) & 0x3fff);
    const LoopEntry &e = loop_[loop_idx];
    if (!e.valid || e.tag != tag || e.confidence < 3)
        return false;
    // Predict taken while inside the loop body, not-taken on the exit
    // iteration.
    loop_pred = (e.currentIter + 1) < e.pastIter;
    return true;
}

void
LtagePredictor::loopUpdate(Addr pc, u32 loop_idx, bool taken,
                           bool used_loop, bool loop_pred, bool tage_pred)
{
    const u16 tag = static_cast<u16>((pc >> 4) & 0x3fff);
    LoopEntry &e = loop_[loop_idx];

    if (e.valid && e.tag == tag) {
        if (taken) {
            ++e.currentIter;
            if (e.currentIter > 0x3000) {
                // Not a constant-trip-count loop; give the entry up.
                e.valid = false;
                return;
            }
        } else {
            u16 trip = e.currentIter + 1;
            if (e.pastIter == trip) {
                if (e.confidence < 3)
                    ++e.confidence;
                e.age = 255;
            } else if (e.pastIter == 0) {
                // First completed traversal: record the trip count and
                // start building confidence on subsequent matches.
                e.pastIter = trip;
            } else {
                if (e.confidence > 0) {
                    --e.confidence;
                    e.pastIter = trip;
                } else {
                    e.valid = false;
                }
            }
            e.currentIter = 0;
        }
        // Track whether the loop predictor beats TAGE for this branch.
        if (e.confidence >= 3 && used_loop) {
            bool loop_correct = loop_pred == taken;
            bool tage_correct = tage_pred == taken;
            if (loop_correct != tage_correct) {
                loopConfCtr_ += loop_correct ? 1 : -1;
                loopConfCtr_ = std::clamp<i64>(loopConfCtr_, -8, 7);
            }
        }
        return;
    }

    // Allocate on a mispredicted not-taken outcome (potential loop
    // exit) when the slot is free or stale.
    if (!taken && tage_pred != taken) {
        if (!e.valid || e.age == 0) {
            e.valid = true;
            e.tag = tag;
            e.pastIter = 0;
            e.currentIter = 0;
            e.confidence = 0;
            e.age = 200;
        } else if (e.age > 0) {
            --e.age;
        }
    }
}

void
LtagePredictor::updateHistories(bool taken)
{
    // Every window's outgoing bit is read before the push: the ring
    // holds more than maxHistory outcomes, so the push cannot
    // overwrite one of them.
    const u32 n = cfg_.numTables;
    u32 old[kMaxTables];
    for (u32 t = 0; t < n; ++t)
        old[t] = history_.bitAt(histLen_[t] - 1);
    history_.push(taken);

    const u32 in = taken;
    const u32 index_bits = cfg_.logTaggedEntries;
    for (const TagGroup g : groups_) { // by value: the stores below
                                       // cannot alias the bounds
        for (u32 t = g.begin; t < g.end; ++t) {
            indexFold_[t] = ltage::foldStep(indexFold_[t], in, old[t],
                                            indexOutMask_[t], index_bits);
            tagFold1_[t] = ltage::foldStep(tagFold1_[t], in, old[t],
                                           tag1OutMask_[t], g.bits);
            tagFold2_[t] = ltage::foldStep(tagFold2_[t], in, old[t],
                                           tag2OutMask_[t], g.fold2Bits);
        }
    }
}

bool
LtagePredictor::step(Addr pc, bool taken)
{
    const u32 n = cfg_.numTables;
    const u32 log_entries = cfg_.logTaggedEntries;

    // Each component's flat-table slot and tag, computed once and
    // shared by lookup and allocation (the folds do not move until
    // updateHistories).
    u32 slot[kMaxTables];
    u32 tag[kMaxTables];
    const u32 pc_index = static_cast<u32>(pc ^ (pc >> log_entries) ^
                                          (pc >> (2 * log_entries)));
    for (const TagGroup &g : groups_) {
        const u32 pc_tag = static_cast<u32>(pc ^ (pc >> (g.bits + 3)));
        const u32 mask = (u32{1} << g.bits) - 1;
        for (u32 t = g.begin; t < g.end; ++t) {
            slot[t] = (t << log_entries) |
                      ((pc_index ^ indexFold_[t] ^ (t + 1)) & entryMask_);
            tag[t] = (pc_tag ^ tagFold1_[t] ^ (tagFold2_[t] << 1)) & mask;
        }
    }

    // Provider: the longest-history tag hit; alternate: the next one.
    // Collected as a bit mask so no host branch depends on a tag.
    u64 hits = 0;
    for (u32 t = 0; t < n; ++t)
        hits |= u64{tagged_[slot[t]].tag == tag[t]} << t;
    const u32 bi = static_cast<u32>((pc ^ (pc >> 17)) & bimodalMask_);
    const bool bim = counter2::predict(bimodal_.get(bi));
    int provider = -1;
    int alt = -1;
    if (hits != 0) {
        provider = 63 - std::countl_zero(hits);
        hits &= ~(u64{1} << provider);
        if (hits != 0)
            alt = 63 - std::countl_zero(hits);
    }

    bool tage_pred = bim;
    bool alt_pred = bim;
    bool weak = false;
    if (provider >= 0) {
        const TaggedEntry &prov = tagged_[slot[provider]];
        if (alt >= 0)
            alt_pred = tagged_[slot[alt]].ctr >= 0;
        // Newly-allocated weak entries: optionally trust the alternate.
        weak = (prov.ctr == 0 || prov.ctr == -1) && prov.u == 0;
        tage_pred = (weak && useAltOnNa_ >= 0) ? alt_pred : prov.ctr >= 0;
    }

    // The loop predictor overrides TAGE once it has earned trust.
    bool final_pred = tage_pred;
    bool used_loop = false;
    bool loop_pred = false;
    if (cfg_.enableLoopPredictor) {
        const u32 loop_idx =
            static_cast<u32>(pc ^ (pc >> cfg_.logLoopEntries)) & loopMask_;
        if (loopLookup(pc, loop_idx, loop_pred)) {
            // Tracked even while untrusted, to score it against TAGE.
            used_loop = true;
            if (loopConfCtr_ >= 0)
                final_pred = loop_pred;
        }
        loopUpdate(pc, loop_idx, taken, used_loop, loop_pred, tage_pred);
    }

    // Usefulness and use-alt bookkeeping.
    if (provider >= 0) {
        TaggedEntry &prov = tagged_[slot[provider]];
        const bool prov_pred = prov.ctr >= 0;
        if (weak && prov_pred != alt_pred) {
            // Track whether trusting the alternate would have helped.
            useAltOnNa_ += (alt_pred == taken) ? 1 : -1;
            useAltOnNa_ = std::clamp<i64>(useAltOnNa_, -8, 7);
        }
        if (prov_pred != alt_pred) {
            if (prov_pred == taken) {
                if (prov.u < 3)
                    ++prov.u;
            } else if (prov.u > 0) {
                --prov.u;
            }
        }
        prov.ctr = static_cast<std::int8_t>(
            std::clamp(prov.ctr + (taken ? 1 : -1), -4, 3));
        // Also train the base predictor when the provider is weak, so
        // the bimodal stays a usable fallback.
        if (prov.ctr == 0 || prov.ctr == -1)
            bimodal_.set(bi, counter2::update(bimodal_.get(bi), taken));
    } else {
        bimodal_.set(bi, counter2::update(bimodal_.get(bi), taken));
    }

    // Allocation on a TAGE misprediction: claim an entry in a
    // longer-history table with u == 0, preferring shorter of the
    // candidates.
    if (tage_pred != taken && provider < static_cast<int>(n) - 1) {
        u32 start = static_cast<u32>(provider + 1);
        // Seznec's trick: sometimes skip the first candidate so
        // allocations spread over tables.
        if (start + 1 < n && (allocRng_.next() & 1))
            ++start;
        bool allocated = false;
        for (u32 t = start; t < n; ++t) {
            TaggedEntry &e = tagged_[slot[t]];
            if (e.u == 0) {
                e.tag = static_cast<u16>(tag[t]);
                e.ctr = taken ? 0 : -1;
                allocated = true;
                break;
            }
        }
        if (!allocated) {
            // All candidates useful: age them so future allocations
            // can succeed.
            for (u32 t = start; t < n; ++t) {
                TaggedEntry &e = tagged_[slot[t]];
                if (e.u > 0)
                    --e.u;
            }
        }
    }

    // Periodic global aging of usefulness counters.
    if (--untilAging_ == 0) {
        untilAging_ = cfg_.uResetPeriod;
        for (TaggedEntry &e : tagged_)
            e.u >>= 1;
    }

    updateHistories(taken);
    return final_pred;
}

bool
LtagePredictor::predictAndTrain(Addr pc, bool taken)
{
    return step(pc, taken);
}

StreamTally
LtagePredictor::tallyStream(const BranchStream &stream)
{
    return streamMispredicts(*this, stream);
}
// lint:hot-end

void
LtagePredictor::reset()
{
    std::fill(tagged_.begin(), tagged_.end(), TaggedEntry());
    bimodal_.fill(2);
    std::fill(loop_.begin(), loop_.end(), LoopEntry());
    indexFold_.fill(0);
    tagFold1_.fill(0);
    tagFold2_.fill(0);
    history_.reset();
    useAltOnNa_ = 0;
    loopConfCtr_ = 0;
    untilAging_ = cfg_.uResetPeriod;
    allocRng_ = Rng(0xdead);
}

std::string
LtagePredictor::name() const
{
    return strprintf("ltage-%uT-%ue", cfg_.numTables,
                     1u << cfg_.logTaggedEntries);
}

u64
LtagePredictor::sizeBits() const
{
    u64 bits = 0;
    for (const TagGroup &g : groups_) {
        u64 entry_bits = 3 + g.bits + 2; // ctr + tag + u
        bits += u64{g.end - g.begin} *
                (u64{1} << cfg_.logTaggedEntries) * entry_bits;
    }
    bits += (u64{1} << cfg_.logBimodalEntries) * 2;
    if (cfg_.enableLoopPredictor)
        bits += (u64{1} << cfg_.logLoopEntries) * (14 + 14 + 14 + 2 + 8 + 1);
    bits += cfg_.maxHistory;
    return bits;
}

u32
LtagePredictor::historyLength(u32 table) const
{
    INTERF_ASSERT(table < cfg_.numTables);
    return histLen_[table];
}

} // namespace interf::bpred
