/**
 * @file
 * L-TAGE branch predictor (Seznec, CBP-2 / JILP 2007).
 *
 * "The L-TAGE branch predictor is currently the most accurate branch
 * predictor in the academic literature" (paper, Section 7.2.2). The
 * paper simulates it with Pin and uses the interferometry regression
 * model to estimate that it would improve the Xeon's CPI by ~4.8%.
 *
 * The implementation follows the published design: a bimodal base
 * predictor, M partially-tagged components indexed with geometrically
 * increasing global-history lengths (folded via circular-shift
 * registers), usefulness counters with periodic aging, the
 * use-alt-on-newly-allocated policy, and a loop predictor that
 * overrides TAGE for branches with constant iteration counts.
 *
 * State layout (DESIGN.md §5l): all tagged components live in one flat
 * table of 4-byte entries; the 3 x M folded-history registers are
 * struct-of-arrays state over a power-of-two history ring, advanced in
 * one inline loop per branch; each component's index and tag are
 * computed once per branch and shared by lookup and allocation.
 */

#ifndef INTERF_BPRED_LTAGE_HH
#define INTERF_BPRED_LTAGE_HH

#include <array>
#include <cstdint>
#include <vector>

#include "bpred/predictor.hh"
#include "util/random.hh"

namespace interf::bpred
{

/** Configuration of an L-TAGE instance. */
struct LtageConfig
{
    u32 numTables = 12;       ///< Tagged components.
    u32 minHistory = 4;       ///< Shortest tagged history length.
    u32 maxHistory = 640;     ///< Longest tagged history length.
    u32 logTaggedEntries = 10; ///< log2 entries per tagged table.
    u32 logBimodalEntries = 13; ///< log2 bimodal entries.
    u32 tagBitsShort = 8;     ///< Tag width for short-history tables.
    u32 tagBitsLong = 12;     ///< Tag width for long-history tables.
    u32 uResetPeriod = 1 << 18; ///< Branches between usefulness aging.
    bool enableLoopPredictor = true;
    u32 logLoopEntries = 6;   ///< log2 loop-predictor entries.
};

namespace ltage
{

/**
 * One step of TAGE's circular-shift history folding: @p folded holds
 * history[0..origLen) XOR-folded into @p folded_len bits; rotate left by
 * one, insert @p new_bit, and remove @p old_bit (0 or 1), the bit
 * leaving the origLen window, at @p out_mask = 1 << (origLen %
 * folded_len). A mask rather than a shift count keeps the step free of
 * per-register variable shifts, so a loop over registers of one width
 * vectorizes.
 */
inline u32
foldStep(u32 folded, u32 new_bit, u32 old_bit, u32 out_mask,
         u32 folded_len)
{
    folded = (folded << 1) | new_bit;
    folded ^= out_mask & (0u - old_bit);
    folded ^= folded >> folded_len;
    return folded & ((u32{1} << folded_len) - 1);
}

/**
 * Global outcome history as a byte ring whose capacity is rounded up to
 * a power of two, so reading the bit about to leave any window is one
 * mask, not two integer divisions.
 */
class HistoryRing
{
  public:
    /** A ring holding at least @p min_capacity outcomes, all zero. */
    explicit HistoryRing(u32 min_capacity);

    /** Shift in one outcome. */
    void push(bool taken)
    {
        head_ = (head_ + 1) & mask_;
        ring_[head_] = static_cast<u8>(taken);
    }

    /** The outcome i branches ago (i = 0 is the most recent) as 0 or
     *  1; i < capacity(). */
    u32 bitAt(u32 i) const { return ring_[(head_ - i) & mask_]; }

    /** Outcomes held: the requested minimum rounded up to 2^k. */
    u32 capacity() const { return mask_ + 1; }

    void reset();

  private:
    std::vector<u8> ring_;
    u32 mask_;
    u32 head_ = 0; ///< Position of the most recent bit.
};

} // namespace ltage

/** The L-TAGE predictor. */
class LtagePredictor final : public BranchPredictor
{
  public:
    /** Panics on a configuration the entry layout cannot hold (tags
     *  wider than 16 bits, more than 2^24 entries per table) or that
     *  never ages (uResetPeriod == 0). */
    explicit LtagePredictor(LtageConfig config = LtageConfig());

    bool predictAndTrain(Addr pc, bool taken) override;
    StreamTally tallyStream(const BranchStream &stream) override;
    void reset() override;
    std::string name() const override;
    u64 sizeBits() const override;

    /** History length of tagged table i (exposed for tests). */
    u32 historyLength(u32 table) const;

  private:
    static constexpr u32 kMaxTables = 64;

    /** One tagged-component entry: 4 bytes, no padding. */
    struct TaggedEntry
    {
        std::int8_t ctr = 0; ///< Signed 3-bit counter in [-4, 3].
        u8 u = 0;   ///< 2-bit usefulness.
        u16 tag = 0;
    };
    static_assert(sizeof(TaggedEntry) == 4);

    struct LoopEntry
    {
        u16 tag = 0;
        u16 pastIter = 0;
        u16 currentIter = 0;
        u8 confidence = 0;
        u8 age = 0;
        bool valid = false;
    };

    /**
     * Tables [begin, end) sharing one tag width: the first numTables/2
     * use tagBitsShort, the rest tagBitsLong. Within a group every
     * tag fold has the same width, so the per-table loops vectorize.
     */
    struct TagGroup
    {
        u32 begin = 0;
        u32 end = 0;
        u32 bits = 0;      ///< Tag width = first tag fold's width.
        u32 fold2Bits = 0; ///< Second tag fold: max(bits - 1, 1).
    };

    using PerTable = std::array<u32, kMaxTables>;

    /** Predict the branch at @p pc, then train with @p taken. The one
     *  per-branch path, shared by predictAndTrain and tallyStream. */
    inline bool step(Addr pc, bool taken);
    inline bool loopLookup(Addr pc, u32 loop_idx, bool &loop_pred) const;
    inline void loopUpdate(Addr pc, u32 loop_idx, bool taken,
                           bool used_loop, bool loop_pred, bool tage_pred);
    inline void updateHistories(bool taken);

    LtageConfig cfg_;
    u32 entryMask_;     ///< (1 << logTaggedEntries) - 1.
    u64 bimodalMask_;
    u32 loopMask_;
    std::vector<TaggedEntry> tagged_; ///< numTables x 2^logTaggedEntries.
    counter2::CounterTable bimodal_;  ///< 2-bit counters, byte each.
    std::vector<LoopEntry> loop_;
    TagGroup groups_[2];

    /** @{ Per-table constants: history length and, for each fold, the
     *  position of the outgoing bit as a mask (see ltage::foldStep). */
    PerTable histLen_{};
    PerTable indexOutMask_{};
    PerTable tag1OutMask_{};
    PerTable tag2OutMask_{};
    /** @} */

    /** @{ Folded-history registers, per table. */
    PerTable indexFold_{};
    PerTable tagFold1_{};
    PerTable tagFold2_{};
    /** @} */

    ltage::HistoryRing history_;
    i64 useAltOnNa_ = 0; ///< In [-8, 7]: >= 0 favours altpred for
                         ///< newly-allocated weak entries.
    i64 loopConfCtr_ = 0; ///< Trust counter for the loop predictor.
    u32 untilAging_;      ///< Branches left before usefulness aging.
    Rng allocRng_; ///< Deterministic tie-breaking for allocation.
};

} // namespace interf::bpred

#endif // INTERF_BPRED_LTAGE_HH
