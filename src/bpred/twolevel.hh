/**
 * @file
 * Two-level adaptive predictors with global history (Yeh & Patt 1991).
 *
 * GAs: the pattern history table is indexed by the concatenation of
 * branch-address bits and global-history bits — the structure the paper
 * simulates at 2-16 KB for Figure 7/8 and believes (hybridized with
 * bimodal) to live in the real Xeon E5440.
 *
 * gshare (McFarling): address XOR history indexing; included for the
 * 145-configuration linearity sweep.
 */

#ifndef INTERF_BPRED_TWOLEVEL_HH
#define INTERF_BPRED_TWOLEVEL_HH

#include <vector>

#include "bpred/history.hh"
#include "bpred/predictor.hh"

namespace interf::bpred
{

/** Indexing flavour of a global two-level predictor. */
enum class TwoLevelScheme { GAs, Gshare };

/** Global-history two-level predictor (GAs or gshare indexing). */
class TwoLevelPredictor final : public BranchPredictor
{
  public:
    /**
     * @param scheme Indexing scheme.
     * @param entries PHT entries; must be a power of two.
     * @param history_bits Global history length; for GAs must be
     *        < log2(entries) so some address bits remain.
     */
    TwoLevelPredictor(TwoLevelScheme scheme, u32 entries, u32 history_bits);

    bool predictAndTrain(Addr pc, bool taken) override
    {
        const u32 i = indexFor(pc);
        const u8 ctr = table_.get(i);
        bool prediction = counter2::predict(ctr);
        table_.set(i, counter2::update(ctr, taken));
        history_.push(taken);
        return prediction;
    }

    StreamTally tallyStream(const BranchStream &stream) override
    {
        return streamMispredicts(*this, stream);
    }

    void reset() override;
    std::string name() const override;
    u64 sizeBits() const override;
    u64 stateBytes() const override
    {
        return table_.stateBytes() + sizeof(history_);
    }

    /** Table index for (pc, current history) (exposed for tests). */
    u32 indexFor(Addr pc) const
    {
        u32 addr_mix = static_cast<u32>(pc ^ (pc >> 16));
        u64 hist = history_.low(historyBits_);
        if (scheme_ == TwoLevelScheme::GAs) {
            // Concatenate: {addr bits, history bits}.
            u32 addr_bits = indexBits_ - historyBits_;
            u32 addr_part = addr_mix & ((u32{1} << addr_bits) - 1);
            return ((addr_part << historyBits_) |
                    static_cast<u32>(hist)) & mask_;
        }
        // gshare: XOR.
        return (addr_mix ^ static_cast<u32>(hist)) & mask_;
    }

    u32 historyBits() const { return historyBits_; }

  private:
    TwoLevelScheme scheme_;
    counter2::CounterTable table_; ///< 2-bit counters, byte each.
    u32 mask_;
    u32 indexBits_;
    u32 historyBits_;
    GlobalHistory history_;
};

} // namespace interf::bpred

#endif // INTERF_BPRED_TWOLEVEL_HH
