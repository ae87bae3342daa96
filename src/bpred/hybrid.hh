/**
 * @file
 * Hybrid predictor: GAs + bimodal with a chooser (Evers/Chang/Patt
 * style). Section 5.4 of the paper: "The branch predictor of the Intel
 * Xeon E5440 is not documented, but through reverse-engineering
 * experiments we have determined that it is likely to contain a hybrid
 * of a GAs-style branch predictor and a bimodal branch predictor."
 * This is the model the machine timing simulator uses as the "real"
 * predictor.
 */

#ifndef INTERF_BPRED_HYBRID_HH
#define INTERF_BPRED_HYBRID_HH

#include <vector>

#include "bpred/bimodal.hh"
#include "bpred/twolevel.hh"

namespace interf::bpred
{

/** Chooser-based hybrid of a GAs component and a bimodal component.
 *  Final so the stream engine (streamMispredicts), which every
 *  Machine replay runs through tallyStream, inlines the whole
 *  predict-and-train chain. */
class HybridPredictor final : public BranchPredictor
{
  public:
    /**
     * @param gas_entries Global-component PHT entries (power of two).
     * @param gas_history Global history bits.
     * @param bimodal_entries Bimodal table entries (power of two).
     * @param chooser_entries Chooser table entries (power of two).
     * @param scheme Indexing of the global component. GAs concatenates
     *        address and history bits; Gshare hashes them together,
     *        which is what the Core-2-era hardware most plausibly does
     *        (concatenation would leave too few address bits).
     */
    HybridPredictor(u32 gas_entries, u32 gas_history, u32 bimodal_entries,
                    u32 chooser_entries,
                    TwoLevelScheme scheme = TwoLevelScheme::GAs);

    bool predictAndTrain(Addr pc, bool taken) override
    {
        const u32 ci =
            static_cast<u32>(pc ^ (pc >> 16)) & chooserMask_;
        const u8 choose = chooser_.get(ci);
        bool use_gas = choose >= 2;

        // Train both components; each returns its own pre-update guess.
        bool gas_pred = gas_.predictAndTrain(pc, taken);
        bool bim_pred = bimodal_.predictAndTrain(pc, taken);
        bool prediction = use_gas ? gas_pred : bim_pred;

        // Train the chooser only when the components disagree
        // (branchless: agreement writes back the old value).
        u8 trained = counter2::update(choose, gas_pred == taken);
        chooser_.set(ci, gas_pred != bim_pred ? trained : choose);
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
        return gas_.stateBytes() + bimodal_.stateBytes() +
               chooser_.stateBytes();
    }

  private:
    TwoLevelPredictor gas_;
    BimodalPredictor bimodal_;
    /** 2-bit chooser counters (one byte each): >=2 selects GAs. */
    counter2::CounterTable chooser_;
    u32 chooserMask_;
};

} // namespace interf::bpred

#endif // INTERF_BPRED_HYBRID_HH
