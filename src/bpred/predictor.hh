/**
 * @file
 * Conditional branch predictor interface.
 *
 * Predictors are functional models: they consume the dynamic stream of
 * (branch PC, outcome) pairs and report their prediction accuracy. The
 * same models serve three roles in the reproduction:
 *
 *  1. inside the machine timing model as the "real" Intel predictor
 *     (a hybrid of GAs and bimodal, per the paper's reverse
 *     engineering);
 *  2. inside the Pin-style functional simulator to measure hypothetical
 *     predictors (GAs of several sizes, L-TAGE) on the same executables
 *     (Section 7.1);
 *  3. as the 145-configuration sweep used to validate CPI/MPKI
 *     linearity (Section 3.2).
 */

#ifndef INTERF_BPRED_PREDICTOR_HH
#define INTERF_BPRED_PREDICTOR_HH

#include <algorithm>
#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "util/types.hh"

namespace interf::bpred
{

/**
 * A conditional-branch stream in execution order, borrowed from a
 * compiled plan and a layout's tables: branch j sits at
 * sitePc[site[j]] and resolves taken iff taken[j] != 0. A replay
 * trains on every branch but tallies only from countFrom on (the
 * first branch after a warmup); with weights it also sums weight[j]
 * over the tallied branches it mispredicts.
 */
struct BranchStream
{
    const u32 *site = nullptr;    ///< ReplayPlan::condSite.
    const u8 *taken = nullptr;    ///< ReplayPlan::condTaken.
    size_t size = 0;              ///< Branches in the stream.
    const Addr *sitePc = nullptr; ///< LayoutTables::branchAddr.
    size_t countFrom = 0;         ///< First branch tallied.
    const u16 *weight = nullptr;  ///< Per-branch weight, or null.
};

/** What a stream replay tallied, from BranchStream::countFrom on. */
struct StreamTally
{
    Count mispredicts = 0;
    u64 weight = 0; ///< Weight sum of the mispredicted branches.
};

/**
 * Predict and train @p pred on every branch of @p stream in order, and
 * tally it (BranchStream). With P a `final` predictor class the
 * per-branch call is direct and inlinable, so a whole stream costs one
 * virtual call. Without weights, the tallying loop is the plain
 * mispredict count.
 */
template <class P>
StreamTally
streamMispredicts(P &pred, const BranchStream &stream)
{
    auto mispredicts = [&](size_t j) -> bool {
        const bool taken = stream.taken[j] != 0;
        return pred.predictAndTrain(stream.sitePc[stream.site[j]],
                                    taken) != taken;
    };
    const size_t from = std::min(stream.countFrom, stream.size);
    for (size_t j = 0; j < from; ++j)
        (void)mispredicts(j);
    StreamTally tally;
    if (!stream.weight) {
        for (size_t j = from; j < stream.size; ++j)
            tally.mispredicts += mispredicts(j);
        return tally;
    }
    for (size_t j = from; j < stream.size; ++j) {
        const bool miss = mispredicts(j);
        tally.mispredicts += miss;
        tally.weight += u64{stream.weight[j]} * miss;
    }
    return tally;
}

/**
 * Abstract conditional branch direction predictor.
 *
 * The single-call interface predicts and trains atomically: the
 * returned value is the direction the predictor *would have guessed*
 * before seeing the outcome, and internal state advances to include the
 * outcome. Perfect predictors may peek at the outcome.
 */
class BranchPredictor
{
  public:
    virtual ~BranchPredictor() = default;

    /**
     * Predict the branch at pc and then train with its actual outcome.
     *
     * @param pc Address of the branch instruction.
     * @param taken Actual outcome.
     * @return The predicted direction.
     */
    virtual bool predictAndTrain(Addr pc, bool taken) = 0;

    /**
     * predictAndTrain() every branch of @p stream in order, from the
     * current state, and tally it (BranchStream). `final` predictors
     * override this with streamMispredicts(*this, stream) to drop the
     * per-branch virtual call.
     */
    virtual StreamTally tallyStream(const BranchStream &stream)
    {
        return streamMispredicts(*this, stream);
    }

    /** tallyStream()'s mispredicts: the count-only call (PinSim's). */
    Count replayStream(const BranchStream &stream)
    {
        return tallyStream(stream).mispredicts;
    }

    /** Restore the power-on state. */
    virtual void reset() = 0;

    /** Human-readable name including sizing, e.g. "gas-8KB-h10". */
    virtual std::string name() const = 0;

    /** Storage budget in bits (prediction tables + histories). */
    virtual u64 sizeBits() const = 0;

    /** Host bytes of mutable state this predictor keeps per replay.
     *  Defaults to the modeled budget rounded up to bytes —
     *  exact for packed-counter predictors; structured predictors
     *  (L-TAGE) override with their real container sizes. */
    virtual u64 stateBytes() const { return (sizeBits() + 7) / 8; }
};

/** Owning handle used throughout the library. */
using PredictorPtr = std::unique_ptr<BranchPredictor>;

/** Saturating 2-bit counter helpers shared by table-based predictors. */
namespace counter2
{

/**
 * Update a 2-bit counter toward taken/not-taken: +1 saturating at 3,
 * -1 saturating at 0. Written branchlessly (the compiler emits
 * conditional moves): the direction bit is the least predictable data
 * a replay consumes, and a branch here mispredicts on the
 * host about as often as the modeled counter itself is wrong.
 */
inline u8
update(u8 ctr, bool taken)
{
    int next = static_cast<int>(ctr) + (taken ? 1 : -1);
    next = next < 0 ? 0 : next;
    next = next > 3 ? 3 : next;
    return static_cast<u8>(next);
}

/** Predicted direction of a 2-bit counter. */
inline bool
predict(u8 ctr)
{
    return ctr >= 2;
}

/**
 * Table of 2-bit saturating counters, one byte per counter.
 *
 * A 4-per-byte bit-packed variant was implemented and measured for the
 * hot-state compaction work: it shrank predictor tables 4x but cost
 * ~5% replay throughput, because four hot counters sharing one byte
 * turn independent updates into same-byte load-modify-store chains
 * (the host forwards each store to the next update's load). The tables
 * are a few tens of KB against a Machine's ~1 MB of hot state — the
 * L2 tag and stamp arrays dominate — so the byte-per-counter layout
 * stays. The class remains the single place predictors size and
 * account their counter storage.
 */
class CounterTable
{
  public:
    CounterTable() = default;

    /** @param entries Counter count. @param init Initial value 0..3. */
    explicit CounterTable(u32 entries, u8 init = 2)
        : entries_(entries), bytes_(entries, init)
    {
    }

    /** Counter @p i (0..3). */
    u8 get(u32 i) const { return bytes_[i]; }

    /** Overwrite counter @p i with @p v (0..3). */
    void set(u32 i, u8 v) { bytes_[i] = v; }

    /** Set every counter to @p v (0..3). */
    void fill(u8 v)
    {
        std::fill(bytes_.begin(), bytes_.end(), v);
    }

    u32 entries() const { return entries_; }
    u64 stateBytes() const { return bytes_.size(); }

  private:
    u32 entries_ = 0;
    std::vector<u8> bytes_;
};

} // namespace counter2

} // namespace interf::bpred

#endif // INTERF_BPRED_PREDICTOR_HH
