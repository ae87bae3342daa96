/**
 * @file
 * Global branch history shift register.
 *
 * Two-level predictors index their tables with recent branch outcomes.
 * (L-TAGE's folded histories over a long outcome ring live with the
 * predictor, in bpred/ltage.hh.)
 */

#ifndef INTERF_BPRED_HISTORY_HH
#define INTERF_BPRED_HISTORY_HH

#include "util/types.hh"

namespace interf::bpred
{

/** Simple shift-register global history (newest outcome in bit 0). */
class GlobalHistory
{
  public:
    explicit GlobalHistory(u32 bits = 64);

    /** Shift in one outcome. Inlined: once per conditional branch. */
    void push(bool taken)
    {
        value_ = (value_ << 1) | (taken ? 1u : 0u);
        if (width_ < 64)
            value_ &= (u64{1} << width_) - 1;
    }

    /** The low `bits` history bits (bits <= width). */
    u64 low(u32 bits) const
    {
        if (bits == 0)
            return 0;
        if (bits >= 64)
            return value_;
        return value_ & ((u64{1} << bits) - 1);
    }

    /** Full register value. */
    u64 value() const { return value_; }

    /** Reset to all-zero history. */
    void reset() { value_ = 0; }

  private:
    u64 value_ = 0;
    u32 width_;
};

} // namespace interf::bpred

#endif // INTERF_BPRED_HISTORY_HH
