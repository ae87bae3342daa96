/**
 * @file
 * Return address stack (RAS).
 *
 * Call/return target prediction in the machine model. A finite circular
 * stack: calls push their return address, returns pop the predicted
 * target. Deep call chains overflow the stack (oldest entries are
 * silently overwritten) and mispredict on the way back out — a small
 * but real placement-independent cost real front ends pay.
 *
 * The reference model (Machine::runReference) drives this class.
 * Machine::replay reads the same verdicts from the plan part
 * (core::PlanOutcomes::rasMissBits), which core::simulatePlan builds by
 * running this stack's logic over site ids once per plan (DESIGN.md
 * §5p, §5v).
 */

#ifndef INTERF_BPRED_RAS_HH
#define INTERF_BPRED_RAS_HH

#include <vector>

#include "util/types.hh"

namespace interf::bpred
{

/** Finite circular return-address stack. */
class ReturnAddressStack
{
  public:
    /** @param depth Number of entries (Core-2-class parts use ~16). */
    explicit ReturnAddressStack(u32 depth = 16);

    /** Push a return address at a call. */
    void push(Addr return_addr);

    /**
     * Pop the predicted return target. Returns 0 if the stack is
     * logically empty (prediction will be wrong).
     */
    Addr pop();

    /** Entries currently live (saturates at the capacity). */
    u32 occupancy() const { return occupancy_; }

    u32 depth() const { return depth_; }

    /** Empty the stack. */
    void reset();

    /** Host bytes of mutable state (the entry ring). */
    u64 stateBytes() const { return stack_.size() * sizeof(Addr); }

    /** @{ Accuracy statistics (correct/incorrect pops). */
    Count pops() const { return pops_; }
    Count overflows() const { return overflows_; }
    /** @} */

  private:
    u32 depth_;
    std::vector<Addr> stack_;
    u32 top_ = 0; ///< Index of the next free slot.
    u32 occupancy_ = 0;
    Count pops_ = 0;
    Count overflows_ = 0;
};

} // namespace interf::bpred

#endif // INTERF_BPRED_RAS_HH
