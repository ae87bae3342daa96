#include "bpred/history.hh"

#include "util/logging.hh"

namespace interf::bpred
{

GlobalHistory::GlobalHistory(u32 bits) : width_(bits)
{
    INTERF_ASSERT(bits >= 1 && bits <= 64);
}

} // namespace interf::bpred
