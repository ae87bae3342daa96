#include "pinsim/pinsim.hh"

#include "bpred/factory.hh"
#include "util/logging.hh"

namespace interf::pinsim
{

double
PredictorResult::mpki() const
{
    INTERF_ASSERT(instructions > 0);
    return 1000.0 * static_cast<double>(mispredicts) /
           static_cast<double>(instructions);
}

double
PredictorResult::accuracy() const
{
    if (branches == 0)
        return 1.0;
    return 1.0 - static_cast<double>(mispredicts) /
                     static_cast<double>(branches);
}

PinSim::PinSim(const std::vector<std::string> &specs)
{
    INTERF_ASSERT(!specs.empty());
    for (const auto &spec : specs) {
        predictors_.push_back(bpred::makePredictor(spec));
        names_.push_back(predictors_.back()->name());
    }
}

const std::string &
PinSim::predictorName(size_t i) const
{
    INTERF_ASSERT(i < names_.size());
    return names_[i];
}

std::vector<PredictorResult>
PinSim::run(const trace::Program &prog, const trace::Trace &trace,
            const layout::CodeLayout &code)
{
    trace::ReplayPlan plan(prog, trace);
    trace::LayoutTables tables(plan, code);
    return replay(plan, tables);
}

std::vector<PredictorResult>
PinSim::replay(const trace::ReplayPlan &plan,
               const trace::LayoutTables &tables)
{
    INTERF_ASSERT(tables.branchAddr.size() == plan.siteCount());
    std::vector<PredictorResult> results(predictors_.size());
    for (size_t i = 0; i < predictors_.size(); ++i) {
        results[i].name = names_[i];
        results[i].branches = plan.condSite.size();
        results[i].instructions = plan.instCount;
    }

    // Predictor-major: each predictor runs the whole stream from
    // power-on state in one replayStream call, so its state stays hot
    // in the host caches and no per-branch virtual call is made.
    const bpred::BranchStream stream{plan.condSite.data(),
                                     plan.condTaken.data(),
                                     plan.condSite.size(),
                                     tables.branchAddr.data()};
    // lint:hot-begin PinSim stream loop
    for (size_t i = 0; i < predictors_.size(); ++i) {
        predictors_[i]->reset();
        results[i].mispredicts = predictors_[i]->replayStream(stream);
    }
    // lint:hot-end
    return results;
}

std::vector<double>
averageMpki(const std::vector<std::vector<PredictorResult>> &per_layout)
{
    INTERF_ASSERT(!per_layout.empty());
    size_t n_predictors = per_layout.front().size();
    std::vector<double> avg(n_predictors, 0.0);
    for (const auto &layout : per_layout) {
        INTERF_ASSERT(layout.size() == n_predictors);
        for (size_t i = 0; i < n_predictors; ++i)
            avg[i] += layout[i].mpki();
    }
    for (auto &v : avg)
        v /= static_cast<double>(per_layout.size());
    return avg;
}

} // namespace interf::pinsim
