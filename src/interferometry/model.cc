#include "interferometry/model.hh"

#include "stats/descriptive.hh"
#include "util/logging.hh"

namespace interf::interferometry
{

EventModel::EventModel(std::string name, const std::vector<double> &xs,
                       const std::vector<double> &ys)
    : event(std::move(name)),
      fit(xs, ys),
      test(stats::correlationTTest(fit.r(), xs.size()))
{
}

std::vector<double>
column(const std::vector<core::Measurement> &samples,
       double core::Measurement::*field)
{
    std::vector<double> out;
    out.reserve(samples.size());
    for (const auto &m : samples)
        out.push_back(m.*field);
    return out;
}

PerformanceModel::PerformanceModel(
    std::string benchmark, const std::vector<core::Measurement> &samples,
    double alpha)
    : benchmark_(std::move(benchmark)),
      n_(samples.size()),
      alpha_(alpha),
      branch_("mpki", column(samples, &core::Measurement::mpki),
              column(samples, &core::Measurement::cpi)),
      l1i_("l1i", column(samples, &core::Measurement::l1iMpki),
           column(samples, &core::Measurement::cpi)),
      l2_("l2", column(samples, &core::Measurement::l2Mpki),
          column(samples, &core::Measurement::cpi)),
      combined_({column(samples, &core::Measurement::mpki),
                 column(samples, &core::Measurement::l1iMpki),
                 column(samples, &core::Measurement::l2Mpki)},
                column(samples, &core::Measurement::cpi)),
      combinedTest_(stats::regressionFTest(combined_.r2(), samples.size(),
                                           combined_.k()))
{
    INTERF_ASSERT(samples.size() >= kMinSamples);
    meanCpi_ = stats::mean(column(samples, &core::Measurement::cpi));
    meanMpki_ = stats::mean(column(samples, &core::Measurement::mpki));
    meanL1i_ = stats::mean(column(samples, &core::Measurement::l1iMpki));
    meanL2_ = stats::mean(column(samples, &core::Measurement::l2Mpki));
}

bool
PerformanceModel::branchSignificant() const
{
    return branch_.test.significantAt(alpha_);
}

double
PerformanceModel::predictCpi(double mpki) const
{
    return branch_.fit.predict(mpki);
}

stats::Interval
PerformanceModel::predictionInterval(double mpki) const
{
    return branch_.fit.predictionInterval(mpki, 0.95);
}

stats::Interval
PerformanceModel::confidenceInterval(double mpki) const
{
    return branch_.fit.confidenceInterval(mpki, 0.95);
}

BlameVector
PerformanceModel::blame() const
{
    BlameVector b;
    b.branch = branch_.fit.r2();
    b.l1i = l1i_.fit.r2();
    b.l2 = l2_.fit.r2();
    b.combined = combined_.r2();
    b.combinedP = combinedTest_.pValue;
    return b;
}

Table1Row
PerformanceModel::table1Row() const
{
    Table1Row row;
    row.benchmark = benchmark_;
    row.slope = branch_.fit.slope();
    row.intercept = branch_.fit.intercept();
    auto pi = predictionInterval(0.0);
    row.perfectLow = pi.lo;
    row.perfectHigh = pi.hi;
    row.significant = branchSignificant();
    return row;
}

} // namespace interf::interferometry
