/**
 * @file
 * Per-benchmark performance models built from campaign samples.
 *
 * Section 6 of the paper: least-squares models relate CPI to each
 * layout-sensitive event — branch MPKI, L1I misses, L2 misses — plus a
 * combined multi-linear model. r^2 "assigns blame" (Figure 6); the
 * t-test gates the single-event models and the F-test the combined one
 * (Section 6.2); the branch model's slope/intercept and its prediction
 * interval at 0 MPKI form Table 1.
 */

#ifndef INTERF_INTERFEROMETRY_MODEL_HH
#define INTERF_INTERFEROMETRY_MODEL_HH

#include <string>
#include <vector>

#include "core/runner.hh"
#include "stats/hypothesis.hh"
#include "stats/regression.hh"

namespace interf::interferometry
{

/** One single-event regression: CPI ~ event rate. */
struct EventModel
{
    std::string event;   ///< "mpki", "l1i", "l2".
    stats::LinearFit fit;
    stats::TestResult test;

    EventModel(std::string name, const std::vector<double> &xs,
               const std::vector<double> &ys);
};

/**
 * Figure-6 blame assignment as data: the fraction of CPI variance
 * (r^2) each layout-sensitive event explains, plus the combined
 * model's r^2. This is the typed path consumers use instead of
 * scraping report text: bench_fig6_blame renders it and the layout
 * optimizer (src/opt) turns it into proposal weights — which
 * structure's collisions to attack first.
 */
struct BlameVector
{
    double branch = 0.0;   ///< r^2 of CPI ~ branch MPKI.
    double l1i = 0.0;      ///< r^2 of CPI ~ L1I MPKI.
    double l2 = 0.0;       ///< r^2 of CPI ~ L2 MPKI.
    double combined = 0.0; ///< r^2 of the multi-linear model.
    double combinedP = 1.0;///< F-test p-value of the combined model.

    /** Sum of the three single-event r^2 (> combined when events
     *  overlap; the Figure-6 "bars don't add up" observation). */
    double total() const { return branch + l1i + l2; }
};

/** A Table-1 row. */
struct Table1Row
{
    std::string benchmark;
    double slope = 0.0;
    double intercept = 0.0;
    double perfectLow = 0.0;  ///< 95% PI low bound at 0 MPKI.
    double perfectHigh = 0.0; ///< 95% PI high bound at 0 MPKI.
    bool significant = false;
};

/**
 * The full per-benchmark model bundle: three single-event regressions,
 * the combined multi-linear model, and the sample summaries the benches
 * report.
 */
class PerformanceModel
{
  public:
    /** The fewest samples the model accepts: the combined regression
     *  fits CPI on three events, which needs two samples more than
     *  predictors. */
    static constexpr u32 kMinSamples = 5;

    /**
     * @param benchmark Display name.
     * @param samples Campaign measurements (>= kMinSamples required).
     * @param alpha Significance level for the gates (default 0.05).
     */
    PerformanceModel(std::string benchmark,
                     const std::vector<core::Measurement> &samples,
                     double alpha = 0.05);

    const std::string &benchmark() const { return benchmark_; }
    size_t sampleCount() const { return n_; }

    /** @{ Single-event models. */
    const EventModel &branchModel() const { return branch_; }
    const EventModel &l1iModel() const { return l1i_; }
    const EventModel &l2Model() const { return l2_; }
    /** @} */

    /** Combined CPI ~ (MPKI, L1I, L2) model. */
    const stats::MultiFit &combinedFit() const { return combined_; }

    /** F-test of the combined model. */
    const stats::TestResult &combinedTest() const { return combinedTest_; }

    /** Whether the branch model passes the t-test gate. */
    bool branchSignificant() const;

    /** Point CPI prediction from the branch model. */
    double predictCpi(double mpki) const;

    /** 95% prediction interval at the given MPKI. */
    stats::Interval predictionInterval(double mpki) const;

    /** 95% confidence interval (for observed operating points). */
    stats::Interval confidenceInterval(double mpki) const;

    /** @{ Sample summaries. */
    double meanCpi() const { return meanCpi_; }
    double meanMpki() const { return meanMpki_; }
    double meanL1iMpki() const { return meanL1i_; }
    double meanL2Mpki() const { return meanL2_; }
    /** @} */

    /** The Table-1 row for this benchmark. */
    Table1Row table1Row() const;

    /** The Figure-6 per-event r^2 blame assignment. */
    BlameVector blame() const;

    double alpha() const { return alpha_; }

  private:
    std::string benchmark_;
    size_t n_;
    double alpha_;
    EventModel branch_;
    EventModel l1i_;
    EventModel l2_;
    stats::MultiFit combined_;
    stats::TestResult combinedTest_;
    double meanCpi_;
    double meanMpki_;
    double meanL1i_;
    double meanL2_;
};

/** Extract one measurement field across samples (helper for benches). */
std::vector<double> column(const std::vector<core::Measurement> &samples,
                           double core::Measurement::*field);

} // namespace interf::interferometry

#endif // INTERF_INTERFEROMETRY_MODEL_HH
