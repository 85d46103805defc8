/**
 * @file
 * Weighted reassembly math for sampled simulation (DESIGN.md §14).
 *
 * Sampled runs report weighted means with confidence intervals. The
 * effective sample size uses Kish's formula n_eff = (Σw)² / Σw², so a
 * selection dominated by one heavy cluster honestly reports a wide
 * interval instead of pretending K independent samples.
 */

#ifndef SL_SAMPLE_REASSEMBLE_HH
#define SL_SAMPLE_REASSEMBLE_HH

#include <vector>

namespace sl
{

/** A weighted mean with dispersion and a 95% confidence half-width. */
struct WeightedStat
{
    double mean = 0;
    double stddev = 0; //!< weighted population standard deviation
    double ci95 = 0;   //!< 1.96 * stddev / sqrt(n_eff); 0 when n_eff <= 1
    double neff = 0;   //!< Kish effective sample size
};

/**
 * Weighted mean / stddev / CI of @p x under weights @p w (same length,
 * weights nonnegative with a positive sum). Throws SimError on
 * mismatched or degenerate inputs; a single sample yields ci95 = 0.
 */
WeightedStat weightedStat(const std::vector<double>& x,
                          const std::vector<double>& w);

} // namespace sl

#endif // SL_SAMPLE_REASSEMBLE_HH
