/**
 * @file
 * Test helper: a SystolicArray's live accumulator region as a Matrix.
 */

#ifndef PROSE_TESTS_SYSTOLIC_LIVE_ACCUMULATORS_HH
#define PROSE_TESTS_SYSTOLIC_LIVE_ACCUMULATORS_HH

#include <algorithm>

#include "numerics/matrix.hh"
#include "systolic/systolic_array.hh"

namespace prose {

/** A copy of the live region behind array.accumulatorView(). */
inline Matrix
accumulatorsOf(const SystolicArray &array)
{
    const TileSpan live = array.accumulatorView();
    Matrix out(live.rows, live.cols);
    for (std::size_t i = 0; i < live.rows; ++i)
        std::copy_n(live.data + i * live.stride, live.cols, out.row(i));
    return out;
}

} // namespace prose

#endif // PROSE_TESTS_SYSTOLIC_LIVE_ACCUMULATORS_HH
