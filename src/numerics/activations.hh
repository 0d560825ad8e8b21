/**
 * @file
 * Scalar reference implementations of the special functions ProSE
 * accelerates. The hardware LUTs (lut.hh) are validated against these.
 */

#ifndef PROSE_NUMERICS_ACTIVATIONS_HH
#define PROSE_NUMERICS_ACTIVATIONS_HH

namespace prose {

/**
 * GELU via the tanh approximation the paper quotes:
 * 0.5 x (1 + tanh(sqrt(2/pi) (x + 0.044715 x^3))).
 */
float geluTanh(float x);

/** Exact GELU, x * Phi(x), via erf: the oracle geluTanh is held to. */
float geluErf(float x);

/** Natural exponential (reference for the Exp LUT). */
float expRef(float x);

/** Numerically-stable scalar sigmoid (used by downstream-task heads). */
float sigmoid(float x);

} // namespace prose

#endif // PROSE_NUMERICS_ACTIVATIONS_HH
