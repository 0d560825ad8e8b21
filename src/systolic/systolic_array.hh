/**
 * @file
 * Register-accurate, cycle-stepped model of one ProSE systolic array.
 *
 * matmul mode (Figure 5(b)): an output-stationary n x n array. A-operand
 * elements stream in from the west edge (one per row per cycle, skewed),
 * B-operand elements from the north edge; each PE multiplies its two
 * freshly-latched bf16 inputs and adds the product into a private 32-bit
 * accumulator, then forwards A east and B south. The product tile stays
 * in the accumulators — there is no scratchpad — so successive k-tiles
 * accumulate in place, and a fused SIMD pass can consume the tile without
 * any intermediate store/refetch.
 *
 * simd mode (Figure 5(c) / Figure 12): the array acts as a column
 * left-rotator. Each cycle the leftmost accumulator column is shifted
 * into a column of n SIMD ALUs (with optional per-ALU GELU/Exp lookup
 * tables), combined with a broadcast scalar or a streamed vector-register
 * operand, and the result re-enters the array on the east edge. After n
 * cycles every column has been processed and the tile is back in its
 * original orientation.
 *
 * Numerics follow Figure 10(b): MAC inputs are bfloat16, accumulation is
 * fp32, and any read of an accumulator (SIMD input or the OUTPUT port)
 * takes bits [31:16] — i.e. truncation to bfloat16, not rounding.
 *
 * Streaming follows Figure 10(a): each operand edge is fronted by an
 * 8-deep streaming buffer filled at the host link's sustained rate; if
 * either buffer underflows, the whole array stalls for that cycle.
 *
 * Execution engines: the systolic schedule is fully deterministic, so
 * every operation can run on either of two engines that produce
 * bit-identical register files and identical cycle/stall/MAC counters:
 *
 *  - stepped: the reference wavefront machine above, one O(dim^2)
 *    register sweep per cycle. It is the oracle: self-contained, no
 *    kernel layer, no shared gating code.
 *  - fast-forward: PE(i, j) receives A(i, k') and B(k', j) together at
 *    wavefront k' + i + j, so its MAC order is ascending k' — a plain
 *    fp32 dot product of the bf16-quantized operands. Cycle and buffer
 *    counters advance by closed form when the stream buffers provably
 *    cannot starve, or by an O(1)-per-cycle gate replay when they can
 *    (fractional rates).
 *
 * FsimMode selects the engine (API or PROSE_FSIM_MODE); Validate runs
 * both and panics on any state divergence. Nothing overrides the
 * requested engine. A fault injector corrupts the finished tile once,
 * after whichever engine ran (Validate: after both agreed on the clean
 * tile), so the corruption, the injector's RNG stream and the event log
 * are engine-independent.
 */

#ifndef PROSE_SYSTOLIC_SYSTOLIC_ARRAY_HH
#define PROSE_SYSTOLIC_SYSTOLIC_ARRAY_HH

#include <cstdint>
#include <string>
#include <vector>

#include "array_config.hh"
#include "fsim_mode.hh"
#include "numerics/matrix.hh"
#include "stream_buffer.hh"

namespace prose {

class FaultInjector;

/** Operations the SIMD column can apply during a rotation pass. */
enum class SimdOp
{
    MulScalar, ///< acc = acc * scalar (broadcast scalar register)
    AddScalar, ///< acc = acc + scalar
    MulVector, ///< acc = acc * v[column] (streamed vector register)
    AddVector, ///< acc = acc + v[column]
    Gelu,      ///< acc = GELU_LUT(acc); requires a G-Type array
    Exp,       ///< acc = Exp_LUT(acc); requires an E-Type array
};

const char *toString(SimdOp op);

/**
 * Zero-copy view of one matmul operand tile, structure-of-arrays: the
 * unquantized fp32 elements (what the stepped engine's edge latches
 * quantize) alongside the same elements quantized to bf16 and widened
 * back to fp32 (what the fast engine's fp32 GEMM core and the ABFT
 * checksums read). Callers that quantize a whole operand once — e.g.
 * the functional simulator's fused pipeline — carve per-tile views out
 * of it instead of copying and re-quantizing per tile.
 *
 * Invariant: wide[i*wideStride + j] == quantizeBf16(
 * fp32[i*fp32Stride + j]) for every element, which widenRow over
 * quantizeBitsRow's bits and quantizeRoundtripRow both produce exactly.
 * Validate mode enforces it end to end: the engines read different
 * planes and must agree bit for bit.
 */
struct TileOperand
{
    const float *fp32;      ///< row-major unquantized elements
    std::size_t fp32Stride; ///< fp32 row stride, in elements
    const float *wide;      ///< quantized-and-widened same elements
    std::size_t wideStride; ///< wide row stride, in elements
    std::size_t rows;
    std::size_t cols;
};

/**
 * Zero-copy view of a vector-register operand tile for simdVector().
 * With broadcastRow set, row 0 serves every live row (a 1 x cols
 * operand applied to all rows — the fused pipeline's row-broadcast
 * addend).
 */
struct TileSpan
{
    const float *data;   ///< row-major fp32 elements
    std::size_t stride;  ///< row stride, in elements
    std::size_t rows;    ///< rows covered (ignored when broadcasting)
    std::size_t cols;
    bool broadcastRow = false;
};

/** One systolic array instance (cycle-stepped or fast-forwarded). */
class SystolicArray
{
  public:
    /**
     * @param geometry array size/type/clocks
     * @param a_supply_rate west-edge stream-buffer fill rate,
     *        entries per matmul cycle (an entry is one skewed input
     *        wavefront). Use a large value for an idealized host.
     * @param b_supply_rate north-edge fill rate, same units.
     */
    explicit SystolicArray(const ArrayGeometry &geometry,
                           double a_supply_rate = 1e18,
                           double b_supply_rate = 1e18);

    /**
     * Accumulate C += A x B for one tile. A is (rows <= n) x k; B is
     * k x (cols <= n). Rows/columns beyond the operand shapes simply see
     * no traffic. Runs on the engine selected by mode().
     *
     * The view overload is the zero-copy hot path: both operand planes
     * (fp32 + quantized-and-widened) are the caller's, nothing is
     * copied or re-quantized per tile. The Matrix overload quantizes
     * and widens into per-thread ScratchBuffers and delegates.
     *
     * @return matmul-mode cycles spent, including stall cycles.
     */
    std::uint64_t matmulTile(const TileOperand &a, const TileOperand &b);
    std::uint64_t matmulTile(const Matrix &a, const Matrix &b);

    /** One rotation pass applying a scalar-register op to every column. */
    std::uint64_t simdScalar(SimdOp op, float scalar);

    /**
     * One rotation pass applying a vector-register op. Column j of
     * `operand` (an up-to-n x n tile matching the live accumulator
     * region, or a broadcast row) is streamed into the vector register
     * for pass j; streaming stalls are modelled through the west-edge
     * buffer.
     */
    std::uint64_t simdVector(SimdOp op, const TileSpan &operand);
    std::uint64_t simdVector(SimdOp op, const Matrix &operand);

    /** One rotation pass through the GELU or Exp lookup tables. */
    std::uint64_t simdSpecial(SimdOp op);

    /**
     * Stream the live accumulator region out through the OUTPUT port
     * (bits [31:16] per element), one column per cycle, then clear it.
     *
     * drainTo() writes the rows x cols result tile (bf16 values widened
     * to float) straight into caller storage with the given row stride
     * — the fused pipeline drains directly into its output matrix. The
     * Matrix overload shapes `out` to the live region first.
     *
     * @return simd-mode cycles spent
     */
    std::uint64_t drainTo(float *dst, std::size_t stride);
    std::uint64_t drain(Matrix &out);

    /** Zero all accumulators and forget the live region. */
    void clearAccumulators();

    /**
     * Read-only view of the live accumulator region: raw fp32 values,
     * row stride dim. Valid until the next call that changes the array;
     * the ABFT checker reads each finished tile through it in place.
     */
    TileSpan accumulatorView() const
    {
        return TileSpan{ acc_.data(), geometry_.dim, liveRows_, liveCols_ };
    }

    /**
     * Overwrite one live-region accumulator (fp32). This is the repair
     * port the ABFT layer uses to write corrected values back before
     * the SIMD passes consume the tile.
     */
    void overwriteAccumulator(std::size_t row, std::size_t col,
                              float value);

    /**
     * Attach a fault injector (nullptr detaches). While attached, every
     * matmulTile() ends by letting the injector corrupt the live
     * accumulator region under the given campaign site id (e.g. "M0"),
     * once, after the requested engine finished the tile — so the
     * injector's RNG advances exactly once per tile, in schedule order,
     * on every engine. With no injector attached the datapath is
     * untouched and results are bit-identical to a fault-free build.
     */
    void setFaultInjector(FaultInjector *injector, std::string site_id);

    const ArrayGeometry &geometry() const { return geometry_; }

    /** True while a fault injector is attached. */
    bool hasFaultInjector() const { return injector_ != nullptr; }

    /**
     * Fold another array's cycle/MAC/stall counters into this one —
     * used when batch-parallel work ran on clone arrays and their
     * activity must be accounted to this (the architectural) array.
     */
    void absorbStats(const SystolicArray &other);

    /** @name Execution-engine selection @{ */

    /** Request an execution engine (defaults to PROSE_FSIM_MODE). */
    void setMode(FsimMode mode) { mode_ = mode; }

    /** The requested engine. */
    FsimMode mode() const { return mode_; }

    /** Stream-buffer access (occupancy inspection). */
    StreamBuffer &aBuffer() { return aBuffer_; }
    StreamBuffer &bBuffer() { return bBuffer_; }
    const StreamBuffer &aBuffer() const { return aBuffer_; }
    const StreamBuffer &bBuffer() const { return bBuffer_; }

    /** @} */

    /** @name Statistics @{ */
    std::uint64_t matmulCycles() const { return matmulCycles_; }
    std::uint64_t simdCycles() const { return simdCycles_; }
    std::uint64_t stallCycles() const { return stallCycles_; }
    std::uint64_t macCount() const { return macCount_; }
    std::uint64_t simdOpCount() const { return simdOpCount_; }
    /** Wall-clock time of all cycles so far at the two clock rates. */
    double elapsedSeconds() const;
    /** @} */

  private:
    /** PE-register state for the matmul wavefront. */
    struct Lane
    {
        std::vector<float> value;
        std::vector<std::uint8_t> valid;
    };

    /**
     * Complete observable state for validate mode. Lane registers are
     * deliberately excluded: their valid flags are cleared at the start
     * of every stepped matmul tile and their values are only read while
     * valid, so they carry no state across operations.
     */
    struct EngineState
    {
        std::vector<float> acc;
        std::size_t liveRows;
        std::size_t liveCols;
        StreamBuffer::State aBuf;
        StreamBuffer::State bBuf;
        std::uint64_t matmulCycles;
        std::uint64_t simdCycles;
        std::uint64_t stallCycles;
        std::uint64_t macCount;
        std::uint64_t simdOpCount;
    };

    EngineState captureState() const;
    void restoreState(const EngineState &state);
    [[maybe_unused]] void assertEnginesAgree(
        const char *what, const EngineState &stepped,
        const EngineState &fast, std::uint64_t stepped_ret,
        std::uint64_t fast_ret) const;

    /** Run `stepped`/`fast` per mode(); Validate runs both. */
    template <typename SteppedFn, typename FastFn>
    std::uint64_t dispatch(const char *what, SteppedFn stepped,
                           FastFn fast);

    /** @name The cycle-stepped reference engine @{ */

    /** The O(dim^2)-per-cycle scalar PE walk (the reference machine). */
    std::uint64_t steppedMatmulTile(const TileOperand &a,
                                    const TileOperand &b);

    std::uint64_t steppedSimdScalar(SimdOp op, float scalar);
    std::uint64_t steppedSimdVector(SimdOp op, const TileSpan &operand);
    std::uint64_t steppedSimdSpecial(SimdOp op);

    /** Advance the matmul wavefront by one cycle. */
    void stepMatmulCycle(const TileOperand &a, const TileOperand &b,
                         std::uint64_t wavefront, std::size_t k_depth);

    /** Rotate the live region left one column, writing `results` into
     *  the rightmost live column. */
    void rotateLeft(const std::vector<float> &results);
    /** @} */

    /** @name The fast-forward engine @{ */
    std::uint64_t fastMatmulTile(const TileOperand &a,
                                 const TileOperand &b);
    std::uint64_t fastSimdScalar(SimdOp op, float scalar);
    std::uint64_t fastSimdVector(SimdOp op, const TileSpan &operand);
    std::uint64_t fastSimdSpecial(SimdOp op);

    /**
     * Advance the matmul stream-buffer gating without the PE sweep:
     * closed form when both buffers have ideal supply, otherwise an
     * O(1)-per-cycle replay of the gate recurrence (bit-equal to the
     * stepped loop because it performs the identical sequence of
     * fillTick/available/consume operations).
     */
    std::uint64_t fastForwardMatmulGating(std::size_t rows,
                                          std::size_t cols,
                                          std::size_t k_depth);
    /** @} */

    /** Apply one SIMD ALU operation to a single element. */
    float applyAlu(SimdOp op, float acc_value, float operand) const;

    ArrayGeometry geometry_;
    FaultInjector *injector_ = nullptr;
    std::string faultSite_;
    StreamBuffer aBuffer_;
    StreamBuffer bBuffer_;
    FsimMode mode_ = defaultFsimMode();

    std::vector<float> acc_;   ///< n*n fp32 accumulators
    Lane aReg_;                ///< eastward-flowing operand registers
    Lane bReg_;                ///< southward-flowing operand registers

    /**
     * Live (occupied) accumulator region. Grows as the bounding-box
     * union of all tiles since the last drain/clear: a smaller tile
     * after a larger one leaves the larger tile's stale accumulator
     * rows/columns physically in place, and the SIMD rotation and
     * OUTPUT port must sweep the whole union (see
     * docs/MICROARCHITECTURE.md, "Live-region semantics").
     */
    std::size_t liveRows_ = 0;
    std::size_t liveCols_ = 0;

    std::uint64_t matmulCycles_ = 0;
    std::uint64_t simdCycles_ = 0;
    std::uint64_t stallCycles_ = 0;
    std::uint64_t macCount_ = 0;
    std::uint64_t simdOpCount_ = 0;
};

} // namespace prose

#endif // PROSE_SYSTOLIC_SYSTOLIC_ARRAY_HH
