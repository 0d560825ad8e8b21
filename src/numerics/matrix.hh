/**
 * @file
 * Dense row-major matrix over float, plus the tensor-op vocabulary the
 * Protein BERT workload needs (matmul, batched matmul, MulAdd, MatDiv,
 * softmax, GELU, LayerNorm). The bf16 variants mirror the accelerator
 * datapath exactly: operands quantized to bfloat16, products accumulated
 * in fp32.
 */

#ifndef PROSE_NUMERICS_MATRIX_HH
#define PROSE_NUMERICS_MATRIX_HH

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/random.hh"

namespace prose {

/** Dense row-major float matrix. */
class Matrix
{
  public:
    /** Empty 0x0 matrix. */
    Matrix() = default;

    /** rows x cols matrix, zero-filled. */
    Matrix(std::size_t rows, std::size_t cols);

    /** rows x cols matrix filled with `fill`. */
    Matrix(std::size_t rows, std::size_t cols, float fill);

    std::size_t rows() const { return rows_; }
    std::size_t cols() const { return cols_; }
    std::size_t size() const { return data_.size(); }

    float &at(std::size_t r, std::size_t c);
    float at(std::size_t r, std::size_t c) const;

    float &operator()(std::size_t r, std::size_t c) { return at(r, c); }
    float operator()(std::size_t r, std::size_t c) const { return at(r, c); }

    const float *data() const { return data_.data(); }
    float *data() { return data_.data(); }

    /** Pointer to the start of row r. */
    const float *row(std::size_t r) const { return data_.data() + r * cols_; }
    float *row(std::size_t r) { return data_.data() + r * cols_; }

    /** Fill with i.i.d. N(mean, stddev) draws. */
    void fillGaussian(Rng &rng, float mean, float stddev);

    /** In-place quantization of every element through bfloat16. */
    void quantizeBf16InPlace();

    /** Largest |a - b| over all elements; matrices must be same shape. */
    static float maxAbsDiff(const Matrix &a, const Matrix &b);

    bool sameShape(const Matrix &other) const
    {
        return rows_ == other.rows_ && cols_ == other.cols_;
    }

  private:
    std::size_t rows_ = 0;
    std::size_t cols_ = 0;
    std::vector<float> data_;
};

/**
 * A constant operand pre-quantized to bfloat16 — the weight-cache entry
 * of the bf16 matmul path. Quantizing a weight matrix costs one pass
 * over the data; model weights are constant across forward passes, so
 * callers quantize once, at construction, instead of once per matmul
 * call.
 *
 * Storage is the compact bf16 bit plane alone, 2 bytes per element,
 * plus its shape. The plane is packed in the order the bf16 GEMM tile
 * kernel consumes it (128-deep k panels of 64-column chunks, see
 * kernels::KernelSet::gemmTileBf16), so every matmul streams it front
 * to back; there is no row-major copy.
 */
class QuantizedOperand
{
  public:
    /** Empty cache entry. */
    QuantizedOperand() = default;

    /** Quantize `source` once, into packed order. */
    explicit QuantizedOperand(const Matrix &source);

    bool empty() const { return packed_.empty(); }

    std::size_t rows() const { return rows_; }
    std::size_t cols() const { return cols_; }

    /** The operand as raw bf16 bit patterns, in packed panel order. */
    const std::vector<std::uint16_t> &packedBits() const { return packed_; }

  private:
    std::size_t rows_ = 0;
    std::size_t cols_ = 0;
    std::vector<std::uint16_t> packed_;
};

/**
 * C = A x B in fp32, cache-blocked and parallelized over row chunks on
 * the shared ThreadPool. Per output element the k-accumulation order is
 * exactly the classic serial i-k-j kernel's, so the result is
 * bit-identical for any tiling or thread count. Every term is MAC'd
 * (no zero skipping), so Inf/NaN in B propagate through zero entries
 * of A as IEEE demands.
 */
Matrix matmul(const Matrix &a, const Matrix &b);

/**
 * C = A x B with the accelerator's numerics: A and B quantized to bf16,
 * products accumulated in fp32 (no intermediate rounding), and the result
 * left in fp32 exactly as the 32-bit accumulators hold it.
 */
Matrix matmulBf16(const Matrix &a, const Matrix &b);

/**
 * matmulBf16 against a pre-quantized (cached) right-hand operand.
 * Bit-identical to matmulBf16(a, b) when `b` was built from the same
 * source matrix; skips the per-call copy + quantization of the weights.
 */
Matrix matmulBf16(const Matrix &a, const QuantizedOperand &b);

/** C = alpha*A + beta*B elementwise (the paper's MulAdd primitive). */
Matrix mulAdd(float alpha, const Matrix &a, float beta, const Matrix &b);

/** C = A + B. */
Matrix add(const Matrix &a, const Matrix &b);

/** C = A * s. */
Matrix scale(const Matrix &a, float s);

/** Transpose. */
Matrix transpose(const Matrix &a);

/** Row-wise softmax (each row sums to 1). */
Matrix rowSoftmax(const Matrix &a);

/**
 * Row-wise LayerNorm with per-column gain/bias:
 * out[r][c] = gamma[c] * (a[r][c] - mu_r) / sqrt(var_r + eps) + beta[c].
 */
Matrix layerNorm(const Matrix &a, const std::vector<float> &gamma,
                 const std::vector<float> &beta, float eps = 1e-12f);

} // namespace prose

#endif // PROSE_NUMERICS_MATRIX_HH
