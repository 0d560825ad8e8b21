/**
 * @file
 * Tensor-operation records — the repo's analogue of the ATen call stream
 * the paper captures through the PyTorch JIT (Figure 15). The instrumented
 * BERT forward appends one Op per backend call; the DataflowBuilder then
 * groups them into the paper's Dataflows 1/2/3, and the baseline models
 * cost them per-op.
 */

#ifndef PROSE_TRACE_OP_HH
#define PROSE_TRACE_OP_HH

#include <cstdint>
#include <string>

namespace prose {

/** The op vocabulary observed in the Protein BERT profile (Figure 3). */
enum class OpKind
{
    MatMul,      ///< dense C = A x B, shapes m x k x n
    Bmm,         ///< batched matmul, `batch` independent m x k x n
    MulAdd,      ///< elementwise alpha*A + beta*B (bias adds, residuals)
    MatDiv,      ///< elementwise multiply by a reciprocal constant
    Exp,         ///< elementwise exponential (softmax numerator)
    SoftmaxHost, ///< softmax row-sum + divide executed on the host CPU
    Gelu,        ///< elementwise GELU activation
    LayerNorm,   ///< row mean/variance normalize + affine (host / Other)
    Embed,       ///< embedding gather (host / Other)
    Transpose,   ///< data-movement-only reshape (host / Other)
};

/** Which model sublayer produced an op (Figure 7). */
enum class Sublayer
{
    Embedding,
    Attention,
    Intermediate,
    Output,
    Downstream,
};

/** Reporting categories used by the Figure 3 runtime breakdown. */
enum class OpCategory
{
    MatMul,
    BatchedMatMul,
    Softmax,
    Gelu,
    MatAdd,
    MatDiv,
    Other,
};

/** One recorded tensor operation. */
struct Op
{
    OpKind kind = OpKind::MatMul;
    Sublayer sublayer = Sublayer::Embedding;
    int layer = -1; ///< encoder layer index, -1 for embedding/downstream

    /**
     * Shape fields. MatMul: m x k x n (batch == 1). Bmm: `batch`
     * independent m x k x n products. Elementwise ops: rows=m, cols=n,
     * k unused (0).
     */
    std::uint64_t batch = 1;
    std::uint64_t m = 0;
    std::uint64_t k = 0;
    std::uint64_t n = 0;

    /**
     * For MulAdd: true when the second operand is a length-n row vector
     * broadcast over the rows (a bias add) rather than a full m x n
     * matrix (a residual add). Broadcast operands cost n elements of
     * stream traffic instead of m * n.
     */
    bool broadcast = false;

    /** Floating-point operations this op performs. */
    double flops() const;

    /** Bytes of operand traffic in the given element width. */
    std::uint64_t bytesIn(std::uint64_t elem_bytes) const;

    /** Bytes of result traffic in the given element width. */
    std::uint64_t bytesOut(std::uint64_t elem_bytes) const;

    /** Output element count (batch * m * n for matmuls, m * n else). */
    std::uint64_t outputElems() const;

    /** Figure 3 reporting bucket for this op. */
    OpCategory category() const;

    /** Short human-readable description for logs and dumps. */
    std::string describe() const;
};

/** Enum-to-string helpers for reports. */
const char *toString(OpKind kind);
const char *toString(Sublayer sublayer);

} // namespace prose

#endif // PROSE_TRACE_OP_HH
