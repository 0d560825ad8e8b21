/**
 * @file
 * Dataflow construction (Figure 6/7). Around 90% of Protein BERT ops fall
 * into three operation sequences that ProSE executes as single pipelined
 * dataflows on one systolic array:
 *
 *   Dataflow 1: MatMul -> MulAdd            (M-Type arrays)
 *   Dataflow 2: MatMul -> MulAdd -> GELU    (G-Type arrays)
 *   Dataflow 3: BMM -> MatDiv -> Exp -> host softmax -> BMM (E-Type)
 *
 * Ops that stay on the host (LayerNorm, embedding, transposes) become Host
 * tasks. The op order is written down once, in this module's emitters
 * (recordEmbedding, recordEncoderLayer, and the decoder's blocks), which
 * the synthesizers and BertModel's instrumented forward both call. The
 * builder pattern-matches that order; any unexpected sequence is an
 * internal error, which keeps the builder and the emitters in step.
 */

#ifndef PROSE_TRACE_DATAFLOW_HH
#define PROSE_TRACE_DATAFLOW_HH

#include <vector>

#include "op_trace.hh"

namespace prose {

/** Task classes the scheduler dispatches. */
enum class DataflowKind
{
    Dataflow1, ///< MatMul + MulAdd(s)
    Dataflow2, ///< MatMul + MulAdd + GELU
    Dataflow3, ///< BMM + MatDiv + Exp + host softmax + BMM
    Host,      ///< CPU-only op (LayerNorm / Embed / Transpose)
};

const char *toString(DataflowKind kind);

/** One schedulable task: a dataflow instance over concrete shapes. */
struct DataflowTask
{
    DataflowKind kind = DataflowKind::Host;
    Sublayer sublayer = Sublayer::Embedding;
    int layer = -1;

    /** The ops fused into this task, in execution order. */
    std::vector<Op> ops;

    /** Total floating-point work of the fused ops. */
    double flops() const;

    /**
     * Bytes that must stream host->accelerator for this task in bf16,
     * assuming operands are streamed once (no partial-input buffer).
     */
    std::uint64_t streamBytesIn() const;

    /** Bytes of results streaming accelerator->host in bf16. */
    std::uint64_t streamBytesOut() const;

    /** Human-readable one-line summary. */
    std::string describe() const;
};

/**
 * Group a model op trace into dataflow tasks. Tasks appear in program
 * order; data dependencies are the sequential order within one inference
 * thread (Figure 8).
 */
class DataflowBuilder
{
  public:
    /** Parse the trace; panics on an op sequence outside the grammar. */
    std::vector<DataflowTask> build(const OpTrace &trace) const;

    /** Fraction of trace FLOPs covered by Dataflows 1-3 (paper: ~90%). */
    static double acceleratedFraction(const std::vector<DataflowTask> &tasks);
};

/**
 * Shape parameters of a Protein BERT op trace. The performance simulator
 * synthesizes traces from them at sizes where a real forward would be
 * needlessly slow, and BertModel passes its own dims when it records the
 * forward it runs. Kept in plain integers so this module does not
 * depend on the model library.
 */
struct BertShape
{
    std::uint64_t layers = 12;
    std::uint64_t hidden = 768;
    std::uint64_t heads = 12;
    std::uint64_t intermediate = 3072;
    std::uint64_t batch = 1;
    std::uint64_t seqLen = 512;
};

/** Record the embedding lookup and its LayerNorm (two Host ops). */
void recordEmbedding(OpTrace &trace, const BertShape &shape);

/**
 * Record one encoder layer: the self-attention block (Q/K/V projections,
 * the Dataflow 3 core, output projection + residual, LayerNorm), then
 * the feed-forward block (Dataflow 2, Dataflow 1, LayerNorm).
 */
void recordEncoderLayer(OpTrace &trace, const BertShape &shape, int layer);

/**
 * Emit the op sequence of one Protein BERT forward pass, shapes only:
 * the embedding, then every encoder layer in order.
 */
OpTrace synthesizeBertTrace(const BertShape &shape);

/**
 * Shape parameters of a transformer *decoder* stack — the paper's
 * conclusion points at "adding decoder layers for language translation"
 * as the way ProSE generalizes beyond encoder-only BERT. A decoder
 * layer is: causal self-attention over the target sequence, cross
 * attention against the encoder's source-length memory, then the same
 * feed-forward block. All of it maps onto the existing Dataflows 1/2/3.
 */
struct DecoderShape
{
    std::uint64_t layers = 6;
    std::uint64_t hidden = 768;
    std::uint64_t heads = 12;
    std::uint64_t intermediate = 3072;
    std::uint64_t batch = 1;
    std::uint64_t targetLen = 128; ///< decoder (output) sequence length
    std::uint64_t sourceLen = 512; ///< encoder memory length
};

/**
 * Emit the op sequence of one decoder forward pass (teacher-forced /
 * training-style full-sequence execution, the throughput-relevant
 * regime). Causality masks zeros within the score matrices but does not
 * change their shapes, so the causal self-attention records the same
 * ops as bidirectional attention.
 */
OpTrace synthesizeDecoderTrace(const DecoderShape &shape);

} // namespace prose

#endif // PROSE_TRACE_DATAFLOW_HH
