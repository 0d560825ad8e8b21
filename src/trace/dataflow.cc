#include "dataflow.hh"

#include <sstream>

#include "common/logging.hh"
#include "common/units.hh"

namespace prose {

const char *
toString(DataflowKind kind)
{
    switch (kind) {
      case DataflowKind::Dataflow1:
        return "Dataflow1";
      case DataflowKind::Dataflow2:
        return "Dataflow2";
      case DataflowKind::Dataflow3:
        return "Dataflow3";
      case DataflowKind::Host:
        return "Host";
    }
    return "?";
}

double
DataflowTask::flops() const
{
    double total = 0.0;
    for (const auto &op : ops)
        total += op.flops();
    return total;
}

std::uint64_t
DataflowTask::streamBytesIn() const
{
    std::uint64_t bytes = 0;
    for (const auto &op : ops) {
        switch (op.kind) {
          case OpKind::MatMul:
          case OpKind::Bmm:
            // Both operand matrices stream in; the product stays in the
            // accumulators for the rest of the dataflow.
            bytes += op.bytesIn(kBf16Bytes);
            break;
          case OpKind::MulAdd:
            // Only the second operand streams (the first is already in
            // the accumulators from the preceding matmul). A broadcast
            // bias operand is a single length-n row vector.
            if (op.broadcast)
                bytes += op.batch * op.n * kBf16Bytes;
            else
                bytes += op.batch * op.m * op.n * kBf16Bytes;
            break;
          case OpKind::MatDiv:
          case OpKind::Exp:
          case OpKind::Gelu:
            // Pure in-place SIMD passes over the accumulators.
            break;
          case OpKind::SoftmaxHost:
            // Exp results already stream out as the task's output; the
            // host-side pass is not extra accelerator input.
            break;
          default:
            bytes += op.bytesIn(kBf16Bytes);
            break;
        }
    }
    return bytes;
}

std::uint64_t
DataflowTask::streamBytesOut() const
{
    if (ops.empty())
        return 0;
    std::uint64_t bytes = ops.back().bytesOut(kBf16Bytes);
    if (kind == DataflowKind::Dataflow3) {
        // The Exp results also travel to the host for the softmax
        // sum/divide before the final BMM streams back in.
        for (const auto &op : ops)
            if (op.kind == OpKind::Exp)
                bytes += op.bytesOut(kBf16Bytes);
    }
    return bytes;
}

std::string
DataflowTask::describe() const
{
    std::ostringstream os;
    os << toString(kind) << "[" << toString(sublayer);
    if (layer >= 0)
        os << " L" << layer;
    os << "]";
    for (const auto &op : ops)
        os << " " << toString(op.kind);
    return os.str();
}

std::vector<DataflowTask>
DataflowBuilder::build(const OpTrace &trace) const
{
    std::vector<DataflowTask> tasks;
    const auto &ops = trace.ops();
    std::size_t i = 0;

    auto peek_kind = [&](std::size_t off) -> OpKind {
        PROSE_ASSERT(i + off < ops.size(),
                     "dataflow grammar ran off the end of the trace");
        return ops[i + off].kind;
    };

    while (i < ops.size()) {
        const Op &head = ops[i];
        DataflowTask task;
        task.sublayer = head.sublayer;
        task.layer = head.layer;

        switch (head.kind) {
          case OpKind::Bmm: {
            // Dataflow 3: BMM, MatDiv, Exp, SoftmaxHost, BMM.
            task.kind = DataflowKind::Dataflow3;
            PROSE_ASSERT(peek_kind(1) == OpKind::MatDiv &&
                             peek_kind(2) == OpKind::Exp &&
                             peek_kind(3) == OpKind::SoftmaxHost &&
                             peek_kind(4) == OpKind::Bmm,
                         "BMM not followed by the Dataflow 3 sequence at ",
                         head.describe());
            for (std::size_t j = 0; j < 5; ++j)
                task.ops.push_back(ops[i + j]);
            i += 5;
            break;
          }
          case OpKind::MatMul: {
            // Dataflow 1 or 2: MatMul, then MulAdds, then optional GELU.
            task.ops.push_back(head);
            ++i;
            while (i < ops.size() && ops[i].kind == OpKind::MulAdd) {
                task.ops.push_back(ops[i]);
                ++i;
            }
            PROSE_ASSERT(task.ops.size() >= 2,
                         "MatMul without a fused MulAdd at ",
                         head.describe());
            if (i < ops.size() && ops[i].kind == OpKind::Gelu) {
                task.ops.push_back(ops[i]);
                ++i;
                task.kind = DataflowKind::Dataflow2;
            } else {
                task.kind = DataflowKind::Dataflow1;
            }
            break;
          }
          case OpKind::LayerNorm:
          case OpKind::Embed:
          case OpKind::Transpose: {
            task.kind = DataflowKind::Host;
            task.ops.push_back(head);
            ++i;
            break;
          }
          default:
            panic("op outside the dataflow grammar: ", head.describe());
        }
        tasks.push_back(std::move(task));
    }
    return tasks;
}

double
DataflowBuilder::acceleratedFraction(const std::vector<DataflowTask> &tasks)
{
    double total = 0.0;
    double accel = 0.0;
    for (const auto &task : tasks) {
        const double f = task.flops();
        total += f;
        if (task.kind != DataflowKind::Host)
            accel += f;
    }
    return total > 0.0 ? accel / total : 0.0;
}

namespace {

/**
 * Record one attention block: Q from the target activations, K/V from
 * `memory_len`-long activations (== target for self-attention), the
 * Dataflow 3 core, the output projection with bias + residual, and the
 * closing LayerNorm.
 */
void
recordAttentionBlock(OpTrace &trace, int layer, std::uint64_t bl,
                     std::uint64_t memory_tokens, std::uint64_t h,
                     std::uint64_t heads, std::uint64_t bh,
                     std::uint64_t q_len, std::uint64_t kv_len)
{
    const std::uint64_t dk = h / heads;
    // Q projection from the target stream.
    trace.record(OpKind::MatMul, Sublayer::Attention, layer, 1, bl, h, h);
    trace.record(OpKind::MulAdd, Sublayer::Attention, layer, 1, bl, 0, h,
                 true);
    trace.record(OpKind::Transpose, Sublayer::Attention, layer, 1, bl, 0,
                 h);
    // K and V projections from the memory stream.
    for (int proj = 0; proj < 2; ++proj) {
        trace.record(OpKind::MatMul, Sublayer::Attention, layer, 1,
                     memory_tokens, h, h);
        trace.record(OpKind::MulAdd, Sublayer::Attention, layer, 1,
                     memory_tokens, 0, h, true);
        trace.record(OpKind::Transpose, Sublayer::Attention, layer, 1,
                     memory_tokens, 0, h);
    }
    // Scores / softmax / context (Dataflow 3).
    trace.record(OpKind::Bmm, Sublayer::Attention, layer, bh, q_len, dk,
                 kv_len);
    trace.record(OpKind::MatDiv, Sublayer::Attention, layer, bh, q_len,
                 0, kv_len);
    trace.record(OpKind::Exp, Sublayer::Attention, layer, bh, q_len, 0,
                 kv_len);
    trace.record(OpKind::SoftmaxHost, Sublayer::Attention, layer, bh,
                 q_len, 0, kv_len);
    trace.record(OpKind::Bmm, Sublayer::Attention, layer, bh, q_len,
                 kv_len, dk);
    // Concat + output projection + residual + LayerNorm.
    trace.record(OpKind::Transpose, Sublayer::Attention, layer, 1, bl, 0,
                 h);
    trace.record(OpKind::MatMul, Sublayer::Attention, layer, 1, bl, h, h);
    trace.record(OpKind::MulAdd, Sublayer::Attention, layer, 1, bl, 0, h,
                 true);
    trace.record(OpKind::MulAdd, Sublayer::Attention, layer, 1, bl, 0, h);
    trace.record(OpKind::LayerNorm, Sublayer::Attention, layer, 1, bl, 0,
                 h);
}

/**
 * Record one feed-forward block: the up-projection with bias and GELU
 * (Dataflow 2), then the down-projection with bias + residual
 * (Dataflow 1) and the closing LayerNorm.
 */
void
recordFeedForward(OpTrace &trace, int layer, std::uint64_t bl,
                  std::uint64_t h, std::uint64_t ffn)
{
    trace.record(OpKind::MatMul, Sublayer::Intermediate, layer, 1, bl, h,
                 ffn);
    trace.record(OpKind::MulAdd, Sublayer::Intermediate, layer, 1, bl, 0,
                 ffn, true);
    trace.record(OpKind::Gelu, Sublayer::Intermediate, layer, 1, bl, 0,
                 ffn);
    trace.record(OpKind::MatMul, Sublayer::Output, layer, 1, bl, ffn, h);
    trace.record(OpKind::MulAdd, Sublayer::Output, layer, 1, bl, 0, h,
                 true);
    trace.record(OpKind::MulAdd, Sublayer::Output, layer, 1, bl, 0, h);
    trace.record(OpKind::LayerNorm, Sublayer::Output, layer, 1, bl, 0, h);
}

} // namespace

void
recordEmbedding(OpTrace &trace, const BertShape &shape)
{
    const std::uint64_t bl = shape.batch * shape.seqLen;
    trace.record(OpKind::Embed, Sublayer::Embedding, -1, 1, bl, 0,
                 shape.hidden);
    trace.record(OpKind::LayerNorm, Sublayer::Embedding, -1, 1, bl, 0,
                 shape.hidden);
}

void
recordEncoderLayer(OpTrace &trace, const BertShape &shape, int layer)
{
    const std::uint64_t bl = shape.batch * shape.seqLen;
    // Bidirectional self-attention: the memory is the sequence itself.
    recordAttentionBlock(trace, layer, bl, bl, shape.hidden, shape.heads,
                         shape.batch * shape.heads, shape.seqLen,
                         shape.seqLen);
    recordFeedForward(trace, layer, bl, shape.hidden, shape.intermediate);
}

OpTrace
synthesizeDecoderTrace(const DecoderShape &shape)
{
    OpTrace trace;
    const std::uint64_t bl = shape.batch * shape.targetLen;
    const std::uint64_t memory_tokens = shape.batch * shape.sourceLen;
    const std::uint64_t h = shape.hidden;
    const std::uint64_t bh = shape.batch * shape.heads;

    // Target-token embedding, as in the encoder.
    recordEmbedding(trace, BertShape{ shape.layers, h, shape.heads,
                                      shape.intermediate, shape.batch,
                                      shape.targetLen });

    for (std::uint64_t layer = 0; layer < shape.layers; ++layer) {
        const int li = static_cast<int>(layer);
        // Causal self-attention over the target sequence.
        recordAttentionBlock(trace, li, bl, bl, h, shape.heads, bh,
                             shape.targetLen, shape.targetLen);
        // Cross-attention against the encoder memory.
        recordAttentionBlock(trace, li, bl, memory_tokens, h,
                             shape.heads, bh, shape.targetLen,
                             shape.sourceLen);
        recordFeedForward(trace, li, bl, h, shape.intermediate);
    }
    return trace;
}

OpTrace
synthesizeBertTrace(const BertShape &shape)
{
    OpTrace trace;
    recordEmbedding(trace, shape);
    for (std::uint64_t layer = 0; layer < shape.layers; ++layer)
        recordEncoderLayer(trace, shape, static_cast<int>(layer));
    return trace;
}

} // namespace prose
