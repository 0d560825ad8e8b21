#include "op.hh"

#include <sstream>

namespace prose {

double
Op::flops() const
{
    const double b = static_cast<double>(batch);
    const double dm = static_cast<double>(m);
    const double dk = static_cast<double>(k);
    const double dn = static_cast<double>(n);
    switch (kind) {
      case OpKind::MatMul:
      case OpKind::Bmm:
        return b * 2.0 * dm * dk * dn;
      case OpKind::MulAdd:
        // Two multiplies and one add per element.
        return b * 3.0 * dm * dn;
      case OpKind::MatDiv:
        return b * dm * dn;
      case OpKind::Exp:
      case OpKind::Gelu:
        // Count the activation as one "op" per element; the hardware
        // cost is carried by the LUT model, not this figure.
        return b * dm * dn;
      case OpKind::SoftmaxHost:
        // Row sum (n-1 adds) + n divides per row ~ 2 flops/element.
        return b * 2.0 * dm * dn;
      case OpKind::LayerNorm:
        // mean + variance + normalize + affine ~ 5 flops/element.
        return b * 5.0 * dm * dn;
      case OpKind::Embed:
      case OpKind::Transpose:
        return 0.0;
    }
    return 0.0;
}

std::uint64_t
Op::bytesIn(std::uint64_t elem_bytes) const
{
    switch (kind) {
      case OpKind::MatMul:
      case OpKind::Bmm:
        return batch * (m * k + k * n) * elem_bytes;
      case OpKind::MulAdd:
        return batch * 2 * m * n * elem_bytes;
      case OpKind::MatDiv:
      case OpKind::Exp:
      case OpKind::Gelu:
      case OpKind::SoftmaxHost:
      case OpKind::LayerNorm:
      case OpKind::Transpose:
        return batch * m * n * elem_bytes;
      case OpKind::Embed:
        // One embedding row gathered per token.
        return batch * m * n * elem_bytes;
    }
    return 0;
}

std::uint64_t
Op::bytesOut(std::uint64_t elem_bytes) const
{
    return outputElems() * elem_bytes;
}

std::uint64_t
Op::outputElems() const
{
    return batch * m * n;
}

OpCategory
Op::category() const
{
    switch (kind) {
      case OpKind::MatMul:
        return OpCategory::MatMul;
      case OpKind::Bmm:
        return OpCategory::BatchedMatMul;
      case OpKind::Exp:
      case OpKind::SoftmaxHost:
        return OpCategory::Softmax;
      case OpKind::Gelu:
        return OpCategory::Gelu;
      case OpKind::MulAdd:
        return OpCategory::MatAdd;
      case OpKind::MatDiv:
        return OpCategory::MatDiv;
      case OpKind::LayerNorm:
      case OpKind::Embed:
      case OpKind::Transpose:
        return OpCategory::Other;
    }
    return OpCategory::Other;
}

std::string
Op::describe() const
{
    std::ostringstream os;
    os << toString(kind) << "[" << toString(sublayer);
    if (layer >= 0)
        os << " L" << layer;
    os << "]";
    if (kind == OpKind::MatMul || kind == OpKind::Bmm) {
        if (batch > 1)
            os << " b=" << batch;
        os << " " << m << "x" << k << "x" << n;
    } else {
        if (batch > 1)
            os << " b=" << batch;
        os << " " << m << "x" << n;
    }
    return os.str();
}

const char *
toString(OpKind kind)
{
    switch (kind) {
      case OpKind::MatMul:
        return "MatMul";
      case OpKind::Bmm:
        return "BMM";
      case OpKind::MulAdd:
        return "MulAdd";
      case OpKind::MatDiv:
        return "MatDiv";
      case OpKind::Exp:
        return "Exp";
      case OpKind::SoftmaxHost:
        return "SoftmaxHost";
      case OpKind::Gelu:
        return "GELU";
      case OpKind::LayerNorm:
        return "LayerNorm";
      case OpKind::Embed:
        return "Embed";
      case OpKind::Transpose:
        return "Transpose";
    }
    return "?";
}

const char *
toString(Sublayer sublayer)
{
    switch (sublayer) {
      case Sublayer::Embedding:
        return "Embedding";
      case Sublayer::Attention:
        return "Attention";
      case Sublayer::Intermediate:
        return "Intermediate";
      case Sublayer::Output:
        return "Output";
      case Sublayer::Downstream:
        return "Downstream";
    }
    return "?";
}

} // namespace prose
