/** @file Tests for op records: flops, traffic, categories. */

#include <gtest/gtest.h>

#include "trace/op.hh"

namespace prose {
namespace {

Op
makeOp(OpKind kind, std::uint64_t batch, std::uint64_t m, std::uint64_t k,
       std::uint64_t n)
{
    Op op;
    op.kind = kind;
    op.batch = batch;
    op.m = m;
    op.k = k;
    op.n = n;
    return op;
}

TEST(Op, MatmulFlops)
{
    const Op op = makeOp(OpKind::MatMul, 1, 10, 20, 30);
    EXPECT_DOUBLE_EQ(op.flops(), 2.0 * 10 * 20 * 30);
}

TEST(Op, BmmFlopsScaleWithBatch)
{
    const Op op = makeOp(OpKind::Bmm, 8, 4, 4, 4);
    EXPECT_DOUBLE_EQ(op.flops(), 8.0 * 2 * 4 * 4 * 4);
}

TEST(Op, ElementwiseFlops)
{
    EXPECT_DOUBLE_EQ(makeOp(OpKind::MulAdd, 1, 10, 0, 10).flops(), 300.0);
    EXPECT_DOUBLE_EQ(makeOp(OpKind::MatDiv, 1, 10, 0, 10).flops(), 100.0);
    EXPECT_DOUBLE_EQ(makeOp(OpKind::Gelu, 1, 10, 0, 10).flops(), 100.0);
    EXPECT_DOUBLE_EQ(makeOp(OpKind::Transpose, 1, 10, 0, 10).flops(), 0.0);
}

TEST(Op, MatmulBytes)
{
    const Op op = makeOp(OpKind::MatMul, 1, 8, 16, 4);
    EXPECT_EQ(op.bytesIn(2), (8 * 16 + 16 * 4) * 2u);
    EXPECT_EQ(op.bytesOut(2), 8 * 4 * 2u);
}

TEST(Op, OutputElems)
{
    EXPECT_EQ(makeOp(OpKind::Bmm, 3, 5, 7, 2).outputElems(), 30u);
    EXPECT_EQ(makeOp(OpKind::Exp, 2, 4, 0, 4).outputElems(), 32u);
}

TEST(Op, CategoriesMatchFigure3Buckets)
{
    EXPECT_EQ(makeOp(OpKind::MatMul, 1, 1, 1, 1).category(),
              OpCategory::MatMul);
    EXPECT_EQ(makeOp(OpKind::Bmm, 1, 1, 1, 1).category(),
              OpCategory::BatchedMatMul);
    EXPECT_EQ(makeOp(OpKind::Exp, 1, 1, 0, 1).category(),
              OpCategory::Softmax);
    EXPECT_EQ(makeOp(OpKind::SoftmaxHost, 1, 1, 0, 1).category(),
              OpCategory::Softmax);
    EXPECT_EQ(makeOp(OpKind::Gelu, 1, 1, 0, 1).category(),
              OpCategory::Gelu);
    EXPECT_EQ(makeOp(OpKind::MulAdd, 1, 1, 0, 1).category(),
              OpCategory::MatAdd);
    EXPECT_EQ(makeOp(OpKind::MatDiv, 1, 1, 0, 1).category(),
              OpCategory::MatDiv);
    EXPECT_EQ(makeOp(OpKind::LayerNorm, 1, 1, 0, 1).category(),
              OpCategory::Other);
    EXPECT_EQ(makeOp(OpKind::Transpose, 1, 1, 0, 1).category(),
              OpCategory::Other);
    EXPECT_EQ(makeOp(OpKind::Embed, 1, 1, 0, 1).category(),
              OpCategory::Other);
}

TEST(Op, DescribeMentionsKindAndShape)
{
    Op op = makeOp(OpKind::MatMul, 1, 64, 768, 768);
    op.sublayer = Sublayer::Attention;
    op.layer = 3;
    const std::string text = op.describe();
    EXPECT_NE(text.find("MatMul"), std::string::npos);
    EXPECT_NE(text.find("64x768x768"), std::string::npos);
    EXPECT_NE(text.find("L3"), std::string::npos);
}

TEST(Op, ToStringCoversAllEnums)
{
    EXPECT_STREQ(toString(OpKind::SoftmaxHost), "SoftmaxHost");
    EXPECT_STREQ(toString(Sublayer::Intermediate), "Intermediate");
}

TEST(Op, ElementwiseBytesIn)
{
    // MulAdd streams two operand planes; the single-plane elementwise
    // ops and the embedding gather stream one.
    EXPECT_EQ(makeOp(OpKind::MulAdd, 2, 8, 0, 4).bytesIn(4),
              2u * 2 * 8 * 4 * 4);
    EXPECT_EQ(makeOp(OpKind::MatDiv, 2, 8, 0, 4).bytesIn(4),
              2u * 8 * 4 * 4);
    EXPECT_EQ(makeOp(OpKind::Transpose, 1, 8, 0, 4).bytesIn(2),
              8u * 4 * 2);
    EXPECT_EQ(makeOp(OpKind::Embed, 1, 16, 0, 64).bytesIn(4),
              16u * 64 * 4);
}

TEST(Op, DescribeBatchedAndElementwiseShapes)
{
    Op bmm = makeOp(OpKind::Bmm, 12, 128, 64, 128);
    bmm.sublayer = Sublayer::Attention;
    const std::string bmm_text = bmm.describe();
    EXPECT_NE(bmm_text.find("b=12"), std::string::npos);
    EXPECT_NE(bmm_text.find("128x64x128"), std::string::npos);

    Op norm = makeOp(OpKind::LayerNorm, 4, 128, 0, 768);
    norm.sublayer = Sublayer::Output;
    const std::string norm_text = norm.describe();
    EXPECT_NE(norm_text.find("b=4"), std::string::npos);
    EXPECT_NE(norm_text.find("128x768"), std::string::npos);
    EXPECT_EQ(norm_text.find("128x0x768"), std::string::npos);
}

} // namespace
} // namespace prose
