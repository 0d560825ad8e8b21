/** @file Tests for the grow-only scratch buffer. */

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>

#include "common/scratch.hh"

namespace prose {
namespace {

/** The AVX-512 loads read these spans a cache line at a time. */
bool
aligned(const void *p)
{
    return reinterpret_cast<std::uintptr_t>(p) % 64 == 0;
}

/** Requests in growing order, each one a fresh span. */
constexpr std::size_t kGrowing[] = { 1, 3, 17, 64, 1000, 100003 };

template <typename T>
void
expectAlignedSpans()
{
    ScratchBuffer<T> buffer;
    for (std::size_t count : kGrowing) {
        const T *p = buffer.get(count);
        ASSERT_NE(p, nullptr);
        EXPECT_TRUE(aligned(p)) << sizeof(T) << "-byte x " << count;
    }
}

TEST(ScratchBuffer, SpansAreAlignedForEveryElementWidth)
{
    expectAlignedSpans<std::uint16_t>();
    expectAlignedSpans<float>();
    expectAlignedSpans<double>();
}

TEST(ScratchBuffer, SpanStaysPutUpToTheLargestRequest)
{
    ScratchBuffer<float> buffer;
    const float *first = buffer.get(1000);
    for (std::size_t count : { 0, 1, 999, 500, 1000 })
        EXPECT_EQ(buffer.get(count), first) << count;

    const float *grown = buffer.get(5000);
    for (std::size_t count : { 1000, 1, 4999, 5000 })
        EXPECT_EQ(buffer.get(count), grown) << count;
}

TEST(ScratchBuffer, LargerRequestGetsAWholeAlignedSpan)
{
    ScratchBuffer<std::uint64_t> buffer;
    buffer.get(16);
    for (std::size_t count : kGrowing) {
        std::uint64_t *p = buffer.get(count);
        ASSERT_TRUE(aligned(p));
        // Every requested element is writable and keeps its value
        // (under ASan a short span fails here).
        for (std::size_t i = 0; i < count; ++i)
            p[i] = i * 3 + 1;
        for (std::size_t i = 0; i < count; ++i)
            ASSERT_EQ(p[i], i * 3 + 1) << count << " at " << i;
    }
}

} // namespace
} // namespace prose
