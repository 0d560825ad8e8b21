/**
 * @file
 * Grow-only, 64-byte aligned, uninitialized scratch storage.
 *
 * The bf16 hot loops (the matmul front end, the functional simulator's
 * operand planes, the SIMD tiers' tile front end) stage quantized and
 * widened operands in scratch that must not churn the allocator per
 * call. Each such temporary owns one ScratchBuffer as a function-local
 * `static thread_local`, so pool lanes never share one and, after
 * warm-up, a request is a compare and a pointer return.
 *
 * The one rule: a buffer's owner must not re-enter itself on the same
 * thread while it still uses the span get() returned, since the inner
 * call may grow the buffer and free the outer call's span. Every owner
 * is a leaf today; a nested parallelFor runs inline and never starts
 * another owner's body on a waiting thread.
 */

#ifndef PROSE_COMMON_SCRATCH_HH
#define PROSE_COMMON_SCRATCH_HH

#include <cstddef>
#include <memory>
#include <new>
#include <type_traits>

namespace prose {

/** One grow-only scratch span (see file comment). */
template <typename T>
class ScratchBuffer
{
    static_assert(std::is_trivially_default_constructible_v<T> &&
                      std::is_trivially_destructible_v<T>,
                  "scratch holds uninitialized plain data");

  public:
    /** Every span starts on a boundary this wide (any SIMD load). */
    static constexpr std::size_t kAlignment = 64;
    static_assert(alignof(T) <= kAlignment);

    /**
     * At least `count` uninitialized elements. The span stays put while
     * requests do not exceed the largest count so far; a larger one
     * frees it and returns a new span of exactly that size.
     */
    T *
    get(std::size_t count)
    {
        if (!data_ || count > capacity_) {
            data_.reset(); // free first: the old contents are scratch
            data_.reset(static_cast<T *>(::operator new(
                count * sizeof(T), std::align_val_t{ kAlignment })));
            capacity_ = count;
        }
        return data_.get();
    }

  private:
    struct Free
    {
        void
        operator()(T *p) const
        {
            ::operator delete(p, std::align_val_t{ kAlignment });
        }
    };

    std::unique_ptr<T, Free> data_;
    std::size_t capacity_ = 0;
};

} // namespace prose

#endif // PROSE_COMMON_SCRATCH_HH
