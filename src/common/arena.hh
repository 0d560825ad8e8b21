/**
 * @file
 * Per-thread bump-pointer arena for hot-path scratch storage.
 *
 * The functional simulator's tile loop and the bf16 matmul path used to
 * heap-allocate (and zero) a fresh Matrix per tile — alloc/copy churn
 * that dominated small-tile runs. An Arena hands out raw, 64-byte
 * aligned spans from geometrically-grown blocks that are *kept* across
 * uses: after warm-up, a scratch allocation is a pointer bump and a
 * scope exit is a pointer rewind, with zero interaction with the global
 * allocator.
 *
 * Threading model: arenas are not synchronized. Use Arena::threadLocal()
 * for per-thread scratch (each ThreadPool lane gets its own instance) or
 * own an Arena privately. Allocation and rewind must happen on the
 * owning thread; read-only sharing of an allocated span across a
 * parallelFor is fine (the span outlives the parallel region because
 * the owning scope does).
 *
 * Lifetime discipline: allocations are scoped, LIFO. Take an
 * Arena::Scope at the top of a hot function; every span allocated while
 * it is alive dies when it unwinds. Nested scopes (a matmul inside a
 * simulator tile loop) rewind in strict LIFO order.
 */

#ifndef PROSE_COMMON_ARENA_HH
#define PROSE_COMMON_ARENA_HH

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "logging.hh"

namespace prose {

/** Growable bump allocator (see file comment). */
class Arena
{
  public:
    /** All spans are aligned to this many bytes (fits any SIMD lane). */
    static constexpr std::size_t kAlignment = 64;

    /** First block size; later blocks double until kMaxBlockBytes. */
    static constexpr std::size_t kInitialBlockBytes = std::size_t{ 64 }
                                                      << 10;

    /** Block growth cap — a single span may still exceed it. */
    static constexpr std::size_t kMaxBlockBytes = std::size_t{ 64 } << 20;

    Arena() = default;
    Arena(const Arena &) = delete;
    Arena &operator=(const Arena &) = delete;

    /** Position to rewind to: (block index, offset within it). */
    struct Mark
    {
        std::size_t block = 0;
        std::size_t offset = 0;
    };

    /** Allocate `count` default-constructible POD elements
     *  (uninitialized storage; callers overwrite before reading). */
    template <typename T>
    T *
    alloc(std::size_t count)
    {
        static_assert(alignof(T) <= kAlignment,
                      "arena alignment too small for T");
        return static_cast<T *>(allocBytes(count * sizeof(T)));
    }

    /** Current position, to be handed back to rewind(). */
    Mark mark() const { return Mark{ block_, offset_ }; }

    /** Return to a previous mark(); blocks are kept for reuse. */
    void
    rewind(Mark m)
    {
        PROSE_ASSERT(m.block < blocks_.size() || blocks_.empty(),
                     "arena rewind past the last block");
        block_ = m.block;
        offset_ = m.offset;
    }

    /**
     * RAII allocation scope: captures the arena position on entry and
     * rewinds on exit, freeing (for reuse) every span allocated inside.
     */
    class Scope
    {
      public:
        explicit Scope(Arena &arena) : arena_(arena), mark_(arena.mark())
        {
        }
        ~Scope() { arena_.rewind(mark_); }
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

      private:
        Arena &arena_;
        Mark mark_;
    };

    /**
     * This thread's scratch arena. Each thread (pool lanes included)
     * owns a distinct instance, so parallel tile loops never contend.
     */
    static Arena &threadLocal();

  private:
    struct Block
    {
        std::unique_ptr<std::byte[]> data;
        std::size_t size = 0;
    };

    static std::size_t
    alignUp(std::size_t value)
    {
        return (value + kAlignment - 1) & ~(kAlignment - 1);
    }

    void *
    allocBytes(std::size_t bytes)
    {
        bytes = alignUp(bytes ? bytes : 1);
        while (block_ < blocks_.size()) {
            Block &block = blocks_[block_];
            const std::size_t at = alignUp(offset_);
            if (at + bytes <= block.size) {
                offset_ = at + bytes;
                return block.data.get() + at;
            }
            // The remainder of this block is too small; move on. The
            // skipped tail is reclaimed by the next rewind.
            ++block_;
            offset_ = 0;
        }
        std::size_t size = blocks_.empty()
                               ? kInitialBlockBytes
                               : blocks_.back().size * 2;
        size = std::min(size, kMaxBlockBytes);
        size = std::max(size, bytes);
        blocks_.push_back(
            Block{ std::make_unique<std::byte[]>(size), size });
        block_ = blocks_.size() - 1;
        offset_ = bytes;
        return blocks_.back().data.get();
    }

    std::vector<Block> blocks_;
    std::size_t block_ = 0;  ///< block the bump pointer is in
    std::size_t offset_ = 0; ///< bump offset within blocks_[block_]
};

} // namespace prose

#endif // PROSE_COMMON_ARENA_HH
