#pragma once
// Allocation-free event callbacks for the simulator hot path.
//
// EventFn is a move-only type-erased callable with a 64-byte small-buffer:
// the lambdas the model schedules (a few pointers, a Packet, a shared_ptr)
// construct in place inside the timer slot, so the steady-state loop never
// touches the heap. Captures that do not fit fall back to a fixed-size block
// from the owning clock's EventPool free list — recycled on destruction,
// so even oversized events stop allocating once the pool is warm. Captures
// larger than a pool block (rare; cold paths only) use plain operator new.
//
// Thread-safety: an EventPool is single-threaded by design. Pooled blocks
// must be released to the pool that issued them, so an EventFn carrying a
// pooled block must never migrate to another Simulator/thread. Cross-shard
// messages in sim::ShardSet therefore travel as std::function (which owns
// its state via the global allocator) and are re-wrapped into the
// destination shard's EventFn at the exchange barrier — a 32-byte
// std::function always fits the inline buffer.

#include <cstddef>
#include <cstdint>
#include <new>
#include <type_traits>
#include <utility>

namespace mvc::sim {

/// Free list of fixed-size callback blocks for one clock. Blocks are
/// kBlockBytes each (header + capture payload); release() pushes onto the
/// list, acquire() pops — O(1), no locks, no system allocator after warmup.
class EventPool {
public:
    /// Total block size. Large enough for every capture the model schedules
    /// today (the biggest is a link-delivery lambda at ~120 bytes); anything
    /// bigger bypasses the pool.
    static constexpr std::size_t kBlockBytes = 192;

    EventPool() = default;
    EventPool(const EventPool&) = delete;
    EventPool& operator=(const EventPool&) = delete;

    ~EventPool() {
        while (free_ != nullptr) {
            Node* next = free_->next;
            ::operator delete(static_cast<void*>(free_));
            free_ = next;
        }
    }

    [[nodiscard]] void* acquire() {
        if (free_ != nullptr) {
            Node* n = free_;
            free_ = n->next;
            ++reused_;
            return n;
        }
        ++fresh_;
        return ::operator new(kBlockBytes);
    }

    void release(void* block) noexcept {
        Node* n = ::new (block) Node{free_};
        free_ = n;
    }

    /// Blocks obtained from the system allocator (pool misses).
    [[nodiscard]] std::uint64_t fresh_blocks() const { return fresh_; }
    /// Blocks served from the free list (pool hits).
    [[nodiscard]] std::uint64_t reused_blocks() const { return reused_; }

private:
    struct Node {
        Node* next;
    };
    Node* free_{nullptr};
    std::uint64_t fresh_{0};
    std::uint64_t reused_{0};
};

/// Move-only callable with small-buffer optimization and pool fallback.
/// See the file comment for the storage strategy.
class EventFn {
    template <class F>
    using decayed = std::remove_cvref_t<F>;

public:
    /// Inline capture capacity. Covers every steady-state lambda in the
    /// model (worst common case: a this-pointer plus a small struct plus a
    /// shared_ptr payload handle).
    static constexpr std::size_t kInlineBytes = 64;

    EventFn() = default;

    template <class F>
        requires(!std::is_same_v<decayed<F>, EventFn> &&
                 std::is_invocable_r_v<void, decayed<F>&>)
    EventFn(F&& f) : EventFn(std::forward<F>(f), nullptr) {}  // NOLINT(google-explicit-constructor)

    /// Construct with a pool for heap-fallback captures. `pool` may be null.
    template <class F>
        requires(!std::is_same_v<decayed<F>, EventFn> &&
                 std::is_invocable_r_v<void, decayed<F>&>)
    EventFn(F&& f, EventPool* pool) {
        using Fn = decayed<F>;
        static_assert(alignof(Fn) <= alignof(std::max_align_t),
                      "over-aligned captures are not supported");
        if constexpr (sizeof(Fn) <= kInlineBytes &&
                      std::is_nothrow_move_constructible_v<Fn>) {
            ::new (static_cast<void*>(storage_.inline_buf)) Fn(std::forward<F>(f));
            ops_ = &InlineOps<Fn>::ops;
        } else {
            constexpr std::size_t total = sizeof(Header) + sizeof(Fn);
            void* block = nullptr;
            EventPool* owner = nullptr;
            if (pool != nullptr && total <= EventPool::kBlockBytes) {
                block = pool->acquire();
                owner = pool;
            } else {
                block = ::operator new(total);
            }
            auto* header = ::new (block) Header{owner};
            ::new (payload_of(header)) Fn(std::forward<F>(f));
            storage_.heap = header;
            ops_ = &HeapOps<Fn>::ops;
        }
    }

    EventFn(EventFn&& other) noexcept : ops_(other.ops_) {
        if (ops_ != nullptr) ops_->relocate(other.storage_, storage_);
        other.ops_ = nullptr;
    }

    EventFn& operator=(EventFn&& other) noexcept {
        if (this != &other) {
            if (ops_ != nullptr) ops_->destroy(storage_);
            ops_ = other.ops_;
            if (ops_ != nullptr) ops_->relocate(other.storage_, storage_);
            other.ops_ = nullptr;
        }
        return *this;
    }

    EventFn(const EventFn&) = delete;
    EventFn& operator=(const EventFn&) = delete;

    ~EventFn() {
        if (ops_ != nullptr) ops_->destroy(storage_);
    }

    void operator()() { ops_->invoke(storage_); }

    explicit operator bool() const { return ops_ != nullptr; }

private:
    /// Heap blocks lead with the pool that owns them (null = operator new).
    /// Padded to max alignment so the capture payload right after is aligned.
    struct alignas(std::max_align_t) Header {
        EventPool* pool;
    };

    union Storage {
        alignas(std::max_align_t) std::byte inline_buf[kInlineBytes];
        Header* heap;
    };

    struct Ops {
        void (*invoke)(Storage&);
        void (*relocate)(Storage& src, Storage& dst) noexcept;
        void (*destroy)(Storage&) noexcept;
    };

    static void* payload_of(Header* h) { return h + 1; }

    template <class Fn>
    struct InlineOps {
        static Fn& self(Storage& s) { return *std::launder(reinterpret_cast<Fn*>(s.inline_buf)); }
        static void invoke(Storage& s) { self(s)(); }
        static void relocate(Storage& src, Storage& dst) noexcept {
            ::new (static_cast<void*>(dst.inline_buf)) Fn(std::move(self(src)));
            self(src).~Fn();
        }
        static void destroy(Storage& s) noexcept { self(s).~Fn(); }
        static constexpr Ops ops{&invoke, &relocate, &destroy};
    };

    template <class Fn>
    struct HeapOps {
        static Fn& self(Storage& s) {
            return *std::launder(static_cast<Fn*>(payload_of(s.heap)));
        }
        static void invoke(Storage& s) { self(s)(); }
        static void relocate(Storage& src, Storage& dst) noexcept { dst.heap = src.heap; }
        static void destroy(Storage& s) noexcept {
            Header* header = s.heap;
            self(s).~Fn();
            EventPool* pool = header->pool;
            header->~Header();
            if (pool != nullptr) {
                pool->release(header);
            } else {
                ::operator delete(static_cast<void*>(header));
            }
        }
        static constexpr Ops ops{&invoke, &relocate, &destroy};
    };

    const Ops* ops_{nullptr};
    Storage storage_;
};

}  // namespace mvc::sim
