#pragma once
// Typed replacement for the old std::any packet payload. Values are boxed
// together with a compile-time type token; accessors are checked against the
// token, so a sender/handler type disagreement fails with a clear error at
// the access site instead of a bad_any_cast deep inside a flow handler, and
// `holds<T>()` lets handlers branch without exceptions. Copies share the box
// (like shared_ptr), which makes N-way fan-out of one wire value cheap;
// `take<T>()` moves the value out when the box is uniquely owned.
//
// Boxes come from per-thread, per-box-type free lists (DESIGN §9.6): a box
// freed on a thread is reused by that thread's next box of the same type,
// whichever thread allocated it.

#include <array>
#include <cstddef>
#include <memory>
#include <new>
#include <stdexcept>
#include <type_traits>
#include <utility>

#if __has_include(<sanitizer/asan_interface.h>)
#include <sanitizer/asan_interface.h>
#endif
#ifndef ASAN_POISON_MEMORY_REGION
#define ASAN_POISON_MEMORY_REGION(addr, size) ((void)(addr), (void)(size))
#define ASAN_UNPOISON_MEMORY_REGION(addr, size) ((void)(addr), (void)(size))
#endif

namespace mvc::net {

namespace detail {
using PayloadTypeId = const void*;

template <class T>
inline constexpr char payload_tag_v = 0;

/// One unique address per distinct payload type — no RTTI required.
template <class T>
[[nodiscard]] constexpr PayloadTypeId payload_type_id() {
    return &payload_tag_v<T>;
}

/// Freed blocks a thread keeps per block type. Small on purpose: whatever
/// the lists hold is memory the next allocation of another size cannot use.
inline constexpr std::size_t kBoxPoolCap = 128;

/// One thread's free blocks of one type. Its destructor runs at thread exit
/// and hands the blocks back to the global allocator.
template <class Block>
struct BoxFreeList {
    // Trivially destructible, so it can still be read after the list is gone.
    static thread_local inline bool closed = false;

    std::array<void*, kBoxPoolCap> blocks{};
    std::size_t size{0};

    BoxFreeList() = default;
    BoxFreeList(const BoxFreeList&) = delete;
    BoxFreeList& operator=(const BoxFreeList&) = delete;
    ~BoxFreeList() {
        closed = true;
        while (size > 0) {
            void* p = blocks[--size];
            ASAN_UNPOISON_MEMORY_REGION(p, sizeof(Block));
            ::operator delete(p, sizeof(Block));
        }
    }
};

/// The calling thread's list. A function-local thread_local registers its
/// destructor when first reached; with GCC 12 a thread_local variable
/// template was not always destroyed at thread exit, leaking its blocks.
template <class Block>
[[nodiscard]] BoxFreeList<Block>& box_free_list() {
    thread_local BoxFreeList<Block> list;
    return list;
}

/// Allocator for `std::allocate_shared`. It is rebound to the control-block
/// type, so each payload type draws blocks of exactly its own size.
template <class T>
struct BoxAllocator {
    static_assert(alignof(T) <= __STDCPP_DEFAULT_NEW_ALIGNMENT__);
    using value_type = T;

    BoxAllocator() = default;
    template <class U>
    BoxAllocator(const BoxAllocator<U>&) noexcept {}  // NOLINT: rebinding

    [[nodiscard]] T* allocate(std::size_t n) {
        if (n == 1 && !BoxFreeList<T>::closed) {
            BoxFreeList<T>& list = box_free_list<T>();
            if (list.size > 0) {
                void* p = list.blocks[--list.size];
                ASAN_UNPOISON_MEMORY_REGION(p, sizeof(T));
                return static_cast<T*>(p);
            }
        }
        return static_cast<T*>(::operator new(n * sizeof(T)));
    }

    /// The block joins the freeing thread's list; past the cap, or once the
    /// thread's list is gone, it goes back to the global allocator.
    void deallocate(T* p, std::size_t n) noexcept {
        if (n == 1 && !BoxFreeList<T>::closed) {
            BoxFreeList<T>& list = box_free_list<T>();
            if (list.size < kBoxPoolCap) {
                ASAN_POISON_MEMORY_REGION(p, sizeof(T));
                list.blocks[list.size++] = p;
                return;
            }
        }
        ::operator delete(p, n * sizeof(T));
    }

    template <class U>
    friend bool operator==(const BoxAllocator&, const BoxAllocator<U>&) {
        return true;
    }
};
}  // namespace detail

class Payload {
public:
    Payload() = default;

    template <class T, class D = std::decay_t<T>,
              class = std::enable_if_t<!std::is_same_v<D, Payload>>>
    Payload(T&& value)  // NOLINT(google-explicit-constructor): mirrors std::any
        : box_(std::allocate_shared<Box<D>>(detail::BoxAllocator<Box<D>>{},
                                            std::forward<T>(value))) {}

    [[nodiscard]] bool empty() const { return box_ == nullptr; }

    /// Type token of the boxed value (nullptr when empty). This is what the
    /// wire codec registry keys on to pick an encoder without naming types.
    [[nodiscard]] detail::PayloadTypeId type_id() const {
        return box_ == nullptr ? nullptr : box_->id;
    }

    template <class T>
    [[nodiscard]] bool holds() const {
        return box_ != nullptr && box_->id == detail::payload_type_id<T>();
    }

    /// Checked read access; throws on type mismatch or empty payload.
    template <class T>
    [[nodiscard]] const T& get() const {
        return box_of<T>().value;
    }

    /// Checked move-out; falls back to a copy when the box is shared with
    /// other packets. Leaves this payload empty.
    template <class T>
    [[nodiscard]] T take() {
        Box<T>& b = box_of<T>();
        T out = box_.use_count() == 1 ? std::move(b.value) : b.value;
        box_.reset();
        return out;
    }

private:
    struct BoxBase {
        explicit BoxBase(detail::PayloadTypeId type) : id(type) {}
        virtual ~BoxBase() = default;
        detail::PayloadTypeId id;
    };
    template <class T>
    struct Box : BoxBase {
        explicit Box(T v) : BoxBase(detail::payload_type_id<T>()), value(std::move(v)) {}
        T value;
    };

    template <class T>
    [[nodiscard]] Box<T>& box_of() const {
        if (!holds<T>())
            throw std::runtime_error(
                "net::Payload: type mismatch (sender and flow handler disagree)");
        return *static_cast<Box<T>*>(box_.get());
    }

    std::shared_ptr<BoxBase> box_;
};

}  // namespace mvc::net
