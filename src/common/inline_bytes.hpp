#pragma once
// InlineBytes<N>: a growable byte buffer that keeps up to N bytes inside the
// object and spills to the heap only above N — the small-buffer pattern of
// sim::EventFn applied to encoded payloads. A campus avatar record fits
// inline, so building, copying and moving the wire value that carries it
// never touches the allocator (DESIGN §9.4).
//
// Storage rule: the bytes live inline while capacity() == N. Growing past N
// moves them to a heap block (push_back and resize double the capacity,
// like std::vector); a heap block, once taken, is kept and reused by later
// assignments that fit it.
// Copies size themselves to the source, so a copy of a short value made
// from a spilled buffer is inline again. A moved-from buffer is empty and
// inline.
//
// The interface is the subset of std::vector<std::uint8_t> the codecs use
// (data/size/resize/push_back, contiguous iterators), so common/bytes.hpp's
// writers append to it and its readers, std::span and the CRC take it as a
// byte range. It converts from and compares with std::vector<std::uint8_t>.

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <initializer_list>
#include <span>
#include <stdexcept>
#include <vector>

namespace mvc::common {

template <std::size_t N>
class InlineBytes {
    static_assert(N >= sizeof(std::uint8_t*), "inline capacity must hold a pointer");
    static_assert(N < UINT32_MAX);

public:
    using value_type = std::uint8_t;
    using size_type = std::size_t;
    using iterator = std::uint8_t*;
    using const_iterator = const std::uint8_t*;

    /// Bytes held without a heap block.
    static constexpr std::size_t kInlineCapacity = N;

    // User-provided so value-initialization leaves the inline bytes unset.
    InlineBytes() noexcept {}  // NOLINT(modernize-use-equals-default)
    InlineBytes(std::span<const std::uint8_t> bytes) { assign(bytes); }  // NOLINT
    InlineBytes(const std::vector<std::uint8_t>& bytes)  // NOLINT(google-explicit-constructor)
        : InlineBytes(std::span<const std::uint8_t>{bytes}) {}
    InlineBytes(std::initializer_list<std::uint8_t> bytes)
        : InlineBytes(std::span<const std::uint8_t>{bytes.begin(), bytes.size()}) {}

    InlineBytes(const InlineBytes& other) : InlineBytes(other.span()) {}
    InlineBytes(InlineBytes&& other) noexcept { take(other); }

    InlineBytes& operator=(const InlineBytes& other) {
        assign(other.span());
        return *this;
    }
    InlineBytes& operator=(InlineBytes&& other) noexcept {
        if (this != &other) {
            release();
            take(other);
        }
        return *this;
    }
    InlineBytes& operator=(std::span<const std::uint8_t> bytes) {
        assign(bytes);
        return *this;
    }
    InlineBytes& operator=(const std::vector<std::uint8_t>& bytes) {
        assign(std::span<const std::uint8_t>{bytes});
        return *this;
    }
    InlineBytes& operator=(std::initializer_list<std::uint8_t> bytes) {
        assign(std::span<const std::uint8_t>{bytes.begin(), bytes.size()});
        return *this;
    }

    ~InlineBytes() { release(); }

    /// Replace the contents with `bytes` (which may alias this buffer).
    void assign(std::span<const std::uint8_t> bytes) {
        if (bytes.size() > capacity_) {
            grow_to(bytes.size(), bytes.data(), bytes.size());
        } else if (!bytes.empty()) {
            std::memmove(data(), bytes.data(), bytes.size());
        }
        size_ = static_cast<std::uint32_t>(bytes.size());
    }

    [[nodiscard]] std::uint8_t* data() { return on_heap() ? heap_ : inline_; }
    [[nodiscard]] const std::uint8_t* data() const { return on_heap() ? heap_ : inline_; }
    [[nodiscard]] std::size_t size() const { return size_; }
    [[nodiscard]] bool empty() const { return size_ == 0; }
    [[nodiscard]] std::size_t capacity() const { return capacity_; }
    /// True once the bytes have spilled to a heap block.
    [[nodiscard]] bool on_heap() const { return capacity_ > N; }

    [[nodiscard]] iterator begin() { return data(); }
    [[nodiscard]] iterator end() { return data() + size_; }
    [[nodiscard]] const_iterator begin() const { return data(); }
    [[nodiscard]] const_iterator end() const { return data() + size_; }
    [[nodiscard]] std::span<const std::uint8_t> span() const { return {data(), size_}; }

    void clear() { size_ = 0; }

    /// Grow (new bytes are zero) or shrink to `n` bytes.
    void resize(std::size_t n) {
        if (n > capacity_) grow_to(std::max(n, doubled()), data(), size_);
        if (n > size_) std::memset(data() + size_, 0, n - size_);
        size_ = static_cast<std::uint32_t>(n);
    }

    void push_back(std::uint8_t b) {
        if (size_ == capacity_) grow_to(doubled(), data(), size_);
        data()[size_++] = b;
    }

    friend bool operator==(const InlineBytes& a, const InlineBytes& b) {
        return std::ranges::equal(a.span(), b.span());
    }
    friend bool operator==(const InlineBytes& a, const std::vector<std::uint8_t>& b) {
        return std::ranges::equal(a.span(), b);
    }

private:
    union {
        std::uint8_t inline_[N];
        std::uint8_t* heap_;
    };
    std::uint32_t size_{0};
    std::uint32_t capacity_{N};

    [[nodiscard]] std::size_t doubled() const { return 2 * static_cast<std::size_t>(capacity_); }

    /// Move to a fresh heap block of `cap` bytes that starts with the `n`
    /// bytes at `src` (which may point into the storage being replaced).
    void grow_to(std::size_t cap, const std::uint8_t* src, std::size_t n) {
        if (cap > UINT32_MAX) throw std::length_error("InlineBytes: too large");
        auto* block = new std::uint8_t[cap];
        if (n != 0) std::memcpy(block, src, n);
        release();
        heap_ = block;
        capacity_ = static_cast<std::uint32_t>(cap);
    }

    void release() noexcept {
        if (on_heap()) delete[] heap_;
        capacity_ = N;
    }

    /// Take `other`'s contents, leaving it empty and inline. Requires this
    /// buffer to hold no heap block.
    void take(InlineBytes& other) noexcept {
        size_ = other.size_;
        capacity_ = other.capacity_;
        if (other.on_heap()) {
            heap_ = other.heap_;
        } else if (size_ != 0) {
            std::memcpy(inline_, other.inline_, size_);
        }
        other.size_ = 0;
        other.capacity_ = N;
    }
};

}  // namespace mvc::common
