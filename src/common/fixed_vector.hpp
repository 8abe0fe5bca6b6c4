#pragma once
// FixedVector<T, N>: up to N trivially copyable values stored inside the
// object, with a count — the InlineBytes idea for a buffer whose bound is
// known. Facial expression channels use it (16 on an avatar, at most 32 on
// a headset sample), so building, copying and buffering an avatar state
// never touches the allocator (DESIGN §9.5).
//
// The interface is the subset of std::vector the call sites use (assign,
// resize, push_back, reserve, size, empty, operator[], contiguous
// iterators, brace assignment). Anything that would need more than N
// elements throws std::length_error instead of growing. A copy copies only
// the elements in use.

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <stdexcept>
#include <type_traits>

namespace mvc::common {

template <class T, std::size_t N>
class FixedVector {
    static_assert(std::is_trivially_copyable_v<T>, "FixedVector holds plain values");
    static_assert(N > 0 && N < UINT32_MAX);

public:
    using value_type = T;
    using iterator = T*;
    using const_iterator = const T*;

    // User-provided so value-initialization leaves the unused slots unset.
    FixedVector() noexcept {}  // NOLINT(modernize-use-equals-default)
    FixedVector(std::initializer_list<T> values) { assign(values.begin(), values.end()); }
    FixedVector(const FixedVector& other) noexcept : size_(other.size_) {
        std::copy_n(other.values_, size_, values_);
    }

    FixedVector& operator=(const FixedVector& other) noexcept {
        size_ = other.size_;
        std::copy_n(other.values_, size_, values_);
        return *this;
    }
    FixedVector& operator=(std::initializer_list<T> values) {
        assign(values.begin(), values.end());
        return *this;
    }

    /// Replace the contents with `n` copies of `value`.
    void assign(std::size_t n, const T& value) {
        check(n);
        std::fill_n(values_, n, value);
        size_ = static_cast<std::uint32_t>(n);
    }
    /// Replace the contents with [first, last).
    void assign(const T* first, const T* last) {
        const auto n = static_cast<std::size_t>(last - first);
        check(n);
        std::copy(first, last, values_);
        size_ = static_cast<std::uint32_t>(n);
    }

    /// Grow (new elements are `value`) or shrink to `n` elements.
    void resize(std::size_t n, const T& value = T{}) {
        check(n);
        if (n > size_) std::fill(values_ + size_, values_ + n, value);
        size_ = static_cast<std::uint32_t>(n);
    }

    void push_back(const T& value) {
        check(static_cast<std::size_t>(size_) + 1);
        values_[size_++] = value;
    }

    /// Storage is fixed; only checks that `n` elements fit.
    void reserve(std::size_t n) const { check(n); }

    [[nodiscard]] std::size_t size() const { return size_; }
    [[nodiscard]] bool empty() const { return size_ == 0; }

    [[nodiscard]] T& operator[](std::size_t i) { return values_[i]; }
    [[nodiscard]] const T& operator[](std::size_t i) const { return values_[i]; }

    [[nodiscard]] iterator begin() { return values_; }
    [[nodiscard]] iterator end() { return values_ + size_; }
    [[nodiscard]] const_iterator begin() const { return values_; }
    [[nodiscard]] const_iterator end() const { return values_ + size_; }

    friend bool operator==(const FixedVector& a, const FixedVector& b) {
        return std::equal(a.begin(), a.end(), b.begin(), b.end());
    }

private:
    T values_[N];
    std::uint32_t size_{0};

    static void check(std::size_t n) {
        if (n > N) throw std::length_error("FixedVector: capacity exceeded");
    }
};

}  // namespace mvc::common
