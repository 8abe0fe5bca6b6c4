#pragma once
// The one byte codec behind every format the system writes: avatar
// snapshots and deltas, campus pool records, datagram frames and their
// payload codecs, recovery checkpoints, and session traces.
//
//  - put / put_varint / put_svarint / put_raw / put_bytes / put_varint_bytes
//    append little-endian fixed-width values, unsigned LEB128 varints,
//    zigzag varints of signed values and raw or length-prefixed byte runs
//    to a caller-owned buffer: a std::vector or a common::InlineBytes. They allocate only when the buffer outgrows its
//    capacity, so a reserved vector or a short inline record stays
//    allocation-free (the recorder tap and the campus pool rely on this).
//  - Reader decodes the same primitives from a span. Every read is bounds
//    checked without `pos + n` arithmetic that could wrap; the first
//    overrun or malformed value latches ok() false, after which every read
//    returns zero/empty. Decoders read straight through and check ok() once,
//    so outside input can never make them throw. A varint is accepted only
//    in its minimal form and only when it fits the field it is read into,
//    so every accepted value has exactly one encoding and a decoded record
//    re-encodes to the bytes it came from.
//  - crc32 is the table-driven IEEE 802.3 CRC-32 (reflected 0xEDB88320),
//    streaming: crc32(b, crc32(a)) == crc32(a || b).
//
// Buffers may hold std::byte or std::uint8_t (chars are accepted as
// sources), so the datagram path and the file formats share one codec.

#include <array>
#include <bit>
#include <concepts>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <limits>
#include <ranges>
#include <span>
#include <string>
#include <type_traits>
#include <vector>

namespace mvc::common {

template <class B>
concept ByteLike = std::same_as<B, std::byte> || std::same_as<B, unsigned char> ||
                   std::same_as<B, char>;

template <class R>
concept ByteRange = std::ranges::contiguous_range<R> && std::ranges::sized_range<R> &&
                    ByteLike<std::ranges::range_value_t<R>>;

/// A growable byte buffer the writers append to (std::vector, InlineBytes).
template <class Buf>
concept ByteBuffer = ByteLike<typename Buf::value_type> &&
                     requires(Buf& b, std::size_t n, typename Buf::value_type v) {
                         b.resize(n);
                         b.push_back(v);
                         { b.data() } -> std::same_as<typename Buf::value_type*>;
                         { b.size() } -> std::convertible_to<std::size_t>;
                     };

namespace detail {

template <std::size_t N>
using uint_of = std::conditional_t<
    N == 1, std::uint8_t,
    std::conditional_t<N == 2, std::uint16_t,
                       std::conditional_t<N == 4, std::uint32_t, std::uint64_t>>>;

template <ByteRange R>
const std::uint8_t* data_of(const R& r) {
    return reinterpret_cast<const std::uint8_t*>(std::ranges::data(r));
}

/// Slicing-by-8 tables: [0] is the bytewise table of the reflected IEEE
/// polynomial; [k][i] is the CRC of byte i followed by k zero bytes.
inline constexpr std::array<std::array<std::uint32_t, 256>, 8> kCrcTables = [] {
    std::array<std::array<std::uint32_t, 256>, 8> t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
        std::uint32_t c = i;
        for (int k = 0; k < 8; ++k) c = (c & 1U) ? 0xEDB88320U ^ (c >> 1) : c >> 1;
        t[0][i] = c;
    }
    for (std::size_t k = 1; k < 8; ++k)
        for (std::size_t i = 0; i < 256; ++i)
            t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFFU];
    return t;
}();

/// Little-endian 32-bit load from unaligned bytes.
inline std::uint32_t load_le32(const std::uint8_t* p) {
    return static_cast<std::uint32_t>(p[0]) | static_cast<std::uint32_t>(p[1]) << 8 |
           static_cast<std::uint32_t>(p[2]) << 16 | static_cast<std::uint32_t>(p[3]) << 24;
}

}  // namespace detail

// ------------------------------------------------------------------ writing

/// Append `v` little-endian in sizeof(T) bytes (floats by bit pattern).
template <class T, ByteBuffer Buf>
    requires std::is_arithmetic_v<T>
inline void put(Buf& out, T v) {
    using U = detail::uint_of<sizeof(T)>;
    const U u = std::bit_cast<U>(v);
    // Assemble in a local first: stores through the vector's byte pointer
    // may alias the vector itself, which would stop them merging.
    std::array<std::uint8_t, sizeof(T)> le;
    for (std::size_t i = 0; i < sizeof(T); ++i) le[i] = static_cast<std::uint8_t>(u >> (8 * i));
    const std::size_t at = out.size();
    out.resize(at + sizeof(T));
    std::memcpy(out.data() + at, le.data(), sizeof(T));
}

/// Append `v` as an unsigned LEB128 varint (1-10 bytes).
template <ByteBuffer Buf>
inline void put_varint(Buf& out, std::uint64_t v) {
    using B = typename Buf::value_type;
    while (v >= 0x80) {
        out.push_back(static_cast<B>(static_cast<std::uint8_t>(v) | 0x80));
        v >>= 7;
    }
    out.push_back(static_cast<B>(static_cast<std::uint8_t>(v)));
}

/// Zigzag map of a signed value onto an unsigned one (0, -1, 1, -2 -> 0, 1,
/// 2, 3), so small magnitudes of either sign stay short as varints.
[[nodiscard]] constexpr std::uint64_t zigzag(std::int64_t v) {
    return (static_cast<std::uint64_t>(v) << 1) ^ static_cast<std::uint64_t>(v >> 63);
}

/// Inverse of zigzag.
[[nodiscard]] constexpr std::int64_t unzigzag(std::uint64_t u) {
    return static_cast<std::int64_t>((u >> 1) ^ (0 - (u & 1)));
}

/// Append `v` as the varint of its zigzag map (1-10 bytes).
template <ByteBuffer Buf>
inline void put_svarint(Buf& out, std::int64_t v) {
    put_varint(out, zigzag(v));
}

/// Append the bytes of `b` with no length prefix.
template <ByteBuffer Buf, ByteRange R>
inline void put_raw(Buf& out, const R& b) {
    const std::size_t n = std::ranges::size(b);
    if (n == 0) return;
    const std::size_t at = out.size();
    out.resize(at + n);
    std::memcpy(out.data() + at, detail::data_of(b), n);
}

/// Append a u32 length, then the bytes of `b`.
template <ByteBuffer Buf, ByteRange R>
inline void put_bytes(Buf& out, const R& b) {
    put<std::uint32_t>(out, static_cast<std::uint32_t>(std::ranges::size(b)));
    put_raw(out, b);
}

/// Append a varint length, then the bytes of `b`.
template <ByteBuffer Buf, ByteRange R>
inline void put_varint_bytes(Buf& out, const R& b) {
    put_varint(out, std::ranges::size(b));
    put_raw(out, b);
}

// ------------------------------------------------------------------ reading

/// Bounds-checked little-endian reader over a borrowed span; see the file
/// comment for the latched-failure contract.
class Reader {
public:
    template <ByteRange R>
    explicit Reader(const R& data)
        : data_(detail::data_of(data)), size_(std::ranges::size(data)) {}

    [[nodiscard]] bool ok() const { return ok_; }
    /// Every byte consumed (regardless of ok()).
    [[nodiscard]] bool done() const { return pos_ == size_; }
    [[nodiscard]] std::size_t pos() const { return pos_; }
    [[nodiscard]] std::size_t remaining() const { return size_ - pos_; }

    /// Latch failure: the input is malformed for a reason only the caller
    /// can see (an out-of-range enum, a bad index).
    void fail() { ok_ = false; }

    template <class T>
        requires std::is_arithmetic_v<T>
    [[nodiscard]] T get() {
        using U = detail::uint_of<sizeof(T)>;
        if (!need(sizeof(T))) return T{};
        std::array<std::uint8_t, sizeof(T)> le;
        std::memcpy(le.data(), data_ + pos_, sizeof(T));
        pos_ += sizeof(T);
        U u = 0;
        for (std::size_t i = 0; i < sizeof(T); ++i)
            u |= static_cast<U>(static_cast<U>(le[i]) << (8 * i));
        return std::bit_cast<T>(u);
    }

    /// Unsigned LEB128 read into a T. Fails on truncation, on a value wider
    /// than T (more than 64 bits included), and on a non-minimal encoding: a
    /// final byte of zero after the first byte would add nothing.
    template <std::unsigned_integral T = std::uint64_t>
    [[nodiscard]] T varint() {
        std::uint64_t v = 0;
        for (int shift = 0;; shift += 7) {
            const auto b = get<std::uint8_t>();
            if (!ok_) return 0;
            if ((shift == 63 && b > 1) || (shift > 0 && b == 0)) {
                fail();
                return 0;
            }
            v |= static_cast<std::uint64_t>(b & 0x7F) << shift;
            if ((b & 0x80) != 0) continue;
            if (v > std::numeric_limits<T>::max()) {
                fail();
                return 0;
            }
            return static_cast<T>(v);
        }
    }

    /// A zigzag varint (inverse of put_svarint).
    [[nodiscard]] std::int64_t svarint() { return unzigzag(varint()); }

    /// The next `n` bytes, or an empty span (and failure) if fewer remain.
    [[nodiscard]] std::span<const std::uint8_t> take(std::uint64_t n) {
        if (!need(n)) return {};
        const std::span<const std::uint8_t> s{data_ + pos_, static_cast<std::size_t>(n)};
        pos_ += s.size();
        return s;
    }

    [[nodiscard]] std::string str(std::uint64_t n) {
        const auto s = take(n);
        return {reinterpret_cast<const char*>(s.data()), s.size()};
    }

    /// A u32-length-prefixed run (inverse of put_bytes).
    [[nodiscard]] std::span<const std::uint8_t> bytes() { return take(get<std::uint32_t>()); }
    /// A varint-length-prefixed run (inverse of put_varint_bytes).
    [[nodiscard]] std::span<const std::uint8_t> varint_bytes() { return take(varint()); }

    /// Vet an element count read from the input: returns `n` when the
    /// remaining bytes can hold `n` elements of at least `min_bytes` (>= 1)
    /// each, else latches failure and returns 0. Call it before sizing a
    /// container or looping, so a hostile count can neither allocate nor spin.
    [[nodiscard]] std::size_t count(std::uint64_t n, std::size_t min_bytes) {
        if (!ok_ || n > remaining() / min_bytes) {
            fail();
            return 0;
        }
        return static_cast<std::size_t>(n);
    }

private:
    bool need(std::uint64_t n) {
        if (ok_ && n <= remaining()) return true;
        ok_ = false;
        return false;
    }

    const std::uint8_t* data_;
    std::size_t size_;
    std::size_t pos_{0};
    bool ok_{true};
};

// ------------------------------------------------------------------- CRC-32

/// CRC-32 of `data`; pass a previous result as `prev` to continue it.
/// Eight bytes per step (slicing-by-8), then the tail a byte at a time.
template <ByteRange R>
[[nodiscard]] std::uint32_t crc32(const R& data, std::uint32_t prev = 0) {
    const auto& t = detail::kCrcTables;
    std::uint32_t c = prev ^ 0xFFFFFFFFU;
    const std::uint8_t* p = detail::data_of(data);
    std::size_t n = std::ranges::size(data);
    for (; n >= 8; p += 8, n -= 8) {
        const std::uint32_t lo = detail::load_le32(p) ^ c;
        const std::uint32_t hi = detail::load_le32(p + 4);
        c = t[7][lo & 0xFFU] ^ t[6][(lo >> 8) & 0xFFU] ^ t[5][(lo >> 16) & 0xFFU] ^
            t[4][lo >> 24] ^ t[3][hi & 0xFFU] ^ t[2][(hi >> 8) & 0xFFU] ^
            t[1][(hi >> 16) & 0xFFU] ^ t[0][hi >> 24];
    }
    for (; n > 0; ++p, --n) c = t[0][(c ^ *p) & 0xFFU] ^ (c >> 8);
    return c ^ 0xFFFFFFFFU;
}

}  // namespace mvc::common
