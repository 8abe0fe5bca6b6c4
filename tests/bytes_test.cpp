// Tests for common/bytes.hpp, the byte codec under every wire and file
// format: fixed-width and varint round trips, the latched-failure reader
// contract on truncated and hostile input, length checks that cannot wrap,
// and the streaming CRC-32. Also common/inline_bytes.hpp, the small-buffer
// byte type the codec writes avatar records into: the inline/heap boundary,
// copies, moves and assignments in every storage direction, and equality
// with std::vector.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <limits>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/bytes.hpp"
#include "common/inline_bytes.hpp"

namespace mvc::common {
namespace {

using Bytes = std::vector<std::uint8_t>;

TEST(SerializeTest, WriterReaderRoundTrip) {
    Bytes w;
    put<std::uint8_t>(w, 7);
    put<std::uint16_t>(w, 1234);
    put<std::uint32_t>(w, 7654321);
    put<std::uint64_t>(w, 123456789012345ULL);
    put<std::int16_t>(w, -321);
    put<float>(w, 2.5f);
    put<double>(w, -0.125);
    put<std::int64_t>(w, -9);
    EXPECT_EQ(w.size(), 1u + 2 + 4 + 8 + 2 + 4 + 8 + 8);
    Reader r{w};
    EXPECT_EQ(r.get<std::uint8_t>(), 7);
    EXPECT_EQ(r.get<std::uint16_t>(), 1234);
    EXPECT_EQ(r.get<std::uint32_t>(), 7654321u);
    EXPECT_EQ(r.get<std::uint64_t>(), 123456789012345ULL);
    EXPECT_EQ(r.get<std::int16_t>(), -321);
    EXPECT_FLOAT_EQ(r.get<float>(), 2.5f);
    EXPECT_DOUBLE_EQ(r.get<double>(), -0.125);
    EXPECT_EQ(r.get<std::int64_t>(), -9);
    EXPECT_TRUE(r.ok());
    EXPECT_TRUE(r.done());
}

TEST(SerializeTest, TruncatedReadLatchesNotOk) {
    const Bytes bytes{1, 2};
    Reader r{bytes};
    EXPECT_EQ(r.get<std::uint32_t>(), 0u);
    EXPECT_FALSE(r.ok());
    // Latched: even a read the remaining bytes could satisfy returns zero.
    EXPECT_EQ(r.get<std::uint8_t>(), 0u);
    EXPECT_EQ(r.pos(), 0u);
}

TEST(BytesTest, FixedWidthIsLittleEndian) {
    Bytes w;
    put<std::uint32_t>(w, 0x11223344U);
    put<std::int16_t>(w, -2);
    EXPECT_EQ(w, (Bytes{0x44, 0x33, 0x22, 0x11, 0xFE, 0xFF}));
}

TEST(BytesTest, VarintKnownEncodingsRoundTrip) {
    const std::vector<std::pair<std::uint64_t, Bytes>> cases{
        {0, {0x00}},
        {127, {0x7F}},
        {128, {0x80, 0x01}},
        {300, {0xAC, 0x02}},
        {std::numeric_limits<std::uint64_t>::max(),
         {0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01}},
    };
    for (const auto& [v, want] : cases) {
        Bytes w;
        put_varint(w, v);
        EXPECT_EQ(w, want) << v;
        Reader r{w};
        EXPECT_EQ(r.varint(), v);
        EXPECT_TRUE(r.ok() && r.done()) << v;
    }
}

TEST(BytesTest, VarintRejectsOverflowAndTruncation) {
    // Tenth byte may only carry bit 63.
    const Bytes too_big{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x02};
    Reader a{too_big};
    EXPECT_EQ(a.varint(), 0u);
    EXPECT_FALSE(a.ok());
    // An endless continuation run stops at the tenth byte.
    const Bytes endless(16, 0x80);
    Reader b{endless};
    (void)b.varint();
    EXPECT_FALSE(b.ok());
    const Bytes cut{0x80};
    Reader c{cut};
    (void)c.varint();
    EXPECT_FALSE(c.ok());
}

TEST(BytesTest, VarintRejectsNonMinimalEncodings) {
    // 1 padded to two bytes, 0 padded to two, 300 padded to three.
    for (const Bytes& padded : {Bytes{0x81, 0x00}, Bytes{0x80, 0x00}, Bytes{0xAC, 0x82, 0x00}}) {
        Reader r{padded};
        EXPECT_EQ(r.varint(), 0u);
        EXPECT_FALSE(r.ok());
    }
    // A zero byte is minimal on its own.
    const Bytes zero{0x00};
    Reader z{zero};
    EXPECT_EQ(z.varint(), 0u);
    EXPECT_TRUE(z.ok() && z.done());
}

TEST(BytesTest, VarintRejectsValuesWiderThanTheirField) {
    const auto read = [](std::uint64_t v, auto field) {
        Bytes w;
        put_varint(w, v);
        Reader r{w};
        const auto got = r.varint<decltype(field)>();
        return std::pair{static_cast<std::uint64_t>(got), r.ok() && r.done()};
    };
    EXPECT_EQ(read(0xFFFF, std::uint16_t{}), (std::pair<std::uint64_t, bool>{0xFFFF, true}));
    EXPECT_EQ(read(0x10000, std::uint16_t{}), (std::pair<std::uint64_t, bool>{0, false}));
    EXPECT_EQ(read(0xFFFFFFFFULL, std::uint32_t{}),
              (std::pair<std::uint64_t, bool>{0xFFFFFFFFULL, true}));
    EXPECT_EQ(read(0x100000000ULL, std::uint32_t{}), (std::pair<std::uint64_t, bool>{0, false}));
    EXPECT_EQ(read(0x100000000ULL, std::uint64_t{}),
              (std::pair<std::uint64_t, bool>{0x100000000ULL, true}));
}

TEST(BytesTest, ZigzagVarintsRoundTripAndStayShortForSmallMagnitudes) {
    EXPECT_EQ(zigzag(0), 0u);
    EXPECT_EQ(zigzag(-1), 1u);
    EXPECT_EQ(zigzag(1), 2u);
    EXPECT_EQ(zigzag(-2), 3u);
    EXPECT_EQ(zigzag(std::numeric_limits<std::int64_t>::max()),
              std::numeric_limits<std::uint64_t>::max() - 1);
    EXPECT_EQ(zigzag(std::numeric_limits<std::int64_t>::min()),
              std::numeric_limits<std::uint64_t>::max());
    for (const std::int64_t v : {std::int64_t{0}, std::int64_t{-1}, std::int64_t{63},
                                 std::int64_t{-64}, std::int64_t{250'000'000},
                                 std::numeric_limits<std::int64_t>::min(),
                                 std::numeric_limits<std::int64_t>::max()}) {
        Bytes w;
        put_svarint(w, v);
        Reader r{w};
        EXPECT_EQ(r.svarint(), v);
        EXPECT_TRUE(r.ok() && r.done()) << v;
    }
    Bytes small;
    put_svarint(small, -64);
    EXPECT_EQ(small, Bytes{0x7F});
}

TEST(BytesTest, LengthChecksCannotWrap) {
    const Bytes bytes{1, 2, 3, 4};
    Reader r{bytes};
    (void)r.get<std::uint8_t>();
    EXPECT_TRUE(r.take(std::numeric_limits<std::uint64_t>::max()).empty());
    EXPECT_FALSE(r.ok());

    // A varint length near 2^64 must not wrap `pos + n` past the check.
    Bytes w{0xAA};
    put_varint(w, std::numeric_limits<std::uint64_t>::max() - 1);
    w.push_back(0xBB);
    Reader v{w};
    (void)v.get<std::uint8_t>();
    EXPECT_TRUE(v.varint_bytes().empty());
    EXPECT_FALSE(v.ok());
}

TEST(BytesTest, CountRejectsWhatTheRemainingBytesCannotHold) {
    const Bytes bytes(40, 0);
    Reader r{bytes};
    EXPECT_EQ(r.count(10, 4), 10u);
    EXPECT_EQ(r.count(0, 29), 0u);
    EXPECT_TRUE(r.ok());
    EXPECT_EQ(r.count(0xFFFFFFFFULL, 29), 0u);
    EXPECT_FALSE(r.ok());
}

TEST(BytesTest, PrefixedRunsAreIdenticalInByteAndUint8Buffers) {
    const std::string text = "hello";
    const Bytes blob{9, 8, 7};
    Bytes u;
    std::vector<std::byte> b;
    put_bytes(u, text);
    put_bytes(b, text);
    put_varint_bytes(u, blob);
    put_varint_bytes(b, blob);
    put_raw(u, blob);
    put_raw(b, blob);
    ASSERT_EQ(u.size(), b.size());
    EXPECT_EQ(std::memcmp(u.data(), b.data(), u.size()), 0);

    Reader r{b};
    EXPECT_EQ(r.str(r.get<std::uint32_t>()), text);
    const auto run = r.varint_bytes();
    EXPECT_EQ(Bytes(run.begin(), run.end()), blob);
    EXPECT_EQ(r.take(3).size(), 3u);
    EXPECT_TRUE(r.ok() && r.done());
}

TEST(BytesTest, Crc32StreamsAndServesEveryByteType) {
    const std::string s = "123456789";
    EXPECT_EQ(crc32(s), 0xCBF43926U);
    EXPECT_EQ(crc32(std::string{}), 0x00000000U);
    for (std::size_t cut = 0; cut <= s.size(); ++cut) {
        const std::string_view a = std::string_view{s}.substr(0, cut);
        const std::string_view b = std::string_view{s}.substr(cut);
        EXPECT_EQ(crc32(b, crc32(a)), 0xCBF43926U) << "cut " << cut;
    }
    const auto* p = reinterpret_cast<const std::byte*>(s.data());
    EXPECT_EQ(crc32(std::span{p, s.size()}), 0xCBF43926U);
}

/// The table-driven loop crc32 ran before slicing-by-8: one byte per step.
std::uint32_t crc32_bytewise(std::span<const std::uint8_t> data, std::uint32_t prev) {
    std::uint32_t c = prev ^ 0xFFFFFFFFU;
    for (const std::uint8_t b : data) c = detail::kCrcTables[0][(c ^ b) & 0xFFU] ^ (c >> 8);
    return c ^ 0xFFFFFFFFU;
}

TEST(BytesTest, Crc32SlicingMatchesBytewiseAtEveryLengthAndAlignment) {
    Bytes buf(1008);
    std::uint32_t x = 2463534242U;  // xorshift32
    for (std::uint8_t& b : buf) {
        x ^= x << 13;
        x ^= x >> 17;
        x ^= x << 5;
        b = static_cast<std::uint8_t>(x);
    }
    for (std::size_t start = 0; start < 8; ++start) {
        for (std::size_t len = 0; len <= 1000; ++len) {
            const std::span<const std::uint8_t> data{buf.data() + start, len};
            ASSERT_EQ(crc32(data), crc32_bytewise(data, 0)) << start << "+" << len;
            ASSERT_EQ(crc32(data, 0x12345678U), crc32_bytewise(data, 0x12345678U))
                << start << "+" << len;
        }
    }
}


// ------------------------------------------------------------- InlineBytes

constexpr std::size_t kN = 16;
using Inline = InlineBytes<kN>;

static_assert(ByteBuffer<Inline>);
static_assert(ByteRange<Inline>);

Bytes pattern(std::size_t n, std::uint8_t seed) {
    Bytes b(n);
    for (std::size_t i = 0; i < n; ++i) b[i] = static_cast<std::uint8_t>(seed + 7 * i);
    return b;
}

TEST(InlineBytesTest, HoldsNBytesInlineAndSpillsAtNPlusOne) {
    const Inline at_n{pattern(kN, 1)};
    EXPECT_FALSE(at_n.on_heap());
    EXPECT_EQ(at_n.capacity(), kN);
    EXPECT_EQ(at_n, pattern(kN, 1));

    const Inline past_n{pattern(kN + 1, 1)};
    EXPECT_TRUE(past_n.on_heap());
    EXPECT_EQ(past_n, pattern(kN + 1, 1));

    // Appending byte by byte crosses the boundary at exactly N + 1.
    const Bytes want = pattern(kN + 1, 5);
    Inline grown;
    for (std::size_t i = 0; i < kN; ++i) grown.push_back(want[i]);
    EXPECT_FALSE(grown.on_heap());
    grown.push_back(want[kN]);
    EXPECT_TRUE(grown.on_heap());
    EXPECT_EQ(grown, want);

    // resize zero-fills whichever storage it lands in.
    Inline sized;
    sized.resize(kN);
    EXPECT_FALSE(sized.on_heap());
    EXPECT_EQ(sized, Bytes(kN, 0));
    sized.resize(kN + 1);
    EXPECT_TRUE(sized.on_heap());
    EXPECT_EQ(sized, Bytes(kN + 1, 0));
}

TEST(InlineBytesTest, CopiesAreDeepInBothStorages) {
    for (const std::size_t n : {std::size_t{4}, kN + 9}) {
        const Inline source{pattern(n, 3)};
        Inline copy{source};
        EXPECT_EQ(copy.on_heap(), source.on_heap());
        EXPECT_EQ(copy, source);
        EXPECT_NE(copy.data(), source.data());
        copy.data()[0] ^= 0xFF;
        EXPECT_EQ(source, pattern(n, 3));
    }
}

TEST(InlineBytesTest, MovesLeaveTheSourceEmptyAndInline) {
    Inline small_src{pattern(4, 1)};
    const Inline small_dst{std::move(small_src)};
    EXPECT_EQ(small_dst, pattern(4, 1));
    EXPECT_FALSE(small_dst.on_heap());
    EXPECT_TRUE(small_src.empty());  // NOLINT(bugprone-use-after-move)
    EXPECT_FALSE(small_src.on_heap());

    Inline large_src{pattern(kN + 9, 2)};
    const std::uint8_t* block = large_src.data();
    const Inline large_dst{std::move(large_src)};
    EXPECT_EQ(large_dst, pattern(kN + 9, 2));
    EXPECT_EQ(large_dst.data(), block);  // the heap block is handed over
    EXPECT_TRUE(large_src.empty());      // NOLINT(bugprone-use-after-move)
    EXPECT_FALSE(large_src.on_heap());
}

TEST(InlineBytesTest, AssignmentCoversEveryInlineHeapDirection) {
    const Bytes small = pattern(5, 1);
    const Bytes large = pattern(kN + 9, 2);
    const Bytes larger = pattern(3 * kN, 3);

    // Copy-assign: destination storage x source storage.
    for (const Bytes* dst_init : {&small, &large}) {
        for (const Bytes* src_init : {&small, &large, &larger}) {
            Inline dst{*dst_init};
            const Inline src{*src_init};
            dst = src;
            EXPECT_EQ(dst, *src_init);
            EXPECT_EQ(src, *src_init);
        }
    }
    // Move-assign: the same grid; a heap source is stolen, an inline one copied.
    for (const Bytes* dst_init : {&small, &large}) {
        for (const Bytes* src_init : {&small, &large}) {
            Inline dst{*dst_init};
            Inline src{*src_init};
            const bool src_heap = src.on_heap();
            dst = std::move(src);
            EXPECT_EQ(dst, *src_init);
            EXPECT_EQ(dst.on_heap(), src_heap);
            EXPECT_TRUE(src.empty());  // NOLINT(bugprone-use-after-move)
            EXPECT_FALSE(src.on_heap());
        }
    }
}

TEST(InlineBytesTest, HeapToInlineReassignmentKeepsTheBlockAndCopiesGoInline) {
    Inline spilled{pattern(kN + 9, 2)};
    const std::uint8_t* block = spilled.data();
    spilled = pattern(3, 4);
    EXPECT_EQ(spilled, pattern(3, 4));
    EXPECT_EQ(spilled.data(), block);  // the heap block is reused, not freed
    const Inline copy{spilled};
    EXPECT_FALSE(copy.on_heap());
    EXPECT_EQ(copy, pattern(3, 4));

    // Self-assignment and assigning an aliasing tail both hold.
    spilled = spilled;
    EXPECT_EQ(spilled, pattern(3, 4));
    Inline tail{pattern(kN, 6)};
    tail.assign(tail.span().subspan(2));
    const Bytes whole = pattern(kN, 6);
    EXPECT_EQ(tail, Bytes(whole.begin() + 2, whole.end()));
}

TEST(InlineBytesTest, ComparesEqualToVectors) {
    const Bytes small = pattern(5, 1);
    const Inline a{small};
    EXPECT_TRUE(a == small);
    EXPECT_TRUE(small == a);
    EXPECT_FALSE(a == pattern(6, 1));
    EXPECT_FALSE(a == pattern(5, 2));
    EXPECT_EQ(Inline{}, Bytes{});
    EXPECT_EQ((Inline{1, 2, 3}), (Bytes{1, 2, 3}));
    EXPECT_NE(a, Inline{pattern(kN + 1, 1)});
}

TEST(InlineBytesTest, PutBytesToReaderBytesRoundTripsAcrossTheBoundary) {
    for (const std::size_t n : {std::size_t{0}, std::size_t{5}, kN, kN + 1, 3 * kN}) {
        const Inline in{pattern(n, 9)};
        Bytes wire;
        put_bytes(wire, in);
        Reader r{wire};
        Inline out;
        out = r.bytes();
        EXPECT_TRUE(r.ok() && r.done()) << n;
        EXPECT_EQ(out, in) << n;
        EXPECT_EQ(out.on_heap(), n > kN) << n;
    }
    // The writers emit the same bytes into an InlineBytes as into a vector.
    Bytes v;
    put<std::uint32_t>(v, 0xA1B2C3D4U);
    put_varint(v, 300);
    put_raw(v, pattern(kN, 1));
    Inline w;
    put<std::uint32_t>(w, 0xA1B2C3D4U);
    put_varint(w, 300);
    put_raw(w, pattern(kN, 1));
    EXPECT_EQ(w, v);
}

}  // namespace
}  // namespace mvc::common
