// Tests for net::Payload's pooled boxes: per-thread, per-type free lists,
// boxes released on another thread than the one that made them, thread exit,
// and the unchanged take/share semantics on top of the pool.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "net/payload.hpp"

namespace mvc::net {
namespace {

// Each test boxes its own types, so no other test has filled their lists.
template <int Tag>
struct Value {
    std::uint64_t word{0};
};

// Freed at static destruction, after the main thread's lists are gone.
const Payload kStaticPayload{Value<99>{7}};

TEST(PayloadPoolTest, ReusesFreedBoxOfSameTypeOnSameThread) {
    const void* first = nullptr;
    {
        const Payload p{Value<1>{1}};
        first = &p.get<Value<1>>();
    }
    const Payload q{Value<1>{2}};
    EXPECT_EQ(&q.get<Value<1>>(), first);
    EXPECT_EQ(q.get<Value<1>>().word, 2u);
}

TEST(PayloadPoolTest, DifferentTypesNeverShareAList) {
    static_assert(sizeof(Value<2>) == sizeof(Value<3>));
    const void* freed = nullptr;
    {
        const Payload p{Value<2>{1}};
        freed = &p.get<Value<2>>();
    }
    // Same size, other type: its list is empty, so it cannot get the block.
    const Payload other{Value<3>{2}};
    EXPECT_NE(static_cast<const void*>(&other.get<Value<3>>()), freed);
    EXPECT_TRUE(other.holds<Value<3>>());
    EXPECT_FALSE(other.holds<Value<2>>());
    // The freed block is still waiting on its own type's list.
    const Payload again{Value<2>{3}};
    EXPECT_EQ(&again.get<Value<2>>(), freed);
    EXPECT_EQ(again.get<Value<2>>().word, 3u);
}

TEST(PayloadPoolTest, BoxReleasedOnAnotherThreadStaysValidUntilRelease) {
    const std::string text(100, 'x');  // spills, so the box owns heap bytes
    Payload made;
    std::thread maker([&] { made = Payload{text}; });
    maker.join();

    // Two holders drop their references concurrently; whichever is last
    // frees the box onto its own thread's list.
    std::string seen;
    std::thread releaser([&seen, held = Payload{made}]() mutable {
        seen = held.get<std::string>();
        held = Payload{};
    });
    EXPECT_EQ(made.get<std::string>(), text);
    made = Payload{};
    releaser.join();
    EXPECT_EQ(seen, text);

    // A box whose only holder is a thread that never allocated one.
    std::thread sole([&seen, held = Payload{text + "y"}]() mutable {
        seen = held.get<std::string>();
        held = Payload{};
    });
    sole.join();
    EXPECT_EQ(seen, text + "y");
}

TEST(PayloadPoolTest, WorkerPastTheCapFreesEverythingAtExit) {
    constexpr std::size_t kBoxes = detail::kBoxPoolCap + 100;
    std::uint64_t sum = 0;
    std::thread worker([&] {
        std::vector<Payload> held;
        held.reserve(kBoxes);
        for (std::size_t i = 0; i < kBoxes; ++i) held.emplace_back(Value<4>{i});
        for (const Payload& p : held) sum += p.get<Value<4>>().word;
        held.clear();  // kBoxPoolCap blocks join the list, the rest are deleted
        for (std::size_t i = 0; i < kBoxes; ++i) held.emplace_back(Value<4>{i});
        for (const Payload& p : held) sum += p.get<Value<4>>().word;
    });
    worker.join();
    EXPECT_EQ(sum, kBoxes * (kBoxes - 1));
    // The worker's list is gone; this thread's list of the type still works.
    const Payload after{Value<4>{5}};
    EXPECT_EQ(after.get<Value<4>>().word, 5u);
}

TEST(PayloadPoolTest, BoxesFromAWorkerAreFreedOnTheMainThread) {
    std::vector<Payload> made;
    std::thread maker([&] {
        for (std::uint64_t i = 0; i < 8; ++i) made.emplace_back(Value<5>{i});
    });
    maker.join();
    const void* last = &made.back().get<Value<5>>();
    made.clear();  // the maker has exited; the blocks join this thread's list
    const Payload reused{Value<5>{1}};
    EXPECT_EQ(&reused.get<Value<5>>(), last);
}

TEST(PayloadPoolTest, TakeMovesWhenUniqueAndCopiesWhenShared) {
    Payload unique{std::vector<int>(64, 1)};
    const int* in_box = unique.get<std::vector<int>>().data();
    const std::vector<int> moved = unique.take<std::vector<int>>();
    EXPECT_EQ(moved.data(), in_box);
    EXPECT_TRUE(unique.empty());

    Payload a{std::vector<int>(64, 2)};
    const Payload b = a;
    const std::vector<int> copied = a.take<std::vector<int>>();
    EXPECT_NE(copied.data(), b.get<std::vector<int>>().data());
    EXPECT_EQ(copied, b.get<std::vector<int>>());
    EXPECT_TRUE(a.empty());
}

TEST(PayloadPoolTest, StaticPayloadOutlivesTheMainThreadsLists) {
    EXPECT_EQ(kStaticPayload.get<Value<99>>().word, 7u);
}

}  // namespace
}  // namespace mvc::net
