// Tests for the graph arena (nn/arena.h): the bump allocator that backs
// one training step's autograd graph nodes and is rewound between steps.
#include <gtest/gtest.h>

#include <cstddef>
#include <utility>
#include <vector>

#include "nn/arena.h"

namespace imsr {
namespace {

// ------------------------------ arena -------------------------------------

TEST(GraphArenaTest, ResetRecyclesBlocks) {
  nn::GraphArena arena(/*block_bytes=*/1024);
  void* first = arena.Allocate(128, 16);
  ASSERT_NE(first, nullptr);
  arena.Deallocate(first, 128);
  arena.Reset();
  // Same block is reused: the next allocation lands where the first did.
  void* second = arena.Allocate(128, 16);
  EXPECT_EQ(second, first);
  arena.Deallocate(second, 128);
}

TEST(GraphArenaTest, ResetDefersWhileAllocationsLive) {
  nn::GraphArena arena(/*block_bytes=*/1024);
  void* live = arena.Allocate(64, 16);
  void* dead = arena.Allocate(64, 16);
  arena.Deallocate(dead, 64);
  arena.Reset();  // deferred: `live` still out
  EXPECT_EQ(arena.live_allocations(), 1u);
  // The deferred reset must not have recycled the live slot.
  void* next = arena.Allocate(64, 16);
  EXPECT_NE(next, live);
  arena.Deallocate(next, 64);
  arena.Deallocate(live, 64);  // completes the pending reset
  EXPECT_EQ(arena.live_allocations(), 0u);
  void* fresh = arena.Allocate(64, 16);
  EXPECT_EQ(fresh, live);  // rewound to the block start
  arena.Deallocate(fresh, 64);
}

TEST(GraphArenaTest, HighWaterTracksPeakUsage) {
  nn::GraphArena arena(/*block_bytes=*/4096);
  EXPECT_EQ(arena.high_water_bytes(), 0u);
  void* a = arena.Allocate(256, 16);
  void* b = arena.Allocate(256, 16);
  const size_t peak = arena.high_water_bytes();
  EXPECT_GE(peak, 512u);
  arena.Deallocate(a, 256);
  arena.Deallocate(b, 256);
  arena.Reset();
  void* c = arena.Allocate(64, 16);
  EXPECT_EQ(arena.high_water_bytes(), peak);  // peak survives the reset
  arena.Deallocate(c, 64);
}

TEST(GraphArenaTest, SteadyStateStopsGrowingCapacity) {
  nn::GraphArena arena;
  for (int step = 0; step < 4; ++step) {
    std::vector<std::pair<void*, size_t>> slots;
    for (int i = 0; i < 100; ++i) {
      slots.emplace_back(arena.Allocate(192, 16), 192);
    }
    for (auto [ptr, bytes] : slots) arena.Deallocate(ptr, bytes);
    arena.Reset();
  }
  const size_t warmed = arena.capacity_bytes();
  for (int step = 0; step < 4; ++step) {
    std::vector<std::pair<void*, size_t>> slots;
    for (int i = 0; i < 100; ++i) {
      slots.emplace_back(arena.Allocate(192, 16), 192);
    }
    for (auto [ptr, bytes] : slots) arena.Deallocate(ptr, bytes);
    arena.Reset();
  }
  EXPECT_EQ(arena.capacity_bytes(), warmed);
}

}  // namespace
}  // namespace imsr
