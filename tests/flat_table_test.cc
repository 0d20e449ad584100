// Unit and property tests for the flat enforcement containers
// (src/base/flat_table.h, src/base/small_vector.h).
#include <gtest/gtest.h>

#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "src/base/flat_table.h"
#include "src/base/rng.h"
#include "src/base/small_vector.h"

namespace {

using lxfi::FlatSet;
using lxfi::FlatTable;
using lxfi::SmallVector;

// --- SmallVector ------------------------------------------------------------

TEST(SmallVector, StaysInlineUpToCapacity) {
  SmallVector<uint64_t, 4> v;
  for (uint64_t i = 0; i < 4; ++i) {
    v.push_back(i);
  }
  EXPECT_TRUE(v.is_inline());
  EXPECT_EQ(v.size(), 4u);
  v.push_back(4);
  EXPECT_FALSE(v.is_inline());
  EXPECT_EQ(v.size(), 5u);
  for (uint64_t i = 0; i < 5; ++i) {
    EXPECT_EQ(v[i], i);
  }
}

TEST(SmallVector, EraseValuePreservesOrder) {
  SmallVector<int, 2> v;
  for (int x : {1, 2, 3, 2, 4}) {
    v.push_back(x);
  }
  EXPECT_EQ(v.erase_value(2), 2u);
  ASSERT_EQ(v.size(), 3u);
  EXPECT_EQ(v[0], 1);
  EXPECT_EQ(v[1], 3);
  EXPECT_EQ(v[2], 4);
  EXPECT_FALSE(v.contains(2));
  EXPECT_TRUE(v.contains(4));
}

TEST(SmallVector, CopyAndMoveAcrossInlineHeapBoundary) {
  SmallVector<int, 2> heap_backed;
  for (int i = 0; i < 10; ++i) {
    heap_backed.push_back(i);
  }
  SmallVector<int, 2> copy(heap_backed);
  ASSERT_EQ(copy.size(), 10u);
  EXPECT_EQ(copy[9], 9);

  SmallVector<int, 2> moved(std::move(heap_backed));
  ASSERT_EQ(moved.size(), 10u);
  EXPECT_EQ(moved[5], 5);
  EXPECT_EQ(heap_backed.size(), 0u);

  SmallVector<int, 2> inline_src;
  inline_src.push_back(7);
  SmallVector<int, 2> inline_moved(std::move(inline_src));
  ASSERT_EQ(inline_moved.size(), 1u);
  EXPECT_EQ(inline_moved[0], 7);

  // Assign heap-backed over inline and vice versa.
  inline_moved = copy;
  EXPECT_EQ(inline_moved.size(), 10u);
  copy = SmallVector<int, 2>();
  EXPECT_TRUE(copy.empty());
}

// --- FlatSet ----------------------------------------------------------------

TEST(FlatSet, InsertContainsErase) {
  FlatSet s;
  EXPECT_FALSE(s.Contains(42));
  EXPECT_TRUE(s.Insert(42));
  EXPECT_FALSE(s.Insert(42));  // duplicate
  EXPECT_TRUE(s.Contains(42));
  EXPECT_EQ(s.size(), 1u);
  EXPECT_TRUE(s.Erase(42));
  EXPECT_FALSE(s.Erase(42));
  EXPECT_FALSE(s.Contains(42));
  EXPECT_EQ(s.size(), 0u);
}

TEST(FlatSet, DuplicateInsertAtLoadThresholdDoesNotRehash) {
  FlatSet s;
  // Fill to exactly the grow threshold (next new insert would rehash).
  for (uint64_t i = 1; i <= 4; ++i) {
    s.Insert(i);
  }
  size_t cap = s.capacity();
  EXPECT_FALSE(s.Insert(3));  // duplicate: pure lookup
  EXPECT_EQ(s.capacity(), cap);
  EXPECT_TRUE(s.Insert(99));  // genuinely new: now it may grow
  EXPECT_TRUE(s.Contains(99));
}

TEST(FlatTable, DuplicateGetOrInsertAtLoadThresholdDoesNotRehash) {
  FlatTable<int> t;
  for (uint64_t i = 1; i <= 4; ++i) {
    t.GetOrInsert(i) = static_cast<int>(i);
  }
  size_t cap = t.capacity();
  EXPECT_EQ(t.GetOrInsert(3), 3);  // existing: pure lookup
  EXPECT_EQ(t.capacity(), cap);
}

TEST(FlatSet, GrowsThroughManyInserts) {
  FlatSet s;
  for (uint64_t i = 0; i < 10000; ++i) {
    EXPECT_TRUE(s.Insert(i * 0x9e3779b9ull));
  }
  EXPECT_EQ(s.size(), 10000u);
  for (uint64_t i = 0; i < 10000; ++i) {
    EXPECT_TRUE(s.Contains(i * 0x9e3779b9ull));
  }
  EXPECT_FALSE(s.Contains(10001 * 0x9e3779b9ull));
}

// Deletion-heavy churn: backward-shift erase must keep every remaining key
// findable. This is the workload tombstone schemes degrade on and the one
// that catches shift bugs (keys displaced across the erased slot).
TEST(FlatSet, ChurnMatchesStdReference) {
  lxfi::Rng rng(1234);
  FlatSet s;
  std::unordered_set<uint64_t> ref;
  for (int step = 0; step < 200000; ++step) {
    // Narrow key space (512) on a table that grows to a few hundred slots:
    // plenty of probe-chain overlap, plenty of wrap-around at the array end.
    uint64_t key = rng.Below(512);
    switch (rng.Below(3)) {
      case 0:
        EXPECT_EQ(s.Insert(key), ref.insert(key).second);
        break;
      case 1:
        EXPECT_EQ(s.Erase(key), ref.erase(key) != 0);
        break;
      default:
        EXPECT_EQ(s.Contains(key), ref.count(key) != 0);
        break;
    }
    ASSERT_EQ(s.size(), ref.size());
  }
  // Final full sweep: everything the reference holds must be present.
  for (uint64_t key : ref) {
    ASSERT_TRUE(s.Contains(key)) << "lost key " << key << " after churn";
  }
}

// --- FlatTable --------------------------------------------------------------

TEST(FlatTable, GetOrInsertFindErase) {
  FlatTable<int> t;
  EXPECT_EQ(t.Find(7), nullptr);
  t.GetOrInsert(7) = 70;
  ASSERT_NE(t.Find(7), nullptr);
  EXPECT_EQ(*t.Find(7), 70);
  t.GetOrInsert(7) = 71;  // same slot
  EXPECT_EQ(*t.Find(7), 71);
  EXPECT_EQ(t.size(), 1u);
  EXPECT_TRUE(t.Erase(7));
  EXPECT_EQ(t.Find(7), nullptr);
  EXPECT_FALSE(t.Erase(7));
}

TEST(FlatTable, InsertReportsNewVsOverwrite) {
  FlatTable<int> t;
  EXPECT_TRUE(t.Insert(1, 10));
  EXPECT_FALSE(t.Insert(1, 11));
  EXPECT_EQ(*t.Find(1), 11);
}

TEST(FlatTable, RehashPreservesValues) {
  FlatTable<uint64_t> t;
  for (uint64_t i = 0; i < 5000; ++i) {
    t.GetOrInsert(i) = i * 3;
  }
  EXPECT_EQ(t.size(), 5000u);
  for (uint64_t i = 0; i < 5000; ++i) {
    ASSERT_NE(t.Find(i), nullptr);
    ASSERT_EQ(*t.Find(i), i * 3);
  }
}

TEST(FlatTable, EraseIfRemovesMatchingEntries) {
  FlatTable<int> t;
  for (uint64_t i = 0; i < 100; ++i) {
    t.GetOrInsert(i) = static_cast<int>(i % 2);
  }
  EXPECT_EQ(t.EraseIf([](uint64_t, const int& v) { return v == 1; }), 50u);
  EXPECT_EQ(t.size(), 50u);
  t.ForEach([](uint64_t key, const int& v) {
    EXPECT_EQ(v, 0);
    EXPECT_EQ(key % 2, 0u);
  });
}

TEST(FlatTable, ChurnMatchesStdReference) {
  lxfi::Rng rng(77);
  FlatTable<uint32_t> t;
  std::unordered_map<uint64_t, uint32_t> ref;
  for (int step = 0; step < 200000; ++step) {
    uint64_t key = rng.Below(384);
    switch (rng.Below(4)) {
      case 0:
      case 1: {
        auto value = static_cast<uint32_t>(rng.Below(1u << 30));
        t.GetOrInsert(key) = value;
        ref[key] = value;
        break;
      }
      case 2:
        EXPECT_EQ(t.Erase(key), ref.erase(key) != 0);
        break;
      default: {
        auto it = ref.find(key);
        const uint32_t* found = t.Find(key);
        if (it == ref.end()) {
          ASSERT_EQ(found, nullptr);
        } else {
          ASSERT_NE(found, nullptr);
          ASSERT_EQ(*found, it->second);
        }
        break;
      }
    }
    ASSERT_EQ(t.size(), ref.size());
  }
  for (const auto& [key, value] : ref) {
    const uint32_t* found = t.Find(key);
    ASSERT_NE(found, nullptr) << "lost key " << key << " after churn";
    ASSERT_EQ(*found, value);
  }
}

// SmallVector values inside FlatTable slots must survive the moves done by
// rehash and backward-shift erase (the CapTable/WriterSet configuration).
TEST(FlatTable, SmallVectorValuesSurviveChurn) {
  lxfi::Rng rng(5);
  FlatTable<SmallVector<uint64_t, 2>> t;
  std::unordered_map<uint64_t, std::vector<uint64_t>> ref;
  for (int step = 0; step < 50000; ++step) {
    uint64_t key = rng.Below(256);
    if (rng.Below(3) != 0) {
      uint64_t value = rng.Below(1000);
      t.GetOrInsert(key).push_back(value);
      ref[key].push_back(value);
    } else {
      t.Erase(key);
      ref.erase(key);
    }
  }
  ASSERT_EQ(t.size(), ref.size());
  for (const auto& [key, expect] : ref) {
    const SmallVector<uint64_t, 2>* got = t.Find(key);
    ASSERT_NE(got, nullptr);
    ASSERT_EQ(got->size(), expect.size());
    for (size_t i = 0; i < expect.size(); ++i) {
      ASSERT_EQ((*got)[i], expect[i]);
    }
  }
}

}  // namespace
