// Unit and property tests for the flat enforcement containers
// (src/base/flat_table.h, src/base/small_vector.h).
#include <gtest/gtest.h>

#include <algorithm>
#include <ostream>
#include <string>
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

// --- Both probe bodies -------------------------------------------------------
//
// Every flat container picks its probe body itself: the plain windowed loop
// without a reclaimer, the seqlock-validated walk once one is attached. The
// std-reference churn tests below run each container in both configurations,
// so a fault in either body (or in the shared key array, erase and rehash
// underneath them) fails its own arm.

struct ProbeBody {
  const char* name;
  bool reclaimer;
};

class FlatChurn : public ::testing::TestWithParam<ProbeBody> {
 protected:
  template <typename Table>
  void Configure(Table& t) const {
    if (GetParam().reclaimer) {
      t.SetReclaimer(&lxfi::EpochReclaimer::Global());
    }
  }
};

void PrintTo(const ProbeBody& body, std::ostream* os) { *os << body.name; }

// `n` distinct keys for the churn tests: 0 (the side slot) plus random
// 64-bit keys. Small sequential keys would not do: Fibonacci hashing
// spreads them almost perfectly, so their probe chains never grow past the
// first window and a fault in a later lane would go unseen.
std::vector<uint64_t> KeyPool(size_t n, uint64_t seed) {
  lxfi::Rng rng(seed);
  std::unordered_set<uint64_t> seen{0};
  std::vector<uint64_t> keys{0};
  while (keys.size() < n) {
    uint64_t key = rng.Next();
    if (seen.insert(key).second) {
      keys.push_back(key);
    }
  }
  return keys;
}

INSTANTIATE_TEST_SUITE_P(Probes, FlatChurn,
                         ::testing::Values(ProbeBody{"Plain", false},
                                           ProbeBody{"Validated", true}),
                         [](const ::testing::TestParamInfo<ProbeBody>& info) {
                           return std::string(info.param.name);
                         });

// Deletion-heavy churn: backward-shift erase must keep every remaining key
// findable. This is the workload tombstone schemes degrade on and the one
// that catches shift bugs (keys displaced across the erased slot).
TEST_P(FlatChurn, SetMatchesStdReference) {
  lxfi::Rng rng(1234);
  FlatSet s;
  Configure(s);
  std::unordered_set<uint64_t> ref;
  const std::vector<uint64_t> keys = KeyPool(512, 99);
  for (int step = 0; step < 200000; ++step) {
    // Narrow key space (512) on a table that grows to a few hundred slots:
    // plenty of probe-chain overlap, plenty of wrap-around at the array end.
    uint64_t key = keys[rng.Below(keys.size())];
    switch (rng.Below(3)) {
      case 0:
        EXPECT_EQ(s.Insert(key), ref.insert(key).second);
        break;
      case 1:
        EXPECT_EQ(s.Erase(key), ref.erase(key) != 0);
        break;
      default:
        ASSERT_EQ(s.Contains(key), ref.count(key) != 0) << "key " << key << " at step " << step;
        break;
    }
    ASSERT_EQ(s.size(), ref.size());
  }
  // Final full sweep: everything the reference holds must be present.
  for (uint64_t key : ref) {
    ASSERT_TRUE(s.Contains(key)) << "lost key " << key << " after churn";
  }
  s.Clear();
  EXPECT_TRUE(s.empty());
  EXPECT_FALSE(s.Contains(ref.empty() ? 1 : *ref.begin()));
}

TEST_P(FlatChurn, TableMatchesStdReference) {
  lxfi::Rng rng(77);
  FlatTable<uint64_t> t;
  Configure(t);
  std::unordered_map<uint64_t, uint64_t> ref;
  const std::vector<uint64_t> keys = KeyPool(384, 7);
  for (int step = 0; step < 200000; ++step) {
    uint64_t key = keys[rng.Below(keys.size())];
    switch (rng.Below(4)) {
      case 0: {
        uint64_t value = rng.Below(1u << 30);
        t.GetOrInsert(key) = value;
        ref[key] = value;
        break;
      }
      case 1: {
        uint64_t value = rng.Below(1u << 30);
        EXPECT_EQ(t.Insert(key, value), ref.count(key) == 0);
        ref[key] = value;
        break;
      }
      case 2:
        EXPECT_EQ(t.Erase(key), ref.erase(key) != 0);
        break;
      default: {
        auto it = ref.find(key);
        const uint64_t* found = t.Find(key);
        uint64_t loaded = 0;
        bool loaded_ok = t.FindValueConcurrent(key, &loaded);
        ASSERT_EQ(t.Contains(key), it != ref.end()) << "key " << key << " at step " << step;
        if (it == ref.end()) {
          ASSERT_EQ(found, nullptr);
          ASSERT_FALSE(loaded_ok);
        } else {
          ASSERT_NE(found, nullptr);
          ASSERT_EQ(*found, it->second);
          ASSERT_TRUE(loaded_ok);
          ASSERT_EQ(loaded, it->second);
        }
        break;
      }
    }
    ASSERT_EQ(t.size(), ref.size());
  }
  for (const auto& [key, value] : ref) {
    const uint64_t* found = t.Find(key);
    ASSERT_NE(found, nullptr) << "lost key " << key << " after churn";
    ASSERT_EQ(*found, value);
    ASSERT_TRUE(t.Contains(key));
  }
}

// FlatRangeMap against a naive range list: containment (the store-guard
// probe, FindContaining) and overlap (the revoke pre-filter, AnyOverlap)
// over duplicate keys, exact-match erase and rehash.
TEST_P(FlatChurn, RangeMapMatchesNaiveRangeList) {
  struct Entry {
    uint64_t key;
    uintptr_t lo;
    uintptr_t hi;
    bool operator==(const Entry& o) const { return key == o.key && lo == o.lo && hi == o.hi; }
  };
  lxfi::Rng rng(4242);
  lxfi::FlatRangeMap m;
  Configure(m);
  std::vector<Entry> ref;
  auto random_range = [&rng](uintptr_t* lo, uintptr_t* hi) {
    *lo = 0x1000 + rng.Below(256) * 8;
    *hi = *lo + 8 + rng.Below(64) * 8;
  };
  for (int step = 0; step < 100000; ++step) {
    // Few keys, many ranges per key: long same-key probe chains.
    uint64_t key = 1 + rng.Below(32);
    uintptr_t lo;
    uintptr_t hi;
    random_range(&lo, &hi);
    switch (rng.Below(8)) {
      case 0:
      case 1: {
        bool fresh = std::find(ref.begin(), ref.end(), Entry{key, lo, hi}) == ref.end();
        EXPECT_EQ(m.Insert(key, lo, hi), fresh);
        if (fresh) {
          ref.push_back(Entry{key, lo, hi});
        }
        break;
      }
      case 2:
      case 3:
        // Erasing a held range as often as inserting keeps the live set a
        // few hundred ranges (a few per key), so probes both hit and miss.
        if (!ref.empty()) {
          size_t victim = rng.Below(ref.size());
          Entry e = ref[victim];
          ASSERT_TRUE(m.EraseExact(e.key, e.lo, e.hi));
          ref.erase(ref.begin() + static_cast<ptrdiff_t>(victim));
        }
        break;
      case 4: {
        auto it = std::find(ref.begin(), ref.end(), Entry{key, lo, hi});
        EXPECT_EQ(m.EraseExact(key, lo, hi), it != ref.end());
        if (it != ref.end()) {
          ref.erase(it);
        }
        break;
      }
      default: {
        // Store-sized queries, so containment both holds and fails.
        lo = 0x1000 + rng.Below(320) * 8;
        hi = lo + 8 * (1 + rng.Below(8));
        bool contains = false;
        bool overlaps = false;
        for (const Entry& e : ref) {
          if (e.key == key) {
            contains |= e.lo <= lo && hi <= e.hi;
            overlaps |= e.lo < hi && lo < e.hi;
          }
        }
        ASSERT_EQ(m.FindContaining(key, lo, hi), contains)
            << "key " << key << " [" << lo << ", " << hi << ") at step " << step;
        ASSERT_EQ(m.AnyOverlap(key, lo, hi), overlaps)
            << "key " << key << " [" << lo << ", " << hi << ") at step " << step;
        break;
      }
    }
    ASSERT_EQ(m.size(), ref.size());
  }
  for (const Entry& e : ref) {
    ASSERT_TRUE(m.FindContaining(e.key, e.lo, e.hi)) << "lost range under key " << e.key;
  }
  m.Clear();
  EXPECT_TRUE(m.empty());
  EXPECT_FALSE(m.AnyOverlap(1, 0, ~uintptr_t{0}));
}

}  // namespace
