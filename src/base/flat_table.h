// Open-addressing hash containers for the enforcement hot path.
//
// FlatTable maps uint64_t keys to values; FlatSet is the value-less variant.
// Layout and policy are chosen for the reference monitor's access pattern —
// a successful lookup on every module store and kernel indirect call:
//
//   * the key array doubles as the occupancy map (0 = empty; the rare
//     genuine zero key lives in a dedicated side slot), so probing touches
//     one contiguous array — not a control-byte load plus a key load from
//     two arrays, and not std::unordered_map's bucket-pointer plus
//     heap-node chase;
//   * Fibonacci (multiplicative) hashing: index = (key * φ⁻¹·2⁶⁴) >> shift.
//     One multiply, no division (libstdc++ buckets pay a hardware div per
//     lookup for their prime modulo), and sequential keys — page numbers of
//     a module's working set — scatter instead of clustering;
//   * branchless 4-slot probe windows: each round issues four independent
//     key loads and OR-combines the compares, so the loop branch depends
//     only on hit vs miss — which is stable on enforcement paths (legal
//     stores hit, probes for absent keys miss) — never on the per-key
//     probe length, which is what makes a naive one-slot-at-a-time probe
//     loop mispredict its way to unordered_map speeds. A 3-slot mirrored
//     tail (slots 0..2 replicated past the end) lets windows read through
//     the wraparound without masking each lane;
//   * linear probing at ≤0.5 load, erased by backward shift (no
//     tombstones): deletion-heavy churn (grant/revoke cycles, module
//     unload) re-packs probe windows in place and never degrades them the
//     way tombstone schemes do. Backward shift also keeps the window scan
//     sound: a live key can never sit on the far side of an empty slot
//     from its home, so "any lane matches" is exactly "present";
//   * values sit in their own array and are only touched after a key hit,
//     keeping the probe loop's cache footprint at one word per slot.
//
// SMP read-mostly mode (the seqlock read path): geometry and slot storage
// live in one heap-allocated Rep published through an atomic pointer, so a
// lock-free reader always sees a self-consistent {array, mask, shift}
// triple even while a writer rehashes. The *Concurrent probes validate a
// SeqCount around relaxed-atomic slot loads and retry if a writer
// intervened; writers (serialized externally, e.g. by the per-principal
// Spinlock) bump the SeqCount around every mutation and — when a reclaimer
// is attached via SetReclaimer — retire replaced Reps through the
// quiescent-state EpochReclaimer instead of freeing them, so a reader still
// probing a superseded array never touches freed memory. Without a
// reclaimer (the default, single-threaded configuration) nothing changes:
// plain probes, immediate frees, no atomics on the hot loop.
//
// Keys are restricted to uint64_t because every enforcement key already is
// one (bucket index, page number, text address, interned REF hash).
#pragma once

#include <cstddef>
#include <cstdint>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "src/base/compiler.h"
#include "src/base/sync.h"

namespace lxfi {

namespace flat_internal {

inline constexpr size_t kMinCapacity = 8;
inline constexpr uint64_t kGolden = 0x9e3779b97f4a7c15ull;  // 2^64 / φ
// Probe window: 4 slots compared per round, branchlessly. The key array
// carries kWindow-1 mirror slots past the end so a window never needs
// per-lane wraparound masking.
inline constexpr size_t kWindow = 4;

// Grow at 1/2 load: with power-of-two growth the live load factor stays in
// (0.25, 0.5], keeping linear-probe chains well inside one or two windows.
inline constexpr bool NeedsGrow(size_t size_after_insert, size_t capacity) {
  return size_after_insert * 2 > capacity;
}

// Relaxed-atomic slot accessors. On the write side every slot store goes
// through RelaxedStore so concurrent seqlock readers race only with atomics
// (TSan-clean); RelaxedLoad is used by the concurrent probes. Both compile
// to plain moves on x86/arm64, so the single-threaded paths cost nothing.
inline uint64_t RelaxedLoad(const uint64_t* p) { return __atomic_load_n(p, __ATOMIC_RELAXED); }
inline void RelaxedStore(uint64_t* p, uint64_t v) { __atomic_store_n(p, v, __ATOMIC_RELAXED); }

template <typename Rep>
inline const Rep* AcquireRep(Rep* const* slot) {
  return __atomic_load_n(slot, __ATOMIC_ACQUIRE);
}

template <typename Rep>
inline void PublishRep(Rep** slot, Rep* rep) {
  __atomic_store_n(slot, rep, __ATOMIC_RELEASE);
}

}  // namespace flat_internal

template <typename V>
class FlatTable {
  // Slot storage (geometry + arrays) for one capacity generation. Geometry
  // is immutable after construction; only slot contents mutate in place.
  // The key array lives inline after the header (one load resolves rep and
  // the array base together), so probe depth matches a direct member array;
  // the value array is only touched after a key hit and may stay a vector.
  struct Rep {
    size_t cap;
    size_t mask;
    unsigned shift;
    std::vector<V> vals;  // cap slots

    uint64_t* keys() { return reinterpret_cast<uint64_t*>(this + 1); }
    const uint64_t* keys() const { return reinterpret_cast<const uint64_t*>(this + 1); }

    static Rep* Make(size_t capacity) {
      size_t nkeys = capacity + flat_internal::kWindow - 1;
      void* mem = ::operator new(sizeof(Rep) + nkeys * sizeof(uint64_t));
      Rep* rep = new (mem) Rep();
      rep->cap = capacity;
      rep->mask = capacity - 1;
      rep->shift = 64 - static_cast<unsigned>(__builtin_ctzll(capacity));
      rep->vals.resize(capacity);
      for (size_t i = 0; i < nkeys; ++i) {
        rep->keys()[i] = 0;
      }
      return rep;
    }
    static void Destroy(Rep* rep) {
      rep->~Rep();
      ::operator delete(rep);
    }
  };

 public:
  FlatTable() = default;
  ~FlatTable() { DisposeRep(rep_); }

  FlatTable(const FlatTable&) = delete;
  FlatTable& operator=(const FlatTable&) = delete;

  size_t size() const { return size_ + (HasZero() ? 1 : 0); }
  bool empty() const { return size() == 0; }
  size_t capacity() const { return rep_ == nullptr ? 0 : rep_->cap; }

  // Attaches the grace-period reclaimer: replaced slot arrays are retired
  // instead of freed, which is what makes the *Concurrent probes safe
  // against rehash. Set once, before any concurrent reader exists.
  void SetReclaimer(EpochReclaimer* reclaimer) { reclaimer_ = reclaimer; }

  void Clear() {
    seq_.WriteBegin();
    Rep* old = rep_;
    flat_internal::PublishRep(&rep_, static_cast<Rep*>(nullptr));
    size_ = 0;
    SetHasZero(false);
    zero_val_ = V{};
    seq_.WriteEnd();
    DisposeRep(old);
  }

  V* Find(uint64_t key) {
    if (LXFI_UNLIKELY(key == 0)) {
      return HasZero() ? &zero_val_ : nullptr;
    }
    if (size_ == 0) {
      return nullptr;
    }
    Rep* rep = rep_;
    const uint64_t* keys = rep->keys();
    const size_t mask = rep->mask;
    size_t i = IndexOf(rep, key);
    while (true) {
      const uint64_t* w = keys + i;
      uint64_t c0 = w[0], c1 = w[1], c2 = w[2], c3 = w[3];
      if (LXFI_LIKELY((c0 == key) | (c1 == key) | (c2 == key) | (c3 == key))) {
        // Arithmetic lane select: which lane matched is random per query, so
        // this must not become a branch tree (it would mispredict per hit).
        size_t n0 = c0 != key, n01 = n0 & (c1 != key), n012 = n01 & (c2 != key);
        return &rep->vals[(i + n0 + n01 + n012) & mask];
      }
      if ((c0 == 0) | (c1 == 0) | (c2 == 0) | (c3 == 0)) {
        return nullptr;
      }
      i = (i + flat_internal::kWindow) & mask;
    }
  }

  const V* Find(uint64_t key) const { return const_cast<FlatTable*>(this)->Find(key); }

  bool Contains(uint64_t key) const { return Find(key) != nullptr; }

  // Lock-free key-presence probe for concurrent readers (seqlock protocol;
  // see file comment). Requires a reclaimer to be attached if writers can
  // rehash concurrently.
  bool ContainsConcurrent(uint64_t key) const {
    if (LXFI_UNLIKELY(key == 0)) {
      return __atomic_load_n(&has_zero_, __ATOMIC_RELAXED);
    }
    while (true) {
      uint64_t s = seq_.ReadBegin();
      const Rep* rep = flat_internal::AcquireRep(&rep_);
      if (rep == nullptr) {
        if (seq_.ReadValidate(s)) {
          return false;
        }
        continue;
      }
      int found = ProbeKeyConcurrent(rep, key);
      if (found >= 0 && seq_.ReadValidate(s)) {
        return found == 1;
      }
      CpuRelax();
    }
  }

  // Lock-free lookup of a pointer-sized trivially copyable value (e.g. the
  // instance-principal map, the dcache per-parent child index). Returns
  // false when absent. `retries`, when non-null, counts seqlock validation
  // failures (reads that overlapped a writer and looped) — the dcache storm
  // test uses it to prove the retry path is actually exercised.
  bool FindValueConcurrent(uint64_t key, V* out, RelaxedCell* retries = nullptr) const {
    static_assert(std::is_trivially_copyable_v<V> && sizeof(V) == sizeof(uint64_t),
                  "concurrent value loads require word-sized trivially copyable values");
    if (LXFI_UNLIKELY(key == 0)) {
      if (!__atomic_load_n(&has_zero_, __ATOMIC_RELAXED)) {
        return false;
      }
      uint64_t raw = flat_internal::RelaxedLoad(reinterpret_cast<const uint64_t*>(&zero_val_));
      __builtin_memcpy(out, &raw, sizeof(V));
      return true;
    }
    while (true) {
      uint64_t s = seq_.ReadBegin();
      const Rep* rep = flat_internal::AcquireRep(&rep_);
      if (rep == nullptr) {
        if (seq_.ReadValidate(s)) {
          return false;
        }
        if (retries != nullptr) {
          ++*retries;
        }
        continue;
      }
      const uint64_t* keys = rep->keys();
      const size_t mask = rep->mask;
      size_t i = IndexOf(rep, key);
      uint64_t raw = 0;
      int found = -1;
      for (size_t steps = 0; steps <= rep->cap; ++steps) {
        uint64_t k = flat_internal::RelaxedLoad(keys + i);
        if (k == key) {
          raw = flat_internal::RelaxedLoad(reinterpret_cast<const uint64_t*>(&rep->vals[i]));
          found = 1;
          break;
        }
        if (k == 0) {
          found = 0;
          break;
        }
        i = (i + 1) & mask;
      }
      if (found >= 0 && seq_.ReadValidate(s)) {
        if (found == 1) {
          __builtin_memcpy(out, &raw, sizeof(V));
          return true;
        }
        return false;
      }
      if (retries != nullptr) {
        ++*retries;
      }
      CpuRelax();
    }
  }

  // Returns the value for `key`, inserting a default-constructed one first
  // if absent.
  V& GetOrInsert(uint64_t key) {
    if (key == 0) {
      SetHasZero(true);
      return zero_val_;
    }
    // Probe for an existing entry before considering growth, so a duplicate
    // insert at the load threshold stays a pure lookup.
    if (rep_ != nullptr) {
      size_t i = IndexOf(rep_, key);
      while (rep_->keys()[i] != 0) {
        if (rep_->keys()[i] == key) {
          return rep_->vals[i];
        }
        i = (i + 1) & rep_->mask;
      }
    }
    if (flat_internal::NeedsGrow(size_ + 1, capacity())) {
      Rehash(rep_ == nullptr ? flat_internal::kMinCapacity : rep_->cap * 2);
    }
    size_t i = IndexOf(rep_, key);
    while (rep_->keys()[i] != 0) {
      i = (i + 1) & rep_->mask;
    }
    seq_.WriteBegin();
    StoreKey(rep_, i, key);
    seq_.WriteEnd();
    ++size_;
    return rep_->vals[i];
  }

  // Inserts or overwrites; returns true if the key was newly inserted.
  // Value and key land in ONE seqlock write section: a two-section insert
  // (key published with a default value, value stored later) would let
  // FindValueConcurrent validate in the gap and return the default.
  bool Insert(uint64_t key, V value) {
    if (key == 0) {
      bool added = !HasZero();
      seq_.WriteBegin();
      StoreVal(&zero_val_, std::move(value));
      SetHasZero(true);
      seq_.WriteEnd();
      return added;
    }
    if (rep_ != nullptr) {
      size_t i = IndexOf(rep_, key);
      while (rep_->keys()[i] != 0) {
        if (rep_->keys()[i] == key) {
          seq_.WriteBegin();
          StoreVal(&rep_->vals[i], std::move(value));
          seq_.WriteEnd();
          return false;
        }
        i = (i + 1) & rep_->mask;
      }
    }
    if (flat_internal::NeedsGrow(size_ + 1, capacity())) {
      Rehash(rep_ == nullptr ? flat_internal::kMinCapacity : rep_->cap * 2);
    }
    size_t i = IndexOf(rep_, key);
    while (rep_->keys()[i] != 0) {
      i = (i + 1) & rep_->mask;
    }
    seq_.WriteBegin();
    StoreVal(&rep_->vals[i], std::move(value));
    StoreKey(rep_, i, key);
    seq_.WriteEnd();
    ++size_;
    return true;
  }

  // Backward-shift erase: removes `key` and re-packs the probe window so no
  // tombstone is left behind. Returns true if the key was present.
  bool Erase(uint64_t key) {
    if (key == 0) {
      if (!HasZero()) {
        return false;
      }
      seq_.WriteBegin();
      SetHasZero(false);
      zero_val_ = V{};
      seq_.WriteEnd();
      return true;
    }
    if (size_ == 0) {
      return false;
    }
    Rep* rep = rep_;
    size_t i = IndexOf(rep, key);
    while (true) {
      if (rep->keys()[i] == key) {
        break;
      }
      if (rep->keys()[i] == 0) {
        return false;
      }
      i = (i + 1) & rep->mask;
    }
    seq_.WriteBegin();
    size_t hole = i;
    while (true) {
      i = (i + 1) & rep->mask;
      if (rep->keys()[i] == 0) {
        break;
      }
      // The entry at i may move into the hole iff doing so does not place it
      // before its ideal slot in probe order.
      size_t ideal = IndexOf(rep, rep->keys()[i]);
      if (((i - ideal) & rep->mask) >= ((i - hole) & rep->mask)) {
        StoreKey(rep, hole, rep->keys()[i]);
        MoveVal(&rep->vals[hole], &rep->vals[i]);
        hole = i;
      }
    }
    StoreKey(rep, hole, 0);
    StoreVal(&rep->vals[hole], V{});
    seq_.WriteEnd();
    --size_;
    return true;
  }

  // Visits every (key, value); order is unspecified. `fn` must not mutate
  // the table.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    if (HasZero()) {
      fn(uint64_t{0}, zero_val_);
    }
    if (rep_ == nullptr) {
      return;
    }
    for (size_t i = 0; i < rep_->cap; ++i) {
      if (rep_->keys()[i] != 0) {
        fn(rep_->keys()[i], rep_->vals[i]);
      }
    }
  }

  // Visits every (key, value&); `fn` may mutate values but not insert/erase.
  template <typename Fn>
  void ForEachMut(Fn&& fn) {
    if (HasZero()) {
      fn(uint64_t{0}, zero_val_);
    }
    if (rep_ == nullptr) {
      return;
    }
    for (size_t i = 0; i < rep_->cap; ++i) {
      if (rep_->keys()[i] != 0) {
        fn(rep_->keys()[i], rep_->vals[i]);
      }
    }
  }

  // Erases every entry for which `pred(key, value)` is true; returns the
  // number erased. (Collect-then-erase so backward shifts cannot skip or
  // revisit live entries mid-scan.)
  template <typename Pred>
  size_t EraseIf(Pred&& pred) {
    std::vector<uint64_t> victims;
    ForEach([&](uint64_t key, const V& value) {
      if (pred(key, value)) {
        victims.push_back(key);
      }
    });
    for (uint64_t key : victims) {
      Erase(key);
    }
    return victims.size();
  }

 private:
  static size_t IndexOf(const Rep* rep, uint64_t key) {
    return static_cast<size_t>((key * flat_internal::kGolden) >> rep->shift);
  }

  bool HasZero() const { return has_zero_; }
  void SetHasZero(bool v) { __atomic_store_n(&has_zero_, v, __ATOMIC_RELAXED); }

  // All key writes go through here to keep the mirrored tail coherent.
  static void StoreKey(Rep* rep, size_t i, uint64_t v) {
    flat_internal::RelaxedStore(rep->keys() + i, v);
    if (i < flat_internal::kWindow - 1) {
      flat_internal::RelaxedStore(rep->keys() + rep->cap + i, v);
    }
  }

  // Value stores: atomic for word-sized trivially copyable values (the kinds
  // FindValueConcurrent may race with), plain otherwise.
  static void StoreVal(V* dst, V v) {
    if constexpr (std::is_trivially_copyable_v<V> && sizeof(V) == sizeof(uint64_t)) {
      uint64_t raw;
      __builtin_memcpy(&raw, &v, sizeof(V));
      flat_internal::RelaxedStore(reinterpret_cast<uint64_t*>(dst), raw);
    } else {
      *dst = std::move(v);
    }
  }

  static void MoveVal(V* dst, V* src) {
    if constexpr (std::is_trivially_copyable_v<V> && sizeof(V) == sizeof(uint64_t)) {
      StoreVal(dst, *src);
    } else {
      *dst = std::move(*src);
    }
  }

  // Keys-only concurrent window probe: 1 found, 0 absent, -1 overran the
  // table (torn state; caller revalidates and retries).
  static int ProbeKeyConcurrent(const Rep* rep, uint64_t key) {
    const uint64_t* keys = rep->keys();
    const size_t mask = rep->mask;
    size_t i = (key * flat_internal::kGolden) >> rep->shift;
    for (size_t steps = 0; steps <= rep->cap; steps += flat_internal::kWindow) {
      uint64_t c0 = flat_internal::RelaxedLoad(keys + i);
      uint64_t c1 = flat_internal::RelaxedLoad(keys + i + 1);
      uint64_t c2 = flat_internal::RelaxedLoad(keys + i + 2);
      uint64_t c3 = flat_internal::RelaxedLoad(keys + i + 3);
      if ((c0 == key) | (c1 == key) | (c2 == key) | (c3 == key)) {
        return 1;
      }
      if ((c0 == 0) | (c1 == 0) | (c2 == 0) | (c3 == 0)) {
        return 0;
      }
      i = (i + flat_internal::kWindow) & mask;
    }
    return -1;
  }

  void Rehash(size_t new_cap) {
    Rep* old = rep_;
    Rep* fresh = Rep::Make(new_cap);
    size_ = 0;
    if (old != nullptr) {
      for (size_t i = 0; i < old->cap; ++i) {
        if (old->keys()[i] != 0) {
          size_t j = IndexOf(fresh, old->keys()[i]);
          while (fresh->keys()[j] != 0) {
            j = (j + 1) & fresh->mask;
          }
          StoreKey(fresh, j, old->keys()[i]);
          fresh->vals[j] = std::move(old->vals[i]);
          ++size_;
        }
      }
    }
    seq_.WriteBegin();
    flat_internal::PublishRep(&rep_, fresh);
    seq_.WriteEnd();
    DisposeRep(old);
  }

  void DisposeRep(Rep* rep) {
    if (rep == nullptr) {
      return;
    }
    if (reclaimer_ != nullptr) {
      reclaimer_->Retire([rep] { Rep::Destroy(rep); });
    } else {
      Rep::Destroy(rep);
    }
  }

  Rep* rep_ = nullptr;
  size_t size_ = 0;  // non-zero-key entries
  bool has_zero_ = false;
  V zero_val_{};
  SeqCount seq_;
  EpochReclaimer* reclaimer_ = nullptr;
};

// Same-hash collision chains over FlatTable<T*> values (the dcache child
// index, the VFS mount table and filesystem-type registry): entries carry
// an intrusive next pointer, the table maps hash -> chain head. Writers
// are externally serialized; readers traverse lock-free after a validated
// FindValueConcurrent probe, so the next links are accessed with relaxed
// atomics on both sides. The publish ordering is load-bearing: an insert
// points the new entry at the old head BEFORE the table insert publishes
// it, so a reader that wins the race still sees a complete chain; an
// unlinked entry must then be epoch-retired, never freed in place.
namespace flat_chain {

template <typename T>
T* Next(T* const* p) {
  return __atomic_load_n(p, __ATOMIC_RELAXED);
}

template <typename T>
void SetNext(T** p, T* v) {
  __atomic_store_n(p, v, __ATOMIC_RELAXED);
}

// NextPtr is the entry type's intrusive next member (e.g.
// &Dentry::hash_next). Caller holds the table's writer lock.
template <auto NextPtr, typename T>
void InsertLocked(FlatTable<T*>& table, uint64_t h, T* e) {
  T* const* headp = table.Find(h);
  SetNext(&(e->*NextPtr), headp != nullptr ? *headp : nullptr);
  table.Insert(h, e);
}

template <auto NextPtr, typename T>
void UnlinkLocked(FlatTable<T*>& table, uint64_t h, T* e) {
  T* const* headp = table.Find(h);
  if (headp == nullptr) {
    return;
  }
  if (*headp == e) {
    T* next = Next(&(e->*NextPtr));
    if (next != nullptr) {
      table.Insert(h, next);  // head replacement: one seqlock write section
    } else {
      table.Erase(h);
    }
    return;
  }
  for (T* p = *headp; p != nullptr; p = Next(&(p->*NextPtr))) {
    if (Next(&(p->*NextPtr)) == e) {
      SetNext(&(p->*NextPtr), Next(&(e->*NextPtr)));
      return;
    }
  }
}

}  // namespace flat_chain

// Interleaved open-addressing multimap from a key to address ranges
// [lo, hi), specialized for the WRITE-capability hot path: the key and the
// range live in the same 32-byte slot, so a containment check needs no
// second dependent load into a separate value array — the load that
// resolves the key also delivers the range (the property that makes
// std::unordered_map's key-adjacent nodes fast, without the heap chase).
//
// Duplicate keys are allowed: a bucket covered by several granted ranges
// simply owns several slots along one probe chain. Lookup tests containment
// on every key match and stops only at an empty slot; with backward-shift
// erase the "stop at empty" rule stays exact. Probing scans 2-slot windows
// branchlessly, with one mirror slot past the end for wraparound.
//
// Keys must be non-zero (0 marks an empty slot); CapTable passes
// bucket_index + 1.
class FlatRangeMap {
  struct Slot {
    uint64_t key;  // 0 = empty
    uintptr_t lo;
    uintptr_t hi;
  };

  // Header + inline slot array (cap slots + 1 mirror slot): one load
  // resolves geometry and array base together, matching the probe depth of
  // a direct member array.
  struct Rep {
    size_t cap;
    size_t mask;
    unsigned shift;

    Slot* slots() { return reinterpret_cast<Slot*>(this + 1); }
    const Slot* slots() const { return reinterpret_cast<const Slot*>(this + 1); }

    static Rep* Make(size_t capacity) {
      size_t nslots = capacity + 1;
      void* mem = ::operator new(sizeof(Rep) + nslots * sizeof(Slot));
      Rep* rep = new (mem) Rep();
      rep->cap = capacity;
      rep->mask = capacity - 1;
      rep->shift = 64 - static_cast<unsigned>(__builtin_ctzll(capacity));
      for (size_t i = 0; i < nslots; ++i) {
        rep->slots()[i] = Slot{0, 0, 0};
      }
      return rep;
    }
    static void Destroy(Rep* rep) {
      rep->~Rep();
      ::operator delete(rep);
    }
  };

 public:
  FlatRangeMap() = default;
  ~FlatRangeMap() { DisposeRep(rep_); }

  FlatRangeMap(const FlatRangeMap&) = delete;
  FlatRangeMap& operator=(const FlatRangeMap&) = delete;

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  size_t capacity() const { return rep_ == nullptr ? 0 : rep_->cap; }

  void SetReclaimer(EpochReclaimer* reclaimer) { reclaimer_ = reclaimer; }

  void Clear() {
    seq_.WriteBegin();
    Rep* old = rep_;
    flat_internal::PublishRep(&rep_, static_cast<Rep*>(nullptr));
    size_ = 0;
    seq_.WriteEnd();
    DisposeRep(old);
  }

  // True iff some range stored under `key` fully contains [addr, end).
  bool FindContaining(uint64_t key, uintptr_t addr, uintptr_t end) const {
    if (size_ == 0) {
      return false;
    }
    const Rep* rep = rep_;
    const Slot* s = rep->slots();
    const size_t mask = rep->mask;
    size_t i = IndexOf(rep, key);
    while (true) {
      const Slot& s0 = s[i];
      const Slot& s1 = s[i + 1];
      // Match lanes first: a slot at its home position may legitimately sit
      // one past an empty slot within the window. A key match without
      // containment is not a hit — another range for the same bucket may
      // follow on the probe chain.
      if (LXFI_LIKELY((s0.key == key) & (s0.lo <= addr) & (end <= s0.hi))) {
        return true;
      }
      if ((s1.key == key) & (s1.lo <= addr) & (end <= s1.hi)) {
        return true;
      }
      if ((s0.key == 0) | (s1.key == 0)) {
        return false;
      }
      i = (i + 2) & mask;
    }
  }

  // Seqlock-validated lock-free variant of FindContaining for concurrent
  // readers (the SMP store-guard slow path).
  bool FindContainingConcurrent(uint64_t key, uintptr_t addr, uintptr_t end) const {
    return ProbeValidated(key, addr, end, /*containment=*/true);
  }

  // True iff any range stored under `key` overlaps [addr, end). Lock-free;
  // used as the revoke pre-filter so RevokeEverywhere does not need to lock
  // principals that cannot hold the capability.
  bool AnyOverlapConcurrent(uint64_t key, uintptr_t addr, uintptr_t end) const {
    return ProbeValidated(key, addr, end, /*containment=*/false);
  }

  // Inserts (key, [lo, hi)); exact duplicates are ignored. Returns true if
  // a slot was added.
  bool Insert(uint64_t key, uintptr_t lo, uintptr_t hi) {
    // Probe for an exact duplicate before considering growth, so a repeat
    // grant at the load threshold stays a pure lookup.
    if (rep_ != nullptr) {
      size_t i = IndexOf(rep_, key);
      while (rep_->slots()[i].key != 0) {
        if (rep_->slots()[i].key == key && rep_->slots()[i].lo == lo && rep_->slots()[i].hi == hi) {
          return false;
        }
        i = (i + 1) & rep_->mask;
      }
    }
    if (flat_internal::NeedsGrow(size_ + 1, capacity())) {
      Rehash(rep_ == nullptr ? flat_internal::kMinCapacity : rep_->cap * 2);
    }
    size_t i = IndexOf(rep_, key);
    while (rep_->slots()[i].key != 0) {
      i = (i + 1) & rep_->mask;
    }
    seq_.WriteBegin();
    StoreSlot(rep_, i, Slot{key, lo, hi});
    seq_.WriteEnd();
    ++size_;
    return true;
  }

  // Removes the exact (key, [lo, hi)) slot; backward-shift re-pack.
  bool EraseExact(uint64_t key, uintptr_t lo, uintptr_t hi) {
    if (size_ == 0) {
      return false;
    }
    Rep* rep = rep_;
    size_t i = IndexOf(rep, key);
    while (true) {
      if (rep->slots()[i].key == 0) {
        return false;
      }
      if (rep->slots()[i].key == key && rep->slots()[i].lo == lo && rep->slots()[i].hi == hi) {
        break;
      }
      i = (i + 1) & rep->mask;
    }
    seq_.WriteBegin();
    size_t hole = i;
    while (true) {
      i = (i + 1) & rep->mask;
      if (rep->slots()[i].key == 0) {
        break;
      }
      size_t ideal = IndexOf(rep, rep->slots()[i].key);
      if (((i - ideal) & rep->mask) >= ((i - hole) & rep->mask)) {
        StoreSlot(rep, hole, rep->slots()[i]);
        hole = i;
      }
    }
    StoreSlot(rep, hole, Slot{0, 0, 0});
    seq_.WriteEnd();
    --size_;
    return true;
  }

  // Visits every range stored under `key` (duplicate-key chain walk).
  template <typename Fn>
  void ForEachWithKey(uint64_t key, Fn&& fn) const {
    if (size_ == 0) {
      return;
    }
    const Rep* rep = rep_;
    size_t i = IndexOf(rep, key);
    while (rep->slots()[i].key != 0) {
      if (rep->slots()[i].key == key) {
        fn(rep->slots()[i].lo, rep->slots()[i].hi);
      }
      i = (i + 1) & rep->mask;
    }
  }

  // Visits every (key, lo, hi) slot; order is unspecified.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    if (rep_ == nullptr) {
      return;
    }
    for (size_t i = 0; i < rep_->cap; ++i) {
      if (rep_->slots()[i].key != 0) {
        fn(rep_->slots()[i].key, rep_->slots()[i].lo, rep_->slots()[i].hi);
      }
    }
  }

 private:
  static size_t IndexOf(const Rep* rep, uint64_t key) {
    return static_cast<size_t>((key * flat_internal::kGolden) >> rep->shift);
  }

  static void StoreField(uintptr_t* p, uintptr_t v) {
    __atomic_store_n(p, v, __ATOMIC_RELAXED);
  }

  static void StoreSlot(Rep* rep, size_t i, Slot s) {
    // Field-wise relaxed stores: a concurrent reader may see a torn slot,
    // which the seqlock validation rejects; what matters is that every
    // access is atomic at word granularity.
    flat_internal::RelaxedStore(&rep->slots()[i].key, s.key);
    StoreField(&rep->slots()[i].lo, s.lo);
    StoreField(&rep->slots()[i].hi, s.hi);
    if (i == 0) {
      flat_internal::RelaxedStore(&rep->slots()[rep->cap].key, s.key);
      StoreField(&rep->slots()[rep->cap].lo, s.lo);
      StoreField(&rep->slots()[rep->cap].hi, s.hi);
    }
  }

  // Retries ProbeConcurrent until a pass validates against the seqlock.
  bool ProbeValidated(uint64_t key, uintptr_t addr, uintptr_t end, bool containment) const {
    while (true) {
      uint64_t s = seq_.ReadBegin();
      const Rep* rep = flat_internal::AcquireRep(&rep_);
      if (rep == nullptr) {
        if (seq_.ReadValidate(s)) {
          return false;
        }
        continue;
      }
      int found = ProbeConcurrent(rep, key, addr, end, containment);
      if (found >= 0 && seq_.ReadValidate(s)) {
        return found == 1;
      }
      CpuRelax();
    }
  }

  // 1 hit, 0 miss, -1 overran (torn state; caller retries). `containment`
  // asks for a range holding all of [addr, end), otherwise any overlap.
  static int ProbeConcurrent(const Rep* rep, uint64_t key, uintptr_t addr, uintptr_t end,
                             bool containment) {
    const Slot* s = rep->slots();
    const size_t mask = rep->mask;
    size_t i = IndexOf(rep, key);
    for (size_t steps = 0; steps <= rep->cap; ++steps) {
      uint64_t k = flat_internal::RelaxedLoad(&s[i].key);
      if (k == 0) {
        return 0;
      }
      if (k == key) {
        uintptr_t slo = __atomic_load_n(&s[i].lo, __ATOMIC_RELAXED);
        uintptr_t shi = __atomic_load_n(&s[i].hi, __ATOMIC_RELAXED);
        if (containment ? (slo <= addr) & (end <= shi) : (slo < end) & (addr < shi)) {
          return 1;
        }
      }
      i = (i + 1) & mask;
    }
    return -1;
  }

  void Rehash(size_t new_cap) {
    Rep* old = rep_;
    Rep* fresh = Rep::Make(new_cap);
    size_ = 0;
    if (old != nullptr) {
      for (size_t i = 0; i < old->cap; ++i) {
        if (old->slots()[i].key != 0) {
          size_t j = IndexOf(fresh, old->slots()[i].key);
          while (fresh->slots()[j].key != 0) {
            j = (j + 1) & fresh->mask;
          }
          StoreSlot(fresh, j, old->slots()[i]);
          ++size_;
        }
      }
    }
    seq_.WriteBegin();
    flat_internal::PublishRep(&rep_, fresh);
    seq_.WriteEnd();
    DisposeRep(old);
  }

  void DisposeRep(Rep* rep) {
    if (rep == nullptr) {
      return;
    }
    if (reclaimer_ != nullptr) {
      reclaimer_->Retire([rep] { Rep::Destroy(rep); });
    } else {
      Rep::Destroy(rep);
    }
  }

  Rep* rep_ = nullptr;
  size_t size_ = 0;
  SeqCount seq_;
  EpochReclaimer* reclaimer_ = nullptr;
};

// Value-less FlatTable: the CALL and REF capability sets.
class FlatSet {
  // Header + inline key array (cap + kWindow-1 mirror slots; 0 = empty).
  struct Rep {
    size_t cap;
    size_t mask;
    unsigned shift;

    uint64_t* keys() { return reinterpret_cast<uint64_t*>(this + 1); }
    const uint64_t* keys() const { return reinterpret_cast<const uint64_t*>(this + 1); }

    static Rep* Make(size_t capacity) {
      size_t nkeys = capacity + flat_internal::kWindow - 1;
      void* mem = ::operator new(sizeof(Rep) + nkeys * sizeof(uint64_t));
      Rep* rep = new (mem) Rep();
      rep->cap = capacity;
      rep->mask = capacity - 1;
      rep->shift = 64 - static_cast<unsigned>(__builtin_ctzll(capacity));
      for (size_t i = 0; i < nkeys; ++i) {
        rep->keys()[i] = 0;
      }
      return rep;
    }
    static void Destroy(Rep* rep) {
      rep->~Rep();
      ::operator delete(rep);
    }
  };

 public:
  FlatSet() = default;
  ~FlatSet() { DisposeRep(rep_); }

  FlatSet(const FlatSet&) = delete;
  FlatSet& operator=(const FlatSet&) = delete;

  size_t size() const { return size_ + (has_zero_ ? 1 : 0); }
  bool empty() const { return size() == 0; }
  size_t capacity() const { return rep_ == nullptr ? 0 : rep_->cap; }

  void SetReclaimer(EpochReclaimer* reclaimer) { reclaimer_ = reclaimer; }

  void Clear() {
    seq_.WriteBegin();
    Rep* old = rep_;
    flat_internal::PublishRep(&rep_, static_cast<Rep*>(nullptr));
    size_ = 0;
    __atomic_store_n(&has_zero_, false, __ATOMIC_RELAXED);
    seq_.WriteEnd();
    DisposeRep(old);
  }

  bool Contains(uint64_t key) const {
    if (LXFI_UNLIKELY(key == 0)) {
      return has_zero_;
    }
    if (size_ == 0) {
      return false;
    }
    const Rep* rep = rep_;
    const uint64_t* keys = rep->keys();
    const size_t mask = rep->mask;
    size_t i = IndexOf(rep, key);
    while (true) {
      const uint64_t* w = keys + i;
      uint64_t c0 = w[0], c1 = w[1], c2 = w[2], c3 = w[3];
      if (LXFI_LIKELY((c0 == key) | (c1 == key) | (c2 == key) | (c3 == key))) {
        return true;
      }
      if ((c0 == 0) | (c1 == 0) | (c2 == 0) | (c3 == 0)) {
        return false;
      }
      i = (i + flat_internal::kWindow) & mask;
    }
  }

  // Lock-free seqlock-validated probe for concurrent readers (the SMP CALL
  // check slow path and the revoke pre-filter).
  bool ContainsConcurrent(uint64_t key) const {
    if (LXFI_UNLIKELY(key == 0)) {
      return __atomic_load_n(&has_zero_, __ATOMIC_RELAXED);
    }
    while (true) {
      uint64_t s = seq_.ReadBegin();
      const Rep* rep = flat_internal::AcquireRep(&rep_);
      if (rep == nullptr) {
        if (seq_.ReadValidate(s)) {
          return false;
        }
        continue;
      }
      int found = ProbeKeyConcurrent(rep, key);
      if (found >= 0 && seq_.ReadValidate(s)) {
        return found == 1;
      }
      CpuRelax();
    }
  }

  // Returns true if the key was newly inserted.
  bool Insert(uint64_t key) {
    if (key == 0) {
      bool added = !has_zero_;
      __atomic_store_n(&has_zero_, true, __ATOMIC_RELAXED);
      return added;
    }
    // Probe for an existing key before considering growth, so a duplicate
    // insert at the load threshold stays a pure lookup.
    if (rep_ != nullptr) {
      size_t i = IndexOf(rep_, key);
      while (rep_->keys()[i] != 0) {
        if (rep_->keys()[i] == key) {
          return false;
        }
        i = (i + 1) & rep_->mask;
      }
    }
    if (flat_internal::NeedsGrow(size_ + 1, capacity())) {
      Rehash(rep_ == nullptr ? flat_internal::kMinCapacity : rep_->cap * 2);
    }
    size_t i = IndexOf(rep_, key);
    while (rep_->keys()[i] != 0) {
      i = (i + 1) & rep_->mask;
    }
    seq_.WriteBegin();
    StoreKey(rep_, i, key);
    seq_.WriteEnd();
    ++size_;
    return true;
  }

  bool Erase(uint64_t key) {
    if (key == 0) {
      bool had = has_zero_;
      __atomic_store_n(&has_zero_, false, __ATOMIC_RELAXED);
      return had;
    }
    if (size_ == 0) {
      return false;
    }
    Rep* rep = rep_;
    size_t i = IndexOf(rep, key);
    while (true) {
      if (rep->keys()[i] == key) {
        break;
      }
      if (rep->keys()[i] == 0) {
        return false;
      }
      i = (i + 1) & rep->mask;
    }
    seq_.WriteBegin();
    size_t hole = i;
    while (true) {
      i = (i + 1) & rep->mask;
      if (rep->keys()[i] == 0) {
        break;
      }
      size_t ideal = IndexOf(rep, rep->keys()[i]);
      if (((i - ideal) & rep->mask) >= ((i - hole) & rep->mask)) {
        StoreKey(rep, hole, rep->keys()[i]);
        hole = i;
      }
    }
    StoreKey(rep, hole, 0);
    seq_.WriteEnd();
    --size_;
    return true;
  }

  template <typename Fn>
  void ForEach(Fn&& fn) const {
    if (has_zero_) {
      fn(uint64_t{0});
    }
    if (rep_ == nullptr) {
      return;
    }
    for (size_t i = 0; i < rep_->cap; ++i) {
      if (rep_->keys()[i] != 0) {
        fn(rep_->keys()[i]);
      }
    }
  }

 private:
  static size_t IndexOf(const Rep* rep, uint64_t key) {
    return static_cast<size_t>((key * flat_internal::kGolden) >> rep->shift);
  }

  static void StoreKey(Rep* rep, size_t i, uint64_t v) {
    flat_internal::RelaxedStore(rep->keys() + i, v);
    if (i < flat_internal::kWindow - 1) {
      flat_internal::RelaxedStore(rep->keys() + rep->cap + i, v);
    }
  }

  static int ProbeKeyConcurrent(const Rep* rep, uint64_t key) {
    const uint64_t* keys = rep->keys();
    const size_t mask = rep->mask;
    size_t i = (key * flat_internal::kGolden) >> rep->shift;
    for (size_t steps = 0; steps <= rep->cap; steps += flat_internal::kWindow) {
      uint64_t c0 = flat_internal::RelaxedLoad(keys + i);
      uint64_t c1 = flat_internal::RelaxedLoad(keys + i + 1);
      uint64_t c2 = flat_internal::RelaxedLoad(keys + i + 2);
      uint64_t c3 = flat_internal::RelaxedLoad(keys + i + 3);
      if ((c0 == key) | (c1 == key) | (c2 == key) | (c3 == key)) {
        return 1;
      }
      if ((c0 == 0) | (c1 == 0) | (c2 == 0) | (c3 == 0)) {
        return 0;
      }
      i = (i + flat_internal::kWindow) & mask;
    }
    return -1;
  }

  void Rehash(size_t new_cap) {
    Rep* old = rep_;
    Rep* fresh = Rep::Make(new_cap);
    size_ = 0;
    if (old != nullptr) {
      for (size_t i = 0; i < old->cap; ++i) {
        if (old->keys()[i] != 0) {
          size_t j = IndexOf(fresh, old->keys()[i]);
          while (fresh->keys()[j] != 0) {
            j = (j + 1) & fresh->mask;
          }
          StoreKey(fresh, j, old->keys()[i]);
          ++size_;
        }
      }
    }
    seq_.WriteBegin();
    flat_internal::PublishRep(&rep_, fresh);
    seq_.WriteEnd();
    DisposeRep(old);
  }

  void DisposeRep(Rep* rep) {
    if (rep == nullptr) {
      return;
    }
    if (reclaimer_ != nullptr) {
      reclaimer_->Retire([rep] { Rep::Destroy(rep); });
    } else {
      Rep::Destroy(rep);
    }
  }

  Rep* rep_ = nullptr;
  size_t size_ = 0;  // non-zero-key entries
  bool has_zero_ = false;
  SeqCount seq_;
  EpochReclaimer* reclaimer_ = nullptr;
};

}  // namespace lxfi
