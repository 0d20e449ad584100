// Open-addressing hash containers for the enforcement hot path.
//
// FlatTable maps uint64_t keys to values; FlatSet is its value-less
// instantiation (same key array, probes, erase and rehash; no value array).
// FlatRangeMap is the interleaved key+range multimap behind WRITE checks.
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
// live in one heap-allocated Rep published through an atomic pointer
// (flat_internal::RepCell, shared by both table kinds), so a lock-free
// reader always sees a self-consistent {array, mask, shift} triple even
// while a writer rehashes. Writers (serialized externally, e.g. by the
// per-principal Spinlock) bump a SeqCount around every mutation. Each
// container has one probe name per query — FlatTable::Contains,
// FlatSet::Contains, FlatRangeMap::FindContaining / AnyOverlap — and the
// container picks the body: once a reclaimer is attached via SetReclaimer,
// the probe runs a seqlock-validated pass over relaxed-atomic slot loads
// (retried if a writer intervened) and replaced Reps are retired through
// the quiescent-state EpochReclaimer instead of freed, so a reader still
// probing a superseded array never touches freed memory. Without a
// reclaimer (the default, single-threaded configuration) the probe is the
// plain windowed loop and frees are immediate. FindValueConcurrent is the
// always-validated value lookup for kernel structures read lock-free while
// their writers hold a lock; Find is the writer-side (or single-threaded)
// lookup.
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
// (TSan-clean); RelaxedLoad is used by the validated probes. Both compile
// to plain moves on x86/arm64, so the single-threaded paths cost nothing.
inline uint64_t RelaxedLoad(const uint64_t* p) { return __atomic_load_n(p, __ATOMIC_RELAXED); }
inline void RelaxedStore(uint64_t* p, uint64_t v) { __atomic_store_n(p, v, __ATOMIC_RELAXED); }

// The value type of the value-less instantiation (FlatSet).
struct NoValue {};

// Geometry of one capacity generation: power-of-two slot count and the
// Fibonacci-hash shift. Immutable once the Rep is published.
struct Geometry {
  size_t cap;
  size_t mask;
  unsigned shift;

  size_t IndexOf(uint64_t key) const { return static_cast<size_t>((key * kGolden) >> shift); }
  size_t Next(size_t i) const { return (i + 1) & mask; }
};

// Allocates a Rep (a Geometry-derived header) followed inline by
// capacity + `mirror` value-initialized Slots: one load resolves geometry
// and array base together, matching the probe depth of a member array.
template <typename Rep, typename Slot>
Rep* MakeRep(size_t capacity, size_t mirror) {
  size_t nslots = capacity + mirror;
  void* mem = ::operator new(sizeof(Rep) + nslots * sizeof(Slot));
  Rep* rep = new (mem) Rep();
  rep->cap = capacity;
  rep->mask = capacity - 1;
  rep->shift = 64 - static_cast<unsigned>(__builtin_ctzll(capacity));
  Slot* slots = reinterpret_cast<Slot*>(rep + 1);
  for (size_t i = 0; i < nslots; ++i) {
    new (slots + i) Slot{};
  }
  return rep;
}

// Backward-shift deletion for linear probing: the entry at `hole` is being
// removed; each later entry of the probe run moves back into the hole
// unless that would place it before its home slot. Returns the slot left
// empty, which the caller clears.
template <typename KeyAt, typename Move>
size_t BackwardShift(const Geometry& g, size_t hole, KeyAt&& key_at, Move&& move) {
  for (size_t i = g.Next(hole); key_at(i) != 0; i = g.Next(i)) {
    if (((i - g.IndexOf(key_at(i))) & g.mask) >= ((i - hole) & g.mask)) {
      move(hole, i);
      hole = i;
    }
  }
  return hole;
}

// The published-Rep lifecycle both table kinds share: the current
// generation behind an atomic pointer, the SeqCount writers bump around
// every mutation, and the optional reclaimer that decides both how a
// replaced Rep dies (retired vs freed) and which body the probes run.
template <typename Rep>
class RepCell {
 public:
  RepCell() = default;
  ~RepCell() { Dispose(rep_); }

  RepCell(const RepCell&) = delete;
  RepCell& operator=(const RepCell&) = delete;

  // Writer-side (or single-threaded) view of the current generation.
  Rep* get() const { return rep_; }
  // The generation the plain probe body may walk: null while nothing is
  // published and always once a reclaimer is attached, so one load and one
  // branch send a probe to its plain body, to the validated one, or out.
  const Rep* plain() const { return plain_; }

  // Set once, before any concurrent reader exists.
  void SetReclaimer(EpochReclaimer* reclaimer) {
    reclaimer_ = reclaimer;
    plain_ = reclaimer == nullptr ? rep_ : nullptr;
  }
  // True once a reclaimer is attached: probes then take the validated body.
  bool validated() const { return reclaimer_ != nullptr; }

  // Runs `mutate` inside one seqlock write section.
  template <typename Fn>
  void Write(Fn&& mutate) {
    seq_.WriteBegin();
    mutate();
    seq_.WriteEnd();
  }

  // Publishes `fresh` (null empties the table) inside a write section,
  // then retires or frees the generation it replaced.
  void Replace(Rep* fresh) {
    Rep* old = rep_;
    Write([&] { __atomic_store_n(&rep_, fresh, __ATOMIC_RELEASE); });
    if (reclaimer_ == nullptr) {
      plain_ = fresh;
    }
    Dispose(old);
  }

  // Seqlock read: `probe(rep)` returns 1 (hit), 0 (miss) or -1 (overran a
  // torn table) and is retried until a pass validates; an unpublished Rep
  // is a miss. `retries`, when non-null, counts failed validations.
  template <typename Probe>
  bool ReadValidated(Probe&& probe, RelaxedCell* retries = nullptr) const {
    while (true) {
      uint64_t s = seq_.ReadBegin();
      const Rep* rep = __atomic_load_n(&rep_, __ATOMIC_ACQUIRE);
      int found = rep == nullptr ? 0 : probe(rep);
      if (found >= 0 && seq_.ReadValidate(s)) {
        return found == 1;
      }
      if (retries != nullptr) {
        ++*retries;
      }
      CpuRelax();
    }
  }

 private:
  void Dispose(Rep* rep) {
    if (rep == nullptr) {
      return;
    }
    auto destroy = [rep] {
      rep->~Rep();
      ::operator delete(rep);
    };
    if (reclaimer_ != nullptr) {
      reclaimer_->Retire(destroy);
    } else {
      destroy();
    }
  }

  Rep* rep_ = nullptr;
  Rep* plain_ = nullptr;
  SeqCount seq_;
  EpochReclaimer* reclaimer_ = nullptr;
};

}  // namespace flat_internal

template <typename V>
class FlatTable {
  // The value-less instantiation (FlatSet) allocates no value array.
  static constexpr bool kHasValues = !std::is_empty_v<V>;
  // Word-sized trivially copyable values are the kind FindValueConcurrent
  // loads lock-free, so their stores are relaxed atomics.
  static constexpr bool kWordValue =
      std::is_trivially_copyable_v<V> && sizeof(V) == sizeof(uint64_t);

  // Header + inline key array (cap + kWindow-1 mirror slots; 0 = empty).
  // The value array is only touched after a key hit and may stay a vector.
  struct Rep : flat_internal::Geometry {
    std::vector<V> vals;  // cap slots; empty for the value-less set

    uint64_t* keys() { return reinterpret_cast<uint64_t*>(this + 1); }
    const uint64_t* keys() const { return reinterpret_cast<const uint64_t*>(this + 1); }
  };

 public:
  FlatTable() = default;

  FlatTable(const FlatTable&) = delete;
  FlatTable& operator=(const FlatTable&) = delete;

  size_t size() const { return size_ + (HasZero() ? 1 : 0); }
  bool empty() const { return size() == 0; }
  size_t capacity() const { return cell_.get() == nullptr ? 0 : cell_.get()->cap; }

  // Attaches the grace-period reclaimer: replaced slot arrays are retired
  // instead of freed, and Contains switches to its seqlock-validated body.
  // Set once, before any concurrent reader exists.
  void SetReclaimer(EpochReclaimer* reclaimer) { cell_.SetReclaimer(reclaimer); }

  void Clear() {
    size_ = 0;
    SetHasZero(false);
    StoreVal(&zero_val_, V{});
    cell_.Replace(nullptr);
  }

  V* Find(uint64_t key) {
    if (LXFI_UNLIKELY(key == 0)) {
      return HasZero() ? &zero_val_ : nullptr;
    }
    Rep* rep = cell_.get();
    if (rep == nullptr) {
      return nullptr;
    }
    const uint64_t* keys = rep->keys();
    const size_t mask = rep->mask;
    size_t i = rep->IndexOf(key);
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

  // Key presence: the plain windowed probe, or — once a reclaimer is
  // attached — the seqlock-validated one, safe against a concurrent writer.
  bool Contains(uint64_t key) const {
    if (LXFI_UNLIKELY(key == 0)) {
      return HasZero();
    }
    const Rep* rep = cell_.plain();
    if (LXFI_UNLIKELY(rep == nullptr)) {
      return cell_.validated() &&
             cell_.ReadValidated([key](const Rep* r) { return ProbeKeyValidated(r, key); });
    }
    const uint64_t* keys = rep->keys();
    const size_t mask = rep->mask;
    size_t i = rep->IndexOf(key);
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

  // Lock-free lookup of a pointer-sized trivially copyable value (e.g. the
  // instance-principal map, the dcache per-parent child index), always
  // seqlock-validated. Returns false when absent. `retries`, when non-null,
  // counts seqlock validation failures (reads that overlapped a writer and
  // looped) — the dcache storm test uses it to prove the retry path is
  // actually exercised.
  bool FindValueConcurrent(uint64_t key, V* out, RelaxedCell* retries = nullptr) const {
    static_assert(kWordValue, "concurrent value loads require word-sized trivially copyable values");
    uint64_t raw = 0;
    if (LXFI_UNLIKELY(key == 0)) {
      if (!HasZero()) {
        return false;
      }
      raw = flat_internal::RelaxedLoad(reinterpret_cast<const uint64_t*>(&zero_val_));
      __builtin_memcpy(out, &raw, sizeof(V));
      return true;
    }
    bool found = cell_.ReadValidated(
        [key, &raw](const Rep* rep) {
          const uint64_t* keys = rep->keys();
          size_t i = rep->IndexOf(key);
          for (size_t steps = 0; steps <= rep->cap; ++steps) {
            uint64_t k = flat_internal::RelaxedLoad(keys + i);
            if (k == key) {
              raw = flat_internal::RelaxedLoad(reinterpret_cast<const uint64_t*>(&rep->vals[i]));
              return 1;
            }
            if (k == 0) {
              return 0;
            }
            i = rep->Next(i);
          }
          return -1;
        },
        retries);
    if (found) {
      __builtin_memcpy(out, &raw, sizeof(V));
    }
    return found;
  }

  // Returns the value for `key`, inserting a default-constructed one first
  // if absent.
  V& GetOrInsert(uint64_t key) {
    if (key == 0) {
      SetHasZero(true);
      return zero_val_;
    }
    size_t i = FindSlot(key);
    if (i == kNoSlot) {
      i = ClaimSlot(key);
      cell_.Write([&] { StoreKey(cell_.get(), i, key); });
      ++size_;
    }
    return cell_.get()->vals[i];
  }

  // Inserts or overwrites; returns true if the key was newly inserted.
  // Value and key land in ONE seqlock write section: a two-section insert
  // (key published with a default value, value stored later) would let
  // FindValueConcurrent validate in the gap and return the default.
  bool Insert(uint64_t key, V value) {
    if (key == 0) {
      bool added = !HasZero();
      cell_.Write([&] {
        StoreVal(&zero_val_, std::move(value));
        SetHasZero(true);
      });
      return added;
    }
    size_t i = FindSlot(key);
    const bool added = i == kNoSlot;
    if (!added && !kHasValues) {
      return false;  // a set's duplicate insert is a pure lookup
    }
    if (added) {
      i = ClaimSlot(key);
    }
    Rep* rep = cell_.get();
    cell_.Write([&] {
      if constexpr (kHasValues) {
        StoreVal(&rep->vals[i], std::move(value));
      }
      if (added) {
        StoreKey(rep, i, key);
      }
    });
    size_ += added;
    return added;
  }

  // Backward-shift erase: removes `key` and re-packs the probe window so no
  // tombstone is left behind. Returns true if the key was present.
  bool Erase(uint64_t key) {
    if (key == 0) {
      if (!HasZero()) {
        return false;
      }
      cell_.Write([&] {
        SetHasZero(false);
        StoreVal(&zero_val_, V{});
      });
      return true;
    }
    size_t i = FindSlot(key);
    if (i == kNoSlot) {
      return false;
    }
    Rep* rep = cell_.get();
    cell_.Write([&] {
      size_t hole = flat_internal::BackwardShift(
          *rep, i, [rep](size_t j) { return rep->keys()[j]; },
          [rep](size_t dst, size_t src) {
            StoreKey(rep, dst, rep->keys()[src]);
            if constexpr (kHasValues) {
              MoveVal(&rep->vals[dst], &rep->vals[src]);
            }
          });
      StoreKey(rep, hole, 0);
      if constexpr (kHasValues) {
        StoreVal(&rep->vals[hole], V{});
      }
    });
    --size_;
    return true;
  }

  // Visits every (key, value&); `fn` may mutate values but not insert/erase.
  template <typename Fn>
  void ForEachMut(Fn&& fn) {
    if (HasZero()) {
      fn(uint64_t{0}, zero_val_);
    }
    Rep* rep = cell_.get();
    if (rep == nullptr) {
      return;
    }
    for (size_t i = 0; i < rep->cap; ++i) {
      if (rep->keys()[i] != 0) {
        fn(rep->keys()[i], rep->vals[i]);
      }
    }
  }

  // Visits every (key, value); order is unspecified. `fn` must not mutate
  // the table.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    const_cast<FlatTable*>(this)->ForEachMut(
        [&fn](uint64_t key, V& value) { fn(key, static_cast<const V&>(value)); });
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
  static constexpr size_t kNoSlot = ~size_t{0};

  bool HasZero() const { return __atomic_load_n(&has_zero_, __ATOMIC_RELAXED); }
  void SetHasZero(bool v) { __atomic_store_n(&has_zero_, v, __ATOMIC_RELAXED); }

  static Rep* MakeRep(size_t capacity) {
    Rep* rep = flat_internal::MakeRep<Rep, uint64_t>(capacity, flat_internal::kWindow - 1);
    if constexpr (kHasValues) {
      rep->vals.resize(capacity);
    }
    return rep;
  }

  // Slot holding `key`, or kNoSlot (writer side: plain loads).
  size_t FindSlot(uint64_t key) const {
    const Rep* rep = cell_.get();
    if (rep == nullptr) {
      return kNoSlot;
    }
    for (size_t i = rep->IndexOf(key); rep->keys()[i] != 0; i = rep->Next(i)) {
      if (rep->keys()[i] == key) {
        return i;
      }
    }
    return kNoSlot;
  }

  // Grows first if one more key would pass the load bound, then returns
  // the empty slot `key` goes into (not yet stored).
  size_t ClaimSlot(uint64_t key) {
    if (flat_internal::NeedsGrow(size_ + 1, capacity())) {
      Rehash(capacity() == 0 ? flat_internal::kMinCapacity : capacity() * 2);
    }
    const Rep* rep = cell_.get();
    size_t i = rep->IndexOf(key);
    while (rep->keys()[i] != 0) {
      i = rep->Next(i);
    }
    return i;
  }

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
    if constexpr (kWordValue) {
      uint64_t raw;
      __builtin_memcpy(&raw, &v, sizeof(V));
      flat_internal::RelaxedStore(reinterpret_cast<uint64_t*>(dst), raw);
    } else {
      *dst = std::move(v);
    }
  }

  static void MoveVal(V* dst, V* src) {
    if constexpr (kWordValue) {
      StoreVal(dst, *src);
    } else {
      *dst = std::move(*src);
    }
  }

  // The validated body's key walk: the same 4-slot windows over relaxed
  // loads, bounded so a torn table cannot loop forever. 1 found, 0 absent,
  // -1 overran (the caller revalidates and retries).
  static int ProbeKeyValidated(const Rep* rep, uint64_t key) {
    const uint64_t* keys = rep->keys();
    const size_t mask = rep->mask;
    size_t i = rep->IndexOf(key);
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
    Rep* old = cell_.get();
    Rep* fresh = MakeRep(new_cap);
    if (old != nullptr) {
      for (size_t i = 0; i < old->cap; ++i) {
        uint64_t key = old->keys()[i];
        if (key == 0) {
          continue;
        }
        size_t j = fresh->IndexOf(key);
        while (fresh->keys()[j] != 0) {
          j = fresh->Next(j);
        }
        StoreKey(fresh, j, key);
        if constexpr (kHasValues) {
          fresh->vals[j] = std::move(old->vals[i]);
        }
      }
    }
    cell_.Replace(fresh);
  }

  flat_internal::RepCell<Rep> cell_;
  size_t size_ = 0;  // non-zero-key entries
  bool has_zero_ = false;
  V zero_val_{};
};

// Value-less FlatTable: the CALL and REF capability sets and the
// per-principal writer-page records. Every probe, the erase and the rehash
// are FlatTable's; only the value-less Insert is spelled here.
class FlatSet : private FlatTable<flat_internal::NoValue> {
  using Base = FlatTable<flat_internal::NoValue>;

 public:
  using Base::capacity;
  using Base::Clear;
  using Base::Contains;
  using Base::empty;
  using Base::Erase;
  using Base::SetReclaimer;
  using Base::size;

  // Returns true if the key was newly inserted.
  bool Insert(uint64_t key) { return Base::Insert(key, {}); }
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

  // Header + inline slot array (cap slots + 1 mirror slot).
  struct Rep : flat_internal::Geometry {
    Slot* slots() { return reinterpret_cast<Slot*>(this + 1); }
    const Slot* slots() const { return reinterpret_cast<const Slot*>(this + 1); }
  };

 public:
  FlatRangeMap() = default;

  FlatRangeMap(const FlatRangeMap&) = delete;
  FlatRangeMap& operator=(const FlatRangeMap&) = delete;

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  size_t capacity() const { return cell_.get() == nullptr ? 0 : cell_.get()->cap; }

  // See FlatTable::SetReclaimer: retires replaced Reps and switches both
  // probes to their seqlock-validated body.
  void SetReclaimer(EpochReclaimer* reclaimer) { cell_.SetReclaimer(reclaimer); }

  void Clear() {
    size_ = 0;
    cell_.Replace(nullptr);
  }

  // True iff some range stored under `key` fully contains [addr, end): the
  // plain 2-slot-window probe, or the seqlock-validated walk once a
  // reclaimer is attached (the SMP store-guard path).
  bool FindContaining(uint64_t key, uintptr_t addr, uintptr_t end) const {
    const Rep* rep = cell_.plain();
    if (LXFI_UNLIKELY(rep == nullptr)) {
      // Empty, or a reclaimer is attached. The validated body stays out of
      // line so the store guard's inlined plain loop compiles as before.
      if (!cell_.validated()) {
        return false;
      }
      return FindContainingValidated(key, addr, end);
    }
    const Slot* s = rep->slots();
    const size_t mask = rep->mask;
    size_t i = rep->IndexOf(key);
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

  // True iff any range stored under `key` overlaps [addr, end): the revoke
  // pre-filter (CapTable::MightHold), so RevokeEverywhere only locks
  // principals that can hold the capability. Seqlock-validated once a
  // reclaimer is attached.
  bool AnyOverlap(uint64_t key, uintptr_t addr, uintptr_t end) const {
    auto walk = [&](const Rep* rep) { return WalkRanges(rep, key, addr, end, false); };
    if (cell_.validated()) {
      return cell_.ReadValidated(walk);
    }
    return cell_.get() != nullptr && walk(cell_.get()) == 1;
  }

  // Inserts (key, [lo, hi)); exact duplicates are ignored. Returns true if
  // a slot was added.
  bool Insert(uint64_t key, uintptr_t lo, uintptr_t hi) {
    // Probe for an exact duplicate before considering growth, so a repeat
    // grant at the load threshold stays a pure lookup.
    if (FindExact(key, lo, hi) != kNoSlot) {
      return false;
    }
    if (flat_internal::NeedsGrow(size_ + 1, capacity())) {
      Rehash(capacity() == 0 ? flat_internal::kMinCapacity : capacity() * 2);
    }
    Rep* rep = cell_.get();
    size_t i = rep->IndexOf(key);
    while (rep->slots()[i].key != 0) {
      i = rep->Next(i);
    }
    cell_.Write([&] { StoreSlot(rep, i, Slot{key, lo, hi}); });
    ++size_;
    return true;
  }

  // Removes the exact (key, [lo, hi)) slot; backward-shift re-pack.
  bool EraseExact(uint64_t key, uintptr_t lo, uintptr_t hi) {
    size_t i = FindExact(key, lo, hi);
    if (i == kNoSlot) {
      return false;
    }
    Rep* rep = cell_.get();
    cell_.Write([&] {
      size_t hole = flat_internal::BackwardShift(
          *rep, i, [rep](size_t j) { return rep->slots()[j].key; },
          [rep](size_t dst, size_t src) { StoreSlot(rep, dst, rep->slots()[src]); });
      StoreSlot(rep, hole, Slot{0, 0, 0});
    });
    --size_;
    return true;
  }

  // Visits every range stored under `key` (duplicate-key chain walk).
  template <typename Fn>
  void ForEachWithKey(uint64_t key, Fn&& fn) const {
    const Rep* rep = cell_.get();
    if (rep == nullptr) {
      return;
    }
    for (size_t i = rep->IndexOf(key); rep->slots()[i].key != 0; i = rep->Next(i)) {
      if (rep->slots()[i].key == key) {
        fn(rep->slots()[i].lo, rep->slots()[i].hi);
      }
    }
  }

  // Visits every (key, lo, hi) slot; order is unspecified.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    const Rep* rep = cell_.get();
    if (rep == nullptr) {
      return;
    }
    for (size_t i = 0; i < rep->cap; ++i) {
      if (rep->slots()[i].key != 0) {
        fn(rep->slots()[i].key, rep->slots()[i].lo, rep->slots()[i].hi);
      }
    }
  }

 private:
  static constexpr size_t kNoSlot = ~size_t{0};

  size_t FindExact(uint64_t key, uintptr_t lo, uintptr_t hi) const {
    const Rep* rep = cell_.get();
    if (rep == nullptr) {
      return kNoSlot;
    }
    for (size_t i = rep->IndexOf(key); rep->slots()[i].key != 0; i = rep->Next(i)) {
      const Slot& s = rep->slots()[i];
      if (s.key == key && s.lo == lo && s.hi == hi) {
        return i;
      }
    }
    return kNoSlot;
  }

  LXFI_NOINLINE LXFI_COLD bool FindContainingValidated(uint64_t key, uintptr_t addr,
                                                       uintptr_t end) const {
    return cell_.ReadValidated(
        [&](const Rep* r) { return WalkRanges(r, key, addr, end, /*containment=*/true); });
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

  // One-slot walk over relaxed loads, bounded so a torn table cannot loop
  // forever: 1 hit, 0 miss, -1 overran (the validated caller retries).
  // `containment` asks for a range holding all of [addr, end), otherwise
  // any overlap.
  static int WalkRanges(const Rep* rep, uint64_t key, uintptr_t addr, uintptr_t end,
                        bool containment) {
    const Slot* s = rep->slots();
    size_t i = rep->IndexOf(key);
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
      i = rep->Next(i);
    }
    return -1;
  }

  void Rehash(size_t new_cap) {
    Rep* old = cell_.get();
    Rep* fresh = flat_internal::MakeRep<Rep, Slot>(new_cap, 1);
    if (old != nullptr) {
      for (size_t i = 0; i < old->cap; ++i) {
        const Slot& s = old->slots()[i];
        if (s.key == 0) {
          continue;
        }
        size_t j = fresh->IndexOf(s.key);
        while (fresh->slots()[j].key != 0) {
          j = fresh->Next(j);
        }
        StoreSlot(fresh, j, s);
      }
    }
    cell_.Replace(fresh);
  }

  flat_internal::RepCell<Rep> cell_;
  size_t size_ = 0;
};

}  // namespace lxfi
