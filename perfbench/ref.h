// The frozen reference loop ("ref"). Every end-to-end time the benchmark
// reports is measured as a multiple of this loop's speed in adjacent
// windows and converted back at kRefNominalNs, so host interference that
// slows both cancels out. It never calls into src/ and must never change:
// editing it (or kRefNominalNs) rescales every published number.
//
// Its shape follows the kernel paths it stands beside: a string-keyed hash
// table of heap objects small enough to stay in L2, virtual calls spread
// over 128 distinct classes (a large, branchy code footprint), 512-byte
// copies and an atomic add per call. A 2 MiB-table variant tracked the
// enforced kernel about half as well on the defining host (README.md).
#pragma once

#include <atomic>
#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

namespace perfbench {

// Nominal ref cost: about the ref loop's median ns/op on the host the
// benchmark was defined on (4-vCPU Xeon KVM guest). Fixed once.
inline constexpr double kRefNominalNs = 600.0;

struct RefObject {
  virtual ~RefObject() = default;
  virtual uint64_t Visit(uint8_t* scratch, std::atomic<uint64_t>* counter) = 0;
  uint8_t bytes[512] = {};
};

template <int N>
struct RefKind final : RefObject {
  uint64_t Visit(uint8_t* scratch, std::atomic<uint64_t>* counter) override {
    N % 2 ? std::memcpy(scratch, bytes, 512) : std::memcpy(bytes, scratch, 512);
    counter->fetch_add(N + 1, std::memory_order_relaxed);
    return bytes[N % 61] + N;
  }
};

class RefLoop {
 public:
  RefLoop() { Fill(std::make_index_sequence<kKinds>{}); }

  // One op: four string-keyed lookups, each followed by a virtual call.
  void Op() {
    for (int j = 0; j < 4; ++j) {
      cursor_ = cursor_ * 6364136223846793005ull + 1442695040888963407ull;
      sink_ += table_.find(keys_[(cursor_ >> 33) % kObjects])->second->Visit(scratch_, &counter_);
      scratch_[sink_ % 512] ^= static_cast<uint8_t>(sink_);
    }
  }

 private:
  static constexpr uint32_t kObjects = 512;
  static constexpr size_t kKinds = 128;

  template <size_t... K>
  void Fill(std::index_sequence<K...>) {
    using Make = std::unique_ptr<RefObject> (*)();
    const Make makers[] = {
        []() -> std::unique_ptr<RefObject> { return std::make_unique<RefKind<K>>(); }...};
    for (uint32_t i = 0; i < kObjects; ++i) {
      keys_.push_back("ref-object-" + std::to_string(i * 2654435761u));
      table_.emplace(keys_.back(), makers[(i * 37) % kKinds]());
    }
  }

  std::unordered_map<std::string, std::unique_ptr<RefObject>> table_;
  std::vector<std::string> keys_;
  uint8_t scratch_[512] = {};
  std::atomic<uint64_t> counter_{0};
  uint64_t cursor_ = 1;
  uint64_t sink_ = 0;
};

}  // namespace perfbench
