// Compiler helpers shared across the project.
#pragma once

#include <cstdint>

#define LXFI_LIKELY(x) (__builtin_expect(!!(x), 1))
#define LXFI_UNLIKELY(x) (__builtin_expect(!!(x), 0))
#define LXFI_ALWAYS_INLINE inline __attribute__((always_inline))
#define LXFI_NOINLINE __attribute__((noinline))
#define LXFI_COLD __attribute__((cold))

namespace lxfi {

inline constexpr std::size_t kCacheLineSize = 64;

}  // namespace lxfi
