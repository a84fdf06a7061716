#include "util/simd.hpp"

// target_clones needs ifunc support: GCC or Clang on x86-64 ELF. ifunc
// resolvers run before ThreadSanitizer's runtime starts, which crashes a
// TSan build at load (g++ 12), so TSan builds keep the plain loops.
#if defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define RAZORBUS_TSAN 1
#endif
#endif
#if defined(__SANITIZE_THREAD__)
#define RAZORBUS_TSAN 1
#endif

#if defined(__x86_64__) && defined(__ELF__) && \
    (defined(__GNUC__) || defined(__clang__)) && !defined(RAZORBUS_TSAN)
#define RAZORBUS_ROW_LOOP __attribute__((target_clones("avx2", "default")))
#else
#define RAZORBUS_ROW_LOOP
#endif

namespace razorbus::simd {

RAZORBUS_ROW_LOOP void add_rows(double* acc, const double* x, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) acc[i] += x[i];
}

RAZORBUS_ROW_LOOP void add2_rows(double* acc, const double* x, const double* y,
                                 std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) acc[i] += x[i] + y[i];
}

RAZORBUS_ROW_LOOP void add_const(double* acc, double c, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) acc[i] += c;
}

RAZORBUS_ROW_LOOP void or_bytes(std::uint8_t* acc, const std::uint8_t* x, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) acc[i] |= x[i];
}

}  // namespace razorbus::simd
