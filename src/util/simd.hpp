// Row loops of the multi-operating-point engine.
//
// The multi-point hot loop (bus::MultiPointEngine, DESIGN.md §13) keeps its
// per-point accumulators and combo-table rows structure-of-arrays; the only
// vector shapes it needs are elementwise double adds and byte ORs over
// short contiguous rows (one slot per operating point). These four plain
// loops are that shape, and the compiler vectorizes them: on x86-64 ELF
// with GCC or Clang each is cloned for AVX2 plus a baseline version and the
// loader picks one per CPU; elsewhere (aarch64 NEON at -O3, say) and in
// ThreadSanitizer builds the ordinary auto-vectorizer does the work.
//
// Bit-identity: every element sees the same IEEE-754 double operations in
// any vector width (elementwise add only — no FMA, no reassociation, no
// horizontal reductions), so the instruction set never changes a result
// bit. This is what lets the multi-point parity suite demand exact
// equality against the per-point scalar engine on any host.
#pragma once

#include <cstddef>
#include <cstdint>

namespace razorbus::simd {

// acc[i] += x[i]
void add_rows(double* acc, const double* x, std::size_t n);

// acc[i] += x[i] + y[i]  (per element: one add, then one accumulate —
// exactly the `bus_energy += dynamic + leakage` chain of the scalar engine)
void add2_rows(double* acc, const double* x, const double* y, std::size_t n);

// acc[i] += c
void add_const(double* acc, double c, std::size_t n);

// acc[i] |= x[i]
void or_bytes(std::uint8_t* acc, const std::uint8_t* x, std::size_t n);

}  // namespace razorbus::simd
