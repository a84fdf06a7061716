// Linear algebra for the circuit simulator.
//
// MNA conductance matrices are sparse: a node couples only to its RC
// neighbours along a wire and to the adjacent wires' nodes at the same
// position. Numbered wire by wire, the 3-wire characterization cluster
// (n = 48) still has bandwidth 32; the bandwidth-reducing ordering below
// (reverse Cuthill–McKee) brings it to 3. BandLu then factors in band
// storage in O(n·b²) and solves in O(n·b) — an order of magnitude less
// work per timestep than a dense LU at this size. The transient simulator
// reuses one factorization across timesteps and refactors only when the
// conductance matrix changes (driver switching).
//
// The dense LU is kept as the golden reference: the parity tests run the
// simulator on it (SolverKind::dense_reference) and hold the banded path
// to it, the way EngineMode::reference anchors the bus engines.
#pragma once

#include <cstddef>
#include <utility>
#include <vector>

namespace razorbus::spice {

// Row-major dense square matrix.
class DenseMatrix {
 public:
  DenseMatrix() = default;
  explicit DenseMatrix(std::size_t n) : n_(n), data_(n * n, 0.0) {}

  std::size_t size() const { return n_; }
  double& at(std::size_t r, std::size_t c) { return data_[r * n_ + c]; }
  double at(std::size_t r, std::size_t c) const { return data_[r * n_ + c]; }
  void clear();

 private:
  std::size_t n_ = 0;
  std::vector<double> data_;
};

// LU factorization with partial pivoting. Throws std::runtime_error if the
// matrix is singular to working precision.
class LuFactorization {
 public:
  LuFactorization() = default;
  explicit LuFactorization(const DenseMatrix& m);

  // Solve A x = b; b.size() must equal the matrix dimension.
  std::vector<double> solve(const std::vector<double>& b) const;
  void solve_in_place(std::vector<double>& x) const;

  std::size_t size() const { return lu_.size(); }

 private:
  DenseMatrix lu_;
  std::vector<std::size_t> pivot_;
};

// Square band matrix: entries (r, c) with r - lower <= c <= r + upper.
// Rows carry `lower` extra columns of headroom past `upper` for the fill
// partial pivoting can create (LAPACK's gbtrf layout), so BandLu factors a
// copy without reallocating.
class BandMatrix {
 public:
  BandMatrix() = default;
  BandMatrix(std::size_t n, std::size_t lower, std::size_t upper);

  std::size_t size() const { return n_; }
  std::size_t lower() const { return lower_; }
  std::size_t upper() const { return upper_; }
  bool in_band(std::size_t r, std::size_t c) const {
    return c + lower_ >= r && c <= r + upper_;
  }
  // (r, c) must be in_band (unchecked: the hot assembly path).
  double& at(std::size_t r, std::size_t c) { return data_[r * width_ + c + lower_ - r]; }
  double at(std::size_t r, std::size_t c) const {
    return data_[r * width_ + c + lower_ - r];
  }

 private:
  friend class BandLu;
  std::size_t n_ = 0;
  std::size_t lower_ = 0;
  std::size_t upper_ = 0;
  std::size_t width_ = 0;  // lower + (lower + upper) + 1 stored columns per row
  std::vector<double> data_;
};

// LU factorization of a band matrix with partial pivoting inside the band:
// the pivot for column k is the largest of rows k..k+lower, and the row
// swap widens U to lower + upper superdiagonals, which the storage already
// holds. Throws std::runtime_error if the matrix is singular to working
// precision — the same contract as LuFactorization, never a silent
// mis-solve.
class BandLu {
 public:
  BandLu() = default;
  explicit BandLu(const BandMatrix& m);

  std::vector<double> solve(const std::vector<double>& b) const;
  void solve_in_place(std::vector<double>& x) const;

  std::size_t size() const { return lu_.size(); }

 private:
  BandMatrix lu_;
  std::vector<std::size_t> pivot_;
  std::vector<double> inv_diag_;
  // Per row, the first column of L's nonzeros and the last of U's, trimmed
  // of exact zeros at the band edges: a block-diagonal matrix (disjoint
  // circuit components) then solves without chaining across blocks.
  std::vector<std::size_t> l_first_;
  std::vector<std::size_t> u_last_;
  bool pivoted_ = false;
};

// Bandwidth-reducing ordering of the symmetric sparsity graph on `n`
// vertices with the given edges (self-loops and duplicates allowed).
// Returns `order` with order[new_index] = old_index. Each connected
// component is numbered by reverse Cuthill–McKee from every one of its
// vertices in turn, keeping the start with the smallest bandwidth (ties go
// to the lowest vertex), so the result is deterministic. Components follow
// each other in order of their lowest vertex.
std::vector<std::size_t> reverse_cuthill_mckee(
    std::size_t n, const std::vector<std::pair<std::size_t, std::size_t>>& edges);

// Largest |order_pos(a) - order_pos(b)| over the edges, where `order` is a
// permutation as returned by reverse_cuthill_mckee.
std::size_t bandwidth(const std::vector<std::size_t>& order,
                      const std::vector<std::pair<std::size_t, std::size_t>>& edges);

}  // namespace razorbus::spice
