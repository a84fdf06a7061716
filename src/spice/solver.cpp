#include "spice/solver.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace razorbus::spice {

void DenseMatrix::clear() { std::fill(data_.begin(), data_.end(), 0.0); }

LuFactorization::LuFactorization(const DenseMatrix& m) : lu_(m), pivot_(m.size()) {
  const std::size_t n = lu_.size();
  for (std::size_t i = 0; i < n; ++i) pivot_[i] = i;

  for (std::size_t k = 0; k < n; ++k) {
    // Partial pivot: largest magnitude in column k at/below the diagonal.
    std::size_t best = k;
    double best_mag = std::abs(lu_.at(k, k));
    for (std::size_t r = k + 1; r < n; ++r) {
      const double mag = std::abs(lu_.at(r, k));
      if (mag > best_mag) {
        best_mag = mag;
        best = r;
      }
    }
    if (best_mag < 1e-30) throw std::runtime_error("LU: singular conductance matrix");
    if (best != k) {
      for (std::size_t c = 0; c < n; ++c) std::swap(lu_.at(k, c), lu_.at(best, c));
      std::swap(pivot_[k], pivot_[best]);
    }
    const double inv_diag = 1.0 / lu_.at(k, k);
    for (std::size_t r = k + 1; r < n; ++r) {
      const double factor = lu_.at(r, k) * inv_diag;
      lu_.at(r, k) = factor;
      // razorlint: allow(float-eq): structural-zero skip — eliminating with an
      // exactly-zero factor is a no-op, and RC matrices are mostly zeros.
      if (factor == 0.0) continue;
      for (std::size_t c = k + 1; c < n; ++c) lu_.at(r, c) -= factor * lu_.at(k, c);
    }
  }
}

std::vector<double> LuFactorization::solve(const std::vector<double>& b) const {
  std::vector<double> x = b;
  solve_in_place(x);
  return x;
}

void LuFactorization::solve_in_place(std::vector<double>& x) const {
  const std::size_t n = lu_.size();
  if (x.size() != n) throw std::invalid_argument("LU::solve: dimension mismatch");

  // Apply row permutation.
  std::vector<double> y(n);
  for (std::size_t i = 0; i < n; ++i) y[i] = x[pivot_[i]];

  // Forward substitution (unit lower triangle).
  for (std::size_t r = 1; r < n; ++r) {
    double acc = y[r];
    for (std::size_t c = 0; c < r; ++c) acc -= lu_.at(r, c) * y[c];
    y[r] = acc;
  }
  // Back substitution.
  for (std::size_t ri = n; ri-- > 0;) {
    double acc = y[ri];
    for (std::size_t c = ri + 1; c < n; ++c) acc -= lu_.at(ri, c) * y[c];
    y[ri] = acc / lu_.at(ri, ri);
  }
  x = std::move(y);
}

BandMatrix::BandMatrix(std::size_t n, std::size_t lower, std::size_t upper)
    : n_(n),
      lower_(lower),
      upper_(upper),
      width_(2 * lower + upper + 1),
      data_(n * width_, 0.0) {}

BandLu::BandLu(const BandMatrix& m)
    : lu_(m),
      pivot_(m.size()),
      inv_diag_(m.size()),
      l_first_(m.size()),
      u_last_(m.size()) {
  const std::size_t n = lu_.size();
  const std::size_t kl = lu_.lower();
  const std::size_t fill = kl + lu_.upper();  // U superdiagonals after swaps

  for (std::size_t k = 0; k < n; ++k) {
    const std::size_t last_row = std::min(n - 1, k + kl);
    const std::size_t last_col = std::min(n - 1, k + fill);
    // Partial pivot: largest magnitude in column k at/below the diagonal —
    // only rows k..k+kl can be nonzero there.
    std::size_t best = k;
    double best_mag = std::abs(lu_.at(k, k));
    for (std::size_t r = k + 1; r <= last_row; ++r) {
      const double mag = std::abs(lu_.at(r, k));
      if (mag > best_mag) {
        best_mag = mag;
        best = r;
      }
    }
    if (best_mag < 1e-30) throw std::runtime_error("LU: singular conductance matrix");
    pivot_[k] = best;
    if (best != k) {
      // Columns < k hold multipliers and stay put (applied interleaved
      // with the swaps at solve time, as in LAPACK).
      for (std::size_t c = k; c <= last_col; ++c)
        std::swap(lu_.at(k, c), lu_.at(best, c));
      pivoted_ = true;
    }
    const double inv = 1.0 / lu_.at(k, k);
    inv_diag_[k] = inv;
    for (std::size_t r = k + 1; r <= last_row; ++r) {
      const double factor = lu_.at(r, k) * inv;
      lu_.at(r, k) = factor;
      // razorlint: allow(float-eq): structural-zero skip — eliminating with
      // an exactly-zero factor is a no-op.
      if (factor == 0.0) continue;
      for (std::size_t c = k + 1; c <= last_col; ++c)
        lu_.at(r, c) -= factor * lu_.at(k, c);
    }
  }

  // Without a row swap, U keeps the matrix's upper bandwidth.
  const std::size_t u_width = pivoted_ ? fill : lu_.upper();
  for (std::size_t r = 0; r < n; ++r) {
    std::size_t first = r >= kl ? r - kl : 0;
    // razorlint: allow(float-eq): trimming exact structural zeros only.
    while (first < r && lu_.at(r, first) == 0.0) ++first;
    l_first_[r] = first;
    std::size_t last = std::min(n - 1, r + u_width);
    // razorlint: allow(float-eq): trimming exact structural zeros only.
    while (last > r && lu_.at(r, last) == 0.0) --last;
    u_last_[r] = last;
  }
}

std::vector<double> BandLu::solve(const std::vector<double>& b) const {
  std::vector<double> x = b;
  solve_in_place(x);
  return x;
}

void BandLu::solve_in_place(std::vector<double>& x) const {
  const std::size_t n = lu_.size();
  if (x.size() != n) throw std::invalid_argument("BandLu::solve: dimension mismatch");
  const std::size_t w = lu_.width_;
  const std::size_t kl = lu_.lower();
  // Row r's entries sit at base + r * (w - 1) + c (see BandMatrix::at).
  const double* base = lu_.data_.data() + kl;

  if (!pivoted_) {
    // Forward substitution (unit lower triangle), row by row; the newest
    // unknown enters each row's sum last, so the dependency chain between
    // rows is one multiply-subtract.
    for (std::size_t r = 1; r < n; ++r) {
      const double* row = base + r * (w - 1);
      double acc = x[r];
      for (std::size_t c = l_first_[r]; c < r; ++c) acc -= row[c] * x[c];
      x[r] = acc;
    }
  } else {
    // Row swaps interleave with the elimination steps (LAPACK order).
    for (std::size_t k = 0; k < n; ++k) {
      if (pivot_[k] != k) std::swap(x[k], x[pivot_[k]]);
      const double xk = x[k];
      const std::size_t last_row = std::min(n - 1, k + kl);
      for (std::size_t r = k + 1; r <= last_row; ++r) x[r] -= lu_.at(r, k) * xk;
    }
  }
  // Back substitution, farthest column first for the same reason.
  for (std::size_t i = n; i-- > 0;) {
    const double* row = base + i * (w - 1);
    double acc = x[i];
    for (std::size_t c = u_last_[i]; c > i; --c) acc -= row[c] * x[c];
    x[i] = acc * inv_diag_[i];
  }
}

namespace {

// Adjacency lists (sorted, deduplicated, no self-loops).
std::vector<std::vector<std::size_t>> adjacency(
    std::size_t n, const std::vector<std::pair<std::size_t, std::size_t>>& edges) {
  std::vector<std::vector<std::size_t>> adj(n);
  for (const auto& [a, b] : edges) {
    if (a >= n || b >= n)
      throw std::invalid_argument("ordering: edge vertex out of range");
    if (a == b) continue;
    adj[a].push_back(b);
    adj[b].push_back(a);
  }
  for (auto& list : adj) {
    std::sort(list.begin(), list.end());
    list.erase(std::unique(list.begin(), list.end()), list.end());
  }
  return adj;
}

// Cuthill–McKee numbering of start's component, neighbours visited in
// (degree, index) order. `visited` is scratch, all false on entry and exit.
std::vector<std::size_t> cuthill_mckee(const std::vector<std::vector<std::size_t>>& adj,
                                       std::size_t start, std::vector<char>& visited) {
  std::vector<std::size_t> order{start};
  visited[start] = 1;
  std::vector<std::size_t> next;
  for (std::size_t head = 0; head < order.size(); ++head) {
    next.clear();
    for (const std::size_t v : adj[order[head]])
      if (!visited[v]) next.push_back(v);
    std::sort(next.begin(), next.end(), [&](std::size_t a, std::size_t b) {
      return adj[a].size() != adj[b].size() ? adj[a].size() < adj[b].size() : a < b;
    });
    for (const std::size_t v : next) {
      visited[v] = 1;
      order.push_back(v);
    }
  }
  for (const std::size_t v : order) visited[v] = 0;
  std::reverse(order.begin(), order.end());
  return order;
}

// Bandwidth of one component's numbering; `pos` is scratch of size n.
std::size_t component_bandwidth(const std::vector<std::vector<std::size_t>>& adj,
                                const std::vector<std::size_t>& order,
                                std::vector<std::size_t>& pos) {
  for (std::size_t i = 0; i < order.size(); ++i) pos[order[i]] = i;
  std::size_t band = 0;
  for (const std::size_t v : order)
    for (const std::size_t w : adj[v])
      band = std::max(band, pos[v] > pos[w] ? pos[v] - pos[w] : pos[w] - pos[v]);
  return band;
}

}  // namespace

std::vector<std::size_t> reverse_cuthill_mckee(
    std::size_t n, const std::vector<std::pair<std::size_t, std::size_t>>& edges) {
  const auto adj = adjacency(n, edges);
  std::vector<char> visited(n, 0);
  std::vector<char> placed(n, 0);
  std::vector<std::size_t> pos(n);
  std::vector<std::size_t> order;
  order.reserve(n);
  for (std::size_t root = 0; root < n; ++root) {
    if (placed[root]) continue;
    std::vector<std::size_t> best = cuthill_mckee(adj, root, visited);
    std::size_t best_band = component_bandwidth(adj, best, pos);
    std::vector<std::size_t> starts = best;
    std::sort(starts.begin(), starts.end());
    for (const std::size_t start : starts) {
      if (best_band == 0 || start == root) continue;
      std::vector<std::size_t> candidate = cuthill_mckee(adj, start, visited);
      const std::size_t band = component_bandwidth(adj, candidate, pos);
      if (band < best_band) {
        best_band = band;
        best = std::move(candidate);
      }
    }
    for (const std::size_t v : best) {
      placed[v] = 1;
      order.push_back(v);
    }
  }
  return order;
}

std::size_t bandwidth(const std::vector<std::size_t>& order,
                      const std::vector<std::pair<std::size_t, std::size_t>>& edges) {
  std::vector<std::size_t> pos(order.size());
  for (std::size_t i = 0; i < order.size(); ++i) pos.at(order[i]) = i;
  std::size_t band = 0;
  for (const auto& [a, b] : edges) {
    const std::size_t pa = pos.at(a);
    const std::size_t pb = pos.at(b);
    band = std::max(band, pa > pb ? pa - pb : pb - pa);
  }
  return band;
}

}  // namespace razorbus::spice
