#include "util/gf2.h"

#include <algorithm>
#include <bit>

#include "util/bitops.h"
#include "util/expect.h"

namespace dramdig::gf2 {

matrix row_echelon(matrix m) {
  matrix basis;
  for (const std::uint64_t row : m) reduce_into(basis, row);
  // Back-substitute so each pivot column appears in exactly one row, then
  // order rows by descending pivot for a canonical form.
  std::sort(basis.begin(), basis.end(), std::greater<>());
  for (std::size_t i = 0; i < basis.size(); ++i) {
    const int pivot = 63 - std::countl_zero(basis[i]);
    for (std::size_t j = 0; j < i; ++j) {
      if ((basis[j] >> pivot) & 1u) basis[j] ^= basis[i];
    }
  }
  std::sort(basis.begin(), basis.end(), std::greater<>());
  return basis;
}

std::size_t rank(const matrix& m) { return row_echelon(m).size(); }

bool in_span(const matrix& m, std::uint64_t v) {
  return reduce(row_echelon(m), v) == 0;
}

bool same_span(const matrix& a, const matrix& b) {
  return row_echelon(a) == row_echelon(b);
}

matrix minimal_basis(matrix funcs) {
  std::sort(funcs.begin(), funcs.end(), [](std::uint64_t x, std::uint64_t y) {
    const int px = std::popcount(x), py = std::popcount(y);
    return px != py ? px < py : x < y;
  });
  matrix kept;
  for (std::uint64_t f : funcs) {
    if (f != 0 && !in_span(kept, f)) kept.push_back(f);
  }
  return kept;
}

std::optional<std::uint64_t> solve(const matrix& a, std::uint64_t b,
                                   std::uint64_t support_mask) {
  DRAMDIG_EXPECTS(a.size() <= 64);
  // Gaussian elimination on the system restricted to support columns.
  // Represent each equation as (coefficients over support, rhs bit).
  struct eq {
    std::uint64_t coeff;
    unsigned rhs;
  };
  std::vector<eq> eqs;
  eqs.reserve(a.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    eqs.push_back({a[i] & support_mask,
                   static_cast<unsigned>((b >> i) & 1u)});
    // Bits of a[i] outside the support are fixed to zero in x, so they do
    // not contribute to the rhs.
  }
  std::uint64_t x = 0;
  std::uint64_t used_pivots = 0;
  for (std::size_t i = 0; i < eqs.size(); ++i) {
    // Find a pivot column for equation i.
    if (eqs[i].coeff == 0) {
      if (eqs[i].rhs != 0) return std::nullopt;  // 0 = 1: inconsistent
      continue;
    }
    const unsigned pivot =
        static_cast<unsigned>(std::countr_zero(eqs[i].coeff));
    used_pivots |= std::uint64_t{1} << pivot;
    // Eliminate this pivot from all other equations.
    for (std::size_t j = 0; j < eqs.size(); ++j) {
      if (j != i && ((eqs[j].coeff >> pivot) & 1u)) {
        eqs[j].coeff ^= eqs[i].coeff;
        eqs[j].rhs ^= eqs[i].rhs;
      }
    }
  }
  // Assign pivot variables; free variables stay zero.
  for (const eq& e : eqs) {
    if (e.coeff == 0) {
      if (e.rhs != 0) return std::nullopt;
      continue;
    }
    const unsigned pivot = static_cast<unsigned>(std::countr_zero(e.coeff));
    if (e.rhs) x |= std::uint64_t{1} << pivot;
    // Other coefficients of e are free variables (zero), so bit `pivot`
    // of x equals the rhs directly.
  }
  // Verify (also guards the case of duplicated pivots).
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (parity(x, a[i] & support_mask) != ((b >> i) & 1u)) return std::nullopt;
  }
  return x;
}

matrix nullspace(const matrix& a, std::uint64_t support_mask) {
  // The kernel depends only on the row space, so fold the functionals into
  // a basis first: at most 64 rows survive, one per bit of the column
  // vectors below (DRAMA's null-space arm passes hundreds of raw
  // differences).
  matrix basis;
  for (const std::uint64_t row : a) reduce_into(basis, row);
  // Columns = support bits; rows = functionals. Compute the kernel by
  // echelonizing the transposed system column by column.
  const std::vector<unsigned> cols = bits_of_mask(support_mask);
  // Build the column vectors: for support bit c, vec[c] has bit i set when
  // functional i uses c.
  std::vector<std::uint64_t> colvec(cols.size(), 0);
  for (std::size_t ci = 0; ci < cols.size(); ++ci) {
    for (std::size_t i = 0; i < basis.size(); ++i) {
      if ((basis[i] >> cols[ci]) & 1u) colvec[ci] |= std::uint64_t{1} << i;
    }
  }
  // Track combinations: comb[ci] records which original columns were folded
  // into colvec[ci] (as a mask over physical-address bits).
  std::vector<std::uint64_t> comb(cols.size());
  for (std::size_t ci = 0; ci < cols.size(); ++ci) {
    comb[ci] = std::uint64_t{1} << cols[ci];
  }
  matrix kernel;
  std::vector<std::uint64_t> pivots;  // echelon rows over functional index
  std::vector<std::uint64_t> pivot_comb;
  for (std::size_t ci = 0; ci < cols.size(); ++ci) {
    std::uint64_t v = colvec[ci];
    std::uint64_t c = comb[ci];
    for (std::size_t k = 0; k < pivots.size(); ++k) {
      const int pivot = 63 - std::countl_zero(pivots[k]);
      if (pivot >= 0 && ((v >> pivot) & 1u)) {
        v ^= pivots[k];
        c ^= pivot_comb[k];
      }
    }
    if (v == 0) {
      kernel.push_back(c);  // combination of columns summing to zero
    } else {
      pivots.push_back(v);
      pivot_comb.push_back(c);
    }
  }
  return kernel;
}

matrix enumerate_span(const matrix& basis) {
  const matrix reduced = row_echelon(basis);
  DRAMDIG_EXPECTS(reduced.size() <= 24);
  const std::uint64_t count = std::uint64_t{1} << reduced.size();
  matrix out;
  out.reserve(count - 1);
  // Gray-code walk: consecutive combination indices differ in one basis
  // vector, so each span vector is one XOR away from the previous.
  std::uint64_t current = 0;
  for (std::uint64_t i = 1; i < count; ++i) {
    const std::uint64_t gray_flip = i ^ (i >> 1);
    const std::uint64_t prev_gray = (i - 1) ^ ((i - 1) >> 1);
    const unsigned flipped =
        static_cast<unsigned>(std::countr_zero(gray_flip ^ prev_gray));
    current ^= reduced[flipped];
    out.push_back(current);
  }
  return out;
}

}  // namespace dramdig::gf2
