"""Exact dense linear algebra over a scalar domain.

Solving and inversion use fraction-free (Bareiss-style) elimination: each
update divides by the previous pivot, which is exact and keeps intermediate
entries as minors of the input instead of letting rational-function degrees
blow up.  The division stays over the fields too: the domain memoises each
inverse (see ``ScalarDomain``), so every division by a pivot after the
first costs one product, as one inverse per pivot row would in Gauss
elimination, and one routine serves all three domains.  Elimination and
back-substitution work on payloads with the domain's own operations, as
the matrix product and ``pivot_rows`` do; payloads are canonical, so the
results are those of Scalar arithmetic, and a Scalar is built only for
what a caller gets back; a repeated product or sum of payloads costs one
lookup over a number field or a parameter field (see ``ScalarDomain``).
Pivoting is first-nonzero with lowest row index, so all outputs are
deterministic.  One back-substitution serves every solve: ``solve`` and
``inverse`` pass their right-hand sides as augmented columns, and
``solve_general`` passes its free columns too, so the kernel basis comes
out of the same loop as all its right-hand sides.  The
distinguished kernel basis of a ray map over a chosen cone needs no solve:
its vectors are e_j minus column j of the cone's coordinate table, built
from the float table by ``verify.NumericAtlas.kernel_matrix``.
``pivot_rows`` exchanges one basis vector of a table of coordinates, for
the chart walk of ``Atlas.compile`` and the vertex walk of ``polytopes``,
and ``integer_solve`` solves a rational system over Z for several
right-hand sides from one column reduction.
"""

from __future__ import annotations

from collections.abc import Sequence
from math import lcm

from .scalars import DomainMismatchError, Scalar, ScalarDomain

__all__ = [
    "DimensionMismatchError",
    "Matrix",
    "SingularMatrixError",
    "dot",
    "integer_solve",
    "pivot_rows",
    "solve_general",
]


class SingularMatrixError(ArithmeticError):
    """The matrix is not invertible."""


class DimensionMismatchError(ValueError):
    """Operand shapes are incompatible."""


def dot(u: Sequence[Scalar], v: Sequence[Scalar]) -> Scalar:
    if len(u) != len(v):
        raise DimensionMismatchError(f"dot of lengths {len(u)} and {len(v)}")
    acc = u[0] * v[0]
    for x, y in zip(u[1:], v[1:]):
        acc = acc + x * y
    return acc


class Matrix:
    """Immutable row-major matrix of Scalars with optional row/col labels."""

    __slots__ = ("domain", "rows", "cols", "entries", "row_labels", "col_labels")

    def __init__(self, domain: ScalarDomain, rows: int, cols: int,
                 entries: Sequence[Scalar], row_labels=None, col_labels=None):
        if len(entries) != rows * cols:
            raise DimensionMismatchError(
                f"{rows}x{cols} matrix needs {rows * cols} entries, got {len(entries)}")
        if row_labels is not None and len(set(row_labels)) != rows:
            raise ValueError("row labels must be distinct and match the row count")
        if col_labels is not None and len(set(col_labels)) != cols:
            raise ValueError("col labels must be distinct and match the column count")
        object.__setattr__(self, "domain", domain)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "entries", tuple(entries))
        object.__setattr__(self, "row_labels", None if row_labels is None else tuple(row_labels))
        object.__setattr__(self, "col_labels", None if col_labels is None else tuple(col_labels))

    def __setattr__(self, name, value):
        raise AttributeError("Matrix is immutable")

    # -- construction --------------------------------------------------------

    @classmethod
    def from_rows(cls, domain, rows, row_labels=None, col_labels=None):
        nrows = len(rows)
        ncols = len(rows[0]) if nrows else 0
        entries = []
        for row in rows:
            if len(row) != ncols:
                raise DimensionMismatchError("ragged rows")
            entries.extend(domain.scalar(x) for x in row)
        return cls(domain, nrows, ncols, entries, row_labels, col_labels)

    @classmethod
    def from_columns(cls, domain, columns, row_labels=None, col_labels=None):
        ncols = len(columns)
        nrows = len(columns[0]) if ncols else 0
        rows = [[columns[j][i] for j in range(ncols)] for i in range(nrows)]
        return cls.from_rows(domain, rows, row_labels, col_labels)

    @classmethod
    def identity(cls, domain, n):
        one, zero = domain.one(), domain.zero()
        entries = [one if i == j else zero for i in range(n) for j in range(n)]
        return cls(domain, n, n, entries)

    # -- access ---------------------------------------------------------------

    def __getitem__(self, key):
        i, j = key
        return self.entries[i * self.cols + j]

    def row(self, i):
        return self.entries[i * self.cols:(i + 1) * self.cols]

    def column(self, j):
        return tuple(self.entries[i * self.cols + j] for i in range(self.rows))

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return (self.rows, self.cols) == (other.rows, other.cols) and \
            self.entries == other.entries

    def __hash__(self):
        return hash((self.rows, self.cols, self.entries))

    def __repr__(self):
        body = "; ".join(
            ", ".join(e.text() for e in self.row(i)) for i in range(self.rows))
        return f"Matrix[{body}]"

    # -- arithmetic -----------------------------------------------------------

    def __matmul__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        if self.cols != other.rows:
            raise DimensionMismatchError(
                f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}")
        domain = self.domain
        if other.domain is not domain and other.domain != domain:
            raise DomainMismatchError(
                f"cannot mix {domain.describe()} with {other.domain.describe()}")
        # work on payloads: one Scalar per output entry, no per-op dispatch
        mul, add, is_zero = domain._mul, domain._add, domain._is_zero
        left = [None if is_zero(x.payload) else x.payload for x in self.entries]
        right = [x.payload for x in other.entries]
        zero = domain.zero().payload
        n, m = self.cols, other.cols
        out = []
        for i in range(0, self.rows * n, n):
            row = left[i:i + n]
            for j in range(m):
                acc = zero
                for k, x in enumerate(row):
                    if x is not None:
                        acc = add(acc, mul(x, right[k * m + j]))
                out.append(Scalar(domain, acc))
        return Matrix(domain, self.rows, m, out, self.row_labels, other.col_labels)

    def apply(self, vector: Sequence[Scalar]):
        if len(vector) != self.cols:
            raise DimensionMismatchError("vector length does not match column count")
        return tuple(dot(self.row(i), vector) for i in range(self.rows))

    # -- elimination core -----------------------------------------------------

    def _eliminate(self, aug=None):
        """Bareiss forward elimination on payload rows.

        aug gives each row's augmented payloads (none by default).  Returns
        (work, pivot_cols) where work is a list of payload rows covering all
        columns including the augmented ones, and pivot_cols indexes the
        pivot column of each eliminated row within the first self.cols
        columns.  Entries below a pivot are left zero.
        """
        domain = self.domain
        mul, add, neg, is_zero = domain._mul, domain._add, domain._neg, domain._is_zero
        work = [[x.payload for x in self.row(i)] + (list(aug[i]) if aug else [])
                for i in range(self.rows)]
        total_cols = self.cols + (len(aug[0]) if aug else 0)
        zero = domain.zero().payload
        prev = None  # the previous pivot; None while that is one
        pivot_cols = []
        r = 0
        for c in range(self.cols):
            pivot_row = next((i for i in range(r, self.rows)
                              if not is_zero(work[i][c])), None)
            if pivot_row is None:
                continue
            work[r], work[pivot_row] = work[pivot_row], work[r]
            top = work[r]
            pivot = top[c]
            # dividing by prev is one product with its memoised inverse,
            # taken only when a row below needs it, as in Scalar division
            inverse = None
            if prev is not None and r + 1 < self.rows:
                inverse = domain._memo(domain._inverses, domain._inv, prev)
            for row in work[r + 1:]:
                # row[j] = (pivot row[j] - row[c] top[j]) / prev, without
                # the products of zero entries
                factor = None if is_zero(row[c]) else neg(row[c])
                row[c] = zero
                for j in range(c + 1, total_cols):
                    x, y = row[j], top[j]
                    if factor is None or is_zero(y):
                        if is_zero(x):
                            continue
                        x = mul(pivot, x)
                    elif is_zero(x):
                        x = mul(factor, y)
                    else:
                        x = add(mul(pivot, x), mul(factor, y))
                    row[j] = x if inverse is None else mul(x, inverse)
            prev = pivot
            pivot_cols.append(c)
            r += 1
        return work, pivot_cols

    def rank(self):
        return len(self._eliminate()[1])

    def _back_substitute(self, work, pivot_cols, aug_cols):
        """Solve the upper-triangular payload system for each augmented
        column; returns one payload column of length self.cols per column."""
        domain = self.domain
        mul, add, neg, is_zero = domain._mul, domain._add, domain._neg, domain._is_zero
        zero = domain.zero().payload
        solutions = [[zero] * self.cols for _ in range(aug_cols)]
        for t in range(len(pivot_cols) - 1, -1, -1):
            c, row = pivot_cols[t], work[t]
            inverse = domain._memo(domain._inverses, domain._inv, row[c])
            terms = [(j, neg(row[j])) for j in range(c + 1, self.cols)
                     if not is_zero(row[j])]
            for a, solution in enumerate(solutions):
                acc = row[self.cols + a]
                for j, factor in terms:
                    if not is_zero(solution[j]):
                        acc = add(acc, mul(factor, solution[j]))
                solution[c] = mul(acc, inverse)
        return solutions

    def solve(self, rhs: Sequence[Scalar]):
        """Exact solution of A x = rhs for square A."""
        if self.rows != self.cols:
            raise DimensionMismatchError("solve requires a square matrix")
        if len(rhs) != self.rows:
            raise DimensionMismatchError("right-hand side has the wrong length")
        domain = self.domain
        work, pivot_cols = self._eliminate([[domain.scalar(b).payload] for b in rhs])
        if len(pivot_cols) < self.rows:
            raise SingularMatrixError("matrix is singular")
        return tuple(Scalar(domain, x)
                     for x in self._back_substitute(work, pivot_cols, 1)[0])

    def inverse(self):
        """Exact inverse; raises SingularMatrixError when none exists."""
        if self.rows != self.cols:
            raise DimensionMismatchError("inverse requires a square matrix")
        n, domain = self.rows, self.domain
        one, zero = domain.one().payload, domain.zero().payload
        work, pivot_cols = self._eliminate(
            [[one if i == j else zero for j in range(n)] for i in range(n)])
        if len(pivot_cols) < n:
            raise SingularMatrixError("matrix is singular")
        columns = self._back_substitute(work, pivot_cols, n)
        entries = [Scalar(domain, columns[j][i]) for i in range(n) for j in range(n)]
        return Matrix(domain, n, n, entries, self.col_labels, self.row_labels)


def pivot_rows(domain: ScalarDomain, rows, i, j):
    """Exchange basis vector i of a table of coordinates (rows of payloads)
    for the vector of column j: row i becomes row i / p, p = rows[i][j],
    and every other row r becomes r - rows[r][j] (row i / p).  Raises
    SingularMatrixError when p is zero."""
    mul, add, is_zero = domain._mul, domain._add, domain._is_zero
    if is_zero(rows[i][j]):
        raise SingularMatrixError("pivot on a zero entry")
    inverse = domain._memo(domain._inverses, domain._inv, rows[i][j])
    top = [mul(x, inverse) for x in rows[i]]
    live = [c for c, x in enumerate(top) if not is_zero(x)]
    out = []
    for r, row in enumerate(rows):
        if r != i and not is_zero(row[j]):
            factor, row = domain._neg(row[j]), list(row)
            for c in live:
                row[c] = add(row[c], mul(factor, top[c]))
        out.append(top if r == i else row)
    return out


def solve_general(matrix: Matrix, rhs: Sequence[Sequence[Scalar]]):
    """Particular solutions (free variables zero) plus kernel basis.

    Returns (solutions, kernel): one particular solution for each
    right-hand side of rhs, None where that system is inconsistent.
    """
    if any(len(b) != matrix.rows for b in rhs):
        raise DimensionMismatchError("right-hand side has the wrong length")
    domain, cols, width = matrix.domain, matrix.cols, len(rhs)
    work, pivot_cols = matrix._eliminate(
        [[domain.scalar(b[i]).payload for b in rhs] for i in range(matrix.rows)])
    rank = len(pivot_cols)
    # each free column rides along as one more right-hand side, so one
    # back-substitution gives the particular solutions and the kernel
    free_cols = [c for c in range(cols) if c not in pivot_cols]
    top = [row + [row[f] for f in free_cols] for row in work[:rank]]
    coords = matrix._back_substitute(top, pivot_cols, width + len(free_cols))
    solutions = [
        None if any(not domain._is_zero(row[cols + a]) for row in work[rank:])
        else tuple(Scalar(domain, x) for x in coords[a]) for a in range(width)]
    zero, one = domain.zero(), domain.one()
    kernel = []
    for f, column in zip(free_cols, coords[width:]):
        vector = [zero] * cols
        vector[f] = one
        for c in pivot_cols:
            vector[c] = Scalar(domain, domain._neg(column[c]))
        kernel.append(tuple(vector))
    return solutions, kernel


def integer_solve(rows, rhs):
    """For each right-hand side b in rhs, one integer x with rows x = b
    (Fractions), or None if there is none.

    Euclid along each row, by column operations that carry the identity
    below the rows, brings the matrix to column echelon form H = A U with U
    unimodular; forward substitution solves each H y = b over Z as the rows
    are reduced, and x = U y (Cohen, GTM 138, section 2.4).  Each row and
    its right-hand sides are first scaled by their common denominator, which
    changes neither the solutions nor the Euclid steps: all of it runs in ints.
    """
    r, k = len(rows), len(rows[0])
    scales = [lcm(*(x.denominator for x in row), *(b[i].denominator for b in rhs))
              for i, row in enumerate(rows)]
    rows = [[x.numerator * (s // x.denominator) for x in row] for row, s in zip(rows, scales)]
    rhs = [[b[i].numerator * (s // b[i].denominator) for i, s in enumerate(scales)] for b in rhs]
    # column j: its entry in each row, then column j of U
    columns = [[row[j] for row in rows] + [int(i == j) for i in range(k)]
               for j in range(k)]
    ys = [[] for _ in rhs]  # y for each b, None once b has no solution
    p = 0  # the pivots so far
    for i in range(r):
        live = [j for j in range(p, k) if columns[j][i]]
        while len(live) > 1:
            pivot = columns[min(live, key=lambda j: abs(columns[j][i]))]
            for j in live:
                if columns[j] is not pivot:
                    q = columns[j][i] // pivot[i]
                    columns[j] = [a - q * c for a, c in zip(columns[j], pivot)]
            live = [j for j in live if columns[j][i]]
        if live:
            columns[p], columns[live[0]] = columns[live[0]], columns[p]
        for a, y in enumerate(ys):
            if y is not None:
                remainder = rhs[a][i] - sum(columns[j][i] * yj for j, yj in enumerate(y))
                if live:
                    q, remainder = divmod(remainder, columns[p][i])
                    y.append(q)
                ys[a] = None if remainder else y
        p += bool(live)
    return [None if y is None else [sum(columns[j][r + l] * yj for j, yj in enumerate(y))
                                    for l in range(k)] for y in ys]
