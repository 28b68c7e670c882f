"""Exact dense linear algebra over a scalar domain.

One elimination serves every exact solve: ``reduce_rows``, Gauss-Jordan
reduction by basis exchanges (``pivot_rows``, the product form of the
inverse; Chvatal, *Linear Programming*, 1983, ch. 7-8), which pivots each
given column in turn on the first row not yet pivoted where it is nonzero.
``Matrix.rank``, ``solve`` and ``inverse``, and ``solve_general``, read their
results off the reduced rows of [A | right-hand sides]: the row pivoted at
column c holds coordinate c of every solution, and the kernel vector of a
free column f is e_f minus column f at the pivots.  Both walks that make
chart tables start with one reduction, of [R | G] onto a cone's rays for
a fan (``FundamentalTriple``) and of [N | G | I] onto the first facets
for a polytope, then take one ``pivot_rows`` per step.
Every result is fixed by its value (a solution, an inverse, a rank, the
pivot columns, the particular solution with free variables zero), and
payloads are canonical, so the outputs are those of Scalar arithmetic in
any order of operations.  The work is on payloads with the domain's own
operations, whose inverses, products and sums are memoised (see
``ScalarDomain``); a Scalar is built only for what a caller gets back.
``multiply_rows`` is the one exact product, of payload rows: ``Matrix``
products wrap its entries, and the cocycle certificate reads them bare.
``integer_solve`` is the one reduction over Z: one column echelon form
gives integer solutions and an echelon Z-basis of the integer kernel.
"""

from __future__ import annotations

from collections.abc import Sequence
from fractions import Fraction
from functools import reduce
from math import lcm

from .scalars import DomainMismatchError, Scalar, ScalarDomain

__all__ = [
    "DimensionMismatchError",
    "Matrix",
    "SingularMatrixError",
    "integer_solve",
    "multiply_rows",
    "pivot_rows",
    "reduce_rows",
    "solve_general",
]


class SingularMatrixError(ArithmeticError):
    """The matrix is not invertible."""


class DimensionMismatchError(ValueError):
    """Operand shapes are incompatible."""


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
        left, right = ([[x.payload for x in m.row(i)] for i in range(m.rows)]
                       for m in (self, other))
        out = multiply_rows(domain, left, right)
        return Matrix(domain, self.rows, other.cols,
                      [Scalar(domain, x) for row in out for x in row],
                      self.row_labels, other.col_labels)

    # -- elimination ----------------------------------------------------------

    def _reduce(self, augmented=None):
        """``reduce_rows`` of the payload rows, each followed by its
        augmented payloads (none by default), onto every column."""
        rows = [[x.payload for x in self.row(i)] + (augmented[i] if augmented else [])
                for i in range(self.rows)]
        return reduce_rows(self.domain, rows, range(self.cols))

    def rank(self):
        return len(self._reduce()[1])

    def solve(self, rhs: Sequence[Scalar]):
        """Exact solution of A x = rhs for square A."""
        if self.rows != self.cols:
            raise DimensionMismatchError("solve requires a square matrix")
        if len(rhs) != self.rows:
            raise DimensionMismatchError("right-hand side has the wrong length")
        domain = self.domain
        rows, pivots = self._reduce([[domain.scalar(b).payload] for b in rhs])
        if len(pivots) < self.rows:
            raise SingularMatrixError("matrix is singular")
        return tuple(Scalar(domain, rows[pivots[c]][-1]) for c in range(self.cols))

    def inverse(self):
        """Exact inverse; raises SingularMatrixError when none exists."""
        if self.rows != self.cols:
            raise DimensionMismatchError("inverse requires a square matrix")
        n, domain = self.rows, self.domain
        one, zero = domain.one().payload, domain.zero().payload
        rows, pivots = self._reduce(
            [[one if i == j else zero for j in range(n)] for i in range(n)])
        if len(pivots) < n:
            raise SingularMatrixError("matrix is singular")
        entries = [Scalar(domain, x) for c in range(n) for x in rows[pivots[c]][n:]]
        return Matrix(domain, n, n, entries, self.col_labels, self.row_labels)


def multiply_rows(domain: ScalarDomain, left, right):
    """The product of two tables of payload rows, as payload rows: entry
    (i, j) sums left[i][k] right[k][j] over the nonzero left[i][k]."""
    mul, add = domain._mul, domain._add
    zero = domain._from_fraction(Fraction(0))
    columns = list(zip(*right))
    return [[reduce(add, [mul(x, column[k]) for k, x in enumerate(row) if x], zero)
             for column in columns] for row in left]


def pivot_rows(domain: ScalarDomain, rows, i, j):
    """Exchange basis vector i of a table of coordinates (rows of payloads)
    for the vector of column j: row i becomes row i / p, p = rows[i][j],
    and every other row r becomes r - rows[r][j] (row i / p).  Raises
    SingularMatrixError when p is zero."""
    mul, add = domain._mul, domain._add
    if not rows[i][j]:
        raise SingularMatrixError("pivot on a zero entry")
    inverse = domain._memo(domain._inverses, domain._inv, rows[i][j])
    top = [mul(x, inverse) for x in rows[i]]
    live = [c for c, x in enumerate(top) if x]
    out = []
    for r, row in enumerate(rows):
        if r != i and row[j]:
            factor, row = domain._neg(row[j]), list(row)
            for c in live:
                row[c] = add(row[c], mul(factor, top[c]))
        out.append(top if r == i else row)
    return out


def reduce_rows(domain: ScalarDomain, rows, columns):
    """Gauss-Jordan reduction of a table of payload rows onto columns: each
    column in turn is pivoted (``pivot_rows``) on the first row not yet
    pivoted where it is nonzero, and is skipped where there is none.
    Returns the reduced rows and a dict, in pivot order, from each pivoted
    column to its pivot row; that column is then the unit vector there."""
    pivots = {}
    for c in columns:
        taken = pivots.values()
        r = next((i for i, row in enumerate(rows)
                  if row[c] and i not in taken), None)
        if r is not None:
            rows = pivot_rows(domain, rows, r, c)
            pivots[c] = r
    return rows, pivots


def solve_general(matrix: Matrix, rhs: Sequence[Sequence[Scalar]]):
    """Particular solutions (free variables zero) plus kernel basis.

    Returns (solutions, kernel): one particular solution for each
    right-hand side of rhs, None where that system is inconsistent.  One
    reduction of [A | rhs] gives both: the kernel vector of a free column f
    is e_f minus column f of the reduced rows, read at their pivots.
    """
    if any(len(b) != matrix.rows for b in rhs):
        raise DimensionMismatchError("right-hand side has the wrong length")
    domain, cols = matrix.domain, matrix.cols
    rows, pivots = matrix._reduce(
        [[domain.scalar(b[i]).payload for b in rhs] for i in range(matrix.rows)])
    # a row without a pivot is zero on A, so a system is consistent exactly
    # when its right-hand side is zero there too
    rest = [row for i, row in enumerate(rows) if i not in pivots.values()]
    zero, one = domain.zero(), domain.one()
    solutions = [
        tuple(Scalar(domain, rows[pivots[c]][cols + a]) if c in pivots else zero
              for c in range(cols))
        if not any(row[cols + a] for row in rest) else None
        for a in range(len(rhs))]
    kernel = [
        tuple(Scalar(domain, domain._neg(rows[pivots[c]][f])) if c in pivots
              else one if c == f else zero for c in range(cols))
        for f in range(cols) if f not in pivots]
    return solutions, kernel


def integer_solve(rows, rhs):
    """For each b in rhs one integer x with rows x = b (Fractions), or None,
    and a Z-basis of {x in Z^k : rows x = 0}: (solutions, kernel).

    Euclid along each row, by column operations that carry the identity
    below the rows, brings A to column echelon form H = A U, U unimodular;
    forward substitution solves each H y = b over Z, x = U y, and U's columns
    past the pivots are the kernel basis.  The same Euclid over U's rows, last
    first, gives each kernel vector a last nonzero coordinate of its own,
    positive there (Cohen, GTM 138, section 2.4).  Each row is first scaled
    by its common denominator, right-hand sides too: all of it runs in ints.
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
    for i in [*range(r), *reversed(range(r, r + k))]:  # A's rows, then U's
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
        if i < r:
            for a, y in enumerate(ys):
                if y is not None:
                    remainder = rhs[a][i] - sum(columns[j][i] * yj for j, yj in enumerate(y))
                    if live:
                        q, remainder = divmod(remainder, columns[p][i])
                        y.append(q)
                    ys[a] = None if remainder else y
        elif live and columns[p][i] < 0:  # a kernel vector ending at coordinate i - r
            columns[p] = [-a for a in columns[p]]
        p += bool(live)
    return ([None if y is None else [sum(columns[j][r + l] * yj for j, yj in enumerate(y))
                                     for l in range(k)] for y in ys],
            [column[r:] for column in columns if not any(column[:r])])
