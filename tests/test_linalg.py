import random
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from quasifold import (DimensionMismatchError, Matrix, SingularMatrixError,
                       integer_solve, solve_general)
from quasifold.linalg import pivot_rows


def icosahedral_generators(quartic):
    """The six quasilattice generators of the dodecahedron example."""
    inv_phi = "alpha^2 - 3"
    rows = [
        [inv_phi, "0", "1", f"-({inv_phi})", "0", "1"],
        ["1", inv_phi, "0", "1", f"-({inv_phi})", "0"],
        ["0", "1", inv_phi, "0", "1", f"-({inv_phi})"],
    ]
    return Matrix.from_rows(quartic, rows)


# ---------------------------------------------------------------------------
# solve
# ---------------------------------------------------------------------------

def test_solve_identity(rational):
    a = Matrix.identity(rational, 3)
    b = [rational.scalar(i) for i in (5, -7, 2)]
    assert list(a.solve(b)) == b


def test_solve_quasisphere_chart(parameter):
    a = Matrix.from_rows(parameter, [["a"]])
    x = a.solve([parameter.one()])
    assert x[0] == parameter.generator().inverse()


def test_solve_dodecahedron_relation(quartic):
    # Y4 over the basis (Y1, Y2, Y3) has coordinates (1/phi, 1/phi, -1)
    gens = icosahedral_generators(quartic)
    basis = Matrix.from_columns(quartic, [gens.column(0), gens.column(1),
                                          gens.column(2)])
    coords = basis.solve(gens.column(3))
    inv_phi = quartic.scalar("alpha^2 - 3")
    assert list(coords) == [inv_phi, inv_phi, -quartic.one()]


def test_solve_singular(rational):
    a = Matrix.from_rows(rational, [[1, 2], [2, 4]])
    with pytest.raises(SingularMatrixError):
        a.solve([rational.one(), rational.one()])


# ---------------------------------------------------------------------------
# inverse
# ---------------------------------------------------------------------------

def test_inverse_identity(rational):
    eye = Matrix.identity(rational, 4)
    assert eye.inverse() == eye


def test_inverse_weighted_projective_chart(parameter):
    a = Matrix.from_rows(parameter, [["-1", "0"], ["-a", "1"]])
    inv = a.inverse()
    assert a @ inv == Matrix.identity(parameter, 2)
    # this particular chart matrix is an involution
    assert inv == a


def test_inverse_singular(rational):
    a = Matrix.from_rows(rational, [[3, 6], [1, 2]])
    with pytest.raises(SingularMatrixError):
        a.inverse()


# ---------------------------------------------------------------------------
# kernels
# ---------------------------------------------------------------------------

def kernel(matrix):
    """The kernel basis solve_general returns for a zero right-hand side."""
    zero = matrix.domain.zero()
    (particular,), basis = solve_general(matrix, [[zero] * matrix.rows])
    assert all(x.is_zero() for x in particular)
    return basis


def test_kernel_quasisphere(parameter):
    pi = Matrix.from_rows(parameter, [["a", "-1"]])
    basis = kernel(pi)
    assert len(basis) == 1
    vec = basis[0]
    assert vec[0] == parameter.generator().inverse()
    assert vec[1] == parameter.one()
    assert all(x.is_zero() for x in pi.apply(vec))


def test_kernel_square_invertible(rational):
    a = Matrix.from_rows(rational, [[2, 1], [1, 1]])
    assert kernel(a) == []


def test_kernel_ruled_surface(parameter):
    # ray map with columns (1,0), (-1,-a), (0,1), (0,-1)
    pi = Matrix.from_rows(parameter, [["1", "-1", "0", "0"],
                                      ["0", "-a", "1", "-1"]])
    basis = kernel(pi)
    assert len(basis) == 2
    for vec in basis:
        assert all(x.is_zero() for x in pi.apply(vec))


def test_kernel_distinguished_shape(parameter):
    # pivots fall on columns 0 and 1, so columns 2 and 3 are free
    pi = Matrix.from_rows(parameter, [["1", "-1", "0", "0"],
                                      ["0", "-a", "1", "-1"]])
    free = [2, 3]
    for vec, j in zip(kernel(pi), free):
        assert vec[j] == parameter.one()
        for other in free:
            if other != j:
                assert vec[other].is_zero()


# ---------------------------------------------------------------------------
# multiplication
# ---------------------------------------------------------------------------

def test_matmul_identity(parameter):
    a = Matrix.from_rows(parameter, [["a", "1"], ["0", "a + 1"]])
    assert a @ Matrix.identity(parameter, 2) == a


def test_matmul_kite_transition(quartic):
    # A_{24}^{-1} A_{14} for the kite equals [[-1/phi, 0], [1/phi, 1]]
    half = quartic.scalar("1/2")
    alpha = quartic.generator()
    phi = quartic.scalar("alpha^2 - 2")
    y1 = (half / phi, alpha * half)
    y2 = (-phi * half, alpha * half / phi)
    y3 = (-phi * half, -alpha * half / phi)
    y4 = (half / phi, -alpha * half)
    x1 = tuple(-c for c in y1)
    x2 = tuple(-c for c in y3)
    x4 = y4
    a14 = Matrix.from_columns(quartic, [x1, x4])
    a24 = Matrix.from_columns(quartic, [x2, x4])
    product = a24.inverse() @ a14
    expected = Matrix.from_rows(quartic, [
        ["-1/(alpha^2 - 2)", "0"],
        ["1/(alpha^2 - 2)", "1"],
    ])
    assert product == expected


def test_matmul_dimension_mismatch(rational):
    a = Matrix.from_rows(rational, [[1, 2]])
    with pytest.raises(DimensionMismatchError):
        a @ a


def test_matmul_labels_travel(rational):
    a = Matrix.from_rows(rational, [[1, 0], [0, 1]],
                         row_labels=(1, 3), col_labels=(2, 3))
    b = Matrix.from_rows(rational, [[2, 0], [0, 2]],
                         row_labels=(2, 3), col_labels=(4, 5))
    product = a @ b
    assert product.row_labels == (1, 3)
    assert product.col_labels == (4, 5)


def scalar_product(a, b):
    """Reference product: a triple loop over public Scalar operations."""
    rows = []
    for i in range(a.rows):
        row = []
        for j in range(b.cols):
            acc = a.domain.zero()
            for k in range(a.cols):
                acc = acc + a[i, k] * b[k, j]
            row.append(acc)
        rows.append(row)
    return rows


def random_entry(domain, rng):
    if rng.random() < 0.3:
        return domain.zero()
    p, q, r = (rng.randint(-5, 5) for _ in range(3))
    s = rng.randint(1, 4)
    if domain.kind == "rational":
        return domain.scalar(Fraction(p, s))
    x = domain.generator()
    if domain.kind == "number_field":
        return p * x ** 3 + Fraction(q, s) * x ** 2 + r
    return (p * x + q) / (x + s)


@pytest.mark.parametrize("name", ["rational", "quartic", "parameter"])
def test_matmul_matches_scalar_reference(name, request):
    domain = request.getfixturevalue(name)
    rng = random.Random(2718)
    for n, k, m in [(2, 3, 4), (3, 3, 3), (1, 4, 2), (4, 1, 3), (3, 2, 1)]:
        a = Matrix(domain, n, k, [random_entry(domain, rng) for _ in range(n * k)],
                   row_labels=range(10, 10 + n))
        b = Matrix(domain, k, m, [random_entry(domain, rng) for _ in range(k * m)],
                   col_labels=range(20, 20 + m))
        product = a @ b
        assert (product.rows, product.cols) == (n, m)
        assert [list(product.row(i)) for i in range(n)] == scalar_product(a, b)
        assert product.row_labels == tuple(range(10, 10 + n))
        assert product.col_labels == tuple(range(20, 20 + m))
        zeros = Matrix(domain, n, k, [domain.zero()] * (n * k))
        assert zeros @ b == Matrix(domain, n, m, [domain.zero()] * (n * m))


def test_matmul_domain_mismatch(rational, quartic):
    from quasifold import DomainMismatchError
    left = Matrix.from_rows(rational, [[1, 2], [3, 4]])
    right = Matrix.identity(quartic, 2)
    with pytest.raises(DomainMismatchError):
        left @ right
    with pytest.raises(DomainMismatchError):
        Matrix.from_rows(rational, [[0, 0], [0, 0]]) @ right


# ---------------------------------------------------------------------------
# randomized round trips
# ---------------------------------------------------------------------------

def random_unimodularish(domain, n, rng):
    """L @ U with unit diagonals: invertible with small entries."""
    lower = [[domain.scalar(1 if i == j else (rng.randint(-2, 2) if j < i else 0))
              for j in range(n)] for i in range(n)]
    upper = [[domain.scalar(1 if i == j else (rng.randint(-2, 2) if j > i else 0))
              for j in range(n)] for i in range(n)]
    return Matrix.from_rows(domain, lower) @ Matrix.from_rows(domain, upper)


def test_solve_round_trip_randomized(rational, golden, parameter):
    rng = random.Random(99)
    for domain in (rational, golden, parameter):
        for _ in range(200):
            n = rng.randint(1, 4)
            a = random_unimodularish(domain, n, rng)
            b = [domain.scalar(rng.randint(-9, 9)) for _ in range(n)]
            x = a.solve(b)
            assert list(a.apply(x)) == b
            inv = a.inverse()
            assert a @ inv == Matrix.identity(domain, n)


def test_solve_round_trip_polynomial_entries(parameter, golden):
    # the fraction-free path earns its keep when entries are themselves
    # polynomials in the parameter or the field generator
    rng = random.Random(314159)

    def random_entry(domain):
        gen = domain.generator()
        return (domain.scalar(rng.randint(-3, 3))
                + gen * rng.randint(-3, 3)
                + gen * gen * rng.randint(-2, 2))

    for domain in (parameter, golden):
        solved = 0
        while solved < 40:
            n = rng.randint(2, 3)
            a = Matrix.from_rows(domain, [[random_entry(domain)
                                           for _ in range(n)]
                                          for _ in range(n)])
            b = [random_entry(domain) for _ in range(n)]
            try:
                x = a.solve(b)
            except SingularMatrixError:
                continue
            assert list(a.apply(x)) == b
            assert a @ a.inverse() == Matrix.identity(domain, n)
            solved += 1


def payload_rows(matrix):
    return [[x.payload for x in matrix.row(i)] for i in range(matrix.rows)]


def test_pivot_rows_gives_the_coordinates_over_the_new_basis(
        rational, golden, parameter):
    # T = A^-1 V; exchanging column i of A for column j of V gives a basis
    # B, and the pivot on T[i][j] must give B^-1 V exactly
    rng = random.Random(2718)
    for domain in (rational, golden, parameter):
        gen = domain.generator() if domain.generator_symbol else domain.one()
        pivots = 0
        while pivots < 30:
            n, m = rng.randint(1, 4), rng.randint(1, 4)
            a = random_unimodularish(domain, n, rng)
            v = Matrix.from_rows(domain, [
                [domain.scalar(rng.randint(-2, 2)) + gen * rng.randint(-1, 1)
                 for _ in range(m)] for _ in range(n)])
            table = payload_rows(a.inverse() @ v)
            i, j = rng.randrange(n), rng.randrange(m)
            if domain._is_zero(table[i][j]):
                with pytest.raises(SingularMatrixError):
                    pivot_rows(domain, table, i, j)
                continue
            basis = Matrix.from_rows(domain, [
                [v[r, j] if c == i else a[r, c] for c in range(n)]
                for r in range(n)])
            assert pivot_rows(domain, table, i, j) == payload_rows(
                basis.inverse() @ v)
            pivots += 1


def test_kernel_randomized(rational):
    rng = random.Random(7)
    for _ in range(60):
        n = rng.randint(1, 3)
        d = n + rng.randint(1, 3)
        entries = [[rng.randint(-4, 4) for _ in range(d)] for _ in range(n)]
        a = Matrix.from_rows(rational, entries)
        basis = kernel(a)
        assert len(basis) == d - a.rank()
        for vec in basis:
            assert all(x.is_zero() for x in a.apply(vec))


def test_solve_general_consistency(rational):
    a = Matrix.from_rows(rational, [[1, 2, 3], [2, 4, 6]])
    (particular,), kernel = solve_general(a, [[rational.scalar(6), rational.scalar(12)]])
    assert particular is not None
    assert list(a.apply(particular)) == [rational.scalar(6), rational.scalar(12)]
    assert len(kernel) == 2
    for vec in kernel:
        assert all(x.is_zero() for x in a.apply(vec))
    # inconsistent system
    assert solve_general(a, [[rational.scalar(6), rational.scalar(1)]])[0] == [None]


# ---------------------------------------------------------------------------
# payload elimination against the Scalar-level Bareiss it replaced
# ---------------------------------------------------------------------------

def literal_eliminate(matrix, aug_cols=0, work=None):
    """Bareiss forward elimination on Scalars, one public operation per
    step: the oracle for Matrix._eliminate, which runs on payloads."""
    if work is None:
        work = [list(matrix.row(i)) for i in range(matrix.rows)]
    total_cols = matrix.cols + aug_cols
    prev = matrix.domain.one()
    pivot_cols = []
    r = 0
    for c in range(matrix.cols):
        pivot_row = next((i for i in range(r, matrix.rows)
                          if not work[i][c].is_zero()), None)
        if pivot_row is None:
            continue
        work[r], work[pivot_row] = work[pivot_row], work[r]
        pivot = work[r][c]
        for i in range(r + 1, matrix.rows):
            factor = work[i][c]
            for j in range(c, total_cols):
                work[i][j] = (pivot * work[i][j] - factor * work[r][j]) / prev
        prev = pivot
        pivot_cols.append(c)
        r += 1
    return work, pivot_cols


def literal_back_substitute(matrix, work, pivot_cols, aug_cols):
    zero = matrix.domain.zero()
    solutions = [[zero] * matrix.cols for _ in range(aug_cols)]
    for t in range(len(pivot_cols) - 1, -1, -1):
        c = pivot_cols[t]
        for a in range(aug_cols):
            acc = work[t][matrix.cols + a]
            for j in range(c + 1, matrix.cols):
                if not solutions[a][j].is_zero():
                    acc = acc - work[t][j] * solutions[a][j]
            solutions[a][c] = acc / work[t][c]
    return solutions


def literal_solve(matrix, rhs):
    work = [list(matrix.row(i)) + [b] for i, b in enumerate(rhs)]
    work, pivot_cols = literal_eliminate(matrix, 1, work)
    if len(pivot_cols) < matrix.rows:
        raise SingularMatrixError("matrix is singular")
    return tuple(literal_back_substitute(matrix, work, pivot_cols, 1)[0])


def literal_inverse(matrix):
    n, one, zero = matrix.rows, matrix.domain.one(), matrix.domain.zero()
    work = [list(matrix.row(i)) + [one if i == j else zero for j in range(n)]
            for i in range(n)]
    work, pivot_cols = literal_eliminate(matrix, n, work)
    if len(pivot_cols) < n:
        raise SingularMatrixError("matrix is singular")
    columns = literal_back_substitute(matrix, work, pivot_cols, n)
    return Matrix(matrix.domain, n, n,
                  [columns[j][i] for i in range(n) for j in range(n)])


def literal_solve_general(matrix, rhs):
    work = [list(matrix.row(i)) + [b] for i, b in enumerate(rhs)]
    work, pivot_cols = literal_eliminate(matrix, 1, work)
    if any(not row[matrix.cols].is_zero() for row in work[len(pivot_cols):]):
        return None
    free_cols = [c for c in range(matrix.cols) if c not in pivot_cols]
    work = [row + [row[f] for f in free_cols] for row in work[:len(pivot_cols)]]
    particular, *coords = literal_back_substitute(
        matrix, work, pivot_cols, 1 + len(free_cols))
    kernel = []
    for f, column in zip(free_cols, coords):
        vector = [matrix.domain.zero()] * matrix.cols
        vector[f] = matrix.domain.one()
        for c in pivot_cols:
            vector[c] = -column[c]
        kernel.append(tuple(vector))
    return tuple(particular), kernel


def outcome(function, *args):
    try:
        return function(*args)
    except (ArithmeticError, ValueError) as err:
        return type(err)


@st.composite
def elimination_cases(draw, domains):
    """A matrix over one of the domains, often singular or rank-deficient
    (zero entries, or rows that combine earlier ones), and a right-hand
    side that is either its image of a point or arbitrary."""
    domain = draw(st.sampled_from(domains))
    gen = domain.generator() if domain.generator_symbol else domain.one()
    small = st.integers(-3, 3)

    def entry():
        value = domain.scalar(Fraction(draw(small), draw(st.integers(1, 3))))
        if draw(st.booleans()):
            value = value + gen * draw(small)
        if domain.kind == "rational_function" and draw(st.booleans()):
            value = value / (gen + draw(st.integers(1, 3)))
        return value

    rows, cols = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    if draw(st.booleans()):
        cols = rows
    table = []
    for _ in range(rows):
        if table and draw(st.integers(0, 2)) == 0:
            # a combination of earlier rows lowers the rank
            a, b = draw(st.sampled_from(table)), draw(st.sampled_from(table))
            u, v = entry(), entry()
            table.append([u * x + v * y for x, y in zip(a, b)])
        else:
            table.append([entry() if draw(st.integers(0, 3)) else domain.zero()
                          for _ in range(cols)])
    matrix = Matrix.from_rows(domain, table)
    if draw(st.booleans()):
        rhs = list(matrix.apply([entry() for _ in range(cols)]))
    else:
        rhs = [entry() for _ in range(rows)]
    return matrix, rhs


@given(data=st.data())
def test_payload_elimination_matches_scalar_bareiss(
        rational, golden, quartic, parameter, data):
    matrix, rhs = data.draw(elimination_cases(
        [rational, golden, quartic, parameter]))
    pivot_cols = matrix._eliminate()[1]
    assert pivot_cols == literal_eliminate(matrix)[1]
    assert matrix.rank() == len(pivot_cols)
    (particular,), kernel = solve_general(matrix, [rhs])
    expected = literal_solve_general(matrix, rhs)
    assert (particular is None) == (expected is None)
    if expected is not None:
        assert (particular, kernel) == expected
    if matrix.rows == matrix.cols:
        assert outcome(matrix.solve, rhs) == outcome(literal_solve, matrix, rhs)
        assert outcome(matrix.inverse) == outcome(literal_inverse, matrix)
    else:
        assert outcome(matrix.solve, rhs) is DimensionMismatchError
        assert outcome(matrix.inverse) is DimensionMismatchError


# ---------------------------------------------------------------------------
# integer solve
# ---------------------------------------------------------------------------

def smith_solvable(rows, rhs):
    """Whether rows x = rhs has an integer solution, by the Smith normal
    form S = U A V of the integer-scaled rows (sympy, a test-only oracle):
    A x = b over Z exactly when (U b)_i is a multiple of S_ii up to the
    rank and 0 beyond it."""
    from sympy import ZZ
    from sympy import Matrix as SympyMatrix
    from sympy.matrices.normalforms import smith_normal_decomp
    scaled = []
    for row in ([*row, b] for row, b in zip(rows, rhs)):
        d = lcm(*(x.denominator for x in row))
        scaled.append([int(x * d) for x in row])
    a = SympyMatrix([row[:-1] for row in scaled])
    b = SympyMatrix([row[-1] for row in scaled])
    s, u, _ = smith_normal_decomp(a, domain=ZZ)
    ub = u * b
    return all(ub[i] % s[i, i] == 0 if i < min(s.shape) and s[i, i] else ub[i] == 0
               for i in range(len(scaled)))


_fractions = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 3))


@given(data=st.data())
def test_integer_solve_matches_smith_oracle(data):
    r, k = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 4))
    rows = data.draw(st.lists(st.lists(_fractions, min_size=k, max_size=k),
                              min_size=r, max_size=r))
    if data.draw(st.booleans()):
        # the image of an integer point: solvable by construction
        m = data.draw(st.lists(st.integers(-3, 3), min_size=k, max_size=k))
        rhs = [sum(x * c for x, c in zip(row, m)) for row in rows]
    else:
        rhs = data.draw(st.lists(_fractions, min_size=r, max_size=r))
    (solution,) = integer_solve(rows, [rhs])
    assert (solution is not None) == smith_solvable(rows, rhs)
    if solution is not None:
        assert all(type(x) is int for x in solution)
        assert [sum(x * c for x, c in zip(row, solution)) for row in rows] == rhs


@settings(max_examples=150)
@given(data=st.data())
def test_several_columns_equal_one_column(rational, data):
    # one elimination (one column reduction) for several right-hand sides
    # gives, column by column, what a call per column gives: consistent
    # integer images, consistent non-integer images and arbitrary columns,
    # which are inconsistent whenever the rank is below the row count
    r, k = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 4))
    rows = []
    for _ in range(r):
        if rows and data.draw(st.integers(0, 2)) == 0:
            a, b = data.draw(st.sampled_from(rows)), data.draw(st.sampled_from(rows))
            u, v = data.draw(_fractions), data.draw(_fractions)
            rows.append([u * x + v * y for x, y in zip(a, b)])
        else:
            rows.append(data.draw(st.lists(_fractions, min_size=k, max_size=k)))
    matrix = Matrix.from_rows(rational, rows)
    assume(k - matrix.rank() <= 2)
    points = st.one_of(st.lists(st.integers(-3, 3), min_size=k, max_size=k),
                       st.lists(_fractions, min_size=k, max_size=k))
    columns = data.draw(st.lists(st.one_of(
        points.map(lambda x: [sum(a * c for a, c in zip(row, x)) for row in rows]),
        st.lists(_fractions, min_size=r, max_size=r)), min_size=1, max_size=4))
    assert integer_solve(rows, columns) == [
        integer_solve(rows, [b])[0] for b in columns]
    solutions, kernel = solve_general(matrix, columns)
    for b, solution in zip(columns, solutions):
        assert solve_general(matrix, [b]) == ([solution], kernel)


def test_integer_solve_small_cases():
    f = Fraction
    # x = 1/2 has no integer solution; 2 x = 1 neither; 2 x + 3 y = 1 has
    assert integer_solve([[f(1)]], [[f(1, 2)]]) == [None]
    assert integer_solve([[f(2)]], [[f(1)]]) == [None]
    (x, y), = integer_solve([[f(2), f(3)]], [[f(1)]])
    assert 2 * x + 3 * y == 1
    # a zero row needs a zero right-hand side
    assert integer_solve([[f(0), f(0)]], [[f(0)]]) == [[0, 0]]
    assert integer_solve([[f(0), f(0)]], [[f(1)]]) == [None]
    # 3/2 x = 3/2 y + 3/2 and x - y = 1 over Z: x = y + 1
    (x, y), = integer_solve([[f(3, 2), f(-3, 2)], [f(1), f(-1)]], [[f(3, 2), f(1)]])
    assert x - y == 1
