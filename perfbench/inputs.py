"""Seeded input documents for the generated workloads.

Both generators draw a unimodular integer matrix M from the seed and apply
it to the rays (or facet normals) and to the quasilattice generators.
Since (M A_s)^-1 (M A_t) = A_s^-1 A_t and (M A_s)^-1 (M G) = A_s^-1 G,
every seed yields a different input document with the same atlas: the
same transitions, group exponents, relations, orbit table and cocycle
counts.  M = identity gives the reference input.
"""

from __future__ import annotations

import json
import os
import random

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(REPO, "src")

IDENTITY = ((1, 0, 0), (0, 1, 0), (0, 0, 1))

# A slack of 1/2 past the vertex value 3*(2 - alpha^2) cuts each vertex
# off without reaching the neighbouring ones.
TRUNCATION_OFFSET = "3*(2 - alpha^2) + 1/2"


def unimodular(seed: int):
    """A 3x3 integer matrix of determinant +-1 drawn from the seed.

    M = P D S: a permutation P and a sign change D drawn from the seed,
    applied after the fixed shear S (first row += second row).  Every seed
    thus carries the same coefficient growth, so exact-arithmetic cost
    varies little from seed to seed, while each seed gives other numbers.
    """
    rng = random.Random(seed)
    perm = list(range(3))
    rng.shuffle(perm)
    signs = [rng.choice((-1, 1)) for _ in range(3)]
    shear = ((1, 1, 0), (0, 1, 0), (0, 0, 1))
    return tuple(tuple(signs[i] * shear[perm[i]][j] for j in range(3))
                 for i in range(3))


def _domain(spec):
    from quasifold.scalars import NumberFieldDomain, RationalFunctionDomain
    if spec["kind"] == "number_field":
        return NumberFieldDomain(spec["min_poly"], spec["generator_symbol"],
                                 spec["embedding_approx"])
    return RationalFunctionDomain(spec["generator_symbol"],
                                  default_sample=spec["default_sample"])


def _transform(domain, matrix, vector):
    """Texts of M v for a vector of scalar texts."""
    values = [domain.scalar(str(x)) for x in vector]
    out = []
    for row in matrix:
        acc = domain.zero()
        for c, x in zip(row, values):
            if c:
                acc = acc + x * c
        out.append(acc.text())
    return out


def _columns(rows):
    return [list(col) for col in zip(*rows)]


def _inverse(matrix):
    """The inverse of a 3x3 integer matrix of determinant +-1 (adjugate)."""
    def minor(i, j):
        r = [k for k in range(3) if k != i]
        c = [k for k in range(3) if k != j]
        return (matrix[r[0]][c[0]] * matrix[r[1]][c[1]]
                - matrix[r[0]][c[1]] * matrix[r[1]][c[0]])
    det = sum((-1) ** j * matrix[0][j] * minor(0, j) for j in range(3))
    return [[(-1) ** (i + j) * minor(j, i) * det for j in range(3)]
            for i in range(3)]


def _rows(columns):
    return [list(row) for row in zip(*columns)]


def _dodecahedron():
    with open(os.path.join(SRC, "quasifold", "data", "dodecahedron.json")) as f:
        return json.load(f)


def polytope60(matrix=IDENTITY):
    """The truncated dodecahedron: 32 facets, 60 vertices, 60 charts."""
    from quasifold.documents import load_document
    from quasifold.polytopes import enumerate_vertices

    base = _dodecahedron()
    doc = load_document(base)
    domain = doc.domain
    facets = base["polytope"]["facets"]
    witnesses = [list(w) for w in base["witnesses"]]
    normals = [f.normal for f in doc.polytope.facets]
    new_facets = [{"normal": [x.text() for x in n], "offset": f["offset"]}
                  for n, f in zip(normals, facets)]
    offset = domain.scalar(TRUNCATION_OFFSET).text()
    # one cutting facet per vertex, in the order enumerate_vertices gives
    for vertex in enumerate_vertices(doc.polytope):
        triple = vertex.incident
        normal = [sum((normals[j - 1][t] for j in triple), domain.zero())
                  for t in range(3)]
        new_facets.append({"normal": [x.text() for x in normal],
                           "offset": offset})
        witnesses.append([sum(witnesses[j - 1][t] for j in triple)
                          for t in range(len(witnesses[0]))])
    for facet in new_facets:
        facet["normal"] = _transform(domain, matrix, facet["normal"])
    generators = _rows([_transform(domain, matrix, col)
                        for col in _columns(base["quasilattice"]["generators"])])
    return {
        "name": "polytope-60",
        "domain": base["domain"],
        "quasilattice": {"generators": generators},
        "polytope": {"facets": new_facets},
        "witnesses": witnesses,
    }


def polytope60_to_identity(matrix):
    """Maps the exact sections of a polytope-60 report for M to those of
    the M = identity input.

    M takes a facet normal n to M n and so a vertex x to M^-T x; M^-1
    takes the normals back and M^T the vertices.  Facet offsets, cones and
    fixed points do not depend on M.
    """
    domain = _domain(_dodecahedron()["domain"])
    inverse, transpose = _inverse(matrix), _columns(matrix)

    def to_identity(sections):
        if "polytope" not in sections:
            return sections
        section = sections["polytope"]
        return dict(sections, polytope={
            "facets": [dict(f, normal=_transform(domain, inverse, f["normal"]))
                       for f in section["facets"]],
            "vertex_table": [
                dict(row, vertex=_transform(domain, transpose, row["vertex"]))
                for row in section["vertex_table"]],
        })
    return to_identity


PARAM_FAN_DOMAIN = {
    "kind": "rational_function",
    "generator_symbol": "a",
    "parameter_positivity": True,
    "default_sample": "1.41421356237309",
}

_OCTAGON = (("1", "0"), ("a", "1"), ("0", "1"), ("-1", "a"),
            ("-1", "0"), ("-a", "-1"), ("0", "-1"), ("1", "-a"))
_APEXES = (("1", "a", "1"), ("a", "0", "-1"))


def param_fan(matrix=IDENTITY):
    """A 16-cone fan over Q(a): an octagon in z = 0 coned to two apexes.

    Witnesses are omitted, so the program recovers them.
    """
    domain = _domain(PARAM_FAN_DOMAIN)
    rays = [[x, y, "0"] for x, y in _OCTAGON] + [list(p) for p in _APEXES]
    cones = [[i + 1, (i + 1) % 8 + 1, apex]
             for apex in (9, 10) for i in range(8)]
    generators = [["1", "0", "0", "a", "0"],
                  ["0", "1", "0", "0", "a"],
                  ["0", "0", "1", "0", "0"]]
    return {
        "name": "param-fan",
        "domain": PARAM_FAN_DOMAIN,
        "quasilattice": {"generators": _rows(
            [_transform(domain, matrix, col) for col in _columns(generators)])},
        "fan": {"rays": [_transform(domain, matrix, r) for r in rays],
                "max_cones": cones},
    }


GENERATORS = {"polytope-60": polytope60, "param-fan": param_fan}
