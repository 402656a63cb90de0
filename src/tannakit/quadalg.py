"""Quadratic algebras TV/(R): duals, graded dimensions, regularity test.

A quadratic algebra is given by dim V and an exact subspace R of V (x) V.
From that seed we compute the Koszul dual, the higher relation spaces R_l,
graded dimensions, and the Frobenius-style regularity report that gates the
universal Hopf algebra constructions downstream.

Both sequences are built degree by degree (Polishchuk-Positselski,
Quadratic Algebras, ch. 1-2), so matrix sizes follow dim R_l and dim A_k
rather than the tensor powers V^(x)l:

- R_l = (R_{l-1} (x) V) cap (V (x) R_{l-1}), intersecting the two spans
  directly;
- A_k = (A_{k-1} (x) V) / im(A_{k-2} (x) R), carrying the quotient map
  A_{k-1} (x) V -> A_k from one degree to the next.
"""

from __future__ import annotations

from dataclasses import dataclass

from .exactlin import MatrixExact, QQ, Subspace, kernel, kron, rank


class QuadraticAlgebra:
    def __init__(self, field, dim_v, relations: Subspace, var_names=None):
        if relations.ambient != dim_v * dim_v:
            raise ValueError("relation space must live in V (x) V")
        self.field = field
        self.dim_v = dim_v
        self.relations = relations
        if var_names is None:
            var_names = ["x%d" % i for i in range(dim_v)]
        self.var_names = list(var_names)

    @classmethod
    def from_relation_vectors(cls, field, dim_v, vectors, var_names=None):
        """Relations given as coefficient vectors over the basis e_i (x) e_j
        of V (x) V, index (i, j) -> i * dim_v + j."""
        sub = Subspace.from_rows(field, dim_v * dim_v, vectors)
        return cls(field, dim_v, sub, var_names)

    def __repr__(self):
        return "QuadraticAlgebra(dim V=%d, dim R=%d)" % (
            self.dim_v,
            self.relations.dim,
        )


def koszul_dual(a: QuadraticAlgebra) -> QuadraticAlgebra:
    """TV*/(R-perp) with the annihilator relations under the dual pairing."""
    dual_rel = a.relations.annihilator()
    names = [n + "*" for n in a.var_names]
    return QuadraticAlgebra(a.field, a.dim_v, dual_rel, names)


def relation_spaces(a: QuadraticAlgebra, lmax: int):
    """[R_1, ..., R_lmax] with R_1 = V, R_2 = R and, for l >= 3,
    R_l = (R_{l-1} (x) V) cap (V (x) R_{l-1}), which is the intersection of
    all V^i (x) R (x) V^j with i + j + 2 = l."""
    if lmax < 1:
        raise ValueError("lmax must be >= 1")
    ident = MatrixExact.identity(a.field, a.dim_v)
    out = [Subspace.full(a.field, a.dim_v)]
    if lmax >= 2:
        out.append(Subspace.from_matrix_rows(a.relations.basis))
    for _ in range(3, lmax + 1):
        prev = out[-1].basis
        out.append(_intersect_spans(kron(prev, ident), kron(ident, prev)))
    return out


def _intersect_spans(top: MatrixExact, bottom: MatrixExact) -> Subspace:
    """span(top) cap span(bottom) for matrices with independent rows: the
    vectors x . top over the solutions of x . top + y . bottom = 0."""
    sols = kernel(top.stack(bottom).transpose()).basis
    x = MatrixExact(top.field, sols.rows, top.rows)
    x.entries = [row[: top.rows] for row in sols.entries]
    return Subspace.from_matrix_rows(x * top)


def graded_dims(a: QuadraticAlgebra, nmax: int) -> list:
    """[dim A_0, ..., dim A_nmax].

    A_k is the quotient of A_{k-1} (x) V by the image of A_{k-2} (x) R under
    pi_{k-1} (x) id_V, where pi_k : A_{k-1} (x) V -> A_k is the quotient map
    (a matrix acting on row vectors) carried over from the previous degree.
    """
    if nmax < 0:
        raise ValueError("nmax must be >= 0")
    ident = MatrixExact.identity(a.field, a.dim_v)
    dims = [1, a.dim_v][: nmax + 1]
    pi = ident  # pi_1 : A_0 (x) V -> A_1
    for _ in range(2, nmax + 1):
        shifted = kron(MatrixExact.identity(a.field, dims[-2]), a.relations.basis)
        # The quotient map's columns are the functionals vanishing on the
        # degree-k relations.
        pi = kernel(shifted * kron(pi, ident)).basis.transpose()
        dims.append(pi.cols)
    return dims


class NotFiniteTypeError(ValueError):
    """Raised when R_nmax is still nonzero at the requested cutoff."""


@dataclass
class ASReport:
    d: int
    relation_dims: list          # dims of R_1 .. R_{d+1}
    pairing_matrices: dict       # a -> C^(a) as MatrixExact, a = 1..d-1
    frobenius_top_one: bool
    pairings_nondegenerate: bool
    koszul_series_consistent: bool
    spaces: list                 # R_1 .. R_nmax as Subspaces
    graded_dims: list            # dim A_0 .. dim A_nmax
    dual_graded_dims: list       # dim A^!_0 .. dim A^!_nmax

    @property
    def as_regular(self):
        return (
            self.frobenius_top_one
            and self.pairings_nondegenerate
            and self.koszul_series_consistent
        )


def pairing_matrix(a: QuadraticAlgebra, spaces, d, i) -> MatrixExact:
    """Coefficient matrix C^(i) of the generator of R_d in the basis of
    R_i (x) R_{d-i}; rows indexed by the R_i basis, columns by R_{d-i}.

    C^(0) and C^(d) are the 1x1 identity (R_0 = K conventions).
    """
    one = MatrixExact.identity(a.field, 1)
    if i == 0 or i == d:
        return one
    left = spaces[i - 1]
    right = spaces[d - i - 1]
    w = spaces[d - 1].basis.entries[0]
    # Tensor products of independent rows stay independent, so w has unique
    # coordinates in the u_s (x) v_t spanning set.
    coords = _coordinates_in_rows(kron(left.basis, right.basis), w, a.field)
    c = MatrixExact(a.field, left.dim, right.dim)
    for s in range(left.dim):
        for t in range(right.dim):
            c.entries[s][t] = coords[s * right.dim + t]
    return c


def _coordinates_in_rows(rows: MatrixExact, vector, field):
    """Solve x . rows = vector for x; rows must be independent."""
    from .exactlin import rref

    rt = rows.transpose()
    ext = MatrixExact(field, rt.rows, rt.cols + 1)
    for i in range(rt.rows):
        ext.entries[i][: rt.cols] = rt.entries[i][:]
        ext.entries[i][rt.cols] = field.of(vector[i])
    red, pivots, rk = rref(ext)
    if rt.cols in pivots:
        raise AssertionError("vector not in the span of the given rows")
    z = field.zero()
    x = [z] * rt.cols
    for k, pc in enumerate(pivots):
        x[pc] = red.entries[k][rt.cols]
    return x


def as_regular_check(a: QuadraticAlgebra, nmax: int) -> ASReport:
    """Detect finite-type regularity via the Frobenius criterion on the
    relation spaces: a 1-dimensional top R_d, invertible pairing matrices
    C^(a), and Hilbert-series consistency with the dual up to degree nmax."""
    if nmax < 2:
        raise ValueError("nmax must be >= 2")
    spaces = relation_spaces(a, nmax)
    if spaces[nmax - 1].dim != 0:
        raise NotFiniteTypeError(
            "R_%d is nonzero: increase nmax or the algebra is not of finite type"
            % nmax
        )
    d = max(l for l in range(1, nmax + 1) if spaces[l - 1].dim > 0)
    rel_dims = [s.dim for s in spaces[: d + 1]]
    frobenius_top_one = spaces[d - 1].dim == 1

    pairings = {}
    nondeg = frobenius_top_one
    if frobenius_top_one:
        for i in range(1, d):
            if spaces[i - 1].dim != spaces[d - i - 1].dim:
                nondeg = False
                continue
            c = pairing_matrix(a, spaces, d, i)
            pairings[i] = c
            if rank(c) != c.rows:
                nondeg = False

    dual = koszul_dual(a)
    h_a = graded_dims(a, nmax)
    h_dual = graded_dims(dual, nmax)
    consistent = True
    for n in range(1, nmax + 1):
        coeff = 0
        for k in range(n + 1):
            coeff += h_a[n - k] * ((-1) ** k) * h_dual[k]
        if coeff != 0:
            consistent = False
            break

    return ASReport(
        d=d,
        relation_dims=rel_dims,
        pairing_matrices=pairings,
        frobenius_top_one=frobenius_top_one,
        pairings_nondegenerate=nondeg,
        koszul_series_consistent=consistent,
        spaces=spaces,
        graded_dims=h_a,
        dual_graded_dims=h_dual,
    )


# ---------------------------------------------------------------------------
# The small corpus of quadratic algebras used throughout the test-suite and
# the bundled fixtures.

def polynomial_ring(field=QQ, n=2, names=None):
    """K[x_1..x_n]: relations x_i x_j - x_j x_i for i < j."""
    vecs = []
    z = 0
    for i in range(n):
        for j in range(i + 1, n):
            v = [z] * (n * n)
            v[i * n + j] = 1
            v[j * n + i] = -1
            vecs.append(v)
    return QuadraticAlgebra.from_relation_vectors(
        field, n, vecs, names or ["x", "y", "z", "w"][:n]
    )


def quantum_plane(field=QQ, q=2):
    """xy - q yx."""
    v = [0, 1, -field.of(q), 0]
    return QuadraticAlgebra.from_relation_vectors(field, 2, [v], ["x", "y"])


def jordan_plane(field=QQ):
    """xy - yx - y^2."""
    v = [0, 1, -1, -1]
    return QuadraticAlgebra.from_relation_vectors(field, 2, [v], ["x", "y"])


def free_algebra(field=QQ, n=2):
    sub = Subspace.zero(field, n * n)
    return QuadraticAlgebra(field, n, sub)
