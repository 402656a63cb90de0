"""Concrete comodules attached to words: spaces M(lambda), structure maps,
costandard/standard/simple dimensions, and the d = 2 weight bookkeeping.

M(lambda) tensors the relation space R_i for each positive letter and the
(1-dimensional) dual of the top space R_d for each inverse letter.  The two
families of structure maps are the subspace inclusions R_{i+j} into
R_i (x) R_j and the contractions built from the inverse pairing matrices;
both are plain exact matrices in the canonical RREF bases.
"""

from __future__ import annotations

from dataclasses import dataclass

from .exactlin import (
    MatrixExact,
    Subspace,
    column_space,
    intersect_many,
    kernel,
    kron,
    kron_many,
    rank,
)
from .moncat import elementary_maps, normalize, word_str
from .quadalg import (
    QuadraticAlgebra,
    _coordinates_in_rows,
    as_regular_check,
    pairing_matrix,
)


class StructureContext:
    """Caches the relation spaces, pairing matrices and structure maps of one
    regular quadratic algebra."""

    def __init__(self, algebra: QuadraticAlgebra, nmax=8):
        self.algebra = algebra
        report = as_regular_check(algebra, nmax)
        if not report.as_regular:
            raise ValueError("structure maps need a regular algebra (top dim 1, "
                             "invertible pairings)")
        self.report = report
        self.d = report.d
        self.spaces = report.spaces[: self.d]
        self._phi = {}
        self._theta = {}
        self._pairing_inv = {}

    def space_dim(self, i):
        if i == 0:
            return 1
        return self.spaces[i - 1].dim

    def letter_dim(self, letter):
        return 1 if letter < 0 else self.space_dim(letter)

    def dim_m(self, word):
        out = 1
        for k in word:
            out *= self.letter_dim(k)
        return out

    # -- the two families ---------------------------------------------------

    def phi(self, i, j) -> MatrixExact:
        """Matrix of the inclusion R_{i+j} -> R_i (x) R_j (columns indexed by
        the source basis).  Index 0 means the unit object: phi_{0,j} and
        phi_{i,0} are identities."""
        key = (i, j)
        if key in self._phi:
            return self._phi[key]
        if i < 0 or j < 0 or i + j > self.d:
            raise ValueError("phi indices out of range")
        if i == 0 or j == 0:
            m = MatrixExact.identity(self.algebra.field, self.space_dim(i + j))
        else:
            src = self.spaces[i + j - 1]
            prod_rows = kron(self.spaces[i - 1].basis, self.spaces[j - 1].basis)
            m = MatrixExact(
                self.algebra.field, prod_rows.rows, src.dim
            )
            for c, vec in enumerate(src.basis.entries):
                coords = _coordinates_in_rows(prod_rows, vec, self.algebra.field)
                for r in range(prod_rows.rows):
                    m.entries[r][c] = coords[r]
        self._phi[key] = m
        return m

    def pairing_inverse(self, j) -> MatrixExact:
        """Inverse of the pairing matrix C^(j) (shape dim R_{d-j} x dim R_j);
        the contraction R_{d-j} (x) R_j -> K evaluates against the canonical
        generator of R_d."""
        if j in self._pairing_inv:
            return self._pairing_inv[j]
        c = pairing_matrix(self.algebra, self.spaces, self.d, j)
        from .exactlin import right_inverse

        if c.rows != c.cols or rank(c) != c.rows:
            raise ValueError("singular pairing at index %d" % j)
        inv = right_inverse(c)
        self._pairing_inv[j] = inv
        return inv

    def theta(self, i, j) -> MatrixExact:
        """Matrix of R_i (x) R_d* (x) R_j -> R_{i+j-d}.

        Composite: include R_i into R_{i+j-d} (x) R_{d-j}, then contract
        R_{d-j} (x) R_j against the inverse pairing (the R_d* factor is
        1-dimensional and evaluates the canonical generator to 1)."""
        key = (i, j)
        if key in self._theta:
            return self._theta[key]
        if not (1 <= i <= self.d and 1 <= j <= self.d and i + j >= self.d):
            raise ValueError("theta indices out of range")
        f = self.algebra.field
        t = i + j - self.d
        ni, nj, nt = self.space_dim(i), self.space_dim(j), self.space_dim(t)
        nm = self.space_dim(self.d - j)
        incl = self.phi(t, self.d - j)  # (nt * nm) x ni
        binv = self.pairing_inverse(j)  # nm x nj
        out = MatrixExact(f, nt, ni * 1 * nj)
        for a in range(ni):
            for b in range(nj):
                col = a * nj + b
                for r in range(nt):
                    acc = f.zero()
                    for m in range(nm):
                        acc = acc + incl.entries[r * nm + m][a] * binv.entries[m][b]
                    out.entries[r][col] = acc
        self._theta[key] = out
        return out

    def whiskered(self, word, pos, span, gen_matrix) -> MatrixExact:
        """kron(I_left, gen_matrix, I_right) for the letters of `word`
        outside positions [pos, pos + span)."""
        f = self.algebra.field
        left = 1
        for k in word[:pos]:
            left *= self.letter_dim(k)
        right = 1
        for k in word[pos + span :]:
            right *= self.letter_dim(k)
        return kron_many(
            [
                MatrixExact.identity(f, left),
                gen_matrix,
                MatrixExact.identity(f, right),
            ]
        )


@dataclass
class ComoduleWitness:
    word: tuple
    kind: str               # "costandard" | "standard" | "simple"
    dim: int
    subspace: Subspace      # for costandard: the summed incoming image;
                            # for standard: the kernel intersection


def structure_map(a, family, i, j, nmax=8) -> MatrixExact:
    """Convenience wrapper building a context per call; prefer keeping a
    StructureContext when computing many maps."""
    ctx = a if isinstance(a, StructureContext) else StructureContext(a, nmax)
    if family == "phi":
        return ctx.phi(i, j)
    if family == "theta":
        return ctx.theta(i, j)
    raise ValueError("family must be 'phi' or 'theta'")


def incoming_image_sum(ctx: StructureContext, word) -> Subspace:
    """Sum of images of all whiskered elementary phi-maps into the word."""
    word = normalize(word, ctx.d)
    total = Subspace.zero(ctx.algebra.field, ctx.dim_m(word))
    for em in elementary_maps(word, ctx.d, "into"):
        mat = ctx.whiskered(word, len(em.left), 2, ctx.phi(em.i, em.j))
        total = total.add(column_space(mat))
    return total


def outgoing_kernel(ctx: StructureContext, word) -> Subspace:
    """Intersection of kernels of all whiskered elementary theta-maps."""
    word = normalize(word, ctx.d)
    kernels = [Subspace.full(ctx.algebra.field, ctx.dim_m(word))]
    for em in elementary_maps(word, ctx.d, "outof"):
        mat = ctx.whiskered(word, len(em.left), 3, ctx.theta(em.i, em.j))
        kernels.append(kernel(mat))
    return intersect_many(kernels)


def nabla_delta(ctx: StructureContext, word):
    """(costandard witness, standard witness) for the given word."""
    word = normalize(word, ctx.d)
    image = incoming_image_sum(ctx, word)
    ker = outgoing_kernel(ctx, word)
    nabla = ComoduleWitness(word, "costandard", ctx.dim_m(word) - image.dim, image)
    delta = ComoduleWitness(word, "standard", ker.dim, ker)
    return nabla, delta


def simple_dim(ctx: StructureContext, word) -> int:
    """Rank of the composite standard -> M(lambda) -> costandard; certified
    as a simple dimension only in characteristic zero."""
    word = normalize(word, ctx.d)
    image = incoming_image_sum(ctx, word)
    ker = outgoing_kernel(ctx, word)
    return ker.add(image).dim - image.dim


# ---------------------------------------------------------------------------
# Weights for d = 2

@dataclass(frozen=True)
class TorusWeight:
    """Exponent pair (p, q) for the Laurent monomial a^p d^q."""

    p: int
    q: int

    def __add__(self, other):
        return TorusWeight(self.p + other.p, self.q + other.q)

    def monomial_str(self):
        def pw(sym, e):
            if e == 0:
                return ""
            if e == 1:
                return sym
            return "%s^%d" % (sym, e)

        s = pw("a", self.p) + pw("d", self.q)
        return s or "1"


_WT = {1: TorusWeight(0, 1), 2: TorusWeight(1, 1), -2: TorusWeight(-1, -1)}


def wt(word) -> TorusWeight:
    """Multiplicative weight map for d = 2 words: r1 -> d, r2 -> ad."""
    out = TorusWeight(0, 0)
    for k in word:
        if k not in _WT:
            raise ValueError("wt is defined for d = 2 words only")
        out = out + _WT[k]
    return out


def weight_fiber(t: TorusWeight, maxlen: int):
    """All normalized d = 2 words of length <= maxlen with weight t."""
    out = []
    stack = [()]
    seen = set()
    while stack:
        w = stack.pop()
        if w in seen:
            continue
        seen.add(w)
        if wt(w) == t:
            out.append(w)
        if len(w) < maxlen:
            for k in (1, 2, -2):
                nw = normalize(w + (k,), 2)
                if len(nw) <= maxlen:
                    stack.append(nw)
    return sorted(out, key=lambda w: (len(w), w))


def induced_dim(ctx: StructureContext, t: TorusWeight, maxlen: int) -> int:
    """Truncated dimension of the induced module: sum of costandard dims over
    the weight fiber up to the length cutoff."""
    if ctx.d != 2:
        raise ValueError("weights are implemented for d = 2")
    total = 0
    for word in weight_fiber(t, maxlen):
        nabla, _ = nabla_delta(ctx, word)
        total += nabla.dim
    return total


def comodule_table(ctx: StructureContext, words):
    """One row per word: dims of M, costandard, standard, simple (and the
    weight when d = 2).  Stable column order for golden files."""
    rows = []
    for word in words:
        word = normalize(word, ctx.d)
        nabla, delta = nabla_delta(ctx, word)
        l = simple_dim(ctx, word)
        row = {
            "word": word_str(word),
            "dim_M": ctx.dim_m(word),
            "dim_costandard": nabla.dim,
            "dim_standard": delta.dim,
            "dim_simple": l,
        }
        if ctx.d == 2:
            w = wt(word)
            row["weight"] = [w.p, w.q]
        rows.append(row)
    return rows
