"""Exact dense linear algebra over Q and prime fields.

Everything downstream (relation spaces, coend compilation, comodule
dimensions) reduces to row reduction of exact matrices, so this module is
deliberately small and boring: dense lists of field elements, reduced
row-echelon form as the canonical shape, and subspaces stored by their RREF
basis so that equality of spans is equality of representations.
"""

from __future__ import annotations

from fractions import Fraction


class Mod:
    """Residue modulo a prime, with field arithmetic via pow(..., -1, p)."""

    __slots__ = ("v", "p")

    def __init__(self, v, p):
        self.v = v % p
        self.p = p

    def __add__(self, other):
        return Mod(self.v + other.v, self.p)

    def __sub__(self, other):
        return Mod(self.v - other.v, self.p)

    def __neg__(self):
        return Mod(-self.v, self.p)

    def __mul__(self, other):
        return Mod(self.v * other.v, self.p)

    def __truediv__(self, other):
        return Mod(self.v * pow(other.v, -1, self.p), self.p)

    def __eq__(self, other):
        return isinstance(other, Mod) and self.v == other.v and self.p == other.p

    def __hash__(self):
        return hash((self.v, self.p))

    def __bool__(self):
        return self.v != 0

    def __repr__(self):
        return "%d (mod %d)" % (self.v, self.p)


# Miller-Rabin with these witnesses is a proof of primality below this bound
# (Sorenson and Webster, Math. Comp. 86, 2017).
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_LIMIT = 3317044064679887385961981


def is_prime(n: int) -> bool:
    """Deterministic primality test; refuses n >= _MR_LIMIT."""
    if n >= _MR_LIMIT:
        raise ValueError("primality is only decided below %d" % _MR_LIMIT)
    if n < 2:
        return False
    for q in _MR_WITNESSES:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class Field:
    """The rationals, or F_p for a user-chosen prime p."""

    def __init__(self, p=None):
        if p is not None and not is_prime(p):
            raise ValueError("Fp modulus must be a prime, got %d" % p)
        self.p = p

    @property
    def is_rational(self):
        return self.p is None

    def of(self, x):
        """Coerce an int, Fraction or 'p/q' string into this field."""
        if self.p is None:
            if isinstance(x, str):
                return Fraction(x)
            return Fraction(x)
        if isinstance(x, Mod):
            return x
        if isinstance(x, str):
            x = Fraction(x)
        if isinstance(x, Fraction):
            return Mod(x.numerator * pow(x.denominator, -1, self.p), self.p)
        return Mod(x, self.p)

    def zero(self):
        return self.of(0)

    def one(self):
        return self.of(1)

    def to_str(self, x):
        """Serialize: rationals as reduced "p/q" strings, residues as ints."""
        if self.p is None:
            return str(x)
        return str(x.v)

    def __eq__(self, other):
        return isinstance(other, Field) and self.p == other.p

    def __hash__(self):
        return hash(self.p)

    def __repr__(self):
        return "QQ" if self.p is None else "GF(%d)" % self.p


QQ = Field()


class MatrixExact:
    """Dense matrix with exact field entries (row-major list of lists)."""

    def __init__(self, field, rows, cols, entries=None):
        self.field = field
        self.rows = rows
        self.cols = cols
        if entries is None:
            z = field.zero()
            self.entries = [[z] * cols for _ in range(rows)]
        else:
            if len(entries) != rows or any(len(r) != cols for r in entries):
                raise ValueError("entry count must be rows x cols")
            self.entries = [[field.of(x) for x in row] for row in entries]

    @classmethod
    def identity(cls, field, n):
        m = cls(field, n, n)
        one = field.one()
        for i in range(n):
            m.entries[i][i] = one
        return m

    def copy(self):
        m = MatrixExact(self.field, self.rows, self.cols)
        m.entries = [row[:] for row in self.entries]
        return m

    def __getitem__(self, ij):
        return self.entries[ij[0]][ij[1]]

    def __eq__(self, other):
        return (
            isinstance(other, MatrixExact)
            and self.field == other.field
            and self.rows == other.rows
            and self.cols == other.cols
            and self.entries == other.entries
        )

    def __mul__(self, other):
        if self.cols != other.rows:
            raise ValueError("dimension mismatch in product")
        z = self.field.zero()
        out = MatrixExact(self.field, self.rows, other.cols)
        for i in range(self.rows):
            arow = self.entries[i]
            orow = out.entries[i]
            for k in range(self.cols):
                a = arow[k]
                if not a:
                    continue
                brow = other.entries[k]
                for j in range(other.cols):
                    b = brow[j]
                    if b:
                        orow[j] = orow[j] + a * b
        return out

    def __sub__(self, other):
        out = self.copy()
        for i in range(self.rows):
            for j in range(self.cols):
                out.entries[i][j] = out.entries[i][j] - other.entries[i][j]
        return out

    def transpose(self):
        out = MatrixExact(self.field, self.cols, self.rows)
        for i in range(self.rows):
            for j in range(self.cols):
                out.entries[j][i] = self.entries[i][j]
        return out

    def stack(self, other):
        """Vertical concatenation."""
        if self.cols != other.cols:
            raise ValueError("column mismatch in stack")
        out = MatrixExact(self.field, self.rows + other.rows, self.cols)
        out.entries = [r[:] for r in self.entries] + [r[:] for r in other.entries]
        return out

    def is_zero(self):
        return all(not x for row in self.entries for x in row)

    def __repr__(self):
        return "MatrixExact(%d x %d over %r)" % (self.rows, self.cols, self.field)


def rref(m: MatrixExact):
    """Reduced row-echelon form.

    Returns (reduced matrix, pivot column list, rank).
    """
    r = m.copy()
    pivots = []
    row = 0
    for col in range(r.cols):
        piv = None
        for i in range(row, r.rows):
            if r.entries[i][col]:
                piv = i
                break
        if piv is None:
            continue
        r.entries[row], r.entries[piv] = r.entries[piv], r.entries[row]
        inv = r.field.one() / r.entries[row][col]
        r.entries[row] = [x * inv for x in r.entries[row]]
        for i in range(r.rows):
            if i != row and r.entries[i][col]:
                f = r.entries[i][col]
                prow = r.entries[row]
                irow = r.entries[i]
                for j in range(col, r.cols):
                    if prow[j]:
                        irow[j] = irow[j] - f * prow[j]
        pivots.append(col)
        row += 1
        if row == r.rows:
            break
    return r, pivots, len(pivots)


def rank(m: MatrixExact) -> int:
    return rref(m)[2]


def kernel(m: MatrixExact) -> "Subspace":
    """Null space {v : m v = 0} as a Subspace of dimension m.cols."""
    r, pivots, rk = rref(m)
    free = [c for c in range(m.cols) if c not in set(pivots)]
    z = m.field.zero()
    one = m.field.one()
    basis = []
    for fc in free:
        v = [z] * m.cols
        v[fc] = one
        for i, pc in enumerate(pivots):
            v[pc] = -r.entries[i][fc]
        basis.append(v)
    return Subspace.from_rows(m.field, m.cols, basis)


def kron(a: MatrixExact, b: MatrixExact) -> MatrixExact:
    """Kronecker product; composite index (i, j) -> i * rows(b) + j."""
    out = MatrixExact(a.field, a.rows * b.rows, a.cols * b.cols)
    for i in range(a.rows):
        for j in range(a.cols):
            x = a.entries[i][j]
            if not x:
                continue
            for k in range(b.rows):
                orow = out.entries[i * b.rows + k]
                brow = b.entries[k]
                for l in range(b.cols):
                    y = brow[l]
                    if y:
                        orow[j * b.cols + l] = x * y
    return out


def kron_many(mats) -> MatrixExact:
    mats = list(mats)
    out = mats[0]
    for m in mats[1:]:
        out = kron(out, m)
    return out


def right_inverse(m: MatrixExact) -> MatrixExact:
    """A matrix X with m X = I; requires full row rank."""
    aug = MatrixExact(m.field, m.rows, m.cols + m.rows)
    for i in range(m.rows):
        aug.entries[i][: m.cols] = m.entries[i][:]
        aug.entries[i][m.cols + i] = m.field.one()
    r, pivots, _ = rref(aug)
    pivots = [c for c in pivots if c < m.cols]
    if len(pivots) != m.rows:
        raise ValueError("matrix does not have full row rank")
    out = MatrixExact(m.field, m.cols, m.rows)
    for k, pc in enumerate(pivots):
        out.entries[pc] = r.entries[k][m.cols :]
    return out


class Subspace:
    """A subspace of K^ambient, held as an RREF basis (one row per vector).

    The RREF basis is canonical, so two Subspace objects are equal iff the
    spans coincide.
    """

    def __init__(self, field, ambient, basis: MatrixExact):
        self.field = field
        self.ambient = ambient
        self.basis = basis

    @classmethod
    def from_rows(cls, field, ambient, rows):
        """Span of the given row vectors (any list, not necessarily a basis)."""
        m = MatrixExact(field, len(rows), ambient, rows)
        return cls.from_matrix_rows(m)

    @classmethod
    def from_matrix_rows(cls, m: MatrixExact):
        r, _, rk = rref(m)
        b = MatrixExact(m.field, rk, m.cols)
        b.entries = [r.entries[i][:] for i in range(rk)]
        return cls(m.field, m.cols, b)

    @classmethod
    def full(cls, field, ambient):
        return cls(field, ambient, MatrixExact.identity(field, ambient))

    @classmethod
    def zero(cls, field, ambient):
        return cls(field, ambient, MatrixExact(field, 0, ambient))

    @property
    def dim(self):
        return self.basis.rows

    def __eq__(self, other):
        return (
            isinstance(other, Subspace)
            and self.ambient == other.ambient
            and self.basis == other.basis
        )

    def contains(self, vector) -> bool:
        ext = self.basis.stack(MatrixExact(self.field, 1, self.ambient, [vector]))
        return rank(ext) == self.dim

    def contains_space(self, other) -> bool:
        return rank(self.basis.stack(other.basis)) == self.dim

    def add(self, other) -> "Subspace":
        """Sum of subspaces."""
        if self.ambient != other.ambient:
            raise ValueError("ambient dimension mismatch")
        return Subspace.from_matrix_rows(self.basis.stack(other.basis))

    def annihilator(self) -> "Subspace":
        """Vectors w with <b, w> = 0 for every basis row b."""
        return kernel(self.basis)

    def coordinates(self, vector):
        """Coefficients of vector in the RREF basis, or None if outside."""
        # With an RREF basis the coordinate at each pivot column reads off
        # directly; then verify the residual vanishes.
        coords = []
        residual = [self.field.of(x) for x in vector]
        for row in self.basis.entries:
            pc = next(j for j, x in enumerate(row) if x)
            c = residual[pc]
            coords.append(c)
            if c:
                for j in range(self.ambient):
                    residual[j] = residual[j] - c * row[j]
        if any(residual):
            return None
        return coords

    def __repr__(self):
        return "Subspace(dim %d of %d over %r)" % (self.dim, self.ambient, self.field)


def intersect(u: Subspace, v: Subspace) -> Subspace:
    return intersect_many([u, v])


def intersect_many(subs) -> Subspace:
    """Intersection of subspaces, via the kernel of stacked annihilators."""
    subs = list(subs)
    if not subs:
        raise ValueError("need at least one subspace")
    ambient = subs[0].ambient
    if any(s.ambient != ambient for s in subs):
        raise ValueError("ambient dimension mismatch")
    if len(subs) == 1:
        return Subspace.from_matrix_rows(subs[0].basis)
    ann = subs[0].annihilator().basis
    for s in subs[1:]:
        ann = ann.stack(s.annihilator().basis)
    return kernel(ann)


def column_space(m: MatrixExact) -> Subspace:
    return Subspace.from_matrix_rows(m.transpose())
