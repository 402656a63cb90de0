"""Independent answer checker for the tannakit benchmark.

Expected answers come from closed formulas, hand-derived tables, the golden
files under tests/golden (read only) and a small elimination over stdlib
`fractions` (or integers mod p) written here.  Nothing in this module
imports tannakit.

`check_job` classifies one finished job as
  "ok"     - expected exit code and, on exit 0, the expected answer;
  "failed" - wrong exit code, or an exception escaped cli.run;
  "wrong"  - exit 0 as expected, but the answer differs from the expected
             one (a silent wrong answer).
"""

import json
import os
from fractions import Fraction
from math import comb

GOLDEN = "tests/golden"
DEFAULT_NMAX = 6
DEFAULT_LENGTH_BOUND = 3
DEFAULT_MAXLEN = 3

# Word order at d = 2, generated by r_2 < r_1 r_1 and 1 < r_1 r_2^-1 r_1
# (left/right invariant).  Every step lengthens a word, so an upper bound
# has at least as many letters as the lower one, and ell(r_1) = 1,
# ell(r_2) = 2, ell(r_2^-1) = -2 is preserved.
LEQ_ANSWERS = {
    ("r2", "r1 r1"): True,
    ("r1 r1", "r2"): False,                  # steps never shorten a word
    ("1", "r1 r2^-1 r1"): True,
    ("r2 r2", "r1 r1 r1 r1"): True,          # split both letters
    ("r1", "r2"): False,                     # ell differs
    ("r2", "r1 r2^-1 r1 r2"): True,          # insert before r2
}
INTERVAL_ANSWERS = {
    ("r2", "r1 r1"): ["r2", "r1 r1"],
    ("1", "r1 r2^-1 r1"): ["1", "r1 r2^-1 r1"],
    ("r2 r2", "r1 r1 r1 r1"): ["r2 r2", "r1 r1 r2", "r2 r1 r1",
                               "r1 r1 r1 r1"],
    # r1 r1 and r2 r1 r2^-1 r1 are above r2 but not below the upper end.
    ("r2", "r1 r2^-1 r1 r2"): ["r2", "r1 r2^-1 r1 r2"],
}


class Field:
    """Q as Fraction, or F_p as ints in [0, p)."""

    def __init__(self, desc):
        self.p = None if desc == "Q" else desc["Fp"]

    def of(self, x):
        x = Fraction(x)
        if self.p is None:
            return x
        return x.numerator * pow(x.denominator, -1, self.p) % self.p

    def inv(self, x):
        return 1 / x if self.p is None else pow(x, -1, self.p)

    def norm(self, x):
        return x if self.p is None else x % self.p


def rref_rows(rows, field):
    """Reduced row echelon form; returns (nonzero rows, pivot columns)."""
    rows = [list(r) for r in rows]
    pivots = []
    r = 0
    ncols = len(rows[0]) if rows else 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = field.inv(rows[r][c])
        rows[r] = [field.norm(x * inv) for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [field.norm(a - f * b)
                           for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    return rows[:r], pivots


def rank(rows, field):
    return len(rref_rows(rows, field)[1]) if rows else 0


def nullspace(rows, ncols, field):
    """Basis of {v : row . v = 0 for every row}."""
    red, pivots = rref_rows(rows, field) if rows else ([], [])
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        v = [field.of(0)] * ncols
        v[fc] = field.of(1)
        for row, pc in zip(red, pivots):
            v[pc] = field.norm(-row[fc])
        basis.append(v)
    return basis


def same_span(a, b, field):
    ra, rb = rank(a, field), rank(b, field)
    return ra == rb == rank(a + b, field)


# ---------------------------------------------------------------------------
# Expected answers

def _path_counts(n, path, nmax):
    """Words avoiding (and walks along) the monomial relations a.b, b.c."""
    a, b, c = path
    edges = {(a, b), (b, c)}
    avoid, walks = [1], [1]
    ends_a = [1] * n            # words of length k ending in each letter
    ends_w = [1] * n
    for k in range(1, nmax + 1):
        if k > 1:
            ends_a = [sum(ends_a[i] for i in range(n) if (i, j) not in edges)
                      for j in range(n)]
            ends_w = [sum(ends_w[i] for i in range(n) if (i, j) in edges)
                      for j in range(n)]
        avoid.append(sum(ends_a))
        walks.append(sum(ends_w))
    return avoid, walks


def expected_analyze(facts, nmax):
    n = facts["n"]
    if facts["family"] == "monopath":
        dims, dual = _path_counts(n, facts["path"], nmax)
        rel = dual[1:]                      # R_l has the dual's dims
        dim_r = rel[1]
    else:                                   # quantum affine / Jordan: PBW
        dims = [comb(n + k - 1, k) for k in range(nmax + 1)]
        dual = [comb(n, k) for k in range(nmax + 1)]
        rel = dual[1:]
        dim_r = comb(n, 2)
    if rel[nmax - 1]:
        return {"dim_v": n, "dim_r": dim_r, "graded_dims": dims,
                "dual_graded_dims": dual, "finite_type": False,
                "as_regular": False}
    d = max(l for l in range(1, nmax + 1) if rel[l - 1])
    top_one = rel[d - 1] == 1
    if facts["family"] == "monopath":
        # Dimensions of R_i and R_{d-i} differ, so no pairing is square.
        pairings = top_one and all(rel[i - 1] == rel[d - i - 1]
                                   for i in range(1, d))
    else:
        pairings = top_one
    consistent = all(
        sum(dims[m - k] * (-1) ** k * dual[k] for k in range(m + 1)) == 0
        for m in range(1, nmax + 1))
    return {"dim_v": n, "dim_r": dim_r, "graded_dims": dims,
            "dual_graded_dims": dual, "finite_type": True,
            "as_regular": top_one and pairings and consistent, "d": d,
            "relation_dims": rel[: d + 1], "frobenius_top_one": top_one,
            "pairings_nondegenerate": pairings,
            "koszul_series_consistent": consistent}


def _bound(argv, default):
    return int(argv[argv.index("--bound") + 1]) if "--bound" in argv \
        else default


def _read_json(root, path):
    with open(os.path.join(root, path), "r", encoding="utf-8") as fh:
        return json.load(fh)


def _read_text(root, path):
    with open(os.path.join(root, path), "r", encoding="utf-8") as fh:
        return fh.read()


def _relation_vectors(doc, field):
    n = doc["dim_v"]
    vecs = []
    for rel in doc["relations"]:
        v = [field.of(0)] * (n * n)
        for t in rel:
            i, j = t["word"]
            v[i * n + j] = field.norm(v[i * n + j] + field.of(t["coef"]))
        vecs.append(v)
    return vecs


def expected_uend_rows(doc, field):
    """Relations of Manin's end(A) in z-words of length 2: for phi in the
    annihilator of R and x in R, sum phi_kl x_uv z_(u,k) z_(v,l)."""
    n = doc["dim_v"]
    rel = _relation_vectors(doc, field)
    perp = nullspace(rel, n * n, field)
    rows = []
    for phi in perp:
        for x in rel:
            row = [field.of(0)] * (n ** 4)
            for k in range(n):
                for l in range(n):
                    for u in range(n):
                        for v in range(n):
                            c = phi[k * n + l] * x[u * n + v]
                            if c:
                                col = (u * n + k) * n * n + (v * n + l)
                                row[col] = field.norm(row[col] + c)
            rows.append(row)
    return rows


def _output_rows(relations, names, field, length):
    index = {name: g for g, name in enumerate(names)}
    ng = len(names)
    rows = []
    for rel in relations:
        row = [field.of(0)] * (ng ** length)
        for t in rel:
            if len(t["word"]) != length:
                raise ValueError("relation term of length %d" % len(t["word"]))
            col = 0
            for name in t["word"]:
                col = col * ng + index[name]
            row[col] = field.norm(row[col] + field.of(t["coef"]))
        rows.append(row)
    return rows


def _graded_dim(rows2, ng, deg, field):
    """dim of the degree-deg part of the algebra with quadratic relation
    rows over ng generators (all shifts m1 . r . m2)."""
    if deg < 2:
        return ng ** deg
    shifted = []
    for r in rows2:
        for li in range(deg - 1):
            ri = deg - 2 - li
            for left in range(ng ** li):
                for right in range(ng ** ri):
                    row = [field.of(0)] * (ng ** deg)
                    for mid, c in enumerate(r):
                        if c:
                            row[(left * ng * ng + mid) * ng ** ri + right] = c
                    shifted.append(row)
    return ng ** deg - rank(shifted, field)


def _inverse(rows):
    n = len(rows)
    ext = [list(r) + [Fraction(int(i == j)) for j in range(n)]
           for i, r in enumerate(rows)]
    red, pivots = rref_rows(ext, Field("Q"))
    if pivots[:n] != list(range(n)):
        raise ValueError("form is degenerate")
    return [row[n:] for row in red]


def quantum_dimension(rows):
    """q(b) = sum_ij (B^-1)_ij B_ij."""
    b = [[Fraction(x) for x in r] for r in rows]
    binv = _inverse(b)
    n = len(b)
    return sum(binv[i][j] * b[i][j] for i in range(n) for j in range(n)), \
        b, binv


def _terms(signed):
    out = {}
    for t in signed:
        key = tuple(t["word"])
        out[key] = out.get(key, 0) + Fraction(t["coef"])
    return {k: v for k, v in out.items() if v}


def _default_words(d, maxlen):
    letters = list(range(1, d + 1)) + [-d]
    words = [()]
    frontier = [()]
    for _ in range(maxlen):
        frontier = [w + (k,) for w in frontier for k in letters
                    if not (w and w[-1] == -k and abs(k) == d)]
        words.extend(frontier)
    return sorted(words, key=lambda w: (len(w), w))


def _word_str(w):
    if not w:
        return "1"
    return " ".join("r%d" % k if k > 0 else "r%d^-1" % -k for k in w)


# ---------------------------------------------------------------------------
# Per-command checks; each returns None when the answer is right, else why.

def _diff(got, want):
    for key in sorted(set(got) | set(want)):
        if got.get(key) != want.get(key):
            return "%s: got %r, expected %r" % (key, got.get(key),
                                                want.get(key))
    return None


def _check_analyze(job, doc, root):
    return _diff(doc, expected_analyze(job["expect"],
                                       _bound(job["argv"], DEFAULT_NMAX)))


def _check_hilbert(job, doc, root):
    want = expected_analyze(job["expect"], _bound(job["argv"], DEFAULT_NMAX))
    return _diff(doc, {"graded_dims": want["graded_dims"]})


def _check_uend(job, doc, root):
    spec = _read_json(root, job["argv"][1])
    field = Field(spec.get("field", "Q"))
    n = spec["dim_v"]
    names = ["z_%d%d" % (i + 1, j + 1) for i in range(n) for j in range(n)]
    bound = _bound(job["argv"], DEFAULT_LENGTH_BOUND)
    head = {"generators": doc.get("generators"),
            "cross_check": doc.get("cross_check"),
            "cross_check_bound": doc.get("cross_check_bound")}
    why = _diff(head, {"generators": names, "cross_check": True,
                       "cross_check_bound": bound})
    if why:
        return why
    got = _output_rows(doc["relations"], names, field, 2)
    if not same_span(got, expected_uend_rows(spec, field), field):
        return "relations do not span the end(A) relation space"
    if job["expect"].get("golden") == "kxy":
        want = _read_json(root, GOLDEN + "/uend_kxy_dims.json")["graded_dims"]
        dims = [_graded_dim(got, n * n, k, field) for k in range(len(want))]
        if dims != want:
            return "graded dims %r, golden %r" % (dims, want)
    return None


def _check_uaut(job, doc, root, text):
    n = job["expect"]["n"]
    if job["expect"].get("golden") == "kxy":
        return None if text == _read_text(root, GOLDEN + "/uaut_kxy.json") \
            else "output differs from golden uaut_kxy.json"
    if n == 2:
        golden = _read_json(root, GOLDEN + "/uaut_kxy.json")
        keys = ("d", "generators", "counit", "comultiplication")
        return _diff({k: doc.get(k) for k in keys},
                     {k: golden[k] for k in keys})
    if doc.get("d") != n or "antipode" not in doc:
        return "expected d = %d and an antipode" % n
    return None


def _check_comod(job, doc, root, text):
    maxlen = job["expect"].get("maxlen", DEFAULT_MAXLEN)
    golden_text = _read_text(root, GOLDEN + "/comod_kxy_len3.json")
    if maxlen == DEFAULT_MAXLEN:
        return None if text == golden_text \
            else "output differs from golden comod_kxy_len3.json"
    golden = json.loads(golden_text)["rows"]
    words = _default_words(2, maxlen)
    rows = doc.get("rows", [])
    if doc.get("d") != 2 or [r["word"] for r in rows] != \
            [_word_str(w) for w in words]:
        return "word list differs from all reduced words of length <= %d" \
            % maxlen
    if rows[: len(golden)] != golden:
        return "rows of length <= 3 differ from golden comod_kxy_len3.json"
    letter_dim = {1: 2, 2: 1, -2: 1}
    letter_wt = {1: (0, 1), 2: (1, 1), -2: (-1, -1)}
    for w, row in zip(words, rows):
        dim_m = 1
        for k in w:
            dim_m *= letter_dim[k]
        weight = [sum(letter_wt[k][0] for k in w),
                  sum(letter_wt[k][1] for k in w)]
        if row["dim_M"] != dim_m or row["weight"] != weight:
            return "word %s: dim_M or weight wrong" % row["word"]
        if not (row["dim_simple"] <= min(row["dim_costandard"],
                                         row["dim_standard"])
                and max(row["dim_costandard"], row["dim_standard"])
                <= dim_m):
            return "word %s: dims not nested" % row["word"]
    return None


def _check_poset(job, doc, root):
    e = job["expect"]
    key = (e["lam"], e["mu"])
    if e["check"] == "poset_leq":
        want = {"query": "leq", "lam": key[0], "mu": key[1],
                "result": LEQ_ANSWERS[key]}
    else:
        want = {"query": "interval", "lam": key[0], "mu": key[1],
                "result": INTERVAL_ANSWERS[key]}
    return _diff(doc, want)


def _check_hb(job, doc, root, text):
    if job["expect"].get("golden") == "bq3":
        return None if text == _read_text(root, GOLDEN + "/hb_bq3.json") \
            else "output differs from golden hb_bq3.json"
    spec = _read_json(root, job["argv"][1])
    q, b, binv = quantum_dimension(spec["matrix"])
    n = len(b)
    z = [["z_v_%d%d" % (i + 1, j + 1) for j in range(n)] for i in range(n)]
    names = [name for row in z for name in row]
    want = {
        "q": str(q), "q_negated": str(-q),
        "generators": [{"name": g, "weight": 0} for g in names],
        "counit": {z[i][j]: int(i == j) for i in range(n) for j in range(n)},
        "comultiplication": {z[i][j]: [[z[i][k], z[k][j]] for k in range(n)]
                             for i in range(n) for j in range(n)},
    }
    why = _diff({k: doc.get(k) for k in want}, want)
    if why:
        return why
    # S(Z) = B^-1 Z^T B, entrywise sum_kl (B^-1)_ik z_lk B_lj.
    for i in range(n):
        for j in range(n):
            terms = {}
            for k in range(n):
                for l in range(n):
                    c = binv[i][k] * b[l][j]
                    if c:
                        terms[(z[l][k],)] = terms.get((z[l][k],), 0) + c
            terms = {k: v for k, v in terms.items() if v}
            if _terms(doc.get("antipode", {}).get(z[i][j], [])) != terms:
                return "antipode of %s differs from B^-1 Z^T B" % z[i][j]
    return None


def _check_classify(job, doc, root):
    spec = _read_json(root, job["argv"][1])
    classes = []
    for idx, form in enumerate(spec["forms"]):
        q = quantum_dimension(form["matrix"])[0]
        for c in classes:
            if c["q"] == str(q):
                c["members"].append(idx)
                break
        else:
            classes.append({"q": str(q), "members": [idx]})
    return _diff(doc, {"classes": classes})


def check_answer(job, text, root):
    """None when the exit-0 output `text` is the expected answer, else a
    one-line reason."""
    try:
        doc = json.loads(text)
    except ValueError:
        return "output is not JSON"
    check = job["expect"]["check"]
    try:
        if check in ("uaut", "comod", "hb"):
            return _CHECKS[check](job, doc, root, text)
        return _CHECKS[check](job, doc, root)
    except (KeyError, TypeError, ValueError, IndexError) as e:
        return "malformed answer (%s: %s)" % (type(e).__name__, e)


_CHECKS = {
    "analyze": _check_analyze,
    "hilbert": _check_hilbert,
    "uend": _check_uend,
    "uaut": _check_uaut,
    "comod": _check_comod,
    "poset_leq": _check_poset,
    "poset_interval": _check_poset,
    "hb": _check_hb,
    "classify": _check_classify,
}


def check_job(job, code, out, err, exc, root):
    """(status, reason) for one run of a job; see the module docstring."""
    want = job["expect"].get("exit", 0)
    if exc is not None:
        return "failed", "%s escaped cli.run (expected exit %d)" % (exc, want)
    if code != want:
        first = err.strip().splitlines()[0] if err.strip() else ""
        return "failed", "exit %s, expected %d: %s" % (code, want, first)
    if want != 0:
        lines = err.strip().splitlines()
        if len(lines) != 1 or not lines[0].startswith("error: "):
            return "failed", "exit %d without a one-line diagnostic" % want
        return "ok", ""
    why = check_answer(job, out, root)
    return ("wrong", why) if why else ("ok", "")
