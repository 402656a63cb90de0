"""Seeded job generator for the tannakit benchmark.

`generate(workload, seed, outdir)` writes the workload's spec files under
`outdir` and returns its job list.  The same (workload, seed) always gives
byte-identical spec files and the same job list.  The program under test
only ever sees the spec files and the command-line flags of each job; the
`expect` record of a job is read by `check.py` alone.

Every generated parameter is nonzero modulo P, so the same rational can be
used over Q and over F_P, and every generated form is non-degenerate.
"""

import json
import os
import random
from fractions import Fraction

P = 32003
BUNDLED = "src/tannakit/data"

WORKLOADS = ("sweep-d2", "regularity-d3", "presentations-d3")

COMMANDS = ("analyze", "hilbert", "uend", "uaut", "comod", "poset", "hb",
            "classify")

# One line per job kind: why it is in the mix.
KIND_WHY = {
    "analyze": "full regularity report; graded dims twice plus the "
               "relation-space intersections (quadalg, exactlin)",
    "hilbert": "graded dimensions alone; the biggest dense matrices per "
               "second of work (exactlin.rref)",
    "uend": "direct and compiled presentations compared by span equality "
            "(coendc, ncpoly._span_matrix)",
    "uaut": "regularity gate, coend compilation and antipode verification "
            "by rewriting (quadalg, coendc, ncpoly)",
    "comod": "comodule tables: structure maps, images and kernels per word "
             "(comodrep)",
    "poset": "word-order queries behind the nmax-6 regularity gate "
             "(moncat, quadalg)",
    "hb": "quantum group of a form: cup/cap coend plus antipode rewriting "
          "(bilform, coendc, ncpoly)",
    "classify": "quantum dimensions of many small forms (bilform)",
    "malformed": "bad input must give exit 1 and a diagnostic; covers the "
                 "spec boundary (cli)",
}

# Word-order queries at d = 2, answers derived by hand from the two
# generating rules r_2 < r_1 r_1 and 1 < r_1 r_2^-1 r_1 (see check.py).
LEQ_QUERIES = [
    ("r2", "r1 r1"),
    ("r1 r1", "r2"),
    ("1", "r1 r2^-1 r1"),
    ("r2 r2", "r1 r1 r1 r1"),
    ("r1", "r2"),
    ("r2", "r1 r2^-1 r1 r2"),
]
INTERVAL_QUERIES = [
    ("r2", "r1 r1"),
    ("1", "r1 r2^-1 r1"),
    ("r2 r2", "r1 r1 r1 r1"),
    ("r2", "r1 r2^-1 r1 r2"),
]


def _rational(rng):
    """A rational of height below 10^6 whose numerator and denominator are
    nonzero mod P and whose residue is not 0 or +-1.  Both parts have six
    digits, so the cost of Fraction arithmetic varies little by seed."""
    while True:
        q = Fraction(rng.randrange(100000, 1000000) * rng.choice((1, -1)),
                     rng.randrange(100000, 1000000))
        r = q.numerator * pow(q.denominator, -1, P) % P
        if (q.numerator % P and q.denominator % P
                and r not in (0, 1, P - 1) and abs(q) != 1):
            return q


def _field(fp):
    return {"Fp": P} if fp else "Q"


def _term(coef, i, j):
    return {"coef": str(coef), "word": [i, j]}


def _algebra_doc(fp, n, rels, names=None):
    return {"field": _field(fp), "dim_v": n,
            "vars": names or ["x", "y", "z", "w"][:n], "relations": rels}


def quantum_affine_doc(rng, n, fp):
    """x_i x_j - q_ij x_j x_i for i < j; the q_ij are seeded."""
    rels = []
    for i in range(n):
        for j in range(i + 1, n):
            rels.append([_term(1, i, j), _term(-_rational(rng), j, i)])
    return _algebra_doc(fp, n, rels)


def polynomial_doc(n):
    rels = [[_term(1, i, j), _term(-1, j, i)]
            for i in range(n) for j in range(i + 1, n)]
    return _algebra_doc(False, n, rels)


def jordan_doc(rng, fp):
    """xy - yx - c y^2 with a seeded c."""
    c = _rational(rng)
    return _algebra_doc(fp, 2, [[_term(1, 0, 1), _term(-1, 1, 0),
                                 _term(-c, 1, 1)]])


def monomial_path_doc(rng):
    """Monomial relations a.b and b.c for a seeded ordering (a, b, c) of the
    three generators, with seeded nonzero coefficients: of finite type with
    d = 3 and a one-dimensional top space, but not regular."""
    path = list(range(3))
    rng.shuffle(path)
    a, b, c = path
    rels = [[_term(_rational(rng), a, b)], [_term(_rational(rng), b, c)]]
    return _algebra_doc(False, 3, rels), path


def _form(rows):
    return [[str(x) for x in row] for row in rows]


def q_form(q):
    return _form([[0, 1], [-1 / q, 0]])


def structured_form(rng, n):
    """Forms of the standard quantum groups (q-forms and their block sums,
    the q-antidiagonal form for n = 3, signed antidiagonals), whose H(b)
    the program presents at this commit."""
    q = _rational(rng)
    z = Fraction(0)
    rows = [[z] * n for _ in range(n)]
    kind = rng.choice(("q", "antidiagonal"))
    if kind == "antidiagonal":
        sign = rng.choice((1, -1))
        for i in range(n):
            rows[i][n - 1 - i] = Fraction(1 if i < n // 2 else sign)
        if n % 2:                           # 1, -1, 1 on the antidiagonal
            rows[n // 2][n // 2] = Fraction(-1)
            rows[n - 1][0] = Fraction(1)
    elif n == 3:
        rows[0][2], rows[1][1], rows[2][0] = Fraction(1), -1 / q, 1 / q ** 2
    else:
        for k in range(0, n, 2):
            rows[k][k + 1] = Fraction(1)
            rows[k + 1][k] = -1 / q
    return _form(rows)


def _det(rows):
    m = [list(r) for r in rows]
    n = len(m)
    det = Fraction(1)
    for c in range(n):
        piv = next((r for r in range(c, n) if m[r][c]), None)
        if piv is None:
            return Fraction(0)
        if piv != c:
            m[c], m[piv] = m[piv], m[c]
            det = -det
        det *= m[c][c]
        for r in range(c + 1, n):
            f = m[r][c] / m[c][c]
            m[r] = [x - f * y for x, y in zip(m[r], m[c])]
    return det


def generic_form(rng, n):
    """Dense form with small nonzero integer entries, re-drawn until it is
    non-degenerate and has nonzero trace (traceless 2 x 2 forms are a
    special family, not generic ones)."""
    while True:
        rows = [[Fraction(rng.choice((1, -1)) * rng.randrange(1, 10))
                 for _ in range(n)] for _ in range(n)]
        if _det(rows) and sum(rows[i][i] for i in range(n)):
            return _form(rows)


class _Builder:
    """Collects spec files and jobs of one workload."""

    def __init__(self, workload, outdir, rng):
        self.workload = workload
        self.outdir = outdir
        self.rng = rng
        self.files = {}
        self.jobs = []

    def spec(self, name, doc):
        self.files[name] = json.dumps(doc, sort_keys=True) + "\n"
        return os.path.join(self.outdir, name)

    def raw(self, name, text):
        self.files[name] = text
        return os.path.join(self.outdir, name)

    def job(self, command, spec, expect, *flags):
        kind = "malformed" if expect.get("exit", 0) == 1 else command
        self.jobs.append({
            "id": "%s/%02d-%s-%s" % (self.workload, len(self.jobs), command,
                                     os.path.basename(spec)[:-5]),
            "command": command,
            "kind": kind,
            "argv": [command, spec] + list(flags),
            "expect": expect,
        })

    def algebra_jobs(self, spec, facts, commands):
        """Jobs on one d = 2 regular algebra; facts tell the checker what
        the algebra is."""
        for cmd in commands:
            if cmd == "poset_leq":
                lam, mu = self.rng.choice(LEQ_QUERIES)
                self.job("poset", spec, dict(facts, check="poset_leq",
                                             lam=lam, mu=mu),
                         "--leq", lam, mu)
            elif cmd == "poset_interval":
                lam, mu = self.rng.choice(INTERVAL_QUERIES)
                self.job("poset", spec, dict(facts, check="poset_interval",
                                             lam=lam, mu=mu),
                         "--interval", lam, mu)
            else:
                self.job(cmd, spec, dict(facts, check=cmd))

    def form_jobs(self, forms):
        for name, rows in forms:
            spec = self.spec(name + ".json", {"field": "Q", "matrix": rows})
            self.job("hb", spec, {"check": "hb"})

    def classify_job(self, name, forms):
        spec = self.spec(name + ".json", {
            "field": "Q", "forms": [{"matrix": m} for m in forms]})
        self.job("classify", spec, {"check": "classify"})


D2_COMMANDS = ("analyze", "hilbert", "uend", "uaut", "comod", "poset_leq",
               "poset_interval")


def _bundled(name):
    return BUNDLED + "/" + name + ".json"


def _sweep_d2(b):
    rng = b.rng
    d2 = {"family": "qaffine", "n": 2}
    jordan = {"family": "jordan", "n": 2}
    algebras = [
        (_bundled("kxy"), dict(d2, golden="kxy")),
        (_bundled("jordan"), jordan),
        (b.spec("qplane_q.json", quantum_affine_doc(rng, 2, False)), d2),
        (b.spec("qplane_fp.json", quantum_affine_doc(rng, 2, True)), d2),
        (b.spec("jordan_fp.json", jordan_doc(rng, True)), jordan),
    ]
    for spec, facts in algebras:
        b.algebra_jobs(spec, facts, D2_COMMANDS)
    b.job("hb", _bundled("bq3"), {"check": "hb", "golden": "bq3"})
    b.form_jobs([("form2_struct%d" % k, structured_form(rng, 2))
                 for k in range(3)]
                + [("form2_generic%d" % k, generic_form(rng, 2))
                   for k in range(2)])
    b.classify_job("classify60", _qform_classes(rng, 20))
    _malformed(b)


def _qform_classes(rng, count):
    """count co-Morita classes of three 2 x 2 forms each, shuffled."""
    forms = []
    for q in [_rational(rng) for _ in range(count)]:
        forms += [q_form(q), q_form(1 / q), _form([[0, -1], [1 / q, 0]])]
    rng.shuffle(forms)
    return forms


def _malformed(b):
    """Bad inputs.  The first three are mishandled at this commit: a
    non-prime modulus is accepted, and the other two raise out of cli.run."""
    b.job("hilbert", _fp4(b), {"exit": 1})
    empty = b.spec("bad_empty_forms.json", {"field": "Q", "forms": []})
    b.job("classify", empty, {"exit": 1})
    b.job("poset", _bundled("kxy"), {"exit": 1}, "--leq", "r5", "r1")
    cubic = b.spec("bad_cubic.json", {"dim_v": 2, "relations": [
        [{"coef": "1", "word": [0, 1, 1]}]]})
    b.job("analyze", cubic, {"exit": 1})
    b.job("uend", b.raw("bad_json.json", '{"dim_v": 2,\n'), {"exit": 1})


def _fp4(b):
    return b.spec("bad_fp4.json", {"field": {"Fp": 4}, "dim_v": 2,
                                   "relations": [[_term(1, 0, 1),
                                                  _term(-1, 1, 0)]]})


def _regularity_d3(b):
    rng = b.rng
    qa = [b.spec("qaffine3_%s.json" % f, quantum_affine_doc(rng, 3, fp))
          for f, fp in (("q", False), ("fp", True))]
    k4 = b.spec("kxyzw.json", polynomial_doc(4))
    mono_doc, path = monomial_path_doc(rng)
    mono = b.spec("monopath3.json", mono_doc)
    q3 = {"family": "qaffine", "n": 3}
    for spec in [_bundled("kxyz")] + qa:
        b.job("analyze", spec, dict(q3, check="analyze"), "--bound", "4")
        b.job("hilbert", spec, dict(q3, check="hilbert"), "--bound", "5")
    b.job("hilbert", k4, {"family": "qaffine", "n": 4, "check": "hilbert"},
          "--bound", "4")
    b.job("analyze", mono, {"family": "monopath", "n": 3, "path": path,
                            "check": "analyze"}, "--bound", "4")
    _probes(b, ("uend", "uaut", "comod", "poset_leq", "poset_interval"),
            False)
    b.form_jobs([("qform%d" % k, q_form(_rational(rng))) for k in range(4)])
    b.classify_job("classify30", _qform_classes(rng, 10))
    b.job("hilbert", _fp4(b), {"exit": 1})


def _probes(b, commands, fp):
    """Cheap jobs on a seeded d = 2 quantum plane, so that every subcommand
    runs in every workload."""
    spec = b.spec("probe_qplane.json", quantum_affine_doc(b.rng, 2, fp))
    b.algebra_jobs(spec, {"family": "qaffine", "n": 2}, commands)


def _presentations_d3(b):
    rng = b.rng
    q3 = {"family": "qaffine", "n": 3}
    qa_q = b.spec("qaffine3_q.json", quantum_affine_doc(rng, 3, False))
    qa_fp = b.spec("qaffine3_fp.json", quantum_affine_doc(rng, 3, True))
    for spec in (_bundled("kxyz"), qa_fp):
        b.job("uend", spec, dict(q3, check="uend"))
    for spec in (_bundled("kxyz"), qa_q):
        b.job("uaut", spec, dict(q3, check="uaut"), "--bound", "4")
    b.form_jobs([("form%d_%s" % (n, kind), make(rng, n)) for n in (3, 4)
                 for kind, make in (("struct", structured_form),
                                    ("generic", generic_form))])
    b.classify_job("classify24",
                   [structured_form(rng, n) for n in (3, 4) * 6]
                   + [generic_form(rng, n) for n in (3, 4) * 6])
    b.job("comod", _bundled("kxy"), {"family": "qaffine", "n": 2,
                                     "check": "comod", "maxlen": 5},
          "--bound", "5")
    _probes(b, ("analyze", "hilbert", "poset_leq", "poset_interval"), True)


_BUILDERS = {
    "sweep-d2": _sweep_d2,
    "regularity-d3": _regularity_d3,
    "presentations-d3": _presentations_d3,
}


def generate(workload, seed, outdir):
    """Write the workload's spec files under outdir (a path relative to the
    checkout root) and return its job list in run order."""
    if workload not in _BUILDERS:
        raise ValueError("unknown workload %r" % workload)
    rng = random.Random("%s/%d" % (workload, seed))
    b = _Builder(workload, outdir, rng)
    _BUILDERS[workload](b)
    rng.shuffle(b.jobs)
    os.makedirs(outdir, exist_ok=True)
    for name, text in sorted(b.files.items()):
        with open(os.path.join(outdir, name), "w", encoding="utf-8") as fh:
            fh.write(text)
    with open(os.path.join(outdir, "jobs.json"), "w", encoding="utf-8") as fh:
        json.dump(b.jobs, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return b.jobs


def spec_paths(jobs):
    """Distinct spec files of a job list, in first-use order."""
    seen = []
    for job in jobs:
        if job["argv"][1] not in seen:
            seen.append(job["argv"][1])
    return seen
