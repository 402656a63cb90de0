"""Command-line front end.

Subcommands take a JSON spec file (quadratic algebra or bilinear form) and
emit a JSON, text or LaTeX document on stdout or to --out.  Exit codes:
0 success, 1 input/usage error, 2 mathematical failure (for instance a
non-regular algebra passed to a command that needs regularity).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .exactlin import Field, MatrixExact, QQ
from .quadalg import (
    NotFiniteTypeError,
    QuadraticAlgebra,
    as_regular_check,
    graded_dims,
    koszul_dual,
)
from .moncat import leq, interval, normalize, parse_word, word_str
from .ncpoly import span_equal
from .coendc import (
    AntipodeError,
    antipode_derive,
    bialgebra_to_json,
    compile_coend,
    eliminate_defined_generators,
    quadratic_fiber,
    regular_duality_data,
    regular_fiber,
    uend_direct,
)
from .comodrep import StructureContext, comodule_table
from .bilform import (
    BilinearForm,
    comorita_components,
    hb_presentation,
    quantum_dimension,
)


DEFAULT_NMAX = 6
DEFAULT_LENGTH_BOUND = 3
DEFAULT_MAXLEN = 5
DEFAULT_MAX_PASSES = 10000


class SpecError(ValueError):
    """Raised on malformed input documents; maps to exit code 1."""


class MathError(RuntimeError):
    """Raised when the mathematics refuses; maps to exit code 2."""


# ---------------------------------------------------------------------------
# Spec parsing

def _parse_field(desc):
    if desc == "Q":
        return QQ
    if isinstance(desc, dict) and set(desc) == {"Fp"}:
        p = desc["Fp"]
        if not isinstance(p, int):
            raise SpecError("Fp modulus must be an integer")
        try:
            return Field(p)
        except ValueError as e:
            raise SpecError(str(e))
    raise SpecError("field must be \"Q\" or {\"Fp\": p}")


def _field_desc(field):
    return "Q" if field.is_rational else {"Fp": field.p}


def parse_spec(doc):
    """Dispatch a decoded JSON document to an algebra, one form, or a form
    list; raises SpecError with a field diagnostic on schema violations."""
    if not isinstance(doc, dict):
        raise SpecError("top level must be a JSON object")
    field = _parse_field(doc.get("field", "Q"))
    if "forms" in doc:
        return [_parse_form(field, f) for f in doc["forms"]]
    if "matrix" in doc:
        return _parse_form(field, doc)
    return _parse_algebra(field, doc)


def _parse_form(field, doc):
    rows = doc.get("matrix")
    if not isinstance(rows, list) or not rows:
        raise SpecError("form needs a non-empty \"matrix\"")
    try:
        parsed = [[field.of(x) for x in row] for row in rows]
        m = MatrixExact(field, len(rows), len(rows[0]), parsed)
        return BilinearForm(m)
    except SpecError:
        raise
    except (ValueError, ZeroDivisionError) as e:
        raise SpecError("bad form matrix: %s" % e)


def _parse_algebra(field, doc):
    try:
        n = doc["dim_v"]
        names = doc.get("vars") or ["x%d" % i for i in range(n)]
        rels = doc["relations"]
    except KeyError as e:
        raise SpecError("missing field %s" % e)
    if not isinstance(n, int) or n < 1:
        raise SpecError("dim_v must be a positive integer")
    if len(names) != n:
        raise SpecError("vars must list dim_v names")
    vectors = []
    for k, rel in enumerate(rels):
        v = [field.zero()] * (n * n)
        for term in rel:
            try:
                coef = field.of(term["coef"])
                word = term["word"]
            except (KeyError, TypeError):
                raise SpecError("relation %d: terms need coef and word" % k)
            except (ValueError, ZeroDivisionError) as e:
                raise SpecError("relation %d: bad coef: %s" % (k, e))
            if len(word) != 2:
                raise SpecError(
                    "relation %d: words must have length 2 (quadratic)" % k
                )
            i, j = word
            if not (0 <= i < n and 0 <= j < n):
                raise SpecError("relation %d: variable index out of range" % k)
            v[i * n + j] = v[i * n + j] + coef
        vectors.append(v)
    return QuadraticAlgebra.from_relation_vectors(field, n, vectors, names)


def spec_to_json(obj):
    """Inverse of parse_spec for round-trip checks."""
    if isinstance(obj, QuadraticAlgebra):
        n = obj.dim_v
        f = obj.field
        rels = []
        for row in obj.relations.basis.entries:
            terms = []
            for i in range(n):
                for j in range(n):
                    c = row[i * n + j]
                    if c:
                        terms.append({"coef": f.to_str(c), "word": [i, j]})
            rels.append(terms)
        return {
            "field": _field_desc(f),
            "dim_v": n,
            "vars": list(obj.var_names),
            "relations": rels,
        }
    if isinstance(obj, BilinearForm):
        f = obj.field
        return {
            "field": _field_desc(f),
            "matrix": [
                [f.to_str(x) for x in row] for row in obj.matrix.entries
            ],
        }
    raise TypeError("cannot serialize %r" % type(obj))


def load_spec(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as e:
        raise SpecError("cannot read %s: %s" % (path, e))
    except json.JSONDecodeError as e:
        raise SpecError("invalid JSON in %s: %s" % (path, e))
    return parse_spec(doc)


def thread_cap():
    """Parallelism cap from TANNAKIT_THREADS; computations are serial today,
    so this only bounds what future delegates may spawn."""
    raw = os.environ.get("TANNAKIT_THREADS", "")
    try:
        return max(1, int(raw))
    except ValueError:
        return 1


# ---------------------------------------------------------------------------
# Subcommand implementations (each returns a JSON-ready dict)

def _need_algebra(spec):
    if not isinstance(spec, QuadraticAlgebra):
        raise SpecError("this command needs a quadratic algebra spec")
    return spec


def _need_form(spec):
    if isinstance(spec, BilinearForm):
        return spec
    raise SpecError("this command needs a bilinear form spec")


def _regular_context(a, nmax):
    try:
        ctx = StructureContext(a, nmax)
    except NotFiniteTypeError as e:
        raise MathError(str(e))
    except ValueError as e:
        raise MathError(str(e))
    return ctx


def _bound(value, default, least):
    """The --bound value, or `default` when the flag is absent."""
    if value is None:
        return default
    if value < least:
        raise SpecError("--bound must be at least %d" % least)
    return value


def cmd_analyze(spec, bound):
    a = _need_algebra(spec)
    nmax = _bound(bound, DEFAULT_NMAX, 2)
    out = {"dim_v": a.dim_v, "dim_r": a.relations.dim}
    try:
        report = as_regular_check(a, nmax)
    except NotFiniteTypeError:
        out["graded_dims"] = graded_dims(a, nmax)
        out["dual_graded_dims"] = graded_dims(koszul_dual(a), nmax)
        out["finite_type"] = False
        out["as_regular"] = False
        return out
    out["graded_dims"] = report.graded_dims
    out["dual_graded_dims"] = report.dual_graded_dims
    out["finite_type"] = True
    out["as_regular"] = report.as_regular
    out["d"] = report.d
    out["relation_dims"] = report.relation_dims
    out["frobenius_top_one"] = report.frobenius_top_one
    out["pairings_nondegenerate"] = report.pairings_nondegenerate
    out["koszul_series_consistent"] = report.koszul_series_consistent
    return out


def cmd_uend(spec, bound):
    a = _need_algebra(spec)
    b = bound or DEFAULT_LENGTH_BOUND
    direct = uend_direct(a)
    cat, f = quadratic_fiber(a)
    compiled = eliminate_defined_generators(compile_coend(cat, f), cat, f)
    agree = span_equal(
        direct.relations, compiled.relations, len(direct.gens), b, a.field
    )
    if not agree:
        raise MathError("compiled and direct presentations disagree")
    return {
        "generators": direct.gens,
        "relations": [
            _rel_json(rel, direct.gens, a.field) for rel in direct.relations
        ],
        "cross_check_bound": b,
        "cross_check": True,
    }


def _rel_json(rel, names, field):
    return [
        {"coef": field.to_str(c), "word": [names[g] for g in mon]}
        for mon, c in rel.sorted_terms()
    ]


def _uaut_names(d):
    """Friendly symbols for the d = 2 case, generic z-names otherwise."""
    if d == 2:
        return {"r1": [["a", "b"], ["c", "d"]], "r2": "delta"}
    return None


def cmd_uaut(spec, bound):
    a = _need_algebra(spec)
    ctx = _regular_context(a, _bound(bound, DEFAULT_NMAX, 2))
    cat, f = regular_fiber(ctx, "D")
    bial = compile_coend(cat, f, gen_names=_uaut_names(ctx.d))
    try:
        antipode_derive(bial, regular_duality_data(ctx), DEFAULT_MAX_PASSES)
    except AntipodeError as e:
        raise MathError(str(e))
    doc = bialgebra_to_json(bial)
    doc["d"] = ctx.d
    return doc


def _default_words(d, maxlen):
    out = [()]
    frontier = [()]
    letters = list(range(1, d + 1)) + [-d]
    for _ in range(maxlen):
        nxt = []
        for w in frontier:
            for k in letters:
                nw = normalize(w + (k,), d)
                if len(nw) == len(w) + 1:
                    nxt.append(nw)
        frontier = nxt
        out.extend(frontier)
    return sorted(set(out), key=lambda w: (len(w), w))


def cmd_comod(spec, bound, words_arg):
    a = _need_algebra(spec)
    maxlen = _bound(bound, DEFAULT_LENGTH_BOUND, 0)
    ctx = _regular_context(a, DEFAULT_NMAX)
    if words_arg:
        words = [parse_word(t.strip(), ctx.d) for t in words_arg.split(",")]
    else:
        words = _default_words(ctx.d, maxlen)
    return {"d": ctx.d, "rows": comodule_table(ctx, words)}


def cmd_poset(spec, args):
    a = _need_algebra(spec)
    ctx = _regular_context(a, DEFAULT_NMAX)
    d = ctx.d
    if args.leq:
        lam = parse_word(args.leq[0], d)
        mu = parse_word(args.leq[1], d)
        return {
            "query": "leq",
            "lam": word_str(lam),
            "mu": word_str(mu),
            "result": leq(lam, mu, d),
        }
    if args.interval:
        lam = parse_word(args.interval[0], d)
        mu = parse_word(args.interval[1], d)
        return {
            "query": "interval",
            "lam": word_str(lam),
            "mu": word_str(mu),
            "result": [word_str(w) for w in interval(lam, mu, d)],
        }
    raise SpecError("poset needs --leq or --interval")


def cmd_hb(spec):
    bf = _need_form(spec)
    try:
        bial = hb_presentation(bf)
    except AntipodeError as e:
        raise MathError(str(e))
    doc = bialgebra_to_json(bial)
    q = quantum_dimension(bf)
    doc["q"] = bf.field.to_str(q.value)
    doc["q_negated"] = bf.field.to_str(-q.value)
    doc["q_convention"] = q.convention
    return doc


def cmd_classify(spec):
    if isinstance(spec, BilinearForm):
        spec = [spec]
    if not isinstance(spec, list):
        raise SpecError("classify needs a form or a \"forms\" list")
    field = spec[0].field
    comps = comorita_components(spec)
    return {
        "classes": [
            {"q": field.to_str(q), "members": members} for q, members in comps
        ]
    }


def cmd_hilbert(spec, bound):
    a = _need_algebra(spec)
    return {"graded_dims": graded_dims(a, _bound(bound, DEFAULT_NMAX, 0))}


# ---------------------------------------------------------------------------
# Rendering

def render(doc, fmt):
    if fmt == "json":
        return json.dumps(doc, indent=2, sort_keys=True) + "\n"
    if fmt == "latex":
        return _render_latex(doc)
    return _render_text(doc)


def _render_text(doc, indent=""):
    lines = []
    for key in sorted(doc):
        val = doc[key]
        if isinstance(val, dict):
            lines.append("%s%s:" % (indent, key))
            lines.append(_render_text(val, indent + "  "))
        elif isinstance(val, list) and val and isinstance(val[0], dict):
            lines.append("%s%s:" % (indent, key))
            for item in val:
                lines.append(indent + "  - " + json.dumps(item, sort_keys=True))
        else:
            lines.append("%s%s: %s" % (indent, key, json.dumps(val)))
    return "\n".join(line for line in lines if line) + ("\n" if not indent else "")


def _render_latex(doc):
    if "relations" in doc and "generators" in doc:
        lines = [r"\begin{aligned}"]
        for rel in doc["relations"]:
            lines.append(_signed_terms_latex(rel) + r" &= 0 \\")
        lines.append(r"\end{aligned}")
        return "\n".join(lines) + "\n"
    return _render_text(doc)


def _signed_terms_latex(terms):
    bits = []
    for t in terms:
        word = " ".join(t["word"]) if t["word"] else "1"
        coef = t["coef"]
        if coef == "1" and t["word"]:
            s = word
        elif coef == "-1" and t["word"]:
            s = "-" + word
        elif t["word"]:
            s = "%s \\, %s" % (coef, word)
        else:
            s = coef
        if bits and not s.startswith("-"):
            bits.append("+ " + s)
        elif bits:
            bits.append("- " + s[1:])
        else:
            bits.append(s)
    return " ".join(bits)


# ---------------------------------------------------------------------------
# Entry point

def build_parser():
    p = argparse.ArgumentParser(
        prog="tannakit",
        description="presentations of universal bialgebras from quadratic "
        "algebras and bilinear forms",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("spec", help="path to a JSON spec file")
        sp.add_argument("--bound", type=int, default=None,
                        help="degree/length bound override")
        sp.add_argument("--format", choices=("json", "text", "latex"),
                        default="json")
        sp.add_argument("--out", default=None, help="write output to a file")

    common(sub.add_parser("analyze", help="graded dims and regularity report"))
    common(sub.add_parser("uend", help="universal bialgebra presentation"))
    common(sub.add_parser("uaut", help="universal Hopf algebra presentation"))
    sp = sub.add_parser("comod", help="comodule dimension table")
    common(sp)
    sp.add_argument("--words", default=None,
                    help="comma-separated word list, e.g. 'r1 r1,r2'")
    sp = sub.add_parser("poset", help="word order queries")
    common(sp)
    sp.add_argument("--leq", nargs=2, metavar=("LAM", "MU"))
    sp.add_argument("--interval", nargs=2, metavar=("LAM", "MU"))
    common(sub.add_parser("hb", help="quantum group of a bilinear form"))
    common(sub.add_parser("classify", help="co-Morita classes of forms"))
    common(sub.add_parser("hilbert", help="graded dimension sequence"))
    return p


def run(argv=None):
    args = build_parser().parse_args(argv)
    thread_cap()  # validated once so a bad value surfaces early
    try:
        spec = load_spec(args.spec)
        if args.command == "analyze":
            doc = cmd_analyze(spec, args.bound)
        elif args.command == "uend":
            doc = cmd_uend(spec, args.bound)
        elif args.command == "uaut":
            doc = cmd_uaut(spec, args.bound)
        elif args.command == "comod":
            doc = cmd_comod(spec, args.bound, args.words)
        elif args.command == "poset":
            doc = cmd_poset(spec, args)
        elif args.command == "hb":
            doc = cmd_hb(spec)
        elif args.command == "classify":
            doc = cmd_classify(spec)
        elif args.command == "hilbert":
            doc = cmd_hilbert(spec, args.bound)
        else:
            raise SpecError("unknown command %r" % args.command)
    except SpecError as e:
        print("error: %s" % e, file=sys.stderr)
        return 1
    except MathError as e:
        print("math error: %s" % e, file=sys.stderr)
        return 2
    text = render(doc, args.format)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
