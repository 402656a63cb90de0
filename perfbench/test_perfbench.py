"""Tests of the benchmark itself: generator determinism, the answer checker
and the tracer.  Run from the repository root:

    python3 -m pytest -q perfbench
"""

import contextlib
import io
import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import check  # noqa: E402
import jobs  # noqa: E402
import run  # noqa: E402
from tracer import Tracer  # noqa: E402


def _tree(path):
    out = {}
    for name in sorted(os.listdir(path)):
        with open(os.path.join(path, name), "rb") as fh:
            out[name] = fh.read()
    return out


@pytest.mark.parametrize("workload", jobs.WORKLOADS)
def test_generator_is_byte_identical_for_a_seed(tmp_path, monkeypatch,
                                                workload):
    trees = []
    for sub in ("a", "b", "c"):
        (tmp_path / sub).mkdir()
        monkeypatch.chdir(tmp_path / sub)
        jobs.generate(workload, 7 if sub != "c" else 8, "out")
        trees.append(_tree(str(tmp_path / sub / "out")))
    assert trees[0] == trees[1]
    assert trees[0] != trees[2]


def test_generated_parameters_are_nonzero_mod_p_and_forms_nondegenerate(
        tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    for workload in jobs.WORKLOADS:
        for job in jobs.generate(workload, 3, workload):
            assert job["kind"] in jobs.KIND_WHY
            if job["expect"].get("exit", 0):
                continue
            with open(job["argv"][1].replace(jobs.BUNDLED, os.path.join(
                    ROOT, jobs.BUNDLED)), encoding="utf-8") as fh:
                doc = json.load(fh)
            for rel in doc.get("relations", []):
                for t in rel:
                    c = check.Field("Q").of(t["coef"])
                    assert c.numerator % jobs.P and c.denominator % jobs.P
            forms = doc.get("forms", [doc] if "matrix" in doc else [])
            for f in forms:
                assert jobs._det([[check.Field("Q").of(x) for x in row]
                                  for row in f["matrix"]])


def _run_cli(argv):
    from tannakit import cli
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run(argv)
    return code, out.getvalue(), err.getvalue()


def _job(tmp_path, workload, command, spec_part=""):
    """First job of a generated workload with this command whose spec path
    contains spec_part, not counting malformed and golden-file jobs."""
    for job in jobs.generate(workload, 5, str(tmp_path / workload)):
        if job["command"] == command and not job["expect"].get("exit") and \
                spec_part in job["argv"][1] and \
                "golden" not in job["expect"]:
            return job
    raise LookupError(command)


def _status(job, code, out, err=""):
    return check.check_job(job, code, out, err, None, ROOT)[0]


def test_checker_accepts_real_answers_and_flags_a_perturbed_series(
        tmp_path):
    job = _job(tmp_path, "sweep-d2", "hilbert")
    code, out, err = _run_cli(job["argv"])
    assert _status(job, code, out) == "ok"
    doc = json.loads(out)
    doc["graded_dims"][3] += 1
    assert _status(job, 0, json.dumps(doc)) == "wrong"

    job = _job(tmp_path, "sweep-d2", "analyze")
    code, out, err = _run_cli(job["argv"])
    assert _status(job, code, out) == "ok"
    doc = json.loads(out)
    doc["dual_graded_dims"][2] -= 1
    assert _status(job, 0, json.dumps(doc)) == "wrong"


def test_checker_flags_a_wrong_quantum_dimension(tmp_path):
    job = _job(tmp_path, "sweep-d2", "hb", "form2_struct")
    code, out, err = _run_cli(job["argv"])
    assert _status(job, code, out) == "ok"
    doc = json.loads(out)
    doc["q"] = doc["q_negated"]
    assert _status(job, 0, json.dumps(doc)) == "wrong"

    job = _job(tmp_path, "sweep-d2", "classify")
    code, out, err = _run_cli(job["argv"])
    assert _status(job, code, out) == "ok"
    doc = json.loads(out)
    doc["classes"][0]["q"] = "1/7"
    assert _status(job, 0, json.dumps(doc)) == "wrong"


def test_checker_flags_wrong_exit_codes(tmp_path):
    job = _job(tmp_path, "sweep-d2", "uend")
    code, out, err = _run_cli(job["argv"])
    assert _status(job, code, out) == "ok"
    assert _status(job, 2, "", "math error: x\n") == "failed"
    assert check.check_job(job, None, "", "", "ValueError: x", ROOT)[0] == \
        "failed"
    malformed = {"argv": ["hilbert", "x.json"], "expect": {"exit": 1}}
    assert _status(malformed, 0, "{}") == "failed"
    assert _status(malformed, 1, "", "error: bad spec\n") == "ok"


def test_self_times_are_within_their_spans():
    tracer = Tracer()

    def leaf():
        return sum(range(2000))

    def middle():
        return [tracer.call("leaf", leaf, (), {}) for _ in range(3)]

    tracer.run_job("j", lambda: tracer.call("middle", middle, (), {}))
    assert _run_traced_cli(tracer) == 0
    assert len(tracer.spans) > 10
    for s in tracer.spans:
        assert 0 <= s.self_time <= s.end - s.start
    by_parent = {}
    for s in tracer.spans:
        by_parent.setdefault(s.parent, []).append(s)
    for idx, s in enumerate(tracer.spans):
        kids = by_parent.get(idx, [])
        assert all(s.start <= k.start <= k.end <= s.end for k in kids)


def _run_traced_cli(tracer):
    from tannakit import cli, comodrep, exactlin, quadalg
    rref, kron, kernel = exactlin.rref, quadalg.kron, comodrep.kernel
    tracer.install()
    try:
        # names re-bound by importing modules are wrapped too
        assert quadalg.kron is not kron and comodrep.kernel is not kernel
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = tracer.run_job("uaut-kxy", cli.run, [
                "uaut", os.path.join(ROOT, jobs.BUNDLED, "kxy.json")])
    finally:
        tracer.uninstall()
    assert exactlin.rref is rref and quadalg.kron is kron
    assert comodrep.kernel is kernel
    assert tracer.counts["exactlin.rref.cells"] > 0
    return code


def test_benchmark_json_lists_the_metrics_run_py_prints():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == \
        run.END_TO_END
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == \
        run.PER_LAYER
    assert [w["name"] for w in bench["workloads"]] == list(jobs.WORKLOADS)
