import json
import os
import runpy
import sys

import pytest

from tannakit import cli


DATA = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "src", "tannakit", "data",
)
GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")


def data(name):
    return os.path.join(DATA, name)


def golden(name):
    with open(os.path.join(GOLDEN, name), "r", encoding="utf-8") as fh:
        return fh.read()


def run_cli(capsys, *argv):
    code = cli.run(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_parse_bundled_fixtures():
    for name in ("kxy.json", "qplane2.json", "jordan.json", "kxyz.json"):
        spec = cli.load_spec(data(name))
        assert spec.dim_v >= 2
    bf = cli.load_spec(data("bq3.json"))
    assert bf.n == 2


def test_spec_roundtrip():
    for name in ("kxy.json", "qplane2.json", "jordan.json", "kxyz.json",
                 "bq3.json"):
        spec = cli.load_spec(data(name))
        doc = cli.spec_to_json(spec)
        again = cli.parse_spec(doc)
        assert cli.spec_to_json(again) == doc


def test_malformed_inputs():
    with pytest.raises(cli.SpecError):
        cli.parse_spec([1, 2])
    with pytest.raises(cli.SpecError):
        cli.parse_spec({"field": "R", "dim_v": 2, "relations": []})
    with pytest.raises(cli.SpecError):
        cli.parse_spec(
            {"dim_v": 2, "vars": ["x", "y"],
             "relations": [[{"coef": "1/0", "word": [0, 1]}]]}
        )
    with pytest.raises(cli.SpecError):
        cli.parse_spec(
            {"dim_v": 2, "vars": ["x", "y"],
             "relations": [[{"coef": "1", "word": [0, 1, 1]}]]}
        )


def test_analyze_kxyz(capsys):
    code, out, _ = run_cli(capsys, "analyze", data("kxyz.json"))
    assert code == 0
    assert json.loads(out) == {
        "as_regular": True,
        "d": 3,
        "dim_r": 3,
        "dim_v": 3,
        "dual_graded_dims": [1, 3, 3, 1, 0, 0, 0],
        "finite_type": True,
        "frobenius_top_one": True,
        "graded_dims": [1, 3, 6, 10, 15, 21, 28],
        "koszul_series_consistent": True,
        "pairings_nondegenerate": True,
        "relation_dims": [3, 3, 1, 0],
    }


def test_analyze_not_finite_type_keeps_graded_dims(capsys, tmp_path):
    path = tmp_path / "xsq.json"
    path.write_text(json.dumps({
        "dim_v": 2, "relations": [[{"coef": "1", "word": [0, 0]}]]}))
    code, out, _ = run_cli(capsys, "analyze", str(path), "--bound", "5")
    assert code == 0
    assert json.loads(out) == {
        "as_regular": False, "dim_r": 1, "dim_v": 2, "finite_type": False,
        "graded_dims": [1, 2, 3, 5, 8, 13],
        "dual_graded_dims": [1, 2, 1, 1, 1, 1],
    }


def test_uend_cross_check(capsys):
    code, out, _ = run_cli(capsys, "uend", data("kxy.json"))
    assert code == 0
    doc = json.loads(out)
    assert doc["cross_check"] is True
    assert doc["generators"] == ["z_11", "z_12", "z_21", "z_22"]


def test_uaut_golden(capsys):
    code, out, _ = run_cli(capsys, "uaut", data("kxy.json"))
    assert code == 0
    assert out == golden("uaut_kxy.json")


def test_hb_golden(capsys):
    code, out, _ = run_cli(capsys, "hb", data("bq3.json"))
    assert code == 0
    assert out == golden("hb_bq3.json")
    doc = json.loads(out)
    assert doc["q"] == "-10/3" and doc["q_negated"] == "10/3"


def test_comod_golden(capsys):
    code, out, _ = run_cli(capsys, "comod", data("kxy.json"))
    assert code == 0
    assert out == golden("comod_kxy_len3.json")


def test_hilbert(capsys):
    code, out, _ = run_cli(capsys, "hilbert", data("qplane2.json"),
                           "--bound", "4")
    assert code == 0
    assert json.loads(out)["graded_dims"] == [1, 2, 3, 4, 5]


def test_hilbert_bound_zero(capsys):
    code, out, _ = run_cli(capsys, "hilbert", data("kxy.json"), "--bound", "0")
    assert code == 0
    assert json.loads(out)["graded_dims"] == [1]


@pytest.mark.parametrize("argv", [
    ("hilbert", "kxy.json", "--bound", "-3"),
    ("analyze", "kxy.json", "--bound", "1"),
    ("analyze", "kxy.json", "--bound", "-3"),
    ("uaut", "kxy.json", "--bound", "1"),
    ("comod", "kxy.json", "--bound", "-1"),
])
def test_bad_bound_is_an_input_error(capsys, argv):
    command, spec, *flags = argv
    code, out, err = run_cli(capsys, command, data(spec), *flags)
    assert code == 1 and out == ""
    assert err.count("\n") == 1 and "--bound must be at least" in err


def test_composite_modulus_rejected(capsys, tmp_path):
    path = tmp_path / "fp4.json"
    path.write_text(json.dumps({
        "field": {"Fp": 4}, "dim_v": 2,
        "relations": [[{"coef": "1", "word": [0, 1]},
                       {"coef": "-1", "word": [1, 0]}]]}))
    code, out, err = run_cli(capsys, "hilbert", str(path))
    assert code == 1 and out == ""
    assert err == "error: Fp modulus must be a prime, got 4\n"


def test_python_dash_m_entry_point(capsys, monkeypatch):
    monkeypatch.setattr(sys, "argv",
                        ["tannakit", "hilbert", data("kxy.json"), "--bound", "3"])
    with pytest.raises(SystemExit) as exc:
        runpy.run_module("tannakit", run_name="__main__")
    assert exc.value.code == 0
    assert json.loads(capsys.readouterr().out)["graded_dims"] == [1, 2, 3, 4]


def test_poset_queries(capsys):
    code, out, _ = run_cli(capsys, "poset", data("kxy.json"),
                           "--leq", "r2", "r1 r1")
    assert code == 0
    assert json.loads(out)["result"] is True
    code, out, _ = run_cli(capsys, "poset", data("kxy.json"),
                           "--interval", "r2", "r1 r1")
    assert code == 0
    assert json.loads(out)["result"] == ["r2", "r1 r1"]


def test_classify(capsys, tmp_path):
    spec = {
        "field": "Q",
        "forms": [
            {"matrix": [["0", "1"], ["-1/3", "0"]]},
            {"matrix": [["1", "-16/3", "0"], ["1", "1", "0"], ["0", "0", "1"]]},
            {"matrix": [["1", "0"], ["0", "1"]]},
        ],
    }
    path = tmp_path / "forms.json"
    path.write_text(json.dumps(spec))
    code, out, _ = run_cli(capsys, "classify", str(path))
    assert code == 0
    doc = json.loads(out)
    assert doc["classes"] == [
        {"q": "-10/3", "members": [0, 1]},
        {"q": "2", "members": [2]},
    ]


def test_exit_code_1_on_input_errors(capsys, tmp_path):
    code, _, err = run_cli(capsys, "analyze", str(tmp_path / "missing.json"))
    assert code == 1 and "error" in err
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, _ = run_cli(capsys, "analyze", str(bad))
    assert code == 1
    form = tmp_path / "form.json"
    form.write_text(json.dumps({"matrix": [["1", "0"], ["0", "1"]]}))
    code, _, _ = run_cli(capsys, "uaut", str(form))
    assert code == 1  # wrong spec kind for the command


def test_exit_code_2_on_math_failure(capsys, tmp_path):
    # TV/(x^2) is not of finite type, so uaut must fail mathematically
    spec = {
        "field": "Q", "dim_v": 2, "vars": ["x", "y"],
        "relations": [[{"coef": "1", "word": [0, 0]}]],
    }
    path = tmp_path / "xsq.json"
    path.write_text(json.dumps(spec))
    code, _, err = run_cli(capsys, "uaut", str(path))
    assert code == 2 and "math error" in err


def test_out_flag_writes_file(capsys, tmp_path):
    target = tmp_path / "out.json"
    code, out, _ = run_cli(capsys, "hilbert", data("kxy.json"),
                           "--out", str(target))
    assert code == 0 and out == ""
    assert json.loads(target.read_text())["graded_dims"][0] == 1


def test_determinism(capsys):
    outs = []
    for _ in range(2):
        _, out, _ = run_cli(capsys, "uaut", data("kxy.json"))
        outs.append(out)
    assert outs[0] == outs[1]


def test_text_and_latex_formats(capsys):
    code, out, _ = run_cli(capsys, "analyze", data("kxy.json"),
                           "--format", "text")
    assert code == 0 and "as_regular: true" in out
    code, out, _ = run_cli(capsys, "uaut", data("kxy.json"),
                           "--format", "latex")
    assert code == 0 and out.startswith("\\begin{aligned}")
    assert "delta_inv" in out


def test_thread_cap_env(monkeypatch):
    monkeypatch.setenv("TANNAKIT_THREADS", "4")
    assert cli.thread_cap() == 4
    monkeypatch.setenv("TANNAKIT_THREADS", "junk")
    assert cli.thread_cap() == 1
