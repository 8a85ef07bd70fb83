"""CLI subcommands, file formats, exit codes, determinism."""

import io
import json
import os
import random
import re
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wittpolar import cowitt, samples
from wittpolar.cli import main
from wittpolar.gfq import gf_build
from wittpolar.ppolar import nilpotence_index, polarize
from wittpolar.wire import MAX_DEPTH

F2 = gf_build(2, 1)
F3 = gf_build(3, 1)
F4 = gf_build(2, 2)
DATA = Path(__file__).with_name("data")


def run(capsys, *argv):
    rc = main(list(argv))
    out = capsys.readouterr()
    return rc, out.out, out.err


def test_witt_poly_emits_sum_polys(capsys, tmp_path):
    rc, out, err = run(capsys, "witt-poly", "--p", "2", "--n", "2",
                       "--kind", "sum")
    assert rc == 0 and err == ""
    data = json.loads(out)
    assert data["format"] == "wittpolar/1"
    level1 = data["levels"][1]
    assert {tuple(t["exp"]): int(t["num"]) for t in level1["terms"]} == {
        (0, 1, 0, 0): 1, (0, 0, 0, 1): 1, (1, 0, 1, 0): -1}


def test_witt_poly_emits_a_seven_ary_product(capsys):
    rc, out, err = run(capsys, "witt-poly", "--p", "7", "--n", "1",
                       "--kind", "prod")
    assert rc == 0
    level0, = json.loads(out)["levels"]
    assert level0["vars"] == ["x0", "y0", "z0", "u0", "v0", "w0", "ww0"]
    assert level0["terms"] == [{"den": "1", "exp": [1] * 7, "num": "1"}]


def test_witt_poly_rejects_non_prime(capsys):
    rc, out, err = run(capsys, "witt-poly", "--p", "4", "--n", "1",
                       "--kind", "sum")
    assert rc == 1
    assert json.loads(err)["error"] == "validation"


def test_bad_subcommand_is_validation_error(capsys):
    rc, out, err = run(capsys, "frobnicate")
    assert rc == 1
    assert json.loads(err)["error"] == "validation"


@pytest.fixture
def algebra_file(tmp_path):
    A = samples.trunc_nil_polar(F2, 4)
    data = A.to_json()
    data["format"] = "wittpolar/1"
    path = tmp_path / "alg.json"
    path.write_text(json.dumps(data))
    return path


def test_witt_eval_expression(capsys, tmp_path, algebra_file):
    A = samples.trunc_nil_polar(F2, 4)
    lit = {"op": "lit", "coords": [[[1], [0], [0]], [[0], [0], [0]]]}
    expr = {"format": "wittpolar/1", "algebra": json.loads(
        algebra_file.read_text()), "expr": {"op": "add", "args": [lit, lit]}}
    path = tmp_path / "expr.json"
    path.write_text(json.dumps(expr))
    rc, out, err = run(capsys, "witt-eval", str(path))
    assert rc == 0
    assert json.loads(out)["coords"] == [[[0], [0], [0]], [[0], [1], [0]]]


def test_cw_pipeline(capsys, tmp_path, algebra_file):
    x = {"format": "wittpolar/1", "tail": [[1], [0], [0]],
         "exceptions": {"0": [[0], [1], [0]]}, "witness": [0, 2]}
    xp = tmp_path / "x.json"
    xp.write_text(json.dumps(x))
    rc, out, _ = run(capsys, "cw", "validate", "--algebra",
                     str(algebra_file), str(xp))
    assert rc == 0 and json.loads(out)["valid"] is True
    rc, out, _ = run(capsys, "cw", "add", "--algebra", str(algebra_file),
                     str(xp), str(xp))
    assert rc == 0
    data = json.loads(out)
    assert data["tail"] == [[0], [1], [0]]
    rc, out, _ = run(capsys, "cw", "v", "--algebra", str(algebra_file),
                     str(xp))
    assert rc == 0 and json.loads(out)["exceptions"] == {}


def test_split_reports_zero_points_for_nil(capsys, algebra_file):
    rc, out, _ = run(capsys, "split", str(algebra_file))
    assert rc == 0
    data = json.loads(out)
    assert data["point_count"] == 0 and data["nil_dim"] == 3


def test_split_quadratic_extension(capsys, tmp_path):
    A = samples.field_ext_polar(F2, 2)
    data = A.to_json()
    data["format"] = "wittpolar/1"
    path = tmp_path / "f4.json"
    path.write_text(json.dumps(data))
    rc, out, _ = run(capsys, "split", str(path))
    assert rc == 0
    data = json.loads(out)
    assert data["point_count"] == 2
    assert data["extension_degree"] == 2
    assert data["frobenius_permutation"] == "(0 1)"
    assert data["orbits"] == [[0, 1]]


def test_polarize_roundtrip(capsys, tmp_path):
    F = F2
    tab = samples.nil_poly_table(F, 3)
    table_json = [[[list(F.coords(c)) for c in entry] for entry in row]
                  for row in tab]
    path = tmp_path / "comm.json"
    path.write_text(json.dumps({"format": "wittpolar/1",
                                "field": F.to_json(), "dim": 2,
                                "table": table_json}))
    rc, out, _ = run(capsys, "polarize", str(path))
    assert rc == 0
    data = json.loads(out)
    assert data["mu"] == [{"idx": [0, 0], "val": [[0], [1]]}]


def test_polarize_zero_mu_example(capsys, tmp_path):
    # x F_3[x]/(x^3) at p = 3 polarizes to the zero tensor
    F3 = gf_build(3, 1)
    tab = samples.nil_poly_table(F3, 3)
    table_json = [[[list(F3.coords(c)) for c in entry] for entry in row]
                  for row in tab]
    path = tmp_path / "comm3.json"
    path.write_text(json.dumps({"format": "wittpolar/1",
                                "field": F3.to_json(), "dim": 2,
                                "table": table_json}))
    rc, out, _ = run(capsys, "polarize", str(path))
    assert rc == 0 and json.loads(out)["mu"] == []


# The algebras behind the golden `split` inputs under tests/data.  The
# `verify` suites check only point counts and orbits; these outputs also
# pin the factor rows, which depend on the order in which idempotents and
# roots are enumerated.
SPLIT_GOLDEN = {
    "split_scrambled_f3_cubed": lambda: samples.scramble(
        samples.split_polar(F3, 3), random.Random(3)),
    "split_f16_over_f4": lambda: samples.field_ext_polar(F4, 2),
    "split_f8_over_f2": lambda: samples.field_ext_polar(F2, 3),
    "split_scrambled_f9_plus_nil": lambda: samples.scramble(
        samples.polar_direct_sum(samples.field_ext_polar(F3, 2),
                                 samples.trunc_nil_polar(F3, 3)),
        random.Random(9)),
    # two-step extensions to degree 6, with orbits [[0, 1], [2, 3, 4]];
    # over F_4 the output field has 4,096 elements
    "split_f4_plus_f8_over_f2": lambda: samples.scramble(
        samples.polar_direct_sum(samples.field_ext_polar(F2, 2),
                                 samples.field_ext_polar(F2, 3)),
        random.Random(5)),
    "split_f16_plus_f64_over_f4": lambda: samples.scramble(
        samples.polar_direct_sum(samples.field_ext_polar(F4, 2),
                                 samples.field_ext_polar(F4, 3)),
        random.Random(7)),
}


@pytest.mark.parametrize("name", sorted(SPLIT_GOLDEN))
def test_split_output_matches_golden_bytes(capsys, name):
    data = json.loads((DATA / f"{name}.json").read_text())
    assert data == dict(SPLIT_GOLDEN[name]().to_json(), format="wittpolar/1")
    rc, out, err = run(capsys, "split", str(DATA / f"{name}.json"))
    assert rc == 0 and err == ""
    assert out == (DATA / f"{name}.out.json").read_text()


def test_polarize_output_matches_golden_bytes(capsys):
    # F_9 x x F_3[x]/(x^5) over F_3, as one multiplication table
    data = json.loads((DATA / "polarize_f9_times_nil.json").read_text())
    table = samples.product_table(F3, [samples.field_ext_table(F3, 2),
                                       samples.nil_poly_table(F3, 5)])
    assert data["table"] == [[[list(F3.coords(c)) for c in entry]
                              for entry in row] for row in table]
    rc, out, err = run(capsys, "polarize",
                       str(DATA / "polarize_f9_times_nil.json"))
    assert rc == 0 and err == ""
    assert out == (DATA / "polarize_f9_times_nil.out.json").read_text()


def test_witt_eval_output_matches_golden_bytes(capsys):
    # (a.b - F(c)) + (V(d) + [v]) in W_3 of pol(x F_4[x]/(x^4)), the
    # expression shape of the benchmark's cli-cold sessions
    path = DATA / "witt_eval_f4_nil.json"
    data = json.loads(path.read_text())
    assert data["algebra"] == dict(samples.trunc_nil_polar(F4, 4).to_json(),
                                   format="wittpolar/1")
    rc, out, err = run(capsys, "witt-eval", str(path))
    assert rc == 0 and err == ""
    assert out == (DATA / "witt_eval_f4_nil.out.json").read_text()


@pytest.mark.parametrize("N", [3, 4])
def test_witt_eval_over_gf16_matches_golden_bytes(capsys, N):
    # (a.b - F(c)) + (V(d) + [v]) in W_4 of pol(x F_16[x]/(x^N)): 256
    # vectors at N = 3, the largest table algebra, whose plans run on packed
    # vectors, and 4096 at N = 4, whose plans run on coordinates
    path = DATA / f"witt_eval_f16_nil{N}.json"
    data = json.loads(path.read_text())
    A = samples.trunc_nil_polar(gf_build(2, 4), N)
    assert data["algebra"] == dict(A.to_json(), format="wittpolar/1")
    assert A.plan_key == (~2 if N == 3 else 3)
    rc, out, err = run(capsys, "witt-eval", str(path))
    assert rc == 0 and err == ""
    assert out == (DATA / f"witt_eval_f16_nil{N}.out.json").read_text()


def test_witt_eval_at_p3_matches_golden_bytes(capsys):
    # (a.b.c - F(d)) + (V(e) + [v]) in W_4 of the unital pol(F_3[x]/(x^3)):
    # the Frobenius and Verschiebung at p = 3, on the full families
    path = DATA / "witt_eval_f3_unital3.json"
    data = json.loads(path.read_text())
    A = polarize(F3, samples.unital_poly_table(F3, 3))
    assert data["algebra"] == dict(A.to_json(), format="wittpolar/1")
    rc, out, err = run(capsys, "witt-eval", str(path))
    assert rc == 0 and err == ""
    assert out == (DATA / "witt_eval_f3_unital3.out.json").read_text()


# The algebras of the golden `cw` files: pol(x F_2[x]/(x^4)) and the
# unital pol(F_q[x]/(x^3)), q = 2, 3, whose windows are capped by their
# nilradicals.
CW_ALGEBRAS = {
    "nil4_f2": lambda: samples.trunc_nil_polar(F2, 4),
    "unital3_f2": lambda: polarize(F2, samples.unital_poly_table(F2, 3)),
    "unital3_f3": lambda: polarize(F3, samples.unital_poly_table(F3, 3)),
}
# Golden `cw` outputs: (algebra, op, inputs).  Over nil4_f2, x has a
# failing stored witness and exceptions at 0 and -2; y has a zero exception
# at -3.  Over unital3_f2, x has tail x and the unit 1 at index -3, so its
# witness has r = 4 and its sum splits at k = r: the tail and the entries
# at -4 and deeper take the windows, the rest W_4; x4 has its unit at -4,
# so k = 5, a W_5 family outside the envelope.  Over unital3_f3, x has
# tail x and the unit 1 at index -2: k = r = 3 at p = 3.
CW_GOLDEN = {
    "cw_validate_nil4_f2_x": ("nil4_f2", "validate", "x"),
    "cw_add_nil4_f2_x_y": ("nil4_f2", "add", "x", "y"),
    "cw_add_nil4_f2_u_w": ("nil4_f2", "add", "u", "w"),
    "cw_f_nil4_f2_x": ("nil4_f2", "f", "x"),
    "cw_v_nil4_f2_x": ("nil4_f2", "v", "x"),
    "cw_add_unital3_f2_x_x": ("unital3_f2", "add", "x", "x"),
    "cw_add_unital3_f2_x4_x4": ("unital3_f2", "add", "x4", "x4"),
    "cw_add_unital3_f3_x_x": ("unital3_f3", "add", "x", "x"),
}


@pytest.mark.parametrize("name", sorted(CW_GOLDEN))
def test_cw_output_matches_golden_bytes(capsys, name):
    key, op, *inputs = CW_GOLDEN[name]
    algebra = DATA / f"cw_{key}_algebra.json"
    assert json.loads(algebra.read_text()) == dict(
        CW_ALGEBRAS[key]().to_json(), format="wittpolar/1")
    rc, out, err = run(capsys, "cw", op, "--algebra", str(algebra),
                       *(str(DATA / f"cw_{key}_{x}.json") for x in inputs))
    assert rc == 0 and err == ""
    assert out == (DATA / f"{name}.out.json").read_text()


@pytest.mark.parametrize("argv", [
    ["witt-poly", "--p", "7", "--n", "1", "--kind", "prod"],
    ["cw", "add", "--algebra", str(DATA / "cw_unital3_f2_algebra.json"),
     str(DATA / "cw_unital3_f2_x4.json"), str(DATA / "cw_unital3_f2_x4.json")],
])
def test_runs_beyond_the_envelope_write_nothing_on_stderr(argv):
    # (7, 1, prod), and x4 + x4, which splits at r = 5 and adds its
    # shallow parts with the full W_5 sum family, lie beyond the (p, n)
    # the desk-scale warning once allowed.  A fresh process, because
    # pytest records warnings raised in process instead of letting them
    # reach stderr
    env = dict(os.environ, PYTHONPATH=str(Path(cowitt.__file__).parent.parent))
    proc = subprocess.run([sys.executable, "-m", "wittpolar.cli", *argv],
                          capture_output=True, text=True, timeout=120,
                          env=env)
    assert proc.returncode == 0 and proc.stderr == ""


def test_cw_validate_prints_the_minimal_witness_when_the_stored_one_fails(
        capsys, tmp_path, algebra_file):
    # the tail x generates all of x F_2[x]/(x^4), so the stored (0, 0) is
    # false; its square (x^2, x^3) squares to zero, so (0, 2) holds
    x_path = tmp_path / "x.json"
    x_path.write_text(json.dumps({"format": "wittpolar/1",
                                  "tail": [[1], [0], [0]],
                                  "witness": [0, 0]}))
    rc, out, err = run(capsys, "cw", "validate", "--algebra",
                       str(algebra_file), str(x_path))
    assert rc == 0 and err == ""
    assert out == '{"format":"wittpolar/1","valid":true,"witness":[0,2]}\n'


def test_fgl_subcommand(capsys):
    rc, out, _ = run(capsys, "fgl", "--p", "3", "--precision", "9",
                     "--log-coeffs", "1,1/3,1/9")
    assert rc == 0
    data = json.loads(out)
    assert data["exp_support_ok"] is True
    assert data["law_p_integral"] is True
    assert data["law_associative"] is True


def test_fgl_certifies_associativity_at_precision_16(capsys):
    rc, out, _ = run(capsys, "fgl", "--p", "2", "--precision", "16",
                     "--log-coeffs", "1,-1/2,-1/4,-1/8,-1/16")
    assert rc == 0
    data = json.loads(out)
    assert data["law_p_integral"] is True
    assert data["law_associative"] is True


def test_fgl_precision_is_bounded(capsys):
    from wittpolar.wire import MAX_PRECISION
    # every precision a test, `verify` or the benchmark asks for is inside
    assert MAX_PRECISION >= 16
    rc, out, err = run(capsys, "fgl", "--p", "3", "--precision",
                       str(MAX_PRECISION), "--log-coeffs", "1,1/3,1/9,1/27")
    assert rc == 0 and err == ""
    assert json.loads(out)["precision"] == MAX_PRECISION
    msg = _assert_rejected(*run(capsys, "fgl", "--p", "3", "--precision",
                                str(MAX_PRECISION + 1), "--log-coeffs", "1"))
    assert msg == (f"argument --precision: must be at most {MAX_PRECISION}, "
                   f"got {MAX_PRECISION + 1}")


def test_fgl_rejects_non_prime(capsys):
    rc, out, err = run(capsys, "fgl", "--p", "4", "--precision", "12",
                       "--log-coeffs", "1,1/4")
    assert rc == 1 and out == ""
    assert json.loads(err)["error"] == "validation"


@pytest.fixture
def cold_families(monkeypatch):
    """Empty family memos, so the next Witt operation lifts its family."""
    from wittpolar import wittmod, wittuniv
    monkeypatch.setattr(wittuniv, "_memo", {})
    wittmod._plan.cache_clear()
    return wittuniv


def _level_terms(data):
    return [{tuple(t["exp"]): int(t["num"]) for t in lv["terms"]}
            for lv in data["levels"]]


# -x over W_2 at p = 2: (-x0, -x1 - x0^2)
NEG_P2_N2 = [{(1, 0): -1}, {(0, 1): -1, (2, 0): -1}]


def test_witt_poly_neg_p2_n2(capsys, cold_families):
    rc, out, err = run(capsys, "witt-poly", "--p", "2", "--n", "2",
                       "--kind", "neg")
    assert rc == 0 and err == ""
    data = json.loads(out)
    assert data["kind"] == "neg"
    assert _level_terms(data) == NEG_P2_N2


def _unital_sum_file(tmp_path):
    # (1, 0) + (1, 0) in W_2 over pol(F_2), which is 2 = (0, 1)
    one = {"op": "lit", "coords": [[[1]], [[0]]]}
    expr = {"format": "wittpolar/1",
            "algebra": samples.split_polar(F2, 1).to_json(),
            "expr": {"op": "add", "args": [one, one]}}
    path = tmp_path / "expr.json"
    path.write_text(json.dumps(expr))
    return path


def test_witt_eval_ignores_a_tampered_family_file(capsys, tmp_path,
                                                  monkeypatch, cold_families):
    # a sum family with a wrong coefficient at the old cache location
    wu = cold_families
    cache = tmp_path / "cache"
    family = wu.family_to_json(2, 2, "sum", wu.universal_polys(2, 2, "sum"))
    wu._memo.clear()
    text = json.dumps(family, sort_keys=True, separators=(",", ":"))
    assert '"num":"-1"' in text
    (cache / "wittpolys").mkdir(parents=True)
    (cache / "wittpolys" / "p2_n2_sum.json").write_text(
        text.replace('"num":"-1"', '"num":"2"'))
    monkeypatch.setenv("WITTPOLAR_CACHE", str(cache))
    rc, out, err = run(capsys, "witt-eval", str(_unital_sum_file(tmp_path)))
    assert rc == 0 and err == ""
    assert json.loads(out)["coords"] == [[[0]], [[1]]]


def test_full_families_leave_home_and_cache_dirs_empty(capsys, tmp_path,
                                                       monkeypatch,
                                                       cold_families):
    home, cache = tmp_path / "home", tmp_path / "cache"
    home.mkdir()
    cache.mkdir()
    monkeypatch.setenv("HOME", str(home))
    monkeypatch.setenv("WITTPOLAR_CACHE", str(cache))
    expr = _unital_sum_file(tmp_path)
    assert run(capsys, "witt-poly", "--p", "3", "--n", "2",
               "--kind", "prod")[0] == 0
    rc, out, err = run(capsys, "witt-eval", str(expr))
    assert rc == 0 and json.loads(out)["coords"] == [[[0]], [[1]]]
    assert list(home.iterdir()) == [] and list(cache.iterdir()) == []


def test_outputs_are_byte_identical(capsys, tmp_path):
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    assert main(["witt-poly", "--p", "3", "--n", "2", "--kind", "prod",
                 "--out", str(out1)]) == 0
    assert main(["witt-poly", "--p", "3", "--n", "2", "--kind", "prod",
                 "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_verify_single_suite_deterministic(capsys):
    rc1, out1, _ = run(capsys, "verify", "--suite", "dwork", "--seed", "5")
    rc2, out2, _ = run(capsys, "verify", "--suite", "dwork", "--seed", "5")
    assert rc1 == rc2 == 0
    assert out1 == out2
    assert "PASS" in out1


def test_verify_unknown_suite(capsys):
    rc, _, err = run(capsys, "verify", "--suite", "nope")
    assert rc == 1 and json.loads(err)["error"] == "validation"


def test_verify_teichmuller_suite_filtered(capsys):
    rc, out, _ = run(capsys, "verify", "--suite", "teichmuller", "--p", "3")
    assert rc == 0
    assert "FAIL" not in out
    assert "Teichmuller" in out


def _is_power_of(q, p):
    while q % p == 0:
        q //= p
    return q == 1


@pytest.mark.parametrize("p", [2, 3, 5])
def test_verify_p_runs_only_rows_at_that_prime(capsys, p):
    rc, out, _ = run(capsys, "verify", "--p", str(p), "--seed", "7")
    rows = out.splitlines()[:-1]
    assert rc == 0 and rows and all(r.startswith("PASS") for r in rows)
    assert out.splitlines()[-1] == f"{len(rows)}/{len(rows)} checks passed " \
                                   f"(seed 7)"
    # every p, q and GF(q) a row names is a power of the chosen prime; the
    # Dwork rows are at p = 2 and name no prime
    for row in rows:
        for q in re.findall(r"(?:\bp=|\bq=|GF\()(\d+)", row):
            assert _is_power_of(int(q), p), row
    assert any("Dwork" in r for r in rows) == (p == 2)
    # numeric Dieudonne rows run over GF(2), GF(4) and GF(9) only
    assert any("Dieudonne" in r for r in rows) == (p != 5)


@pytest.mark.parametrize("argv", [["--p", "7"], ["--p", "4"],
                                  ["--suite", "dwork", "--p", "3"],
                                  ["--suite", "cowitt", "--p", "5"]])
def test_verify_selection_with_no_rows_exits_1(capsys, argv):
    rc, out, err = run(capsys, "verify", *argv)
    assert rc == 1 and out == ""
    assert json.loads(err)["error"] == "validation"


# -- rejected input ---------------------------------------------------------------


@pytest.fixture
def nonassoc_algebra():
    # mu(e0, e1) = e0 on GF(2)^2: mu(mu(e0,e1),e1) = e0 but
    # mu(mu(e1,e1),e0) = 0, so the permutation axiom fails
    return json.loads((DATA / "split_nonassoc_f2.json").read_text())


#: the (ASSOC) diagnostic for `nonassoc_algebra`: the union {0, 1, 1} is
#: first split as ((0, 1), (1,)), with product e0, and ((1, 1), (0,)) gives 0
NONASSOC_MESSAGE = ("ValueError: mu fails the permutation axiom (ASSOC): "
                    "(((0, 1), (1,)), (1, 0), (0, 0))")


def _assert_rejected(rc, out, err):
    assert rc == 1 and out == ""
    diag = json.loads(err)
    assert diag["error"] == "validation"
    return diag["message"]


def test_split_rejects_non_associative_algebra(capsys, nonassoc_algebra):
    assert nonassoc_algebra == {
        "format": "wittpolar/1", "p": 2, "field": F2.to_json(), "dim": 2,
        "mu": [{"idx": [0, 1], "val": [[1], [0]]}]}
    rc, out, err = run(capsys, "split", str(DATA / "split_nonassoc_f2.json"))
    assert _assert_rejected(rc, out, err) == NONASSOC_MESSAGE
    assert err == (DATA / "split_nonassoc_f2.err.json").read_text()


def test_witt_eval_rejects_non_associative_algebra(capsys, tmp_path,
                                                   nonassoc_algebra):
    lit = {"op": "lit", "coords": [[[1], [1]]]}
    expr = {"format": "wittpolar/1", "algebra": nonassoc_algebra,
            "expr": {"op": "add", "args": [lit, lit]}}
    path = tmp_path / "expr.json"
    path.write_text(json.dumps(expr))
    msg = _assert_rejected(*run(capsys, "witt-eval", str(path)))
    assert msg == NONASSOC_MESSAGE


@pytest.mark.parametrize("coord", [1, [1, 1], [2]])
def test_witt_eval_rejects_malformed_coordinates(capsys, tmp_path,
                                                 algebra_file, coord):
    # a bare int where a digit list belongs, too many digits, a digit >= p
    lit = {"op": "lit", "coords": [[coord, [0], [0]]]}
    expr = {"format": "wittpolar/1",
            "algebra": json.loads(algebra_file.read_text()),
            "expr": {"op": "neg", "arg": lit}}
    path = tmp_path / "expr.json"
    path.write_text(json.dumps(expr))
    _assert_rejected(*run(capsys, "witt-eval", str(path)))


def test_witt_eval_rejects_ints_for_coordinate_vectors(capsys, tmp_path,
                                                      algebra_file):
    expr = {"format": "wittpolar/1",
            "algebra": json.loads(algebra_file.read_text()),
            "expr": {"op": "lit", "coords": [1, 2]}}
    path = tmp_path / "expr.json"
    path.write_text(json.dumps(expr))
    msg = _assert_rejected(*run(capsys, "witt-eval", str(path)))
    assert "coords" in msg


def test_witt_eval_rejects_a_foreign_algebra_format(capsys, tmp_path,
                                                   algebra_file):
    algebra = dict(json.loads(algebra_file.read_text()), format="other/9")
    expr = {"format": "wittpolar/1", "algebra": algebra,
            "expr": {"op": "lit", "coords": [[[1], [0], [0]]]}}
    path = tmp_path / "expr.json"
    path.write_text(json.dumps(expr))
    msg = _assert_rejected(*run(capsys, "witt-eval", str(path)))
    assert "format" in msg


def test_split_rejects_mu_that_is_not_a_list(capsys, tmp_path, algebra_file):
    data = json.loads(algebra_file.read_text())
    data["mu"] = 5
    path = tmp_path / "alg.json"
    path.write_text(json.dumps(data))
    msg = _assert_rejected(*run(capsys, "split", str(path)))
    assert "mu" in msg


@pytest.mark.parametrize("bad", [
    {"tail": 1},
    {"tail": [[0], [0], [0]], "exceptions": {"0": 3}},
    {"tail": [[0], [0], [0]], "exceptions": [[0], [0], [0]]},
    {"tail": [[0], [0], [0]], "witness": 2},
    # index keys other than the canonical decimal form: "-01" would name
    # index -1 twice, and int() reads "-1_0" as -10
    {"tail": [[0], [0], [0]],
     "exceptions": {"-1": [[1], [0], [0]], "-01": [[0], [1], [0]]}},
    {"tail": [[0], [0], [0]], "exceptions": {"-1_0": [[1], [0], [0]]}},
    {"tail": [[0], [0], [0]], "exceptions": {" -1": [[1], [0], [0]]}},
    # outside the indices 0 .. -63
    {"tail": [[0], [0], [0]], "exceptions": {"1": [[1], [0], [0]]}},
    {"tail": [[0], [0], [0]], "exceptions": {"-64": [[1], [0], [0]]}},
])
def test_cw_rejects_malformed_elements(capsys, tmp_path, algebra_file, bad):
    path = tmp_path / "x.json"
    path.write_text(json.dumps(dict(bad, format="wittpolar/1")))
    _assert_rejected(*run(capsys, "cw", "validate", "--algebra",
                          str(algebra_file), str(path)))
    _assert_rejected(*run(capsys, "cw", "add", "--algebra",
                          str(algebra_file), str(path), str(path)))


def test_cw_rejects_a_foreign_format(capsys, tmp_path, algebra_file):
    path = tmp_path / "x.json"
    path.write_text(json.dumps({"format": "other/9",
                                "tail": [[0], [0], [0]]}))
    msg = _assert_rejected(*run(capsys, "cw", "add", "--algebra",
                                str(algebra_file), str(path), str(path)))
    assert "format" in msg


@pytest.mark.parametrize("field", [{"modulus": 5}, {"p": "2"},
                                   {"modulus": [7, 1]}])
def test_split_rejects_malformed_field(capsys, tmp_path, algebra_file, field):
    data = json.loads(algebra_file.read_text())
    data["field"] = dict(data["field"], **field)
    path = tmp_path / "alg.json"
    path.write_text(json.dumps(data))
    msg = _assert_rejected(*run(capsys, "split", str(path)))
    assert "field" in msg


@pytest.mark.parametrize("node", [
    {"op": "add", "args": 5},
    {"op": "teich", "value": 5, "length": 2},
])
def test_witt_eval_rejects_malformed_nodes(capsys, tmp_path, algebra_file,
                                           node):
    expr = {"format": "wittpolar/1",
            "algebra": json.loads(algebra_file.read_text()), "expr": node}
    path = tmp_path / "expr.json"
    path.write_text(json.dumps(expr))
    msg = _assert_rejected(*run(capsys, "witt-eval", str(path)))
    assert node["op"] in msg


_LIT1 = '{"op": "lit", "coords": [[[1], [0], [0]]]}'


def _nested_expr_file(tmp_path, algebra_file, wrap, depth):
    # built as text: json.dumps would recurse as deeply as the expression
    node = _LIT1
    for _ in range(depth):
        node = wrap.replace("NODE", node)
    path = tmp_path / "deep.json"
    path.write_text('{"format": "wittpolar/1", "algebra": %s, "expr": %s}'
                    % (algebra_file.read_text(), node))
    return path


def test_witt_eval_rejects_json_nested_too_deeply(capsys, tmp_path,
                                                  algebra_file):
    path = _nested_expr_file(tmp_path, algebra_file,
                             '{"op": "neg", "arg": NODE}',
                             sys.getrecursionlimit() + 100)
    msg = _assert_rejected(*run(capsys, "witt-eval", str(path)))
    assert msg.startswith("RecursionError")


def test_witt_eval_rejects_expressions_nested_too_deeply(
        capsys, tmp_path, algebra_file, cold_families):
    # MAX_DEPTH nodes on the longest path evaluate, with the family lifted
    # cold at the innermost node; one node more is rejected by the shape
    # check before anything is evaluated
    wrap = '{"op": "add", "args": [NODE, %s]}' % _LIT1
    path = _nested_expr_file(tmp_path, algebra_file, wrap, MAX_DEPTH - 1)
    rc, out, err = run(capsys, "witt-eval", str(path))
    assert rc == 0 and err == ""
    assert json.loads(out)["coords"] == [[[0], [0], [0]]]
    path = _nested_expr_file(tmp_path, algebra_file, wrap, MAX_DEPTH)
    msg = _assert_rejected(*run(capsys, "witt-eval", str(path)))
    assert f"nodes nest at most {MAX_DEPTH} deep" in msg


@pytest.mark.parametrize("length", [0, -3])
def test_witt_eval_rejects_teich_length_below_one(capsys, tmp_path,
                                                  algebra_file, length):
    node = {"op": "teich", "value": [[1], [0], [0]], "length": length}
    expr = {"format": "wittpolar/1",
            "algebra": json.loads(algebra_file.read_text()), "expr": node}
    path = tmp_path / "expr.json"
    path.write_text(json.dumps(expr))
    msg = _assert_rejected(*run(capsys, "witt-eval", str(path)))
    assert "length" in msg


@pytest.fixture
def invalid_cw_files(tmp_path):
    # over pol(F_2), mu(e0, e0) = e0: the tail e0 generates the whole
    # algebra, whose polar powers never vanish, so no witness exists
    A = samples.split_polar(F2, 1)
    alg = dict(A.to_json(), format="wittpolar/1")
    alg_path = tmp_path / "pol_f2.json"
    alg_path.write_text(json.dumps(alg))
    x_path = tmp_path / "x.json"
    x_path.write_text(json.dumps({"format": "wittpolar/1", "tail": [[1]],
                                  "witness": [0, 0]}))
    return str(alg_path), str(x_path)


@pytest.mark.parametrize("op", ["f", "v"])
def test_cw_f_and_v_reject_invalid_elements(capsys, invalid_cw_files, op):
    alg_path, x_path = invalid_cw_files
    rc, out, _ = run(capsys, "cw", "validate", "--algebra", alg_path, x_path)
    assert rc == 0 and json.loads(out)["valid"] is False
    msg = _assert_rejected(*run(capsys, "cw", op, "--algebra", alg_path,
                                x_path))
    assert "x.json" in msg


@pytest.mark.parametrize("node", [
    {"op": "add", "args": [{"op": "lit", "coords": [[[1], [0]]]},
                           {"op": "lit", "coords": [[[1], [0], [0]]]}]},
    {"op": "neg", "arg": {"op": "teich", "value": [[1], [0]],
                          "length": 2}},
])
def test_witt_eval_rejects_coordinates_of_the_wrong_dimension(
        capsys, tmp_path, algebra_file, node):
    # the algebra has dimension 3; each node carries a 2-dim coordinate
    expr = {"format": "wittpolar/1",
            "algebra": json.loads(algebra_file.read_text()), "expr": node}
    path = tmp_path / "expr.json"
    path.write_text(json.dumps(expr))
    msg = _assert_rejected(*run(capsys, "witt-eval", str(path)))
    assert "dimension" in msg


@pytest.mark.parametrize("op", ["f", "v"])
def test_cw_f_and_v_print_a_witness_that_holds(capsys, tmp_path,
                                               algebra_file, op):
    # the stored witness (0, 0) is false: the tail x generates a nonzero
    # ideal; the printed witness must pass the stored-witness check itself
    x_path = tmp_path / "x.json"
    x_path.write_text(json.dumps({"format": "wittpolar/1",
                                  "tail": [[1], [0], [0]],
                                  "witness": [0, 0]}))
    rc, out, _ = run(capsys, "cw", op, "--algebra", str(algebra_file),
                     str(x_path))
    assert rc == 0
    A = samples.trunc_nil_polar(F2, 4)
    y = cowitt.cw_from_json(A, json.loads(out))
    r, s = y.witness
    assert r >= 0 and s >= 0
    index = nilpotence_index(A, cowitt._deep_ideal(y, r))
    assert index is not None and index <= s
    # and it is the minimal one, the witness `to_json` searches for
    assert y.witness == cowitt.witness_search(y)


POLARIZE_F2 = {"format": "wittpolar/1", "field": F2.to_json(), "dim": 1}
# a valid 2 x 2 table: x F_2[x]/(x^3)
NIL3_F2 = dict(POLARIZE_F2, table=[[[list(F2.coords(c)) for c in entry]
                                    for entry in row]
                                   for row in samples.nil_poly_table(F2, 3)])


@pytest.mark.parametrize("command,payload", [
    ("split", [1]), ("split", "x"),
    ("cw", [1]), ("cw", "x"),
    ("witt-eval", [1]), ("witt-eval", "x"),
    ("polarize", [1]), ("polarize", "x"),
    ("polarize", dict(POLARIZE_F2, table=5)),
    ("polarize", dict(POLARIZE_F2, table=[[5]])),
    ("polarize", dict(POLARIZE_F2, table=[[]])),
    ("polarize", NIL3_F2), ("polarize", dict(NIL3_F2, dim=5)),
    ("polarize", dict(NIL3_F2, dim=-1)), ("polarize", dict(NIL3_F2, dim="2")),
    ("polarize", dict(NIL3_F2, dim=2.0)), ("polarize", dict(NIL3_F2, dim=None)),
    # valid but for a GF(4) modulus entry outside [0, 2)
    ("polarize", dict(NIL3_F2, dim=2,
                      field={"p": 2, "m": 2, "modulus": [1, -1, 1]})),
    # fields beyond the envelope, refused before any field is built
    ("polarize", dict(NIL3_F2, dim=2,
                      field={"p": 2, "m": 2 ** 64, "modulus": [0, 1]})),
    ("polarize", dict(NIL3_F2, dim=2,
                      field={"p": 257, "m": 2, "modulus": [3, 0, 1]})),
])
def test_non_object_json_and_misshapen_tables_are_rejected(
        capsys, tmp_path, command, payload):
    path = tmp_path / "in.json"
    path.write_text(json.dumps(payload))
    argv = ([command, "validate", "--algebra", str(path), str(path)]
            if command == "cw" else [command, str(path)])
    _assert_rejected(*run(capsys, *argv))


# -- the input boundary and exit codes --------------------------------------------


def test_witt_eval_names_a_missing_key_and_a_bad_arity(capsys, tmp_path,
                                                      algebra_file):
    algebra = json.loads(algebra_file.read_text())
    lit = {"op": "lit", "coords": [[[1], [0], [0]]]}
    path = tmp_path / "expr.json"
    path.write_text(json.dumps({"format": "wittpolar/1", "algebra": algebra}))
    msg = _assert_rejected(*run(capsys, "witt-eval", str(path)))
    assert "missing key 'expr'" in msg
    path.write_text(json.dumps({"format": "wittpolar/1", "algebra": algebra,
                                "expr": {"op": "add",
                                         "args": [lit, lit, lit]}}))
    msg = _assert_rejected(*run(capsys, "witt-eval", str(path)))
    assert "expr(add).args: must have length 2, got 3" in msg


def test_cw_names_the_number_of_inputs_its_op_takes(capsys, tmp_path,
                                                    algebra_file):
    x_path = tmp_path / "x.json"
    x_path.write_text(json.dumps({"tail": [[0], [0], [0]]}))
    msg = _assert_rejected(*run(capsys, "cw", "add", "--algebra",
                                str(algebra_file), str(x_path)))
    assert "cw(add).inputs: must have length 2, got 1" in msg
    msg = _assert_rejected(*run(capsys, "cw", "f", "--algebra",
                                str(algebra_file), str(x_path), str(x_path)))
    assert "cw(f).inputs: must have length 1, got 2" in msg


def test_fgl_names_a_coefficient_with_a_zero_denominator(capsys):
    msg = _assert_rejected(*run(capsys, "fgl", "--p", "2", "--precision",
                                "4", "--log-coeffs", "1,1/0"))
    assert "'1/0' is not a rational number" in msg


def test_fgl_rejects_log_coefficients_beyond_its_precision(capsys):
    # l_3 and up sit at degrees 8, 16, 32 > 4: they used to be dropped
    # silently, giving the output of --log-coeffs 1,1/2,3
    msg = _assert_rejected(*run(capsys, "fgl", "--p", "2", "--precision",
                                "4", "--log-coeffs", "1,1/2,3,4,5,6"))
    assert "l_5 sits at degree 2^5 = 32, beyond precision 4" in msg
    rc, _, _ = run(capsys, "fgl", "--p", "2", "--precision", "4",
                   "--log-coeffs", "1,1/2,3")
    assert rc == 0
    msg = _assert_rejected(*run(capsys, "fgl", "--p", "3", "--precision",
                                "0", "--log-coeffs", "1"))
    assert "beyond precision 0" in msg


def test_missing_input_and_unwritable_out_files_are_rejected(capsys,
                                                             tmp_path):
    missing = tmp_path / "missing.json"
    msg = _assert_rejected(*run(capsys, "split", str(missing)))
    assert str(missing) in msg
    out = tmp_path / "no-such-dir" / "out.json"
    msg = _assert_rejected(*run(capsys, "witt-poly", "--p", "2", "--n", "1",
                                "--kind", "sum", "--out", str(out)))
    assert str(out) in msg


def test_an_internal_error_exits_2(capsys, monkeypatch, algebra_file):
    from wittpolar import cli

    def broken(args):
        raise TypeError("an internal bug")
    monkeypatch.setattr(cli, "cmd_split", broken)
    rc, out, err = run(capsys, "split", str(algebra_file))
    assert rc == 2 and out == ""
    diag = json.loads(err)
    assert diag["error"] == "internal"
    assert diag["message"] == "TypeError: an internal bug"
    assert "in broken" in "".join(diag["traceback"])


def test_an_exhausted_extension_budget_exits_1(capsys, monkeypatch,
                                               algebra_file):
    from wittpolar import etale

    def capped(A):
        raise etale.ExtensionCapExceeded("no nonzero root within degree 4")
    monkeypatch.setattr(etale, "decompose", capped)
    msg = _assert_rejected(*run(capsys, "split", str(algebra_file)))
    assert msg == "ExtensionCapExceeded: no nonzero root within degree 4"


def test_assoc_check_is_bounded_by_its_pair_count(capsys, tmp_path):
    from time import perf_counter

    from wittpolar.wire import MAX_ASSOC_PAIRS, MAX_DIM, assoc_pairs
    # every algebra a test, golden file or benchmark reads is inside
    assert assoc_pairs(3, 9) <= MAX_ASSOC_PAIRS
    assert assoc_pairs(5, 16) == 60_093_504 > MAX_ASSOC_PAIRS
    path = tmp_path / "p5d16.json"
    path.write_text(json.dumps({"field": {"p": 5, "m": 1, "modulus": [0, 1]},
                                "dim": 16, "mu": []}))
    t0 = perf_counter()
    msg = _assert_rejected(*run(capsys, "split", str(path)))
    assert perf_counter() - t0 < 1.0
    assert msg.startswith("WireError: algebra: checking (ASSOC) walks")
    assert assoc_pairs(2, MAX_DIM) > MAX_ASSOC_PAIRS >= assoc_pairs(2, 26)


def test_polarize_is_bounded_by_its_field_operations(capsys, tmp_path):
    from time import perf_counter

    from wittpolar.wire import MAX_POLARIZE_OPS, polarize_ops
    # every table a test, golden file or benchmark polarizes is inside: the
    # golden F_9 x nil table has p = 3, d = 6 and cli-cold's cubic d = 3
    assert polarize_ops(3, 2, 6) <= MAX_POLARIZE_OPS
    assert polarize_ops(3, 1, 3) <= MAX_POLARIZE_OPS
    # the largest tables accepted at p = 2, at p = 5 and over GF(257), the
    # first prime field without tables, and one step beyond each
    assert polarize_ops(2, 1, 21) <= MAX_POLARIZE_OPS < polarize_ops(2, 1, 22)
    assert polarize_ops(5, 1, 13) <= MAX_POLARIZE_OPS < polarize_ops(5, 1, 14)
    assert (polarize_ops(257, 1, 1) <= MAX_POLARIZE_OPS
            < polarize_ops(257, 1, 2))
    # dense tables that took 3.7-14 s while only field operations counted:
    # the product calls dominate at large p and small d, and GF(409)
    # computes every operation
    for p, d in ((41, 4), (23, 5), (127, 3), (409, 2)):
        assert polarize_ops(p, 1, d) > MAX_POLARIZE_OPS

    def zero_table(p, d):
        path = tmp_path / f"zero{p}_{d}.json"
        field = {"p": p, "m": 1, "modulus": [0, 1]}
        path.write_text(json.dumps(dict(POLARIZE_F2, field=field, dim=d,
                                        table=[[[[0]] * d] * d] * d)))
        return str(path)

    for p, d in ((2, 21), (257, 1)):
        rc, out, err = run(capsys, "polarize", zero_table(p, d))
        assert rc == 0 and err == "" and json.loads(out)["dim"] == d
        t0 = perf_counter()
        msg = _assert_rejected(*run(capsys, "polarize", zero_table(p, d + 1)))
        assert perf_counter() - t0 < 1.0
        assert msg == (
            "WireError: polarize: polarizing makes 2 dim^3 + (p - 1) "
            "C(dim + p - 1, p) products, each weighed as 64 + w dim^2 "
            "operations (w = 1 up to 256 field elements, else 16 (m + 1)), "
            "at most 10000000")


# A repeated key used to pick an answer silently: the last mu entry, or
# the last value of a JSON object key, won and the command exited 0.
REPEATED_IDX = {"format": "wittpolar/1", "p": 2, "field": F2.to_json(),
                "dim": 1, "mu": [{"idx": [0, 0], "val": [[0]]},
                                 {"idx": [0, 0], "val": [[1]]}]}


@pytest.mark.parametrize("vals", [([[0]], [[1]]), ([[1]], [[0]])])
def test_a_repeated_mu_idx_exits_1_naming_the_file_and_the_idx(
        capsys, tmp_path, vals):
    # in either order: pol(F_2) (one point) or the zero algebra
    algebra = dict(REPEATED_IDX, mu=[{"idx": [0, 0], "val": v}
                                     for v in vals])
    path = tmp_path / "alg.json"
    path.write_text(json.dumps(algebra))
    want = (f"{path}: algebra.mu[1].idx: [0, 0] repeats the idx of "
            f"algebra.mu[0]")
    assert _assert_rejected(*run(capsys, "split", str(path))) == want
    x_path = tmp_path / "x.json"
    x_path.write_text(json.dumps({"tail": [[0]]}))
    assert _assert_rejected(*run(capsys, "cw", "validate", "--algebra",
                                 str(path), str(x_path))) == want
    expr = tmp_path / "expr.json"
    expr.write_text(json.dumps({
        "format": "wittpolar/1", "algebra": algebra,
        "expr": {"op": "lit", "coords": [[[1]]]}}))
    assert _assert_rejected(*run(capsys, "witt-eval", str(expr))) == (
        f"{expr}: algebra.mu[1].idx: [0, 0] repeats the idx of "
        f"algebra.mu[0]")


@pytest.mark.parametrize("text", [
    # a co-Witt entry given twice
    '{"tail": [[0], [1], [1]], "exceptions": {"-2": [[1], [1], [0]], '
    '"-2": [[0], [0], [1]]}}',
    # a repeated key that holds the same value is still a repeat
    '{"tail": [[0], [0], [0]], "tail": [[0], [0], [0]]}',
])
def test_a_repeated_key_in_a_cw_file_exits_1_naming_the_file(
        capsys, tmp_path, algebra_file, text):
    path = tmp_path / "x.json"
    path.write_text(text)
    for op in ("validate", "f"):
        msg = _assert_rejected(*run(capsys, "cw", op, "--algebra",
                                    str(algebra_file), str(path)))
        assert msg.startswith(f"{path}: an object repeats the key ")
    # the algebra file is read through the same reader
    msg = _assert_rejected(*run(capsys, "cw", "validate", "--algebra",
                                str(path), str(path)))
    assert msg.startswith(f"{path}: an object repeats the key ")


def test_a_repeated_key_in_split_polarize_and_witt_eval_files_exits_1(
        capsys, tmp_path, algebra_file):
    algebra = algebra_file.read_text()
    # "dim" twice at the top of an algebra, "p" twice inside its field
    cases = [("split", '{"dim": 3, ' + algebra[1:], "'dim'"),
             ("split", algebra.replace('"p": 2,', '"p": 2, "p": 3,', 1),
              "'p'")]
    table = json.dumps(NIL3_F2)
    cases.append(("polarize", '{"table": [], ' + table[1:], "'table'"))
    lit = '{"op": "lit", "op": "neg", "coords": [[[1], [0], [0]]]}'
    cases.append(("witt-eval", '{"format": "wittpolar/1", "algebra": '
                  + algebra + ', "expr": ' + lit + '}', "'op'"))
    for command, text, key in cases:
        path = tmp_path / f"{command}.json"
        path.write_text(text)
        msg = _assert_rejected(*run(capsys, command, str(path)))
        assert msg == f"{path}: an object repeats the key {key}", msg


def test_repeated_key_goldens_name_the_committed_files(capsys, monkeypatch):
    # the diagnostics CI compares, run from the root of the repository
    monkeypatch.chdir(DATA.parent.parent)
    for argv, golden in (
            (["split", "tests/data/split_repeated_idx_f2.json"],
             "split_repeated_idx_f2.err.json"),
            (["cw", "validate", "--algebra",
              "tests/data/cw_nil4_f2_algebra.json",
              "tests/data/cw_nil4_f2_repeated_exception.json"],
             "cw_validate_nil4_f2_repeated_exception.err.json")):
        rc, out, err = run(capsys, *argv)
        assert rc == 1 and out == ""
        assert err == (DATA / golden).read_text()
    algebra = json.loads((DATA / "split_repeated_idx_f2.json").read_text())
    assert algebra == REPEATED_IDX


@pytest.mark.parametrize("unbuffered", [False, True])
def test_a_closed_stdout_exits_1_without_a_diagnostic(unbuffered):
    # buffered, the write fails at the flush; unbuffered, inside the command
    env = dict(os.environ, PYTHONPATH=str(Path(cowitt.__file__).parent.parent))
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    r, w = os.pipe()
    os.close(r)     # every write to w now fails with EPIPE
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "wittpolar.cli", "witt-poly", "--p", "2",
             "--n", "2", "--kind", "sum"],
            stdout=w, stderr=subprocess.PIPE, timeout=60, env=env)
    finally:
        os.close(w)
    assert proc.returncode == 1 and proc.stderr == b""


# Mutation fuzz: one leaf of a valid input file replaced by one value from a
# fixed pool.  Each case is (argv with {i} for input file i, the input
# files under tests/data, p and q of the payload's field).
FUZZ_CASES = {
    "witt-eval": (["witt-eval", "{0}"], ["witt_eval_f4_nil.json"], 2, 4),
    "cw": (["cw", "add", "--algebra", "{0}", "{1}", "{2}"],
           ["cw_nil4_f2_algebra.json", "cw_nil4_f2_x.json",
            "cw_nil4_f2_y.json"], 2, 2),
    "split": (["split", "{0}"], ["split_scrambled_f9_plus_nil.json"], 3, 9),
    "polarize": (["polarize", "{0}"], ["polarize_f9_times_nil.json"], 3, 9),
}


def _leaves(value, path=()):
    """Paths to the scalars, empty lists and empty objects in value."""
    items = (value.items() if isinstance(value, dict) else
             enumerate(value) if isinstance(value, list) else None)
    if not items:
        yield path
        return
    for key, sub in items:
        yield from _leaves(sub, path + (key,))


def _replaced(value, path, new):
    if not path:
        return new
    value = json.loads(json.dumps(value))
    target = value
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = new
    return value


@st.composite
def _mutations(draw):
    name = draw(st.sampled_from(sorted(FUZZ_CASES)))
    argv, files, p, q = FUZZ_CASES[name]
    inputs = [json.loads((DATA / f).read_text()) for f in files]
    i = draw(st.sampled_from(range(len(inputs))))
    path = draw(st.sampled_from(list(_leaves(inputs[i]))))
    new = draw(st.sampled_from(["x", True, None, [], {}, -1, 0, p, q, 2 ** 64,
                                1.5]))
    inputs[i] = _replaced(inputs[i], path, new)
    return argv, inputs


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@settings(max_examples=600, deadline=None, derandomize=True, database=None)
@given(case=_mutations())
def test_one_mutated_leaf_exits_0_or_1_with_a_diagnostic(fuzz_dir, case):
    argv, inputs = case
    paths = []
    for i, data in enumerate(inputs):
        paths.append(str(fuzz_dir / f"in{i}.json"))
        Path(paths[-1]).write_text(json.dumps(data))
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        rc = main([a.format(*paths) for a in argv])
    if rc == 1:
        assert out.getvalue() == ""
        assert json.loads(err.getvalue())["error"] == "validation"
    else:
        assert rc == 0 and err.getvalue() == ""
        assert json.loads(out.getvalue())["format"] == "wittpolar/1"
