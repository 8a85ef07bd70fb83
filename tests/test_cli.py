"""CLI subcommands, file formats, exit codes, determinism."""

import json
import sys

import pytest

from wittpolar import cowitt, samples
from wittpolar.cli import main
from wittpolar.gfq import gf_build
from wittpolar.ppolar import ideal_power_nilpotent

F2 = gf_build(2, 1)


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
    wittmod._reduced.cache_clear()
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


# -- rejected input ---------------------------------------------------------------


@pytest.fixture
def nonassoc_algebra():
    # mu(e0, e1) = e0 on GF(2)^2: mu(mu(e0,e1),e1) = e0 but
    # mu(mu(e1,e1),e0) = 0, so the permutation axiom fails
    return {"format": "wittpolar/1", "p": 2, "field": F2.to_json(), "dim": 2,
            "mu": [{"idx": [0, 1], "val": [[1], [0]]}]}


def _assert_rejected(rc, out, err):
    assert rc == 1 and out == ""
    diag = json.loads(err)
    assert diag["error"] == "validation"
    return diag["message"]


def test_split_rejects_non_associative_algebra(capsys, tmp_path,
                                               nonassoc_algebra):
    path = tmp_path / "nonassoc.json"
    path.write_text(json.dumps(nonassoc_algebra))
    msg = _assert_rejected(*run(capsys, "split", str(path)))
    assert "ASSOC" in msg


def test_witt_eval_rejects_non_associative_algebra(capsys, tmp_path,
                                                   nonassoc_algebra):
    lit = {"op": "lit", "coords": [[[1], [1]]]}
    expr = {"format": "wittpolar/1", "algebra": nonassoc_algebra,
            "expr": {"op": "add", "args": [lit, lit]}}
    path = tmp_path / "expr.json"
    path.write_text(json.dumps(expr))
    msg = _assert_rejected(*run(capsys, "witt-eval", str(path)))
    assert "ASSOC" in msg


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
])
def test_cw_rejects_malformed_elements(capsys, tmp_path, algebra_file, bad):
    path = tmp_path / "x.json"
    path.write_text(json.dumps(dict(bad, format="wittpolar/1")))
    _assert_rejected(*run(capsys, "cw", "validate", "--algebra",
                          str(algebra_file), str(path)))


@pytest.mark.parametrize("field", [{"modulus": 5}, {"p": "2"}])
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
    # from a depth too deep to read or evaluate down to the first one that
    # evaluates; just above that one, json.load succeeds and the
    # evaluation itself runs out of stack
    messages = []
    for depth in range(sys.getrecursionlimit() // 2, 0, -1):
        path = _nested_expr_file(tmp_path, algebra_file,
                                 '{"op": "add", "args": [NODE, %s]}' % _LIT1,
                                 depth)
        rc, out, err = run(capsys, "witt-eval", str(path))
        if rc == 0:
            break
        messages.append(_assert_rejected(rc, out, err))
    assert rc == 0
    assert all(m.startswith("RecursionError") for m in messages)
    assert any("JSON" not in m for m in messages)


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
    assert ideal_power_nilpotent(A, cowitt._deep_ideal(y, r), s)


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
])
def test_non_object_json_and_misshapen_tables_are_rejected(
        capsys, tmp_path, command, payload):
    path = tmp_path / "in.json"
    path.write_text(json.dumps(payload))
    argv = ([command, "validate", "--algebra", str(path), str(path)]
            if command == "cw" else [command, str(path)])
    _assert_rejected(*run(capsys, *argv))
