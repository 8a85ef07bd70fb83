"""What a `wittpolar` process loads at start-up, and the lazy public
namespace of the package."""

import json
import subprocess
import sys
from importlib import import_module
from pathlib import Path

import pytest

import wittpolar

SRC = Path(wittpolar.__file__).resolve().parent.parent
DATA = Path(__file__).with_name("data")

PUBLIC = [
    "BivariateLaw", "CoWittElement", "Decomposition", "DworkCongruenceFailed",
    "ExtensionCapExceeded", "FqField", "LawNotIntegral", "LawNotPolar",
    "LengthNotAdmissible", "MultiPoly", "NonNilpotentElement", "NotAMorphism",
    "NotReduced", "PPolarAlgebra", "PTypicalLog", "Rational", "TruncSeries",
    "WittVector", "additive_poly_roots", "check_assoc", "combine", "cw_F",
    "cw_V", "cw_add", "decompose", "dwork_lift", "embed", "exp_from_log",
    "extend_scalars", "find_idempotent", "free_polar_basis",
    "frobenius_charp", "geometric_points", "gf_build", "ghost_polys",
    "group_law", "hom_check", "ideal_generated", "linear_kernel", "mat_vec",
    "mu_pinfty_group", "nilpotence_index", "nilradical", "phi_matrix",
    "polar_degree_check", "polarize", "quotient", "scalar_mul",
    "semilinear_kernel", "split_once", "support_check", "teichmuller",
    "typicalize_log", "universal_polys", "verschiebung", "w_add", "w_neg",
    "w_product", "witt",
]


def loaded_after(code: str) -> set:
    """The modules a fresh interpreter without `site` has loaded after
    running code."""
    script = (f"import sys; sys.path.insert(0, {str(SRC)!r})\n{code}\n"
              f"import json; print(json.dumps(sorted(sys.modules)))")
    proc = subprocess.run([sys.executable, "-S", "-c", script],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stdout.splitlines()[-1]))


def ours(modules: set) -> set:
    return {m for m in modules if m.startswith("wittpolar.")}


def test_importing_the_package_loads_no_submodule():
    mods = loaded_after("import wittpolar")
    assert ours(mods) == set()
    assert not mods & {"dataclasses", "inspect"}


def test_importing_the_cli_loads_only_the_wire_format():
    mods = loaded_after("import wittpolar.cli")
    assert ours(mods) == {"wittpolar.cli", "wittpolar.wire"}
    assert not mods & {"dataclasses", "inspect", "fractions"}


def test_polarize_loads_only_the_field_and_polar_modules():
    path = DATA / "polarize_f9_times_nil.json"
    mods = loaded_after(
        "import io, contextlib, wittpolar.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert wittpolar.cli.main(['polarize', {str(path)!r}]) == 0")
    assert "wittpolar.ppolar" in mods and "wittpolar.gfq" in mods
    assert not ours(mods) & {f"wittpolar.{m}" for m in (
        "wittmod", "wittuniv", "exact", "cowitt", "etale", "fgl", "verify")}
    assert "dataclasses" not in mods


def test_public_names_resolve_to_their_modules():
    assert wittpolar.__all__ == PUBLIC
    for name in PUBLIC:
        module = import_module(f"wittpolar.{wittpolar._HOME[name]}")
        assert getattr(wittpolar, name) is getattr(module, name), name


def test_dir_lists_the_public_names():
    assert set(PUBLIC) <= set(dir(wittpolar))
    assert "__version__" in dir(wittpolar)


def test_unknown_names_raise_and_submodules_import():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        wittpolar.no_such_name
    assert not hasattr(wittpolar, "dataclass")
    from wittpolar import cowitt
    assert cowitt is sys.modules["wittpolar.cowitt"]
    assert wittpolar.verify is import_module("wittpolar.verify")
