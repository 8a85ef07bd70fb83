"""Exact arithmetic for p-polar rings, p-typical Witt and co-Witt vectors,
idempotent splitting of reduced algebras, and p-typical formal group laws.

The package namespace is lazy (PEP 562): `import wittpolar` loads no
submodule, and a public name or a submodule loads its module on first
access, so each `wittpolar` command pays only for the modules it uses.
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

#: the public names, by the module that defines them
_EXPORTS = {
    "exact": ("MultiPoly", "Rational", "TruncSeries"),
    "gfq": ("FqField", "additive_poly_roots", "combine", "embed", "gf_build",
            "linear_kernel", "mat_vec", "semilinear_kernel"),
    "ppolar": ("LengthNotAdmissible", "PPolarAlgebra", "check_assoc",
               "extend_scalars", "free_polar_basis", "ideal_generated",
               "nilpotence_index", "nilradical", "polarize", "quotient"),
    "wittuniv": ("DworkCongruenceFailed", "dwork_lift", "ghost_polys",
                 "polar_degree_check", "universal_polys"),
    "wittmod": ("WittVector", "frobenius_charp", "scalar_mul", "teichmuller",
                "verschiebung", "w_add", "w_neg", "w_product", "witt"),
    "cowitt": ("CoWittElement", "cw_add", "cw_F", "cw_V"),
    "etale": ("Decomposition", "ExtensionCapExceeded", "NotAMorphism",
              "NotReduced", "decompose", "find_idempotent",
              "geometric_points", "hom_check", "phi_matrix", "split_once"),
    "fgl": ("BivariateLaw", "LawNotIntegral", "LawNotPolar",
            "NonNilpotentElement", "PTypicalLog", "exp_from_log",
            "group_law", "mu_pinfty_group", "support_check",
            "typicalize_log"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = frozenset(_EXPORTS) | {"cli", "record", "samples", "verify",
                                     "wire"}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    if name in _SUBMODULES:
        return _import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
