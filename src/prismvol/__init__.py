"""Exact computational toolkit for a prism-manifold link-volume audit.

The package mechanizes the computable steps behind the bound lv = 2 * V0 for
the one-parameter prism family: Seifert symbol arithmetic and first homology,
Montesinos double branched covers, horizontal-surface degree equations over
2-orbifolds, constrained slope enumeration on the torus, twisted torus braid
invariants, and bounded-degree branched-cover counting, assembled by
``prism_verify`` into per-parameter reports that are explicit about which
finiteness steps are computed and which remain conditional.

Each layer module is registered in ``sys.modules`` and set as an attribute of
the package when the package is imported, but its code runs on first attribute
access (``_Layer``); the public names below resolve through the module
``__getattr__`` of PEP 562.  A command thus runs only the layers it calls.
"""

import importlib.util
import sys
import types

__version__ = "0.1.0"

# layer -> its public names; ``reader`` has none, but is loaded lazily too
_PUBLIC = {
    "braids": (
        "BraidWord",
        "bennequin_chi",
        "bennequin_genus",
        "closure_components",
        "twisted_torus_braid",
        "word_from_json",
    ),
    "covers": (
        "CoverCertificate",
        "EnumerationTooLargeError",
        "FIGURE_EIGHT_VOLUME",
        "GroupPresentation",
        "ONE_CUSP_VOLUME_FLOOR",
        "VolumeConstant",
        "WHITEHEAD_VOLUME",
        "complexity",
        "count_representations",
        "degree_bound_for_budget",
        "presentation_from_json",
        "prism_header",
        "prism_row_stream",
        "prism_verify",
        "upper_bound_value",
    ),
    "exact": ("IntMatrix", "elementary_divisors", "extended_gcd", "frac_str"),
    "montesinos": (
        "MontesinosLink",
        "double_branched_cover",
        "is_lens_space_symbol",
        "link_from_json",
        "ln_link",
    ),
    "orbifolds": (
        "CaseResult",
        "DISK_CASE_MUS",
        "InfiniteSolutionsError",
        "Orbifold2D",
        "SurfaceData",
        "case_analysis_report",
        "chi_orb",
        "disk_case_divisors",
        "fiber_surface",
        "fixed_cases_report",
        "horizontal_degree_solutions",
        "nonorientable_base_solutions",
        "prism_case_analysis",
        "riemann_hurwitz_cover",
    ),
    "reader": (),
    "seifert": (
        "SeifertSymbol",
        "UnsupportedBaseClass",
        "base_orbifold",
        "euler_number",
        "first_homology",
        "homology_order",
        "normalize",
        "prism_fibrations",
        "symbol_from_json",
    ),
    "slopes": ("Slope", "delta", "enumerate_constrained_slopes"),
}
_LAYER_OF = {name: layer for layer, names in _PUBLIC.items() for name in names}

__all__ = sorted(_LAYER_OF)


class _Layer(types.ModuleType):
    """A layer whose code has not run: any attribute access runs it.  A run that
    raises puts the module back as it was, so the next access raises again."""

    def __getattribute__(self, name: str):
        blank = dict(super().__getattribute__("__dict__"))
        self.__class__ = types.ModuleType
        try:
            self.__spec__.loader.exec_module(self)
        except BaseException:
            vars(self).clear()
            vars(self).update(blank)
            self.__class__ = _Layer
            raise
        return getattr(self, name)


def _register(layer: str):
    """The module ``prismvol.<layer>``, in ``sys.modules``, not yet executed."""
    spec = importlib.util.find_spec(f"{__name__}.{layer}")
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    module.__class__ = _Layer
    return module


for _layer in _PUBLIC:
    globals()[_layer] = _register(_layer)
del _layer


def __getattr__(name: str):
    try:
        layer = _LAYER_OF[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    return getattr(globals()[layer], name)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
