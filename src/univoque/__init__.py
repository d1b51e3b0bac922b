"""Exact-arithmetic interval graphs of non-integer base expansions.

The library classifies bases given by the greedy expansion of 1, builds the
labeled interval graphs whose infinite label paths spell the unique (or
unique doubly infinite) expansions, analyzes their strong-connectedness and
successor-chain structure, computes entropy and dimension from the Perron
radius, and counts expansions of individual points exactly.

The names below are loaded on first access, so ``import univoque`` (and
each ``univoque`` command) pays only for the layers it uses.
"""

from importlib import import_module

_EXPORTS = {
    "digits": ("EpSeq", "BaseClass", "lex_cmp", "reflect", "shift", "parse_seq", "format_seq",
               "is_greedy_beta", "is_quasigreedy_alpha", "classify_alpha",
               "is_unique_expansion_seq"),
    "algebraic": ("AlgebraicReal", "base_polynomial", "value_of_sequence"),
    "base": ("BaseContext", "new_base_context", "golden_ratio_base", "v_successor",
             "r_chain", "special_points", "order_points"),
    "graph": ("FULL", "TILDE", "TILDE1", "build_graph", "scc", "is_strongly_connected",
              "connectivity_report", "check_isomorphic", "tower_decompose",
              "count_label_paths", "path_words"),
    "spectral": ("spectral_radius", "dimension_of", "spectral_report", "component_dimensions"),
    "expansions": ("greedy_expand", "quasi_greedy_expand", "count_expansions",
                   "build_witness_xm", "f_family_filter", "default_tail"),
    "oracle": ("U_PREFIX", "V_PREFIX", "enumerate_admissible_words", "brute_count_expansions"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name):
    if name in _EXPORTS or name == "walk":      # a module, as in ``univoque.graph.scc``
        return import_module(f".{name}", __name__)
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
