"""Refinement sorts for a dependently typed logical framework.

A signature declares type families, constants, sort families refining
the type families, subsorting between sort families, and sort
assignments for constants.  This package parses such signatures, checks
them with a decidable bidirectional sort checker built on hereditary
substitution, decides subsorting between arbitrary sorts, and compiles
everything into a proof-irrelevant target calculus whose checker
independently revalidates the output.
"""

from .diagnostics import (
    CheckError,
    LexError,
    MetricExhausted,
    ParseError,
    VerifyError,
)
from .lf import (
    lf_check_kind,
    lf_check_sig,
    lf_check_term,
    lf_check_type,
    lf_synth_term,
)
from .lfi import (
    LfiError,
    LfiSignature,
    lfi_check,
    lfi_check_sig,
    lfi_equal,
    lfi_synth,
)
from .lfr_check import (
    SortError,
    acheck,
    asynth,
    build_closure,
    check_context,
    check_signature,
    elaborate_sort,
    split,
    subsort_q,
)
from .parser import (
    parse_lfi,
    parse_signature,
    parse_sort,
    parse_term,
    parse_type,
)
from .printer import pp_signature, print_lfi
from .subsort import (
    SubsortQuery,
    algo_subsort,
    binter,
    declarative_subsort_oracle,
    intrinsic_subsort,
)
from .subst import hsubst_syntax
from .translate import (
    trans_sig,
    trans_sort,
    trans_sort_synth_all,
    trans_subsort_check,
    trans_term_check,
    trans_term_synth,
    verify_translation,
)

__version__ = "0.1.0"

__all__ = [
    "CheckError",
    "LexError",
    "ParseError",
    "VerifyError",
    "lf_check_kind",
    "lf_check_sig",
    "lf_check_term",
    "lf_check_type",
    "lf_synth_term",
    "LfiError",
    "LfiSignature",
    "lfi_check",
    "lfi_check_sig",
    "lfi_equal",
    "lfi_synth",
    "SortError",
    "acheck",
    "asynth",
    "build_closure",
    "check_context",
    "check_signature",
    "elaborate_sort",
    "split",
    "subsort_q",
    "parse_lfi",
    "parse_signature",
    "parse_sort",
    "parse_term",
    "parse_type",
    "pp_signature",
    "print_lfi",
    "SubsortQuery",
    "algo_subsort",
    "binter",
    "declarative_subsort_oracle",
    "intrinsic_subsort",
    "MetricExhausted",
    "hsubst_syntax",
    "trans_sig",
    "trans_sort",
    "trans_sort_synth_all",
    "trans_subsort_check",
    "trans_term_check",
    "trans_term_synth",
    "verify_translation",
]
