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
    LfrError,
    ParseError,
    SourceSpan,
    VerifyError,
)
from .lf import LfDiagnostic, LfError, lf_check_kind, lf_check_sig, lf_check_term, lf_check_type, lf_synth_term
from .lfi import (
    LfiError,
    LfiSignature,
    lfi_check,
    lfi_check_sig,
    lfi_equal,
    lfi_synth,
)
from .lfr_check import (
    SortDiagnostic,
    SortError,
    acheck,
    apply_delta,
    asynth,
    build_closure,
    check_class,
    check_context,
    check_signature,
    elaborate_sort,
    split,
    subsort_q,
)
from .parser import (
    parse_class,
    parse_kind,
    parse_lfi,
    parse_signature,
    parse_sort,
    parse_term,
    parse_type,
)
from .printer import (
    pp_class,
    pp_kind,
    pp_lfi_kind,
    pp_lfi_term,
    pp_lfi_type,
    pp_signature,
    pp_sort,
    pp_term,
    pp_type,
    print_lfi,
)
from .subsort import (
    SubsortQuery,
    algo_subsort,
    binter,
    declarative_subsort_oracle,
    intrinsic_subsort,
)
from .subst import (
    MetricExhausted,
    SubstFailure,
    erase_type,
    eta_expand,
    hsubst_n,
    hsubst_syntax,
    treduce,
)
from .syntax import Signature, alpha_eq
from .translate import (
    Metafunction,
    TransResult,
    meta_apply,
    trans_ctx,
    trans_sig,
    trans_sort,
    trans_sort_synth,
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
    "LfrError",
    "ParseError",
    "SourceSpan",
    "VerifyError",
    "LfDiagnostic",
    "LfError",
    "lf_check_kind",
    "lf_check_sig",
    "lf_check_term",
    "lf_check_type",
    "lf_synth_term",
    "LfiError",
    "LfiSignature",
    "Metafunction",
    "lfi_check",
    "lfi_check_sig",
    "lfi_equal",
    "lfi_synth",
    "meta_apply",
    "SortDiagnostic",
    "SortError",
    "acheck",
    "apply_delta",
    "asynth",
    "build_closure",
    "check_class",
    "check_context",
    "check_signature",
    "elaborate_sort",
    "split",
    "subsort_q",
    "parse_class",
    "parse_kind",
    "parse_lfi",
    "parse_signature",
    "parse_sort",
    "parse_term",
    "parse_type",
    "pp_class",
    "pp_kind",
    "pp_lfi_kind",
    "pp_lfi_term",
    "pp_lfi_type",
    "pp_signature",
    "pp_sort",
    "pp_term",
    "pp_type",
    "print_lfi",
    "SubsortQuery",
    "algo_subsort",
    "binter",
    "declarative_subsort_oracle",
    "intrinsic_subsort",
    "MetricExhausted",
    "SubstFailure",
    "erase_type",
    "eta_expand",
    "hsubst_n",
    "hsubst_syntax",
    "treduce",
    "Signature",
    "alpha_eq",
    "TransResult",
    "trans_ctx",
    "trans_sig",
    "trans_sort",
    "trans_sort_synth",
    "trans_sort_synth_all",
    "trans_subsort_check",
    "trans_term_check",
    "trans_term_synth",
    "verify_translation",
]
