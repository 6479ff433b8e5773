"""Endomorphism-type monoids of star graphs.

Constructs the monoids of endomorphisms, weak endomorphisms, strong
endomorphisms, strong weak endomorphisms and automorphisms of finite star
graphs; checks their cardinalities, regularity and ranks by exhaustive
computation; and certifies monoid presentations for them by enumerating the
finitely presented quotient and matching it against the concrete monoid.
"""

__version__ = "0.1.0"

from .congruence import CongruenceTable, QuotientExceeded, QuotientStats, enumerate_quotient
from .errors import BudgetExceededError
from .graphs import (
    EndoClass,
    SimpleGraph,
    cardinality_formula,
    classify,
    count_class,
    enumerate_class,
    is_regular_element,
    is_regular_monoid,
    standard_generators,
    star_graph,
)
from .monoid import (
    TransformationMonoid,
    check_relation,
    evaluate_word,
    format_monoid,
    generate,
    is_generating_set,
    rank_exact,
)
from .presentations import (
    Presentation,
    end_star_presentation,
    full_transf_presentation,
    partial_transf_presentation,
    presentation_from_json,
    presentation_to_json,
    swend_star_presentation,
    sym_presentation,
    wend_star_presentation,
)
from .transform import (
    Transformation,
    compose,
    identity,
    is_idempotent,
)
from .verify import (
    VerificationReport,
    Verdict,
    satisfies_relations,
    verify_presentation,
)
from .wordclosure import WordClosureStats, word_closure, word_closure_size

__all__ = [
    "BudgetExceededError",
    "CongruenceTable",
    "EndoClass",
    "Presentation",
    "QuotientExceeded",
    "QuotientStats",
    "SimpleGraph",
    "Transformation",
    "TransformationMonoid",
    "VerificationReport",
    "Verdict",
    "WordClosureStats",
    "cardinality_formula",
    "check_relation",
    "classify",
    "compose",
    "count_class",
    "end_star_presentation",
    "enumerate_class",
    "enumerate_quotient",
    "evaluate_word",
    "format_monoid",
    "full_transf_presentation",
    "generate",
    "identity",
    "is_generating_set",
    "is_idempotent",
    "is_regular_element",
    "is_regular_monoid",
    "partial_transf_presentation",
    "presentation_from_json",
    "presentation_to_json",
    "rank_exact",
    "satisfies_relations",
    "standard_generators",
    "star_graph",
    "swend_star_presentation",
    "sym_presentation",
    "verify_presentation",
    "wend_star_presentation",
    "word_closure",
    "word_closure_size",
]
