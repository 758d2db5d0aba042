"""Exact computation in the inverse braid monoid.

Partial braids on n strands: braid words extended by strand deletions,
with two independent word-problem solvers (a faithful free-group action
and Garside left normal forms), strand geometry, and the monoidal
pairing/braiding structure.
"""

from .action import PartialEndo, compose, equal_action, evaluate, letter_endo, tau
from .diagram import (
    AbelianClass,
    PartialInjection,
    Skeleton,
    abelian_invariant,
    compose_injection,
    delete_strand,
    evaluate_skeleton,
)
from .freegroup import ResourceLimitError
from .garside import (
    CanonicalForm,
    GarsideNF,
    canonical_form,
    equal_nf,
    is_i_makanin,
    is_makanin,
    is_permutation_braid,
    left_greedy_nf,
    perm_to_word,
    reconstruct_word,
    word_to_perm,
)
from .monoidal import (
    check_naturality,
    factorize,
    is_central,
    mu,
    positive_lift,
)
from .words import (
    Letter,
    RelationPair,
    Word,
    WordSyntaxError,
    braiding_word,
    delta_word,
    epsilon,
    epsilon_block,
    format_word,
    mirror_inverse,
    parse_word,
    relation_suite,
    shift_word,
    sigma,
    sigma_inv,
    xi,
)

__all__ = [name for name in dir() if not name.startswith("_")]
