"""Exact computation in the inverse braid monoid.

Partial braids on n strands: braid words extended by strand deletions,
with two independent word-problem solvers (a faithful free-group action
and Garside left normal forms), strand geometry, and the monoidal
pairing/braiding structure.
"""

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
    is_i_makanin,
    is_makanin,
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

# The free-group action's names, loaded on first use: the strand path
# (parse, skeleton, normal forms) never needs the action.
_ACTION_NAMES = ("PartialEndo", "compose", "equal_action", "evaluate", "letter_endo", "tau")

__all__ = sorted(
    [name for name in dir() if not name.startswith("_")] + ["action", *_ACTION_NAMES]
)


def __getattr__(name: str):
    if name != "action" and name not in _ACTION_NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import partialbraid.action as action

    if name == "action":
        return action
    value = globals()[name] = getattr(action, name)
    return value
