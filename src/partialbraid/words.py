"""Words over the generator alphabet of the inverse braid monoid.

A word is a finite sequence of letters sigma_i, sigma_i^-1, epsilon_i or
xi_i together with an ambient strand count n.  Words multiply by
concatenation and are read left to right: letter order is the order in
which the corresponding diagrams are stacked top to bottom.
"""

from __future__ import annotations

import re
from collections.abc import Callable, Iterable, Iterator

SIGMA = "sigma"
SIGMA_INV = "sigma-inverse"
EPSILON = "epsilon"
XI = "xi"

_KINDS = frozenset((SIGMA, SIGMA_INV, EPSILON, XI))
_TOKENS = {SIGMA: "s{}", SIGMA_INV: "s{}^-1", EPSILON: "e{}", XI: "t{}"}


class WordSyntaxError(ValueError):
    """Malformed word text; carries the character position of the fault."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class _Frozen:
    """Immutable value with the fields _fields, by default its __slots__.

    Equal to a value of the same class with equal fields, hashed on the
    field tuple, shown as ``Class(field=value, ...)``, and pickled through
    the constructor, so unpickling validates (and interns) again.
    """

    __slots__ = ()

    def __init_subclass__(cls):
        cls._fields = cls.__dict__.get("_fields", cls.__slots__)

    def _values(self) -> tuple:
        return tuple(getattr(self, f) for f in self._fields)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return self.__class__, self._values()

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{self.__class__.__qualname__}({fields})"


def _strands(kind: str, index: int) -> int:
    """The fewest strands a letter fits on: epsilon_i exists for i <= n,
    the crossing letters only for i <= n-1."""
    return index if kind == EPSILON else index + 1


class Letter(_Frozen):
    """One generator.  There is one Letter per (kind, index), so letters
    compare and hash by identity."""

    __slots__ = ("kind", "index", "_strands")  # index is 1-based
    _fields = ("kind", "index")
    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __new__(cls, kind: str, index: int):
        letter = _LETTERS.get((kind, index))
        if letter is None:
            if kind not in _KINDS:
                raise ValueError(f"unknown letter kind {kind!r}")
            if index < 1:
                raise ValueError(f"letter index must be >= 1, got {index}")
            letter = object.__new__(cls)
            object.__setattr__(letter, "kind", kind)
            object.__setattr__(letter, "index", index)
            object.__setattr__(letter, "_strands", _strands(kind, index))
            # of two threads racing here, both return the first one stored
            letter = _LETTERS.setdefault((kind, index), letter)
        return letter

    def token(self) -> str:
        return _TOKENS[self.kind].format(self.index)


_LETTERS: dict[tuple[str, int], Letter] = {}


def sigma(i: int) -> Letter:
    return Letter(SIGMA, i)


def sigma_inv(i: int) -> Letter:
    return Letter(SIGMA_INV, i)


def epsilon(i: int) -> Letter:
    return Letter(EPSILON, i)


def xi(i: int) -> Letter:
    return Letter(XI, i)


def _check_strand_count(n: int) -> None:
    if n < 0:
        raise ValueError(f"strand count must be >= 0, got {n}")


class Word(_Frozen):
    __slots__ = ("n", "letters")

    def __init__(self, n: int, letters: Iterable[Letter] = ()):
        letters = tuple(letters)
        _check_strand_count(n)
        try:
            for letter in letters:
                if letter._strands > n:
                    raise ValueError(f"letter {letter.token()} out of range for n={n}")
        except AttributeError:
            raise ValueError("word letters must be Letter values") from None
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "letters", letters)

    def __mul__(self, other: Word) -> Word:
        if self.n != other.n:
            raise ValueError(
                f"cannot concatenate words on {self.n} and {other.n} strands"
            )
        return Word(self.n, self.letters + other.letters)

    def __pow__(self, k: int) -> Word:
        if k < 0:
            raise ValueError("monoid words only have nonnegative powers")
        return Word(self.n, self.letters * k)

    def __len__(self) -> int:
        return len(self.letters)

    def __iter__(self) -> Iterator[Letter]:
        return iter(self.letters)

    def __str__(self) -> str:
        return format_word(self)

    def kinds(self) -> frozenset[str]:
        return frozenset(letter.kind for letter in self.letters)


_TOKEN_RE = re.compile(r"s(\d+)(\^-1|')?|e(\d+)|E|t(\d+)")


def parse_word(
    text: str, n: int, _seen: dict[str, Letter] | None = None
) -> Word:
    """Parse whitespace-separated tokens into a word on n strands.

    Grammar: ``s<i>`` / ``s<i>^-1`` / ``s<i>'`` (crossing and its inverse),
    ``e<i>`` / ``E`` (strand deletion, ``E`` meaning ``e1``), ``t<i>``
    (welded swap).  Tokens are separated by whitespace as ``str.split()``
    finds it.  The empty string is the identity.

    _seen, private to ``eq --batch``, is a token-to-letter table that the
    caller keeps for one n across calls.  A word whose tokens are all in
    it is built from the table; any other word is parsed as if there were
    none, and only then are its canonical spellings (``letter.token()``)
    stored.  So words and errors are those of a fresh parse, a token that
    raises is never stored, and the table holds at most 4n-3 entries.
    """
    _check_strand_count(n)
    tokens = text.split()
    if _seen is not None:
        try:
            return Word(n, tuple([_seen[token] for token in tokens]))
        except KeyError:
            pass
    letters = []
    for k, token in enumerate(tokens):
        match = _TOKEN_RE.fullmatch(token)
        if match is None:
            raise WordSyntaxError(f"bad token {token!r}", _token_start(text, tokens, k))
        s_idx, inv, e_idx, t_idx = match.groups()
        if s_idx is not None:
            kind, index = SIGMA_INV if inv else SIGMA, int(s_idx)
        elif e_idx is not None:
            kind, index = EPSILON, int(e_idx)
        elif t_idx is not None:
            kind, index = XI, int(t_idx)
        else:
            kind, index = EPSILON, 1
        if index < 1:
            raise WordSyntaxError("indices start at 1", _token_start(text, tokens, k))
        # checked before the letter is built, so no out-of-range letter
        # enters the intern table
        if _strands(kind, index) > n:
            raise WordSyntaxError(
                f"index of {_TOKENS[kind].format(index)!r} out of range for n={n}",
                _token_start(text, tokens, k),
            )
        letters.append(Letter(kind, index))
    word = Word(n, tuple(letters))
    if _seen is not None:
        for token, letter in zip(tokens, word.letters):
            if token == letter.token():
                _seen[token] = letter
    return word


def _token_start(text: str, tokens: list[str], k: int) -> int:
    """The character position in text of tokens[k], where tokens is
    text.split(); only error messages need it."""
    end = 0
    for token in tokens[: k + 1]:
        start = text.index(token, end)
        end = start + len(token)
    return start


def format_word(w: Word) -> str:
    return " ".join(letter.token() for letter in w.letters)


_MIRROR = {SIGMA: SIGMA_INV, SIGMA_INV: SIGMA}


def mirror_inverse(w: Word) -> Word:
    """The reversed word with each crossing replaced by its inverse.

    This is the vertical flip of the diagram: the unique monoid inverse m
    of w, satisfying w m w = w and m w m = m.  Deletion letters are fixed
    (idempotents are self-inverse) and so are welded swaps.
    """
    letters = tuple(
        Letter(_MIRROR.get(letter.kind, letter.kind), letter.index)
        for letter in reversed(w.letters)
    )
    return Word(w.n, letters)


def epsilon_block(k: int, n: int) -> Word:
    """The idempotent deleting strands k+1..n: epsilon_{k+1} ... epsilon_n."""
    if not 0 <= k <= n:
        raise ValueError(f"need 0 <= k <= n, got k={k}, n={n}")
    return Word(n, tuple(epsilon(i) for i in range(k + 1, n + 1)))


def delta_word(k: int) -> Word:
    """The half-twist on k strands: sigma_1..sigma_{k-1} sigma_1..sigma_{k-2} ... sigma_1."""
    if k < 1:
        raise ValueError(f"need k >= 1, got {k}")
    letters = [sigma(i) for t in range(k - 1, 0, -1) for i in range(1, t + 1)]
    return Word(k, tuple(letters))


def domain_prefix_letters(domain: tuple[int, ...]) -> tuple[Letter, ...]:
    """Positive runs walking the strands of domain down to positions 1..k.

    Run t descends sigma_{i_t - 1} ... sigma_t and is empty when i_t = t.
    """
    return tuple(
        sigma(g) for t, i_t in enumerate(domain, 1) for g in range(i_t - 1, t - 1, -1)
    )


def braiding_word(m: int, n2: int) -> Word:
    """The block transposition braid in Br_{m+n2}.

    The runs gathering the last n2 strands to the front: run j (j = 1..n2)
    is sigma_{m+j-1} ... sigma_j, and the word carries the first m strands
    over the last n2.
    """
    if m < 0 or n2 < 0:
        raise ValueError("block sizes must be >= 0")
    return Word(m + n2, domain_prefix_letters(tuple(range(m + 1, m + n2 + 1))))


def shift_word(w: Word, offset: int, new_n: int) -> Word:
    """Reindex every letter by +offset inside ambient count new_n."""
    letters = tuple(
        Letter(letter.kind, letter.index + offset) for letter in w.letters
    )
    return Word(new_n, letters)


class RelationPair(_Frozen):
    __slots__ = ("left", "right", "tag")

    def __init__(self, left: Word, right: Word, tag: str):
        if left.n != right.n:
            raise ValueError("relation sides live on different strand counts")
        object.__setattr__(self, "left", left)
        object.__setattr__(self, "right", right)
        object.__setattr__(self, "tag", tag)


def _rel(n: int, left: tuple, right: tuple, tag: str) -> RelationPair:
    return RelationPair(Word(n, left), Word(n, right), tag)


def _artin(n: int) -> list[RelationPair]:
    rels = []
    for i in range(1, n):
        for j in range(i + 2, n):
            a, b = sigma(i), sigma(j)
            rels.append(_rel(n, (a, b), (b, a), f"braid-commute[i={i},j={j}]"))
    for i in range(1, n - 1):
        a, b = sigma(i), sigma(i + 1)
        rels.append(_rel(n, (a, b, a), (b, a, b), f"braid-slide[i={i}]"))
    return rels


def _sigma_inverses(n: int) -> list[RelationPair]:
    rels = []
    for i in range(1, n):
        s, si = sigma(i), sigma_inv(i)
        rels.append(_rel(n, (s, si), (), f"sigma-unit[i={i},lr]"))
        rels.append(_rel(n, (si, s), (), f"sigma-unit[i={i},rl]"))
    return rels


def _involutions(n: int, x: Callable[[int], Letter], name: str) -> list[RelationPair]:
    """x_i x_i = 1 for the crossing letter x (sigma or xi)."""
    return [_rel(n, (x(i), x(i)), (), f"{name}[i={i}]") for i in range(1, n)]


def _eps_moves(
    n: int, x: Callable[[int], Letter], name: str
) -> tuple[list[RelationPair], list[list[RelationPair]]]:
    """Deletions against the crossing letter x (sigma or xi).

    Returns the far commutations e_j x_i = x_i e_j (|i-j| > 1), and for
    each i the six local moves: slide-down, slide-up, then absorb and
    pair, each of those two with its swap.
    """
    far = []
    for i in range(1, n):
        for j in range(1, n + 1):
            if abs(j - i) > 1:
                e, c = epsilon(j), x(i)
                far.append(_rel(n, (e, c), (c, e), f"{name}-commute[i={i},j={j}]"))
    local = []
    for i in range(1, n):
        e, f, c = epsilon(i), epsilon(i + 1), x(i)
        local.append([
            _rel(n, (e, c), (c, f), f"{name}-slide-down[i={i}]"),
            _rel(n, (f, c), (c, e), f"{name}-slide-up[i={i}]"),
            _rel(n, (f, c, c), (c, c, f), f"{name}-absorb[i={i},swap]"),
            _rel(n, (f, c, c), (f,), f"{name}-absorb[i={i}]"),
            _rel(n, (e, f, c), (c, e, f), f"{name}-pair[i={i},swap]"),
            _rel(n, (e, f, c), (e, f), f"{name}-pair[i={i}]"),
        ])
    return far, local


def _eps1_relations(n: int) -> list[RelationPair]:
    """Relations of the one-idempotent presentation (epsilon = e1)."""
    e, s1 = epsilon(1), sigma(1)
    rels = [_rel(n, (e,), (e, e), "eps-idempotent")]
    if n >= 2:
        rels += [
            _rel(n, (e, s1, e), (s1, e, s1, e), "eps-sandwich[lhs]"),
            _rel(n, (e, s1, e), (e, s1, e, s1), "eps-sandwich[rhs]"),
            _rel(n, (e,), (e, s1, s1), "eps-absorb[right]"),
            _rel(n, (e,), (s1, s1, e), "eps-absorb[left]"),
        ]
    for i in range(2, n):
        rels.append(_rel(n, (e, sigma(i)), (sigma(i), e), f"eps-commute[i={i}]"))
    return rels


def _ibn_eps(n: int) -> list[RelationPair]:
    return _sigma_inverses(n) + _eps1_relations(n) + _artin(n)


def _ibn_balanced(n: int) -> list[RelationPair]:
    far, local = _eps_moves(n, sigma, "eps")
    idempotents = [
        _rel(n, (epsilon(i),), (epsilon(i), epsilon(i)), f"eps-idempotent[i={i}]")
        for i in range(1, n + 1)
    ]
    # the idempotents come between the slides and the absorb and pair moves
    return (
        _sigma_inverses(n) + far
        + [rel for moves in local for rel in moves[:2]]
        + idempotents
        + [rel for moves in local for rel in moves[2:]]
        + _artin(n)
    )


def _ibn_2gen(n: int) -> list[RelationPair]:
    # the one-idempotent relations, with eps-commute restated below for
    # sigma_{i+1} = s^i sigma_1 s^-i, s the cycle sigma_1 ... sigma_{n-1}
    idempotent, *eps1 = [
        rel for rel in _eps1_relations(n) if not rel.tag.startswith("eps-commute")
    ]
    if n < 2:
        return [idempotent]
    e, s1, s1i = (epsilon(1),), (sigma(1),), (sigma_inv(1),)
    s = tuple(sigma(i) for i in range(1, n))
    si = tuple(sigma_inv(i) for i in range(n - 1, 0, -1))
    rels = [
        idempotent,
        _rel(n, s1 + s1i, (), "sigma1-unit[lr]"),
        _rel(n, s1i + s1, (), "sigma1-unit[rl]"),
        _rel(n, s + si, (), "cycle-unit[lr]"),
        _rel(n, si + s, (), "cycle-unit[rl]"),
        *eps1,
    ]
    for i in range(1, n - 1):
        conj = s * i + s1 + si * i
        rels.append(_rel(n, e + conj, conj + e, f"eps-commute[i={i}]"))
    for i in range(2, n // 2 + 1):
        conj = s * i + s1 + si * i
        rels.append(_rel(n, s1 + conj, conj + s1, f"twogen-commute[i={i}]"))
    rels.append(_rel(n, s * n, (s + s1) * (n - 1), "twogen-power"))
    return rels


def _sym_inverse(n: int) -> list[RelationPair]:
    # the involutions make the two absorbing relations redundant
    eps1 = [
        rel for rel in _eps1_relations(n) if not rel.tag.startswith("eps-absorb")
    ]
    return _artin(n) + _involutions(n, sigma, "involution") + eps1


def _ibp_mixed(n: int) -> list[RelationPair]:
    rels = _involutions(n, xi, "xi-involution")
    for i in range(1, n):
        for j in range(i + 2, n):
            s_i, s_j, x_i, x_j = sigma(i), sigma(j), xi(i), xi(j)
            rels += [
                _rel(n, (x_i, x_j), (x_j, x_i), f"xi-commute[i={i},j={j}]"),
                _rel(n, (s_i, x_j), (x_j, s_i), f"mixed-commute[i={i},j={j}]"),
                _rel(n, (s_j, x_i), (x_i, s_j), f"mixed-commute[i={j},j={i}]"),
            ]
    for i in range(1, n - 1):
        x, y, s, t = xi(i), xi(i + 1), sigma(i), sigma(i + 1)
        rels += [
            _rel(n, (x, y, x), (y, x, y), f"xi-slide[i={i}]"),
            _rel(n, (x, y, s), (t, x, y), f"mixed-slide[xi,i={i}]"),
            _rel(n, (s, t, x), (y, s, t), f"mixed-slide[sigma,i={i}]"),
        ]
    far, local = _eps_moves(n, xi, "eps-xi")
    return rels + far + [rel for moves in local for rel in moves] + _ibn_balanced(n)


_SUITES = {
    "artin": _artin,
    "ibn-eps": _ibn_eps,
    "ibn-balanced": _ibn_balanced,
    "ibn-2gen": _ibn_2gen,
    "sym-inverse": _sym_inverse,
    "ibp-mixed": _ibp_mixed,
}

SUITE_IDS = tuple(_SUITES)


def relation_suite(suite_id: str, n: int) -> tuple[RelationPair, ...]:
    """All relation instances of the named presentation at size n."""
    if suite_id not in _SUITES:
        known = ", ".join(SUITE_IDS)
        raise ValueError(f"unknown presentation {suite_id!r} (known: {known})")
    if n < 1:
        raise ValueError(f"presentations need n >= 1, got {n}")
    return tuple(
        RelationPair(rel.left, rel.right, f"{suite_id}:{rel.tag}")
        for rel in _SUITES[suite_id](n)
    )
