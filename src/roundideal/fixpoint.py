"""Least and greatest fixpoints of inductive definitions over a finite universe.

An inductive definition is a finite collection of steps ``(conclusion,
premises)``.  The associated one-step consequence operator

    consequences(C) = { conclusion | some step has all its premises inside C }

is monotone on the powerset of the universe, so iterating it from the empty
set (adding conclusions) or from the full universe (discarding unjustified
members) stabilizes after at most ``len(universe)`` rounds.  The limits are
the least closed set and the largest self-justifying set respectively.

Sets of tokens are plain ``frozenset`` values; canonical ordering by
universe position is applied only when presenting results.
"""

from __future__ import annotations

from .errors import MalformedInput
from .lattice import _items, _require_type


class Universe:
    """A finite ordered collection of distinct, hashable tokens."""

    def __init__(self, items):
        self.items = _items(items, "universe")
        self.index = {}
        for pos, token in enumerate(self.items):
            if token in self:
                raise MalformedInput(f"duplicate token {token!r} in universe")
            try:
                self.index[token] = pos
            except TypeError:
                raise MalformedInput(f"token {token!r} is not hashable") from None

    def __len__(self):
        return len(self.items)

    def __contains__(self, token):
        try:
            return token in self.index
        except TypeError:  # unhashable, so in no universe
            return False

    def __iter__(self):
        return iter(self.items)

    def _checked(self, tokens, what):
        """The items of the collection ``tokens`` as a tuple; MalformedInput
        naming ``what`` unless each is a token of this universe."""
        tokens = _items(tokens, f"{what}s")
        for token in tokens:
            if token not in self:
                raise MalformedInput(f"{what} {token!r} outside universe")
        return tokens

    def sort(self, tokens):
        """Tokens in declaration order."""
        return sorted(self._checked(tokens, "token"), key=self.index.__getitem__)


class InductiveDefinition:
    """A deduplicated, membership-checked list of steps over a universe."""

    def __init__(self, universe, steps):
        _require_type(universe, Universe, "universe")
        self.universe = universe
        canonical = set()
        for conclusion, premises in _items(steps, "steps", pairs=True):
            if conclusion not in universe:
                raise MalformedInput(f"conclusion {conclusion!r} outside universe")
            canonical.add((conclusion, frozenset(universe._checked(premises, "premise"))))
        index = universe.index
        self.steps = tuple(
            sorted(
                canonical,
                key=lambda s: (index[s[0]], sorted(index[t] for t in s[1])),
            )
        )

    def __len__(self):
        return len(self.steps)

    def __eq__(self, other):
        if not isinstance(other, InductiveDefinition):
            return NotImplemented
        return self.universe.items == other.universe.items and self.steps == other.steps

    def __hash__(self):
        return hash((self.universe.items, self.steps))


def consequences(defn, c):
    """One-step consequences of ``c``: conclusions whose premises all lie in c."""
    _require_type(defn, InductiveDefinition, "definition")
    return _consequences(defn, frozenset(defn.universe._checked(c, "token")))


def _consequences(defn, c):
    return frozenset(concl for concl, prem in defn.steps if prem <= c)


def lfp(defn):
    """Least closed set: iterate ``A <- A | consequences(A)`` from the empty set."""
    _require_type(defn, InductiveDefinition, "definition")
    current = frozenset()
    while True:
        nxt = current | _consequences(defn, current)
        if nxt == current:
            return current
        current = nxt


def gfp(defn):
    """Largest self-justifying set: iterate ``Y <- Y & consequences(Y)`` from the top."""
    _require_type(defn, InductiveDefinition, "definition")
    current = frozenset(defn.universe.items)
    while True:
        nxt = current & _consequences(defn, current)
        if nxt == current:
            return current
        current = nxt
