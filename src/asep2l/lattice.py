"""Occupation sequences, two-layer paths, and compositions.

An occupation is a 0/1 sequence over sites 1..L, bit-packed into an integer
word with bit j-1 holding site j. A pair of occupations (tau, xi) of equal
length determines the random-walk path of partial sums of tau_j - xi_j,
whose level-occupation counts above the minimum form a composition of L+1.

Enumeration here is deterministic: occupations in lexicographic order of
the site sequence (site 1 most significant) and paths in lexicographic
order of their step sequences with steps ordered -1 < 0 < +1. The
enumerators take no size limit; every public operation that enumerates
calls admit once, at entry, with its row of MAX_L.
"""

from __future__ import annotations

import os
from typing import Iterator, Sequence

from .errors import EnumerationCapExceeded
from .record import Record

# Largest admitted L per kind of work. The README lists the operations of
# each row and the measured cost at its default.
MAX_L = {
    "marginal": 12,  # path_law's 3**L paths; the marginal folds ~7 * 2**L keys
    "pairs": 10,  # 4**L (tau, xi) pairs held as Fractions
    "paths": 14,  # 3**L paths
    "generator": 12,  # 2**L-state generator and its exact solve
    "simulation": 30,  # Gillespie run over L sites
    "verify": 12,  # every identity checker up to size L
    "polynomial": 200,  # one composition polynomial of L+1
}


def admit(kind: str, L: int, max_L: int | None = None) -> None:
    """Refuse sizes above the limit for kind, before any work is done.

    The limit is max_L when given, else the ASEP_MAX_L environment
    variable, else MAX_L[kind]. Raises ValueError for L < 0 and
    EnumerationCapExceeded for L above the limit.
    """
    if L < 0:
        raise ValueError("L must be nonnegative")
    cap = max_L
    if cap is None:
        raw = os.environ.get("ASEP_MAX_L", MAX_L[kind])
        try:
            cap = int(raw)
        except ValueError:
            raise ValueError(f"ASEP_MAX_L must be an integer, got {raw!r}")
    if L > cap:
        raise EnumerationCapExceeded(f"L={L} exceeds the {kind} cap {cap}")


class Occupation(Record, frozen=True):
    """Bit-packed 0/1 sequence; bit j-1 of word is site j."""

    __slots__ = ("length", "word")

    def __init__(self, length: int, word: int):
        if length < 0:
            raise ValueError("length must be nonnegative")
        if not 0 <= word < (1 << length if length else 1):
            raise ValueError("word out of range for length")
        self._init(length, word)

    @classmethod
    def from_bits(cls, bits: Sequence[int]) -> "Occupation":
        word = 0
        for j, b in enumerate(bits):
            if b not in (0, 1):
                raise ValueError(f"occupation entries must be 0 or 1, got {b}")
            word |= b << j
        return cls(len(bits), word)

    @classmethod
    def from_string(cls, text: str) -> "Occupation":
        if not all(ch in "01" for ch in text):
            raise ValueError(f"occupation strings use only 0 and 1: {text!r}")
        return cls(len(text), int(text[::-1], 2) if text else 0)

    def bit(self, j: int) -> int:
        """Occupancy of site j (1-based)."""
        if not 1 <= j <= self.length:
            raise IndexError(f"site {j} outside 1..{self.length}")
        return (self.word >> (j - 1)) & 1

    def bits(self) -> tuple[int, ...]:
        return tuple((self.word >> i) & 1 for i in range(self.length))

    def count(self) -> int:
        return self.word.bit_count()

    def prepend(self, b: int) -> "Occupation":
        return Occupation(self.length + 1, (self.word << 1) | b)

    def append(self, b: int) -> "Occupation":
        return Occupation(self.length + 1, self.word | (b << self.length))

    def concat(self, other: "Occupation") -> "Occupation":
        return Occupation(
            self.length + other.length, self.word | (other.word << self.length)
        )

    def __str__(self) -> str:
        # format puts site L first; length 0 would still print one digit
        return format(self.word, f"0{self.length}b")[::-1] if self.length else ""

    def __repr__(self) -> str:
        return f"Occupation({str(self)!r})" if self.length else "Occupation('')"


class LatticePath(Record, frozen=True):
    """Integer sequence starting at 0 with increments in {-1, 0, +1}.

    Caches the four statistics every weight formula reads: minimum,
    maximum, end value, and the number of horizontal (level) steps.
    """

    __slots__ = ("values", "minimum", "maximum", "end", "horizontal")

    def __init__(self, values: Sequence[int]):
        vals = tuple(int(v) for v in values)
        if not vals or vals[0] != 0:
            raise ValueError("path must start at 0")
        horizontal = 0
        for a, b in zip(vals, vals[1:]):
            step = b - a
            if step not in (-1, 0, 1):
                raise ValueError("path increments must be in {-1, 0, +1}")
            if step == 0:
                horizontal += 1
        self._init(vals, min(vals), max(vals), vals[-1], horizontal)

    @property
    def length(self) -> int:
        """Number of steps (the system size L)."""
        return len(self.values) - 1

    def steps(self) -> tuple[int, ...]:
        return tuple(b - a for a, b in zip(self.values, self.values[1:]))

    def __hash__(self) -> int:
        # the steps as base-3 digits after a leading 1, which is injective;
        # hashing the values would not be, as hash(-1) == hash(-2)
        code = 1
        for a, b in zip(self.values, self.values[1:]):
            code = 3 * code + b - a + 1
        return code

    def __repr__(self) -> str:
        return f"LatticePath({list(self.values)!r})"


def path_of(tau: Occupation, xi: Occupation) -> LatticePath:
    """Partial sums of tau_j - xi_j, a path of length L+1."""
    if tau.length != xi.length:
        raise ValueError(
            f"length mismatch: tau has {tau.length} sites, xi has {xi.length}"
        )
    vals = [0]
    acc = 0
    for tb, xb in zip(tau.bits(), xi.bits()):
        acc += tb - xb
        vals.append(acc)
    return LatticePath(vals)


def xi_of(tau: Occupation, gamma: LatticePath) -> Occupation:
    """Recover the bottom layer: xi_j = tau_j - (gamma_j - gamma_{j-1})."""
    if tau.length != gamma.length:
        raise ValueError("length mismatch between tau and path")
    bits = []
    for tb, step in zip(tau.bits(), gamma.steps()):
        b = tb - step
        if b not in (0, 1):
            raise ValueError("tau is not compatible with the path")
        bits.append(b)
    return Occupation.from_bits(bits)


def composition_of(gamma: LatticePath) -> tuple[int, ...]:
    """Counts of visits to each level from the minimum upward."""
    lo = gamma.minimum
    counts = [0] * (gamma.maximum - lo + 1)
    for v in gamma.values:
        counts[v - lo] += 1
    return tuple(counts)


def is_motzkin(gamma: LatticePath) -> bool:
    """True when the path never dips below 0 and ends at 0."""
    return gamma.minimum >= 0 and gamma.end == 0


def enumerate_occupations(L: int) -> Iterator[Occupation]:
    """All 2**L occupations in lexicographic order of the site sequence."""
    if L < 0:
        raise ValueError("L must be nonnegative")
    words = [0]
    for j in range(L):
        # site j+1 varies fastest, so the words keep lexicographic order
        words = [w | b << j for w in words for b in (0, 1)]
    for word in words:
        yield Occupation(L, word)


def enumerate_pairs(L: int) -> Iterator[tuple[Occupation, Occupation]]:
    """All 4**L ordered pairs (tau, xi), tau-major lexicographic order."""
    taus = list(enumerate_occupations(L))
    for tau in taus:
        for xi in taus:
            yield tau, xi


def enumerate_paths(L: int) -> Iterator[LatticePath]:
    """All 3**L paths of length L in step-lexicographic order.

    Each path is grown depth first with its minimum, maximum and number of
    level steps carried along, and its fields are set directly: its steps
    are valid by construction, so the checks of LatticePath(values), which
    are for outside input, are not run again.
    """
    if L < 0:
        raise ValueError("L must be nonnegative")
    return _grow_paths((0,), 0, 0, 0, L)


def _grow_paths(values, lo, hi, level, left):
    """The paths that extend values by left more steps, in step order;
    lo, hi and level are the minimum, maximum and level steps of values."""
    if not left:
        path = LatticePath.__new__(LatticePath)
        path._init(values, lo, hi, values[-1], level)
        yield path
        return
    end = values[-1]
    yield from _grow_paths(values + (end - 1,), min(lo, end - 1), hi, level, left - 1)
    yield from _grow_paths(values + (end,), lo, hi, level + 1, left - 1)
    yield from _grow_paths(values + (end + 1,), lo, max(hi, end + 1), level, left - 1)


def tau_from_path(gamma: LatticePath, eta: Sequence[int]) -> Occupation:
    """Top layer read off the path: 1 on up-steps, 0 on down-steps, and the
    supplied eta bit on level steps."""
    L = gamma.length
    if len(eta) != L:
        raise ValueError(f"eta must have length {L}, got {len(eta)}")
    bits = []
    for j, step in enumerate(gamma.steps()):
        if step == 1:
            bits.append(1)
        elif step == -1:
            bits.append(0)
        else:
            b = eta[j]
            if b not in (0, 1):
                raise ValueError("eta entries must be 0 or 1")
            bits.append(b)
    return Occupation.from_bits(bits)
