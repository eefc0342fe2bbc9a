"""Two-layer probability ensemble and the stationary marginal.

The two-layer law normalizes the weight Q over all 4**L pairs (tau, xi);
the stationary measure of the exclusion process is its top-layer marginal.
A pair's weight depends only on its path, and the path's weight only on
its composition and the heights of its ends above its minimum. The
marginal therefore weighs each distinct such key once, puts the 3**L path
weights over one common denominator as integers, and folds them into the
2**L top-layer masses by their first site, depth first: an up step forces
bit 1, a down step bit 0, and a level step adds to both, and each half
folds the sites after it the same way. That is O(3**L) integer additions,
and the law keeps those masses over their total: it divides only when read.
_path_mass_into, which spreads one path over its 2**H top layers with
Fractions, is kept as the slow reference for the path law's pushforward.

All arithmetic is exact; no floats enter this module.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from operator import add
from typing import Iterable

from .errors import NotInConfigurationSpace
from .lattice import (
    LatticePath,
    Occupation,
    admit,
    enumerate_occupations,
    enumerate_pairs,
    enumerate_paths,
    is_motzkin,
    path_of,
)
from .record import Record
from .weights import ModelParams, _extend, _key_weights, q_weight


class Distribution(Record, frozen=True):
    """Ordered exact law over hashable states: nonnegative masses (int or
    Fraction, not all zero) over their total; probability i is masses[i]/total."""

    __slots__ = ("states", "masses", "total", "_index")

    def __init__(self, states: Iterable, masses: Iterable):
        st = tuple(states)
        ms = tuple(masses)
        if len(st) != len(ms):
            raise ValueError("states and masses differ in length")
        if not {int, Fraction}.issuperset(map(type, ms)):
            raise ValueError("masses must be int or Fraction")
        if any(m < 0 for m in ms):
            raise ValueError("masses must be nonnegative")
        total = sum(ms)
        if total == 0:
            raise ValueError("masses must not all be zero")
        index = {s: i for i, s in enumerate(st)}
        if len(index) != len(st):
            raise ValueError("duplicate states")
        self._init(st, ms, total, index)

    def __len__(self) -> int:
        return len(self.states)

    def __contains__(self, state) -> bool:
        return state in self._index

    @property
    def probs(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(m, self.total) for m in self.masses)

    def prob(self, state) -> Fraction:
        return Fraction(self.masses[self._index[state]], self.total)

    def items(self):
        return zip(self.states, self.probs)

    def support(self) -> tuple:
        return tuple(s for s, m in zip(self.states, self.masses) if m > 0)

    def as_dict(self) -> dict:
        return dict(self.items())

    def __eq__(self, other) -> bool:
        if not isinstance(other, Distribution) or self.states != other.states:
            return False
        t, u = self.total, other.total
        return all(m * u == n * t for m, n in zip(self.masses, other.masses))

    def __hash__(self):
        return hash(("Distribution", self.states, self.probs))

    def __repr__(self) -> str:
        return f"Distribution(n={len(self)})"


def occupation_law(L: int, mass: dict[int, Fraction | int]) -> Distribution:
    """Law over all 2**L occupations in enumeration order, proportional to
    mass[word]; words absent from mass get probability 0."""
    states = list(enumerate_occupations(L))
    return Distribution(states, [mass.get(s.word, 0) for s in states])


def two_layer_law(L: int, p: ModelParams, max_L: int | None = None) -> Distribution:
    """Exact law on pairs (tau, xi), proportional to the weight Q."""
    admit("pairs", L, max_L)
    pairs = list(enumerate_pairs(L))
    return Distribution(pairs, [q_weight(tau, xi, p) for tau, xi in pairs])


def _path_mass_into(table: dict[int, Fraction], gamma: LatticePath, wgt) -> None:
    """Add a path's weight to every compatible top-layer word."""
    base = 0
    mask = 0
    for i, step in enumerate(gamma.steps()):
        if step == 1:
            base |= 1 << i
        elif step == 0:
            mask |= 1 << i
    sub = mask
    while True:
        key = base | sub
        table[key] = table.get(key, Fraction(0)) + wgt
        if sub == 0:
            break
        sub = (sub - 1) & mask


def _path_weights(L: int, p: ModelParams) -> tuple[list[int], int]:
    """Weights of the 3**L paths in step-lexicographic order, as integers
    over one common denominator, which is returned with them.

    Paths are grown one step at a time as ids into the list of distinct
    keys of their length, so each key is extended and weighed once.
    """
    keys = [((1,), 0, 0)]
    ids = [0]
    for _ in range(L):
        index: dict = {}
        moves = [
            [index.setdefault(_extend(key, step), len(index)) for step in (-1, 0, 1)]
            for key in keys
        ]
        ids = [child for i in ids for child in moves[i]]
        keys = list(index)
    weights = list(_key_weights(keys, p))
    den = lcm(*(d for _, d in weights))
    scaled = [n * (den // d) for n, d in weights]
    return [scaled[i] for i in ids], den


def _spread(weights: list[int], L: int) -> list[int]:
    """Fold path weights into top-layer masses by their first site.

    weights is in step-lexicographic order (site 1 most significant, steps
    -1 < 0 < +1); the result is in the order of enumerate_occupations. The
    paths whose first step is down or level spread over the words that
    start with 0, and those whose first step is up or level over the words
    that start with 1; each half folds the remaining L - 1 sites in turn.
    The recursion is depth first, so only one branch's sums are alive.
    """
    if L == 0:
        return weights
    n = len(weights) // 3
    level = weights[n : 2 * n]
    low = _spread(list(map(add, weights[:n], level)), L - 1)
    return low + _spread(list(map(add, weights[2 * n :], level)), L - 1)


def stationary_mu(L: int, p: ModelParams, max_L: int | None = None) -> Distribution:
    """Stationary measure of the exclusion process as the top marginal."""
    admit("marginal", L, max_L)
    weights, _ = _path_weights(L, p)
    return Distribution(list(enumerate_occupations(L)), _spread(weights, L))


class PhiTable(Record, frozen=True):
    """Basic weights: bottom-layer sums of the rescaled two-layer weight."""

    __slots__ = ("L", "params", "values")

    def __init__(self, L: int, params: ModelParams, values: dict):
        self._init(L, params, values)

    def value(self, tau: Occupation) -> Fraction:
        return self.values[tau]

    def normalized(self) -> Distribution:
        scale = self.params.tilde_scale(self.L)  # negative when AB q**2 > 1
        return occupation_law(self.L, {s.word: v / scale for s, v in self.values.items()})


def phi_table(L: int, p: ModelParams, max_L: int | None = None) -> PhiTable:
    """Exact basic-weight table; raises SingularParameter at poles."""
    admit("marginal", L, max_L)
    scale = p.tilde_scale(L)
    weights, den = _path_weights(L, p)
    unit = scale / den
    masses = _spread(weights, L)
    values = {occ: unit * m for occ, m in zip(enumerate_occupations(L), masses)}
    return PhiTable(L, p, values)


def path_law(L: int, p: ModelParams, max_L: int | None = None) -> Distribution:
    """Marginal law of the path: mass 2**H(gamma) * weight(gamma)."""
    admit("marginal", L, max_L)
    weights, _ = _path_weights(L, p)
    paths = list(enumerate_paths(L))
    return Distribution(paths, [w << g.horizontal for w, g in zip(weights, paths)])


def top_marginal(pairs: Distribution) -> Distribution:
    """Project a distribution over (tau, xi) pairs onto the top layer."""
    acc: dict = {}
    for (tau, _), m in zip(pairs.states, pairs.masses):
        acc[tau.word] = acc.get(tau.word, 0) + m
    return occupation_law(pairs.states[0][0].length, acc)


def path_law_top_marginal(paths: Distribution) -> Distribution:
    """Push the path law through the level-step coin flips, exactly."""
    table: dict[int, Fraction] = {}
    for gamma, m in zip(paths.states, paths.masses):
        _path_mass_into(table, gamma, Fraction(m, 1 << gamma.horizontal))
    return occupation_law(paths.states[0].length, table)


def duchi_weight(tau: Occupation, xi: Occupation, A, B) -> Fraction:
    """Comparison weight on the Motzkin configuration space.

    Sites sitting on a zero-level step of the path with the bottom layer
    occupied are labeled W; sites whose step starts at level zero with the
    bottom layer empty and no W-labeled site anywhere to their left are
    labeled B. The weight is (1+A)**#B * (1+B)**#W.
    """
    A = Fraction(A)
    B = Fraction(B)
    if A < 0 or B < 0:
        raise ValueError("A and B must be nonnegative")
    gamma = path_of(tau, xi)
    if not is_motzkin(gamma):
        raise NotInConfigurationSpace(
            "pair lies outside the Motzkin configuration space"
        )
    xb = xi.bits()
    vals = gamma.values
    n_w = 0
    n_b = 0
    seen_w = False
    for j in range(1, tau.length + 1):
        if vals[j - 1] == 0 and vals[j] == 0 and xb[j - 1] == 1:
            n_w += 1
            seen_w = True
        elif vals[j - 1] == 0 and xb[j - 1] == 0 and not seen_w:
            n_b += 1
    return (1 + A) ** n_b * (1 + B) ** n_w


def duchi_distribution(L: int, A, B, max_L: int | None = None) -> Distribution:
    """Normalized comparison measure over the Motzkin pairs."""
    admit("pairs", L, max_L)
    pairs = [pair for pair in enumerate_pairs(L) if is_motzkin(path_of(*pair))]
    return Distribution(pairs, [duchi_weight(tau, xi, A, B) for tau, xi in pairs])
