"""Two-layer probability ensemble and the stationary marginal.

The two-layer law normalizes the weight Q over all 4**L pairs (tau, xi);
the stationary measure of the exclusion process is its top-layer marginal.
A pair's weight depends only on its path, and the path's weight only on
its key: its composition and the heights of its ends above its minimum.
The marginal therefore weighs each distinct key of length L once, as an
integer over one common denominator, and folds those weights back along
the walk of keys (weights._key_levels), one site at a time, into the
2**L top-layer masses (weights._fold_masses): an up step forces the
site's bit to 1, a down step to 0, and a level step adds to both. Each
length holds about 7 * 2**L masses, so the 3**L paths are never
tabulated. The path law and the sampler gather the same key weights
forward, along the same links (weights._next_ids), into the table of the
3**L path weights in step-lexicographic order. _walk collects the one
walk that each of them reads; the links stay opaque here. The key
weights keep the closed-form denominator they are weighed over, and the
law keeps its masses over their total: it divides only when read. The
basic weights Phi are that law times one factor, tilde_scale(L) * Z_L.
_path_mass_into, which spreads one path over its 2**H top layers with
Fractions, is kept as the slow reference for the path law's pushforward.

All arithmetic is exact; no floats enter this module.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Iterator

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
from .weights import ModelParams, _fold_masses, _key_levels, _next_ids, _weigh_keys, q_weight


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
    mass[word]; words absent from mass get probability 0. Only top_marginal
    and path_law_top_marginal use it: the other laws of the package are
    built straight in enumeration order."""
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


def _walk(L: int, p: ModelParams) -> tuple[list, Iterator[int], int]:
    """The id arrays (down, level, up) of lengths 1..L of the key walk, in
    order, and the weights of the keys of length L as integers over the
    closed-form denominator of weights._weigh_keys, which is returned with
    them; it need not be the least one."""
    links = []
    for keys, *link in _key_levels(L):
        links.append(link)
    weights, den = _weigh_keys(keys, p)
    # weighed in full before the fold starts, but handed over as an iterator
    # over the list: once the fold has read it into its first level, the
    # exhausted iterator drops the list and the weights go with that level
    return links[1:], iter(list(weights)), den


def _path_weights(L: int, p: ModelParams) -> tuple[list[int], int]:
    """Weights of the 3**L paths in step-lexicographic order, as integers
    over one common denominator, which is returned with them."""
    links, weights, den = _walk(L, p)
    weights = list(weights)
    ids = [0]
    for link in links:
        ids = _next_ids(ids, *link)
    return [weights[i] for i in ids], den


def stationary_mu(L: int, p: ModelParams, max_L: int | None = None) -> Distribution:
    """Stationary measure of the exclusion process as the top marginal."""
    admit("marginal", L, max_L)
    links, weights, _ = _walk(L, p)
    return Distribution(list(enumerate_occupations(L)), _fold_masses(links, weights))


class PhiTable(Record, frozen=True):
    """Basic weights: bottom-layer sums of the rescaled two-layer weight.

    Phi_L(tau) = tilde_scale(L) * Z_L * mu_L(tau), so the table holds the
    top-layer marginal mu_L and the one factor tilde_scale(L) * Z_L, which
    is negative when AB q**2 > 1; a value is formed when it is read.
    """

    __slots__ = ("L", "params", "law", "factor")

    def __init__(self, L: int, params: ModelParams, law: Distribution, factor: Fraction):
        self._init(L, params, law, factor)

    def value(self, tau: Occupation) -> Fraction:
        return self.factor * self.law.prob(tau)

    @property
    def values(self) -> dict:
        return {tau: self.factor * pr for tau, pr in self.law.items()}

    def normalized(self) -> Distribution:
        return self.law


def phi_table(L: int, p: ModelParams, max_L: int | None = None) -> PhiTable:
    """Exact basic-weight table; raises SingularParameter at poles, before
    any path is weighed."""
    admit("marginal", L, max_L)
    scale = p.tilde_scale(L)
    links, weights, den = _walk(L, p)
    law = Distribution(list(enumerate_occupations(L)), _fold_masses(links, weights))
    return PhiTable(L, p, law, scale * Fraction(law.total, den))


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
