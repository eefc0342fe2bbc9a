"""Exact inverse-CDF sampling from the two-layer ensemble.

Draws are made against integer cumulative masses C_1 <= ... <= C_N = T.
A uniform variate is a 128-bit dyadic rational U / 2**128, and it falls
in the first cell with C_i / T > U / 2**128. For integer C_i that is
C_i > floor(U * T / 2**128), so one integer product, one shift and a
bisection place every draw exactly, with no cell boundary misjudged.

The sampler weighs the 3**L paths over one common denominator (the path
table path_law reads, gathered from the weights of the distinct path
keys along their walk), gives each path the mass w << H of its 2**H
pairs, H being its number of level steps, and fills the level steps of
a drawn path with fair coin flips, from site 1 to site L, so the 4**L
pairs are never tabulated. Identical seeds and parameters reproduce identical
batches.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_right
from fractions import Fraction
from itertools import accumulate
from operator import lshift

from .ensemble import Distribution, _path_weights
from .lattice import Occupation, admit
from .record import Record
from .weights import ModelParams

_UNIFORM_BITS = 128

# Largest batch: the draws and the CSV lines of the CLI are held in memory.
# `sample --L 14 --n MAX_DRAWS` is measured in the README's size limits.
MAX_DRAWS = 10 ** 6


class SampleBatch(Record, frozen=True):
    """Reproducible draws of (tau, xi) pairs."""

    __slots__ = ("L", "params", "seed", "draws")

    def __init__(self, L: int, params: ModelParams, seed: int, draws: tuple):
        self._init(L, params, seed, draws)

    @property
    def count(self) -> int:
        return len(self.draws)


def _site_masks(sites: int, offset: int) -> list[tuple[int, int]]:
    """(down, level) masks of the 3**sites step sequences over sites
    offset+1 .. offset+sites, in step-lexicographic order."""
    masks = [(0, 0)]
    for j in range(offset, offset + sites):
        bit = 1 << j
        masks = [m for d, h in masks for m in ((d | bit, h), (d, h | bit), (d, h))]
    return masks


def _path_draws(L: int, p: ModelParams, n: int, rng: random.Random) -> list:
    """n pairs drawn through the path law, then coins on the level steps."""
    weights, _ = _path_weights(L, p)
    # path index i = hi * 3**low + lo: hi holds sites 1..L-low, lo the rest,
    # and the path's level count H is the sum of theirs
    low = L // 2
    head, tail = _site_masks(L - low, 0), _site_masks(low, L - low)
    heads, tails = ([h.bit_count() for _, h in masks] for masks in (head, tail))
    cum = list(accumulate(map(lshift, weights, (a + b for a in heads for b in tails))))
    total = cum[-1]
    del weights  # only the cumulative masses stay for the draws
    occupations = [Occupation(L, word) for word in range(1 << L)]
    full = (1 << L) - 1
    draws = []
    for _ in range(n):
        u = rng.getrandbits(_UNIFORM_BITS)
        hi, lo = divmod(bisect_right(cum, (u * total) >> _UNIFORM_BITS), len(tail))
        down = head[hi][0] | tail[lo][0]
        level = head[hi][1] | tail[lo][1]
        tau = full & ~(down | level)
        rest = level
        while rest:  # level sites from site 1 to site L
            bit = rest & -rest
            if rng.getrandbits(1):
                tau |= bit
            rest ^= bit
        draws.append((occupations[tau], occupations[(tau & level) | down]))
    return draws


def sample_two_layer(
    L: int,
    p: ModelParams,
    n: int,
    seed: int,
    max_L: int | None = None,
) -> SampleBatch:
    """Draw n pairs by exact inverse CDF over the path law."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n > MAX_DRAWS:
        raise ValueError(f"n={n} exceeds the limit of {MAX_DRAWS} draws")
    admit("paths", L, max_L)
    draws = _path_draws(L, p, n, random.Random(seed))
    return SampleBatch(L=L, params=p, seed=seed, draws=tuple(draws))


class CompareReport(Record, frozen=True):
    """Per-state normal z-scores of empirical frequencies vs exact values."""

    __slots__ = ("n", "z_scores")

    def __init__(self, n: int, z_scores: dict):
        self._init(n, z_scores)

    @property
    def max_abs_z(self) -> float:
        return max((abs(z) for z in self.z_scores.values()), default=0.0)

    def count_exceeding(self, threshold: float = 3.0) -> int:
        return sum(1 for z in self.z_scores.values() if abs(z) > threshold)


def empirical_compare(batch: SampleBatch, exact: Distribution) -> CompareReport:
    """z = (freq - p) sqrt(N) / sqrt(p(1-p)) per state of the exact law.

    The batch may be compared against a law over pairs or, when the exact
    states are single occupations, against the top layer of each draw.
    """
    if isinstance(exact.states[0], Occupation):
        observed = [tau for tau, _ in batch.draws]
    else:
        observed = list(batch.draws)
    counts: dict = {}
    for state in observed:
        if state not in exact:
            raise ValueError(f"sampled state {state!r} outside the exact support")
        counts[state] = counts.get(state, 0) + 1
    n = len(observed)
    zs = {}
    total = exact.total
    for state, m in zip(exact.states, exact.masses):
        c = counts.get(state, 0)
        if m == 0 or m == total:
            zs[state] = 0.0 if c * total == m * max(n, 1) else math.inf
            continue
        p_f = float(Fraction(m, total))
        freq = c / n if n else 0.0
        zs[state] = (freq - p_f) * math.sqrt(n) / math.sqrt(p_f * (1.0 - p_f))
    return CompareReport(n=n, z_scores=zs)
