"""Tests for the generator, the exact solvers, and the simulator."""

import json
import os
import random
import subprocess
import sys
import tracemalloc
from fractions import Fraction as F
from itertools import accumulate
from math import comb, isqrt, lcm
from pathlib import Path
from textwrap import dedent

import numpy as np
import pytest
from test_acceptance import AB_GRID, Q_GRID

from asep2l import oracle
from asep2l.ensemble import Distribution, stationary_mu
from asep2l.errors import EnumerationCapExceeded, SingularSystem
from asep2l.lattice import Occupation, enumerate_occupations
from asep2l.oracle import (
    MAX_EVENTS,
    PANEL,
    ROWS,
    GeneratorMatrix,
    Rates,
    _entries,
    _integer_generator,
    _inverse_mod_p,
    _levels,
    _lifting_dtype,
    _primes_for,
    _reconstruct_common,
    _SingularModP,
    _solve_blocks,
    build_generator,
    gillespie_simulate,
    rates_from_params,
    solve_dixon,
    stationary_exact,
)
from asep2l.weights import ModelParams

POINTS = [
    ModelParams(F(0), F(1), F(2)),
    ModelParams(F(1, 3), F(1, 2), F(1, 3)),
    ModelParams(F(1, 2), F(2), F(3)),
    ModelParams(F(1, 2), F(0), F(0)),
    ModelParams(F(9, 10), F(1), F(1)),
]
ACCEPTANCE_GRID = [ModelParams(q, A, B) for q in Q_GRID for A, B in AB_GRID]
# the largest p whose PANEL products of residues sum exactly in float64
FLOAT_CAP = isqrt((2**53 - 1) // PANEL)
SRC = str(Path(__file__).resolve().parents[1] / "src")
SRC_ENV = dict(os.environ, PYTHONPATH=os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")]))


def dense_stationary(g: GeneratorMatrix) -> Distribution:
    """The stationary law by the dense route: the normalization row takes
    the place of the last equation, and one dense inverse mod p is lifted."""
    n = g.dim
    scale = lcm(*(rate.denominator for row in g.rows for rate in row.values()))
    cols = [{} for _ in range(n)]
    for i, row in enumerate(g.rows):
        for j, rate in row.items():
            cols[j][i] = int(rate * scale)
        cols[i][i] = cols[i].get(i, 0) - int(sum(row.values()) * scale)
    cols[n - 1] = {j: 1 for j in range(n)}
    x = solve_dixon(cols, [0] * (n - 1) + [1])
    states = list(enumerate_occupations(g.L))
    return Distribution(states, [x[s.word] for s in states])


def closure_generator(L: int, r: Rates) -> GeneratorMatrix:
    """The generator as it was first built: a closure per word that adds
    each nonzero rate to Fraction(0) or to the rate already there."""
    last = 1 << (L - 1)
    rows = []
    for w in range(1 << L):
        row = {}

        def add(target, rate):
            if rate != 0:
                row[target] = row.get(target, F(0)) + rate

        for i in range(L - 1):
            pair = (w >> i) & 3
            if pair == 1:
                add(w ^ (3 << i), F(1))
            elif pair == 2:
                add(w ^ (3 << i), r.q)
        if w & 1:
            add(w & ~1, r.gamma)
        else:
            add(w | 1, r.alpha)
        if w & last:
            add(w & ~last, r.beta)
        else:
            add(w | last, r.delta)
        rows.append(row)
    return GeneratorMatrix(L, tuple(rows))


def reference_inverse_mod_p(a: np.ndarray, p: int) -> np.ndarray:
    """The unblocked Gauss-Jordan kernel the blocked _inverse_mod_p replaced.

    Step k swaps in the first nonzero entry at or below the diagonal of
    column k, scales the pivot row by the pivot's inverse, which takes the
    pivot's place, and subtracts multiples of that row from every other
    row, all on the whole matrix; the row swaps are undone as column swaps
    at the end. Only the pivot row and column are reduced at each step.
    """
    n = a.shape[0]
    assert n * p * p < 2**63
    a = a % p
    update = np.empty_like(a)
    swaps = []
    for k in range(n):
        col = a[:, k] % p
        nz = np.flatnonzero(col[k:])
        if nz.size == 0:
            raise _SingularModP
        piv = k + int(nz[0])
        if piv != k:
            a[[k, piv]] = a[[piv, k]]
            col[[k, piv]] = col[[piv, k]]
            swaps.append((k, piv))
        inv = pow(int(col[k]), p - 2, p)
        row = a[k] % p * inv % p
        row[k] = inv
        col[k] = 0
        a[:, k] = 0
        a[k] = row
        a -= np.multiply.outer(col, row, out=update)
    for k, piv in reversed(swaps):
        a[:, [k, piv]] = a[:, [piv, k]]
    return a % p


def random_mod_p(rng, n: int, p: int) -> np.ndarray:
    """An n x n int64 matrix with entries drawn from [-p, p)."""
    return np.array(
        [[rng.randrange(-p, p) for _ in range(n)] for _ in range(n)], dtype=np.int64
    )


def random_block_system(rng, sizes: list[int]):
    """A random integer system, block tridiagonal in blocks of the given
    sizes, and its right-hand side. Each row is strictly diagonally
    dominant, so the system and all its Schur complements are nonsingular
    over the rationals."""
    bounds = list(accumulate(sizes, initial=0))
    rows = []
    for t, size in enumerate(sizes):
        band = range(bounds[max(t - 1, 0)], bounds[min(t + 2, len(sizes))])
        for i in range(bounds[t], bounds[t] + size):
            row = {j: rng.randrange(-4, 5) for j in band if j != i and rng.random() < 0.3}
            row[i] = sum(map(abs, row.values())) + rng.randrange(1, 4)
            rows.append(row)
    return rows, [rng.randrange(-9, 10) for _ in rows]


def corrupt_first_candidate(monkeypatch, n: int, k: int) -> tuple[list, list]:
    """Make the first complete candidate of an n-entry solution, n integer
    numerators over one denominator, wrong by one in its numerator k.
    Returns the modulus of every reconstruction, and that of the corruption."""
    real = oracle._reconstruct_common
    moduli: list = []
    corrupted: list = []

    def wrong_once(entries, m):
        candidate = real(entries, m)
        moduli.append(m)
        if candidate is not None and not corrupted:
            num, den = candidate
            assert len(num) == n  # a candidate covers every entry
            corrupted.append(m)
            return num[:k] + [num[k] + 1] + num[k + 1 :], den
        return candidate

    monkeypatch.setattr(oracle, "_reconstruct_common", wrong_once)
    return moduli, corrupted


def record_lifting_dtypes(monkeypatch) -> list:
    """The dtype each later solve lifts in, as _lifting_dtype picks it."""
    real = oracle._lifting_dtype
    dtypes: list = []

    def spy(val, rhs):
        dtypes.append(real(val, rhs))
        return dtypes[-1]

    monkeypatch.setattr(oracle, "_lifting_dtype", spy)
    return dtypes


def closed_form_level(w: int, L: int) -> int:
    """The fewest moves from the empty word to w. Bit i of w is site i + 1,
    with particles at x_1 < ... < x_N; the first k particles enter at site
    1 and hop right, the others enter at site L and hop left, so the level
    is the min over k of sum_{i <= k} x_i + sum_{i > k} (L + 1 - x_i)."""
    x = [i + 1 for i in range(L) if w >> i & 1]
    return min(sum(x[:k]) + sum(L + 1 - s for s in x[k:]) for k in range(len(x) + 1))


def solve_in_order(g: GeneratorMatrix, key: np.ndarray):
    """stationary_exact's pinned system with the words in a stable order of
    key, one block per value of key, solved by _solve_blocks. Returns the
    masses by word, their denominator and the block sizes."""
    i, j, v = _integer_generator(g)
    words = np.argsort(key, kind="stable")
    place = np.empty_like(words)
    place[words] = np.arange(g.dim)
    kept = j != 0
    r, c = (np.append(place[a[kept]], 0) for a in (j, i))
    sizes = np.bincount(key).tolist()
    num, den = _solve_blocks(r, c, np.append(v[kept], 1), [1] + [0] * (g.dim - 1), sizes)
    return [num[k] for k in place], den, sizes


def padic(value: F, m: int) -> int:
    """The residue mod m of a rational whose denominator is a unit mod m."""
    return value.numerator * pow(value.denominator, -1, m) % m


class TestRates:
    def test_zero_strengths_give_unit_boundaries(self):
        r = rates_from_params(ModelParams(F(1, 2), F(0), F(0)))
        assert (r.alpha, r.beta, r.gamma, r.delta) == (1, 1, 0, 0)

    def test_reference_point(self):
        r = rates_from_params(ModelParams(F(1, 2), F(2), F(5)))
        assert r.alpha == F(1, 3)
        assert r.gamma == F(1, 2) * F(2, 3) == F(1, 3)
        assert r.beta == F(1, 6)
        assert r.delta == F(1, 2) * F(5, 6)

    def test_round_trip(self):
        for p in POINTS:
            r = rates_from_params(p)
            assert (1 - r.alpha) / r.alpha == p.A
            assert (1 - r.beta) / r.beta == p.B
            assert r.gamma == p.q * (1 - r.alpha)
            assert r.delta == p.q * (1 - r.beta)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            Rates(F(-1), F(1), F(0), F(0), F(0))


class TestGenerator:
    @pytest.mark.parametrize("p", POINTS)
    def test_row_sums_zero_and_rates_nonnegative(self, p):
        for L in (1, 2, 4):
            g = build_generator(L, rates_from_params(p))
            for i in range(g.dim):
                row = g.rows[i]
                assert all(rate >= 0 for rate in row.values())
                assert i not in row
                assert sum(row.values()) == -g.entry(i, i)

    def test_entry_agrees_with_apply_left(self):
        # row 0 lists its own word: that rate cancels in the diagonal
        for g in (
            GeneratorMatrix(1, ({0: 1, 1: 1}, {0: 2})),
            build_generator(3, rates_from_params(POINTS[1])),
        ):
            for i in range(g.dim):
                unit = [0] * g.dim
                unit[i] = 1
                assert g.apply_left(unit) == [g.entry(i, j) for j in range(g.dim)]

    @pytest.mark.parametrize("p", POINTS + ACCEPTANCE_GRID)
    def test_rows_equal_the_closure_build(self, p):
        # covers q = 0, where left hops are absent, and L = 1, where the
        # entry at site 1 and at site L reach the same word
        r = rates_from_params(p)
        for L in range(1, 7):
            assert build_generator(L, r).rows == closure_generator(L, r).rows

    def test_two_state_rates(self):
        r = rates_from_params(ModelParams(F(1, 2), F(2), F(1)))
        g = build_generator(1, r)
        assert g.rows[0] == {1: r.alpha + r.delta}
        assert g.rows[1] == {0: r.beta + r.gamma}

    def test_hop_structure_at_length_two(self):
        r = rates_from_params(ModelParams(F(1, 3), F(1), F(2)))
        g = build_generator(2, r)
        # state 10 (word 1): right hop to 01, exit at site 1, entry at site 2
        assert g.rows[1] == {2: F(1), 0: r.gamma, 3: r.delta}

    def test_absorbing_when_only_injection(self):
        r = Rates(alpha=F(1), beta=F(0), gamma=F(0), delta=F(0), q=F(0))
        g = build_generator(2, r)
        full = g.dim - 1
        assert g.rows[full] == {}

    def test_cap(self):
        r = rates_from_params(POINTS[0])
        with pytest.raises(EnumerationCapExceeded):
            build_generator(13, r)
        with pytest.raises(ValueError):
            build_generator(0, r)


class TestExactSolvers:
    def test_two_state_balance(self):
        p = ModelParams(F(1, 2), F(2), F(1))
        r = rates_from_params(p)
        g = build_generator(1, r)
        dist = stationary_exact(g)
        total = r.alpha + r.beta + r.gamma + r.delta
        assert dist.prob(Occupation.from_string("1")) == (r.alpha + r.delta) / total

    def test_symmetric_point(self):
        dist = stationary_exact(
            build_generator(1, rates_from_params(ModelParams(F(1, 3), F(2), F(2))))
        )
        assert dist.prob(Occupation.from_string("1")) == F(1, 2)

    @pytest.mark.parametrize("p", POINTS + ACCEPTANCE_GRID)
    def test_methods_agree(self, p):
        # the block solve by breadth-first levels against one dense inverse
        for L in range(1, 9):
            g = build_generator(L, rates_from_params(p))
            assert stationary_exact(g) == dense_stationary(g)

    @pytest.mark.parametrize("L", [12, 13])
    @pytest.mark.parametrize(
        "p", [ModelParams(F(1, 2), F(1, 2), F(1)), ModelParams(F(1, 2), F(9), F(7))]
    )
    def test_matches_the_marginal_at_the_largest_size(self, p, L):
        # a fan point (AB < 1) and a shock point: levels of up to 236 rows
        # at L = 12 and 415 rows at L = 13 go through the mod-p kernel
        g = build_generator(L, rates_from_params(p), max_L=13)
        assert stationary_exact(g) == stationary_mu(L, p, max_L=13)

    def test_reconstruction_stops_at_the_first_failing_entry(self, monkeypatch):
        calls, candidates = [], []
        real_entry = oracle._rational_reconstruct
        real_common = oracle._reconstruct_common

        def entry(a, m):
            calls.append((m, a, real_entry(a, m)))
            return calls[-1][-1]

        def common(entries, m):
            candidates.append((m, list(entries), real_common(entries, m)))
            return candidates[-1][-1]

        monkeypatch.setattr(oracle, "_rational_reconstruct", entry)
        monkeypatch.setattr(oracle, "_reconstruct_common", common)
        p = ModelParams(F(1, 3), F(2), F(5))
        g = build_generator(10, rates_from_params(p))
        dist = stationary_exact(g)
        assert len(candidates) > 1  # the first checkpoint fails
        for m, entries, candidate in candidates[:-1]:
            assert candidate is None
            read = [a for mm, a, _ in calls if mm == m]
            results = [f for mm, _, f in calls if mm == m]
            assert results[-1] is None and None not in results[:-1]
            # the entries reconstructed alone come in order, and the last
            # one, which fails, is the first entry that does not reconstruct
            pos = 0
            for a in read:
                pos = entries.index(a, pos) + 1
            assert all(real_entry(e, m) is not None for e in entries[: pos - 1])
        num, den = candidates[-1][-1]
        assert len(num) == g.dim
        assert dist == stationary_mu(10, p)

    def test_rates_to_the_own_word_do_not_change_the_law(self):
        # each row, the empty word's included, lists its own word; the two
        # diagonal entries of such a row must add up in the block solve
        rng = random.Random(3)
        for p in POINTS[:3]:
            for L in range(1, 6):
                g = build_generator(L, rates_from_params(p))
                rows = tuple(
                    {**row, w: F(rng.randrange(1, 9), rng.randrange(1, 9))}
                    for w, row in enumerate(g.rows)
                )
                assert stationary_exact(GeneratorMatrix(L, rows)) == stationary_exact(g)

    def test_matches_two_layer_marginal(self):
        p = ModelParams(F(1, 2), F(1), F(2))
        g = build_generator(3, rates_from_params(p))
        assert stationary_exact(g) == stationary_mu(3, p)

    def test_solution_annihilates_generator(self):
        p = POINTS[2]
        g = build_generator(4, rates_from_params(p))
        dist = stationary_exact(g)
        x = [F(0)] * g.dim
        for occ, pr in dist.items():
            x[occ.word] = pr
        assert all(v == 0 for v in g.apply_left(x))

    def test_solver_invariance_under_relabeling(self):
        rng = random.Random(5)
        n = 8
        base = [[rng.randrange(-3, 4) for _ in range(n)] for _ in range(n)]
        rhs = [rng.randrange(-3, 4) for _ in range(n)]

        def sparse(m):
            return [{j: v for j, v in enumerate(row) if v} for row in m]

        x = None
        try:
            x = solve_dixon(sparse(base), rhs)
        except SingularSystem:
            pytest.skip("random matrix happened to be singular")
        assert [sum(a * b for a, b in zip(row, x)) for row in base] == rhs
        perm = list(range(n))
        rng.shuffle(perm)
        pm = [[base[perm[i]][perm[j]] for j in range(n)] for i in range(n)]
        pb = [rhs[perm[i]] for i in range(n)]
        px = solve_dixon(sparse(pm), pb)
        assert [px[j] for j in range(n)] == [x[perm[j]] for j in range(n)]

    def test_particle_hole_reflection_symmetry(self):
        # reversing the lattice and exchanging particles with holes swaps
        # the boundary strengths A and B
        q = F(1, 3)
        pa = ModelParams(q, F(2), F(5))
        pb = ModelParams(q, F(5), F(2))
        L = 3
        da = stationary_exact(build_generator(L, rates_from_params(pa)))
        db = stationary_exact(build_generator(L, rates_from_params(pb)))
        for occ in enumerate_occupations(L):
            flipped = Occupation.from_bits([1 - b for b in reversed(occ.bits())])
            assert da.prob(occ) == db.prob(flipped)

    def test_not_reversible_in_general(self):
        p = ModelParams(F(0), F(0), F(0))  # maximal-current regime
        g = build_generator(3, rates_from_params(p))
        dist = stationary_exact(g)
        x = {occ.word: pr for occ, pr in dist.items()}
        violations = 0
        for i in range(g.dim):
            for j, rate in g.rows[i].items():
                if x[i] * rate != x[j] * g.rows[j].get(i, F(0)):
                    violations += 1
        assert violations > 0

    def test_singular_system_detected(self):
        # the zero generator has a fat nullspace, and a rank-one system
        # has no unique solution: both solvers must refuse
        g = GeneratorMatrix(2, tuple({} for _ in range(4)))
        with pytest.raises(SingularSystem):
            stationary_exact(g)
        with pytest.raises(SingularSystem):
            solve_dixon([{0: 1, 1: 2}, {0: 2, 1: 4}], [1, 2])

    def test_falls_through_to_next_prime(self):
        p = next(_primes_for(1))
        assert solve_dixon([{0: p}], [3 * p]) == [3]

    @pytest.mark.parametrize(
        "sizes",
        [
            [1],
            [3, 1, 40, 2],
            [PANEL + 5, 1, 7],
            [2, 1, 1, PANEL + 2, 5, 1],
            [ROWS + 3, 2 * ROWS + 1, 5],
        ],
    )
    def test_block_solve_equals_the_one_block_solve(self, sizes):
        # uneven blocks, with 1-row blocks, blocks of more than one panel and
        # blocks whose Schur updates take more than one part of ROWS rows
        rng = random.Random(sum(sizes) * len(sizes))
        rows, rhs = random_block_system(rng, sizes)
        num, den = _solve_blocks(*_entries(rows), rhs, sizes)
        x = [F(v, den) for v in num]
        assert [sum(v * x[j] for j, v in row.items()) for row in rows] == rhs
        assert x == solve_dixon(rows, rhs)
        # every entry split into two at its position, which must add up,
        # then those entries in a random order, which the bands must not see
        r, c, v = _entries(rows)
        part = np.array([rng.choice([-2, -1, 1, 2]) for _ in v], dtype=object)
        r, c, v = np.concatenate([r, r]), np.concatenate([c, c]), np.concatenate([v - part, part])
        assert _solve_blocks(r, c, v, rhs, sizes) == (num, den)
        order = np.array(rng.sample(range(len(v)), len(v)), dtype=np.int64)
        assert _solve_blocks(r[order], c[order], v[order], rhs, sizes) == (num, den)

    def test_solve_rejects_a_wrong_candidate(self, monkeypatch):
        rows, rhs = random_block_system(random.Random(7), [6])
        calls, corrupted = corrupt_first_candidate(monkeypatch, len(rows), len(rows) - 1)
        x = solve_dixon(rows, rhs)
        assert [sum(v * x[j] for j, v in row.items()) for row in rows] == rhs
        assert corrupted and max(calls) > corrupted[0]  # a later checkpoint ran

    def test_exact_law_survives_a_wrong_candidate(self, monkeypatch):
        p = POINTS[1]
        g = build_generator(4, rates_from_params(p))
        calls, corrupted = corrupt_first_candidate(monkeypatch, g.dim, g.dim - 1)
        assert stationary_exact(g) == stationary_mu(4, p)
        assert corrupted and max(calls) > corrupted[0]  # a later checkpoint ran

    @pytest.mark.parametrize("i, j", [(0, 4), (5, 1)])
    def test_block_solve_refuses_an_entry_two_blocks_away(self, i, j):
        rows = [{k: 1} for k in range(6)]
        rows[i][j] = 1  # between blocks 0 and 2, above or below the diagonal
        with pytest.raises(ValueError):
            _solve_blocks(*_entries(rows), [1] * 6, [2, 2, 2])
        solve_dixon(rows, [1] * 6)  # as one block, the system is solved

    @pytest.mark.parametrize("L, move", [(2, (0, 3)), (2, (3, 0)), (3, (1, 7))])
    def test_rejects_each_move_of_two_particles(self, L, move):
        # a move out of the empty word, a move into it, whose entry the pin
        # drops with the empty word's equation, and one between two other words
        rows = [{} for _ in range(1 << L)]
        source, target = move
        rows[source][target] = F(1)
        with pytest.raises(ValueError):
            stationary_exact(GeneratorMatrix(L, tuple(rows)))

    def test_rejects_moves_of_two_particles(self):
        # the generator's moves change N by at most one, which stationary_exact
        # checks of its input before it orders the words by level
        rows = [{} for _ in range(4)]
        rows[0][3] = F(1)  # empty -> both sites filled
        rows[3][0] = F(1)
        with pytest.raises(ValueError):
            stationary_exact(GeneratorMatrix(2, tuple(rows)))

    @pytest.mark.parametrize("p", ACCEPTANCE_GRID)
    def test_level_order_equals_the_particle_order(self, p):
        # the same pinned system in blocks by particle number, the order the
        # levels replaced, and in blocks by level
        for L in range(1, 9):
            g = build_generator(L, rates_from_params(p))
            i, j, _ = _integer_generator(g)
            count = np.array([w.bit_count() for w in range(g.dim)])
            by_particles = solve_in_order(g, count)
            by_levels = solve_in_order(g, _levels(i, j, g.dim))
            assert by_particles[2] == [comb(L, N) for N in range(L + 1)]
            assert by_levels[2] == np.bincount(
                [closed_form_level(w, L) for w in range(g.dim)]).tolist()
            assert by_levels[:2] == by_particles[:2]

    @pytest.mark.parametrize("p", [POINTS[0], POINTS[2]])
    def test_levels_have_the_closed_form(self, p):
        # at q = 0 the moves go one way only, which the search does not see
        for L in range(1, 11):
            g = build_generator(L, rates_from_params(p))
            i, j, _ = _integer_generator(g)
            assert _levels(i, j, g.dim).tolist() == [
                closed_form_level(w, L) for w in range(g.dim)]

    def test_the_kernel_sees_the_levels_at_ten_sites(self, monkeypatch):
        # 31 levels of at most 76 rows, where the 11 particle numbers had
        # blocks of up to 252 rows and sum n**2 = C(20, 10) = 184,756
        real = oracle._inverse_mod_p
        shapes = []

        def spy(a, p):
            shapes.append(a.shape)
            return real(a, p)

        monkeypatch.setattr(oracle, "_inverse_mod_p", spy)
        stationary_exact(build_generator(10, rates_from_params(POINTS[2])))
        sizes = [n for n, _ in shapes]
        assert sizes == [m for _, m in shapes]
        assert (len(sizes), max(sizes), sum(n * n for n in sizes)) == (31, 76, 55260)

    def test_an_unreachable_word_is_refused_before_any_prime(self, monkeypatch):
        # words 0 and 1 are joined, and so are words 2 and 3, but no move
        # joins the two pairs: the pinned system has a second solution
        def no_prime(k):
            raise AssertionError("a prime was asked for")

        monkeypatch.setattr(oracle, "_primes_for", no_prime)
        rows = ({1: F(1)}, {0: F(1)}, {3: F(1)}, {2: F(2)})
        with pytest.raises(SingularSystem):
            stationary_exact(GeneratorMatrix(2, rows))

    @pytest.mark.parametrize("n", [1, 2, 7, 31, 32, 33, 40, 64, 65, 100, 252])
    def test_inverse_mod_p_is_an_inverse(self, n):
        rng = random.Random(n)
        # the largest prime this size admits, where lazy reduction is tightest
        p = next(_primes_for(n))
        a = random_mod_p(rng, n, p)
        # a row swap is needed at the first step: column 0 is 0 above the last row
        a[:-1, 0] = 0
        a[-1, 0] = 3
        inv = _inverse_mod_p(a.copy(), p)  # the kernel consumes its argument
        assert inv.dtype == np.int64 and ((0 <= inv) & (inv < p)).all()
        assert (inv == reference_inverse_mod_p(a, p)).all()
        exact = inv.astype(object) @ a.astype(object)
        assert ((exact % p) == np.eye(n, dtype=object)).all()

    def test_inverse_mod_p_with_every_pivot_p_minus_one(self):
        # (p - 1) I plus entries below the diagonal: no swap, and every pivot
        # is p - 1, its own inverse, so a step's row factor reaches inv + 1 = p
        n = 2 * PANEL + 1  # three panels
        p = next(_primes_for(n))
        a = np.tril(random_mod_p(random.Random(n), n, p), -1)
        np.fill_diagonal(a, p - 1)
        inv = _inverse_mod_p(a.copy(), p)
        assert (inv == reference_inverse_mod_p(a, p)).all()
        exact = inv.astype(object) @ a.astype(object)
        assert ((exact % p) == np.eye(n, dtype=object)).all()

    def test_exact_solve_peaks_at_its_system_inverses_and_check(self):
        # numpy reports its buffers to tracemalloc; a first solve fills any
        # cache, so the traced one holds only what the solve itself makes
        L = 9
        g = build_generator(L, rates_from_params(POINTS[2]))
        stationary_exact(g)
        tracemalloc.start()
        try:
            dist = stationary_exact(g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # The peak is the exact check: n * slots products of a mass with an
        # entry, on top of the system's entry arrays and padded rows, the
        # level inverses and the lifting's vectors. At L = 9 it is about
        # 840 KB, of which the inverses are 63 KB; the terms below sum to
        # 935 KB.
        n = 2 ** L
        sizes = np.bincount([closed_form_level(w, L) for w in range(n)]).tolist()
        # moves: half the words at each of the L - 1 pairs, every word at each end
        entries = (L - 1) * n // 2 + 2 * n + n  # and one diagonal a word
        slots = L + 2  # an equation's moves in from L - 1 pairs and 2 ends, and its diagonal
        bits = max(m.bit_length() for m in dist.masses)
        vbits = max(abs(x) for x in _integer_generator(g)[2].tolist()).bit_length()
        # reconstruction needs about 2 * bits + 2 bits of p**k, each digit adds
        # more than 23, and the checkpoints double k: p**k at the last one
        lift = 48 * -(-(2 * bits + 2) // 23)

        def size(b):  # of an int of b bits
            return sys.getsizeof(1 << b)

        # an int32 inverse a level, and its own and its bands' four array headers
        inverses = sum(4 * s * s + 5 * sys.getsizeof(np.zeros(0)) for s in sizes)
        # G's entries (i, j, v), the pinned system's (r, c, v) and its bands;
        # the system's padded rows (idx, val), its bands' in all, the check's
        # products; vectors of n
        arrays = 8 * (7 * entries + 5 * n * slots + 16 * n)
        # the check's products and row sums, the lifting's and reconstruction's
        # vectors, and the diagonal
        ints = n * (
            slots * size(bits + vbits) + size(bits + vbits + 4) + 4 * size(lift) + size(vbits + 4)
        )
        assert peak < inverses + arrays + ints

    def test_inverse_mod_p_refuses_a_singular_matrix(self):
        p = next(_primes_for(3))
        a = np.array([[1, 2, 3], [2, 4, 6 + p], [0, 1, 1]])  # row 2 = 2 * row 1 mod p
        with pytest.raises(_SingularModP):
            _inverse_mod_p(a, p)
        with pytest.raises(_SingularModP):
            _inverse_mod_p(np.zeros((1, 1), dtype=np.int64), p)

    @pytest.mark.parametrize("n", [2, 40, 100])
    def test_inverse_mod_p_swaps_at_every_early_step(self, n):
        rng = random.Random(n + 1)
        p = next(_primes_for(n))
        a = random_mod_p(rng, n, p)
        h = n // 2
        a[:h, :h] = 0  # the first h pivots all come from below row h - 1
        assert (_inverse_mod_p(a.copy(), p) == reference_inverse_mod_p(a, p)).all()

    def test_inverse_mod_p_swaps_inside_the_second_panel(self):
        n = 100
        rng = random.Random(33)
        p = next(_primes_for(n))
        a = random_mod_p(rng, n, p)
        a[:, PANEL + 1] = 0  # zero but in its last row: a swap at step 33
        a[-1, PANEL + 1] = 5
        assert (_inverse_mod_p(a.copy(), p) == reference_inverse_mod_p(a, p)).all()

    @pytest.mark.parametrize("n", [3, 65, 100])
    def test_inverse_mod_p_refuses_a_dependency_in_the_last_panel(self, n):
        rng = random.Random(n + 2)
        p = next(_primes_for(n))
        a = random_mod_p(rng, n, p)
        # the last column is a combination of two others modulo p, and
        # only the last step of the last panel can see it
        a[:, -1] = (3 * a[:, 0] - 7 * a[:, n // 2] + p * a[:, 1]) % p
        with pytest.raises(_SingularModP):
            reference_inverse_mod_p(a, p)
        with pytest.raises(_SingularModP):
            _inverse_mod_p(a, p)

    def test_inverse_mod_p_refuses_a_prime_above_the_float64_cap(self):
        big = FLOAT_CAP + 2 - FLOAT_CAP % 2  # odd, and above the cap
        assert PANEL * big * big >= 2**53 and 4 * big * big < 2**63
        with pytest.raises(ValueError):
            _inverse_mod_p(np.eye(4, dtype=np.int64), big)

    def test_numeric_limits_hold_under_python_O(self):
        # -O strips assert statements; both refusals must survive it
        script = dedent(
            """
            import numpy as np
            from fractions import Fraction
            from asep2l import oracle, qcalc, weights
            if __debug__:
                raise SystemExit("assert statements are on")
            try:
                oracle._inverse_mod_p(np.eye(3, dtype=np.int64), 2**24 + 43)
            except ValueError:
                pass
            else:
                raise SystemExit("the kernel took a prime above the float64 cap")
            # without the Pochhammer factor every degree of the series survives
            weights.pochhammer_polynomial = lambda q, n: qcalc.QPolynomial([1])
            try:
                weights.w_sigma_series((2, 1), Fraction(1, 2))
            except AssertionError:
                pass
            else:
                raise SystemExit("the series route returned a leaked degree")
            """
        )
        subprocess.run([sys.executable, "-O", "-c", script], env=SRC_ENV, check=True)

    def test_integer_generator_equals_per_entry_scaling(self):
        def per_entry(g):  # every entry scaled on its own, over the lcm of all
            rates = [f for row in g.rows for f in row.values()]
            scale = lcm(*(f.denominator for f in rates))
            v = [f.numerator * (scale // f.denominator) for f in rates]
            i = [w for w, row in enumerate(g.rows) for _ in row]
            j = [c for row in g.rows for c in row]
            diagonal = [0] * g.dim
            for w, x in zip(i, v):
                diagonal[w] -= x
            words = list(range(g.dim))
            return i + words, j + words, v + diagonal

        generators = [
            build_generator(L, rates_from_params(p)) for L in range(1, 7) for p in POINTS
        ]
        # scaled rates too large for the ints that CPython caches
        big = ModelParams(F(123456789, 987654321), F(1000000007, 3), F(5, 999999937))
        generators.append(build_generator(4, rates_from_params(big)))
        # equal rates as distinct objects, and a rate that no other entry shares
        rows = [
            {j: F(f.numerator, f.denominator) for j, f in row.items()}
            for row in build_generator(4, rates_from_params(POINTS[1])).rows
        ]
        rows[5][4] = F(7, 9)
        assert len({id(f) for row in rows for f in row.values()}) == sum(map(len, rows))
        generators.append(GeneratorMatrix(4, tuple(rows)))
        for g in generators:
            i, j, v = _integer_generator(g)
            assert [a.tolist() for a in (i, j, v)] == list(per_entry(g))
            moves = v[: len(v) - g.dim].tolist()  # equal scaled rates are one int
            assert len({id(x) for x in moves}) == len(set(moves))

    @pytest.mark.parametrize("p", ACCEPTANCE_GRID)
    def test_certificate_accepts_only_the_stationary_masses(self, p, monkeypatch):
        # the solve's exact check is the only one: a complete candidate
        # wrong by one in any unknown, the empty word's included, is
        # refused, and a later checkpoint gives the law
        for L in range(1, 6):
            g = build_generator(L, rates_from_params(p))
            mu = stationary_mu(L, p)
            for k in range(g.dim):
                with monkeypatch.context() as patch:
                    calls, corrupted = corrupt_first_candidate(patch, g.dim, k)
                    assert stationary_exact(g) == mu
                assert corrupted and max(calls) > corrupted[0]

    def test_negative_masses_are_refused(self):
        # G = [[1, -1], [1, -1]]: its pinned system solves to masses 1 and -1
        g = GeneratorMatrix(1, ({1: F(-1)}, {0: F(1)}))
        with pytest.raises(SingularSystem):
            stationary_exact(g)

    def test_lifting_dtype_follows_the_bound(self):
        # int64 exactly while max|rhs| < 2**62 and k max|v| 2**24 < 2**62,
        # for rows k entries wide; every prime is below 2**24
        assert all(p < 2**24 for p in _primes_for(1))
        val = np.array([[2**36, -3], [0, 0]], dtype=object)  # 2 * 2**36 * 2**24 = 2**61
        assert _lifting_dtype(val, np.array([2**62 - 1, 1 - 2**62], dtype=object)) is np.int64
        assert _lifting_dtype(val, np.array([0, 2**62], dtype=object)) is object
        assert _lifting_dtype(val, np.array([-(2**62), 0], dtype=object)) is object
        val[1, 0] = -(2**37)  # 2 * 2**37 * 2**24 = 2**62
        assert _lifting_dtype(val, np.array([1, 1], dtype=object)) is object
        empty = np.zeros((1, 0), dtype=object)
        assert _lifting_dtype(empty, np.array([0], dtype=object)) is np.int64

    @pytest.mark.parametrize("sizes", [[1], [3, 1, 40, 2], [PANEL + 5, 1, 7]])
    def test_both_lifting_dtypes_give_one_solution(self, sizes, monkeypatch):
        # entries and right-hand side scaled by 2**40 leave the solution
        # alone and push the lifting from int64 to object integers
        dtypes = record_lifting_dtypes(monkeypatch)
        rows, rhs = random_block_system(random.Random(len(sizes)), sizes)
        r, c, v = _entries(rows)
        scaled = [b << 40 for b in rhs]
        solutions = [
            _solve_blocks(r, c, v, rhs, sizes),
            _solve_blocks(r, c, v * 2**40, scaled, sizes),
        ]
        assert dtypes == [np.int64, object]
        assert solutions[0] == solutions[1]
        num, den = solutions[0]
        for row, b in zip(rows, rhs):
            assert sum(x * num[j] for j, x in row.items()) == den * b

    def test_int64_lifting_at_its_bound(self, monkeypatch):
        # the largest entries and right-hand side the int64 lifting admits
        dtypes = record_lifting_dtypes(monkeypatch)
        rng = random.Random(13)
        sizes = [4, 9, 3]
        rows, _ = random_block_system(rng, sizes)
        width = max(map(len, rows))
        top = max(abs(x) for row in rows for x in row.values())
        scale = (2**62 - 1) // (width * top * 2**24)
        rows = [{j: x * scale for j, x in row.items()} for row in rows]
        rhs = [rng.choice([-1, 1]) * (2**62 - 1 - rng.randrange(9)) for _ in rows]
        num, den = _solve_blocks(*_entries(rows), rhs, sizes)
        assert dtypes == [np.int64]
        for row, b in zip(rows, rhs):
            assert sum(x * num[j] for j, x in row.items()) == den * b

    def test_nine_digit_rates_match_the_marginal(self):
        p = ModelParams(F(123456789, 987654321), F(1000000007, 3), F(5, 999999937))
        assert stationary_exact(build_generator(6, rates_from_params(p))) == stationary_mu(6, p)

    def test_running_denominator_equals_the_per_entry_route(self):
        # while the lcm of the denominators is within sqrt(m/2), one running
        # denominator gives every entry's own reconstruction, failures too
        rng = random.Random(17)
        prime = next(_primes_for(1))
        compared = []
        for _ in range(200):
            m = prime ** rng.choice([1, 2, 4, 8])
            values = [
                F(rng.randrange(-(2**20), 2**20), rng.randrange(1, 32))
                for _ in range(rng.randrange(1, 40))
            ]
            entries = [padic(x, m) for x in values]
            fits = []
            for e in entries:
                fits.append(oracle._rational_reconstruct(e, m))
                if fits[-1] is None:
                    break
            den = lcm(*(f.denominator for f in fits if f is not None))
            if den > isqrt(m // 2):
                continue
            expected = None
            if None not in fits:
                expected = [f.numerator * (den // f.denominator) for f in fits], den
            assert _reconstruct_common(entries, m) == expected
            compared.append(expected is None)
        assert compared.count(True) > 20 and compared.count(False) > 100

    def test_running_denominator_stops_at_the_first_failing_entry(self, monkeypatch):
        m = next(_primes_for(1)) ** 4
        rng = random.Random(19)
        bad = rng.randrange(m)
        while oracle._rational_reconstruct(bad, m) is not None:
            bad = rng.randrange(m)
        head_values = [F(3, 7), F(-5, 7), F(2), F(9, 14)]
        # new denominators, which only a reconstruction of their own can find
        tail_values = [F(1, 11), F(4, 13), F(-6, 17)]
        head = [padic(x, m) for x in head_values]
        tail = [padic(x, m) for x in tail_values]
        read = []
        real = oracle._rational_reconstruct

        def spy(a, m):
            read.append(a)
            return real(a, m)

        monkeypatch.setattr(oracle, "_rational_reconstruct", spy)
        assert _reconstruct_common(head + [bad] + tail, m) is None
        assert read[-1] == bad and set(read[:-1]) <= set(head)
        read.clear()
        num, den = _reconstruct_common(head + tail, m)
        assert set(tail) <= set(read) and den == 14 * 11 * 13 * 17
        assert [F(x, den) for x in num] == [*head_values, *tail_values]

    def test_primes_keep_int64_sums_exact(self):
        for k in (1, 924, 1 << 13, 1 << 16, 1 << 30):
            primes = list(_primes_for(k))
            assert len(set(primes)) == 5
            for p in primes:
                assert p <= FLOAT_CAP and k * p * p < 2**63
                assert PANEL * p * p < 2**53
                assert all(p % d for d in range(2, isqrt(p) + 1))

    @pytest.mark.parametrize("k", [1, 924, 1 << 13, 1 << 30])
    def test_primes_are_the_largest_below_the_bound(self, k):
        top = min(FLOAT_CAP, isqrt((2**63 - 1) // k))
        expected = []
        n = top
        while len(expected) < 5:
            if n > 1 and all(n % d for d in range(2, isqrt(n) + 1)):
                expected.append(n)
            n -= 1
        assert list(_primes_for(k)) == expected


# steps, site densities and visited-state frequencies (none above L = 12)
# of seeded runs of horizon 300 after a burn-in of 5, by (point, L, seed):
# TestGillespie's statistical tests would pass a changed stream of draws,
# these figures, compared with ==, would not
SEEDED_RUNS = {
    ((F(1, 2), F(1), F(2)), 3, 0): (
        410,
        (
            0.6146404100427062, 0.672216752187364, 0.6408804704664307,
        ),
        {
            "000": 0.04741493026663155, "001": 0.06788269800533774,
            "010": 0.08265461573699734, "011": 0.1874073459483272,
            "100": 0.08473633068711978, "101": 0.1277492888535469,
            "110": 0.14431365284282058, "111": 0.2578411376592189,
        },
    ),
    ((F(1, 2), F(1), F(2)), 3, 7): (
        433,
        (
            0.5075011659476417, 0.6161272855417311, 0.6800238090868324,
        ),
        {
            "000": 0.04018925840209436, "001": 0.1721335349744254,
            "010": 0.0891093014300138, "011": 0.1910667392458247,
            "100": 0.059538640465411324, "101": 0.11201128061633772,
            "110": 0.13113899061564807, "111": 0.20481225425024463,
        },
    ),
    ((F(1, 2), F(1), F(2)), 13, 0): (
        1294,
        (
            0.528369628975763, 0.5310612635558718, 0.5642132649195172, 0.616701675379545,
            0.617331504389364, 0.6079246613727415, 0.693172399100717, 0.6249641772985659,
            0.6367849118566998, 0.6760842555103342, 0.7435356983469871, 0.7369372753224407,
            0.7222361007726029,
        ),
        None,
    ),
    ((F(1, 2), F(1), F(2)), 13, 7): (
        1581,
        (
            0.4892371259669511, 0.5420616384086833, 0.5418519672671207, 0.5761165058284463,
            0.6155950044008986, 0.5048212141653757, 0.5197416843760141, 0.5443567006309569,
            0.6260824655448683, 0.6442573484550924, 0.628072300000109, 0.6380931574441617,
            0.7021036242411204,
        ),
        None,
    ),
    ((F(9, 10), F(1, 7), F(5, 3)), 3, 0): (
        413,
        (
            0.8299040431990046, 0.7592613099843216, 0.672275216501864,
        ),
        {
            "000": 0.02690594026640529, "001": 0.014142796436313661,
            "010": 0.0294393824925587, "011": 0.09960783760571781,
            "100": 0.07465669229007484, "101": 0.12503326102288465,
            "110": 0.19672276844909728, "111": 0.4334913214369478,
        },
    ),
    ((F(9, 10), F(1, 7), F(5, 3)), 3, 7): (
        475,
        (
            0.786230257977662, 0.7479525155532676, 0.6538026917951737,
        ),
        {
            "000": 0.006439198442664633, "001": 0.05456545616295413,
            "010": 0.050257681423156245, "011": 0.102507405993563,
            "100": 0.0653705452620988, "101": 0.12567228457901494,
            "110": 0.22412988307690662, "111": 0.3710575450596416,
        },
    ),
    ((F(9, 10), F(1, 7), F(5, 3)), 13, 0): (
        1598,
        (
            0.8596507163194612, 0.8438414595566198, 0.8003419440117843, 0.7836057696893317,
            0.7337325845602091, 0.7361970189004792, 0.647929628633883, 0.6705569759366888,
            0.6533415461518216, 0.6003861246519696, 0.6331115738438504, 0.665525334513371,
            0.6360481032939806,
        ),
        None,
    ),
    ((F(9, 10), F(1, 7), F(5, 3)), 13, 7): (
        1720,
        (
            0.8074028993440092, 0.786335385756912, 0.7796601384669953, 0.7427348296265599,
            0.6589184964718007, 0.7336852730715934, 0.7390309036145967, 0.6761494848988095,
            0.6597259575739775, 0.6692604563809802, 0.6759136562372532, 0.6136931230240819,
            0.6205620144462969,
        ),
        None,
    ),
}


class TestGillespie:
    def test_two_state_frequency(self):
        p = ModelParams(F(1, 2), F(2), F(1))
        r = rates_from_params(p)
        result = gillespie_simulate(1, r, horizon=4000.0, burn_in=50.0, seed=11)
        expected = float((r.alpha + r.delta) / (r.alpha + r.beta + r.gamma + r.delta))
        freq = result.config_freq[Occupation.from_string("1")]
        # ~N_eff independent visits in this horizon keep 3 sigma under 0.03
        assert abs(freq - expected) < 0.03

    def test_matches_exact_distribution_loosely(self):
        p = ModelParams(F(0), F(0), F(0))
        r = rates_from_params(p)
        g = build_generator(2, r)
        exact = stationary_exact(g)
        result = gillespie_simulate(2, r, horizon=6000.0, burn_in=100.0, seed=3)
        for occ, pr in exact.items():
            assert abs(result.config_freq.get(occ, 0.0) - float(pr)) < 0.04

    def test_seed_determinism(self):
        r = rates_from_params(POINTS[1])
        a = gillespie_simulate(3, r, horizon=50.0, seed=9)
        b = gillespie_simulate(3, r, horizon=50.0, seed=9)
        assert a == b
        c = gillespie_simulate(3, r, horizon=50.0, seed=10)
        assert a != c

    @pytest.mark.parametrize("horizon", [0.0, -1.0])
    def test_horizon_that_observes_nothing_is_refused(self, horizon):
        with pytest.raises(ValueError, match="horizon"):
            gillespie_simulate(2, rates_from_params(POINTS[1]), horizon=horizon, seed=1)

    def test_site_density_tracked_and_bounded(self):
        r = rates_from_params(POINTS[2])
        result = gillespie_simulate(4, r, horizon=200.0, seed=4)
        assert len(result.site_density) == 4
        assert all(0.0 <= d <= 1.0 for d in result.site_density)

    def test_cap(self):
        with pytest.raises(EnumerationCapExceeded):
            gillespie_simulate(31, rates_from_params(POINTS[0]), horizon=1.0)

    def test_seeded_run_is_pinned(self):
        # the figures of one seeded run: a change to the moves offered in a
        # state, or to their order, changes the trajectory
        r = rates_from_params(POINTS[1])
        result = gillespie_simulate(3, r, horizon=30.0, burn_in=2.0, seed=5)
        assert result.steps == 50
        assert result.site_density == (
            0.5228600280305041, 0.35155815795662926, 0.33345215222083835
        )
        assert {str(s): f for s, f in result.config_freq.items()} == {
            "000": 0.199947829917349,
            "100": 0.2198564066630296,
            "010": 0.12885372398812373,
            "110": 0.11788988721065928,
            "001": 0.043523871306176874,
            "101": 0.18511373415681523,
            "011": 0.10481454675784627,
        }

    @pytest.mark.parametrize("point, L, seed", SEEDED_RUNS)
    def test_stream_of_draws_is_pinned(self, point, L, seed):
        steps, density, freq = SEEDED_RUNS[point, L, seed]
        r = rates_from_params(ModelParams(*point))
        result = gillespie_simulate(L, r, horizon=300.0, burn_in=5.0, seed=seed)
        assert result.steps == steps
        assert result.site_density == density
        if freq is None:
            assert result.config_freq is None
        else:
            assert {str(s): f for s, f in result.config_freq.items()} == freq

    def test_expected_events_are_capped_before_the_run(self):
        r = rates_from_params(POINTS[2])
        # no state at L = 30 leaves faster than 29 bonds and both boundaries
        top = 29 + max(r.alpha, r.gamma) + max(r.beta, r.delta)
        longest = MAX_EVENTS / float(top)
        with pytest.raises(ValueError, match="events"):
            gillespie_simulate(30, r, horizon=1.001 * longest)
        with pytest.raises(ValueError, match="events"):
            gillespie_simulate(30, r, horizon=longest / 2, burn_in=0.501 * longest)
        # the CLI's default horizon stays admitted at the largest L
        assert gillespie_simulate(30, r, horizon=1000.0, seed=1).steps > 0

    @pytest.mark.parametrize("horizon", [float("inf"), float("nan"), -float("inf")])
    def test_non_finite_horizon_is_refused(self, horizon):
        with pytest.raises(ValueError, match="horizon"):
            gillespie_simulate(2, rates_from_params(POINTS[1]), horizon=horizon)

    @pytest.mark.parametrize("burn_in", [float("inf"), float("nan"), -50.0])
    def test_burn_in_must_be_finite_and_nonnegative(self, burn_in):
        r = rates_from_params(POINTS[1])
        with pytest.raises(ValueError, match="burn_in"):
            gillespie_simulate(2, r, horizon=100.0, burn_in=burn_in)


BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
# os.environ before and after the import, and the OS threads the process then has
IMPORT_PROBE = dedent(
    """
    import json, os
    before = dict(os.environ)
    import asep2l.oracle
    tasks = len(os.listdir("/proc/self/task")) if os.path.isdir("/proc/self/task") else None
    print(json.dumps({"before": before, "after": dict(os.environ), "threads": tasks}))
    """
)


def env_without_blas_threads(**chosen) -> dict:
    env = {k: v for k, v in SRC_ENV.items() if k not in BLAS_THREAD_VARS}
    return {**env, **chosen}


def blas_is_openblas() -> bool:
    config = getattr(np.__config__, "CONFIG", {})
    blas = config.get("Build Dependencies", {}).get("blas", {})
    return "openblas" in str(blas.get("name", "")).lower()


class TestBlasThreads:
    """numpy loads with one OpenBLAS thread unless the caller chose a count.

    Each import runs in a fresh interpreter: this one loaded numpy long ago.
    """

    def import_oracle(self, **chosen) -> dict:
        done = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE],
            env=env_without_blas_threads(**chosen), capture_output=True, text=True, check=True,
        )
        return json.loads(done.stdout)

    def assert_threads(self, seen: dict, expected: int) -> None:
        if seen["threads"] is None or not blas_is_openblas():
            pytest.skip("needs /proc and an OpenBLAS build of numpy")
        assert seen["threads"] == expected

    def test_one_thread_and_environment_restored(self):
        seen = self.import_oracle()
        assert seen["after"] == seen["before"]
        assert not set(BLAS_THREAD_VARS) & set(seen["after"])
        self.assert_threads(seen, 1)

    @pytest.mark.parametrize("var", BLAS_THREAD_VARS)
    def test_a_callers_count_wins(self, var):
        seen = self.import_oracle(**{var: "2"})
        assert seen["after"] == seen["before"]
        assert seen["after"][var] == "2"
        # OpenBLAS starts no more threads than the process may run on
        self.assert_threads(seen, min(2, len(os.sched_getaffinity(0))))

    # oracle --L 10 adds a product with a 252-state block, large enough for
    # OpenBLAS to run it on both threads; the L = 8 blocks are not
    @pytest.mark.parametrize("argv", [("oracle", "--L", "8"), ("compare", "--L", "8"),
                                      ("oracle", "--L", "10")], ids=" ".join)
    @pytest.mark.parametrize(
        "point",
        [("1/2", "1", "2"), ("123456789/987654321", "1000000007/3", "5/999999937")],
        ids=["simple", "9-digit"],
    )
    def test_output_does_not_depend_on_the_thread_count(self, argv, point):
        q, A, B = point
        command = [sys.executable, "-m", "asep2l.cli", *argv, "--q", q, "--A", A, "--B", B]
        outputs = [
            subprocess.run(command, env=env, capture_output=True, check=True).stdout
            for env in (env_without_blas_threads(), env_without_blas_threads(OPENBLAS_NUM_THREADS="2"))
        ]
        assert outputs[0] == outputs[1]
