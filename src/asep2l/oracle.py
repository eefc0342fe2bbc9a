"""Ground truth: the exclusion-process generator and its exact stationary law.

The continuous-time generator acts on the 2**L occupation words: particles
hop right at rate 1 and left at rate q when the target site is free;
particles enter at site 1 at rate alpha and leave there at rate gamma;
they leave at site L at rate beta and enter there at rate delta. Under the
boundary constraint used throughout this package, gamma = q(1-alpha) and
delta = q(1-beta) with alpha = 1/(1+A), beta = 1/(1+B).

The stationary distribution is the one-dimensional nullspace of the
transposed generator, normalized to total mass one. Bulk hops keep the
particle number N and boundary moves change it by one, so with the states
ordered by N the transposed generator is block tridiagonal, with blocks
of size C(L, N). stationary_exact pins the empty state to 1, eliminates
block by block modulo a word-sized prime (Schur complements, each
inverted by one Gauss-Jordan kernel), and lifts that elimination
p-adically to the exact rational solution (Dixon's method with rational
reconstruction). This costs sum_N C(L, N)**3 operations per prime
instead of 8**L for one dense elimination, and each p-adic digit costs
two matrix-vector products per block. The kernel eliminates by panels of
PANEL columns and applies each panel to the rest of the matrix as one
float64 (BLAS) product of residues, exact because the prime is kept below
2**24 (PANEL * p**2 < 2**53); it accumulates in int64 and reduces lazily,
under the bound n * p**2 < 2**63 for an n x n block. The solution is
kept as integer masses over one denominator and certified exactly
against every column of the integer generator, x @ G = 0, before it is
returned; solvability modulo the prime certifies that the nullspace is
one-dimensional. The dense solver solve_dixon is kept as the
small-system cross-check.

The Gillespie simulator at the bottom is the only code in the package
whose results are floating point (the kernel's float64 products are
exact integer arithmetic). It draws from the same moves the generator is
built from (_moves), with the rates as floats.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import chain, takewhile
from math import gcd, isfinite, isqrt, lcm

import numpy as np

from .errors import SingularSystem
from .ensemble import Distribution, occupation_law
from .lattice import admit, enumerate_occupations
from .record import Record
from .weights import ModelParams


class Rates(Record, frozen=True):
    """Exact transition rates of the open exclusion process."""

    __slots__ = ("alpha", "beta", "gamma", "delta", "q")

    def __init__(self, alpha, beta, gamma, delta, q):
        self._init(*map(Fraction, (alpha, beta, gamma, delta, q)))
        if any(rate < 0 for rate in self._fields(self)):
            raise ValueError("rates must be nonnegative")


def rates_from_params(p: ModelParams) -> Rates:
    """Boundary rates (alpha, beta, gamma, delta) determined by (q, A, B)."""
    alpha = 1 / (1 + p.A)
    beta = 1 / (1 + p.B)
    return Rates(
        alpha=alpha,
        beta=beta,
        gamma=p.q * (1 - alpha),
        delta=p.q * (1 - beta),
        q=p.q,
    )


class GeneratorMatrix:
    """Sparse generator: rows of {column: rate}, diagonal = -row sum."""

    __slots__ = ("L", "dim", "rows")

    def __init__(self, L: int, rows):
        self.L = L
        self.dim = 1 << L
        self.rows = rows

    def entry(self, i: int, j: int) -> Fraction:
        if i == j:
            return -sum(self.rows[i].values(), Fraction(0))
        return self.rows[i].get(j, Fraction(0))

    def apply_left(self, x) -> list[Fraction]:
        """Row-vector product x @ G, exact."""
        out = [Fraction(0)] * self.dim
        for i, row in enumerate(self.rows):
            xi = x[i]
            if xi == 0:
                continue
            diag = Fraction(0)
            for j, rate in row.items():
                out[j] += xi * rate
                diag += rate
            out[i] -= xi * diag
        return out


def _moves(w: int, L: int, right, left, alpha, beta, gamma, delta) -> list:
    """(target, rate) of every move out of word w with a nonzero rate: the
    bulk hops from site 1 to site L, then the move at site 1, then the move
    at site L. Each rate is the object passed in, so the same list serves
    the exact generator and the floating-point simulator."""
    out = []
    for i in range(L - 1):
        pair = (w >> i) & 3
        if pair == 1:  # occupied, free -> hop right
            out.append((w ^ (3 << i), right))
        elif pair == 2 and left:  # free, occupied -> hop left
            out.append((w ^ (3 << i), left))
    rate = gamma if w & 1 else alpha  # leave or enter at site 1
    if rate:
        out.append((w ^ 1, rate))
    last = 1 << (L - 1)
    rate = beta if w & last else delta  # leave or enter at site L
    if rate:
        out.append((w ^ last, rate))
    return out


def build_generator(L: int, r: Rates, max_L: int | None = None) -> GeneratorMatrix:
    """Assemble the generator over all 2**L occupation words.

    Each move stores its rate object itself, shared by every row. Two moves
    reach the same word only at L = 1, where site 1 is site L, and there
    their rates are summed.
    """
    admit("generator", L, max_L)
    if L < 1:
        raise ValueError("generator needs L >= 1")
    rates = (Fraction(1), r.q, r.alpha, r.beta, r.gamma, r.delta)
    rows = []
    for w in range(1 << L):
        row: dict[int, Fraction] = {}
        for target, rate in _moves(w, L, *rates):
            row[target] = row[target] + rate if target in row else rate
        rows.append(row)
    return GeneratorMatrix(L, tuple(rows))


# ---------------------------------------------------------------------------
# exact solvers


def _integer_transpose(g: GeneratorMatrix):
    """Clear denominators and transpose: columns of the scaled generator."""
    scale = lcm(*{rate.denominator for row in g.rows for rate in row.values()})
    cols = [dict() for _ in range(g.dim)]
    for i, row in enumerate(g.rows):
        diag = 0
        for j, rate in row.items():
            v = rate.numerator * (scale // rate.denominator)
            cols[j][i] = v
            diag += v
        cols[i][i] = cols[i].get(i, 0) - diag
    return cols


def particle_blocks(L: int) -> list[list[int]]:
    """The occupation words grouped by particle number N = 0..L.

    Block N holds the C(L, N) words with N particles, in increasing order.
    Bulk hops stay inside a block and boundary moves reach a neighbouring
    one, so in this order the generator is block tridiagonal.
    """
    blocks = [[] for _ in range(L + 1)]
    for w in range(1 << L):
        blocks[w.bit_count()].append(w)
    return blocks


# columns per panel of the Gauss-Jordan kernel: one float64 product per panel
PANEL = 32


def _primes_for(k: int) -> list[int]:
    """The five largest primes p with k * p**2 < 2**63 and PANEL * p**2 < 2**53.

    Every int64 kernel below adds at most k products of residues to a
    residue, a sum below k * p**2, so none of its sums can overflow; and
    _inverse_mod_p sums PANEL products of residues in float64, exact below
    2**53. At PANEL = 32 the second bound caps p at 2**24 - 1. Each odd
    candidate is tested by trial division by the odd d <= sqrt(n).
    """
    top = min(isqrt((2**53 - 1) // PANEL), isqrt((2**63 - 1) // k))
    n = top - 1 + top % 2  # the largest odd number <= top
    out = []
    while len(out) < 5:
        if all(n % d for d in range(3, isqrt(n) + 1, 2)):
            out.append(n)
        n -= 2
    assert k * out[0] ** 2 < 2**63 and PANEL * out[0] ** 2 < 2**53
    return out


class _SingularModP(Exception):
    pass


def _inverse_mod_p(a: np.ndarray, p: int) -> np.ndarray:
    """Inverse of a square integer matrix over GF(p), entries in [0, p).

    In-place Gauss-Jordan elimination with partial pivoting (the first
    nonzero entry at or below the diagonal): step k scales the pivot row by
    the pivot's inverse, which takes the pivot's place, and subtracts
    multiples of that row from every other row; the row swaps are undone
    as column swaps at the end. The steps run by panels K of PANEL columns
    and delay their rank-1 updates (Dumas, Giorgi and Pernet, "Dense linear
    algebra over word-size prime fields: the FFLAS and FFPACK packages",
    ACM TOMS 35(3), 2008). A panel's steps run on a reduced copy of its
    columns, with their row swaps also applied to the whole matrix, and
    leave T[:, K] in the copy: T is the panel's row operations after its
    swaps, and differs from I only in the columns K. Every other column
    then takes the panel's steps at once, a += (T[:, K] - I[:, K]) @ a[K],
    with both factors reduced to [0, p) and multiplied in float64, exact
    since each entry sums PANEL products below p**2 (see _primes_for), and
    the copy is written back over columns K.

    Reduction is lazy: the whole matrix is reduced only in the panel's
    columns and in the rows that enter the product, which only adds, so
    every entry stays below one residue plus one product below p**2 per
    step, n products in all for the n x n kernel (see _primes_for); inside
    a panel only the pivot row and column are reduced at each step. Raises
    _SingularModP if the matrix is singular modulo p.
    """
    n = a.shape[0]
    assert n * p * p < 2**63 and PANEL * p * p < 2**53
    a = a % p
    swaps = []
    for k0 in range(0, n, PANEL):
        k1 = min(k0 + PANEL, n)
        panel = a[:, k0:k1] % p
        outer = np.empty_like(panel)
        for k in range(k0, k1):
            col = panel[:, k - k0] % p
            if col[k] == 0:
                nz = np.flatnonzero(col[k:])
                if nz.size == 0:
                    raise _SingularModP
                piv = k + int(nz[0])
                a[[k, piv]] = a[[piv, k]]
                panel[[k, piv]] = panel[[piv, k]]
                col[[k, piv]] = col[[piv, k]]
                swaps.append((k, piv))
            inv = pow(int(col[k]), p - 2, p)
            row = panel[k] % p * inv % p
            row[k - k0] = inv
            col[k] = 0
            panel[:, k - k0] = 0
            panel[k] = row
            panel -= np.multiply.outer(col, row, out=outer)
        panel %= p
        # T[:, K] - I[:, K], with I[:, K] the columns K of the n x n identity
        update = (panel - np.eye(n, k1 - k0, -k0, dtype=np.int64)) % p
        rows = (a[k0:k1] % p).astype(np.float64)
        a += (update.astype(np.float64) @ rows).astype(np.int64)
        a[:, k0:k1] = panel
    for k, piv in reversed(swaps):
        a[:, [k, piv]] = a[:, [piv, k]]
    return a % p


def _rational_reconstruct(a: int, m: int) -> Fraction | None:
    """Unique n/d with a*d = n mod m, |n|, d <= sqrt(m/2), if it exists."""
    bound = isqrt(m // 2)
    r0, r1 = m, a % m
    s0, s1 = 0, 1
    while r1 > bound:
        quot = r0 // r1
        r0, r1 = r1, r0 - quot * r1
        s0, s1 = s1, s0 - quot * s1
    if s1 == 0 or abs(s1) > bound:
        return None
    num, den = (r1, s1) if s1 > 0 else (-r1, -s1)
    if gcd(abs(num), den) != 1:
        return None
    return Fraction(num, den)


def _ell(rows: list[dict[int, int]]) -> tuple[np.ndarray, np.ndarray]:
    """Sparse integer rows, zero-padded to one width: (columns, exact values)."""
    width = max(map(len, rows), default=0)
    idx = np.zeros((len(rows), width), dtype=np.int64)
    val = np.zeros((len(rows), width), dtype=object)
    for i, row in enumerate(rows):
        idx[i, : len(row)] = list(row)
        val[i, : len(row)] = list(row.values())
    return idx, val


def _ell_mod_p(rows: list[dict[int, int]], p: int) -> tuple[np.ndarray, np.ndarray]:
    idx, val = _ell(rows)
    return idx, (val % p).astype(np.int64)


def _gather(idx: np.ndarray, val: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Sparse rows (idx, val) times a vector or matrix x, unreduced."""
    return np.einsum("rk,rk...->r...", val, x[idx])


def _dense_mod_p(rows: list[dict[int, int]], width: int, p: int) -> np.ndarray:
    a = np.zeros((len(rows), width), dtype=np.int64)
    for i, row in enumerate(rows):
        for j, v in row.items():
            a[i, j] = v % p
    return a


# p-adic digits lifted per prime before the next prime is tried
MAX_DIGITS = 4096


def _dixon(rows, rhs, k: int, factor) -> tuple[list[int], int]:
    """Solve a nonsingular integer system exactly by p-adic lifting.

    Dixon, "Exact solution of linear equations using p-adic expansions",
    Numer. Math. 40 (1982). `factor(p)` factors the system over GF(p),
    with kernels that sum at most k products (see _primes_for), and
    returns its solver; it raises _SingularModP if the system is singular
    modulo p, and the next prime is tried. Each p-adic digit costs one
    mod-p solve and one exact product with the system. Entries are
    recovered by rational reconstruction at doubling checkpoints, and a
    candidate is returned only once it satisfies the system exactly, as
    integer numerators over their least common denominator.
    """
    idx, val = _ell(rows)
    rhs = np.array(rhs, dtype=object)

    def times(x):  # the exact product of the system with x
        return (val * x[idx]).sum(axis=1)

    for p in _primes_for(k):
        try:
            solve = factor(p)
        except _SingularModP:
            continue
        residue = rhs
        combined = np.zeros(len(rows), dtype=object)
        p_power = 1
        checkpoint = 8
        for digits in range(1, MAX_DIGITS + 1):
            xk = solve((residue % p).astype(np.int64)).astype(object)
            combined += p_power * xk
            p_power *= p
            residue = (residue - times(xk)) // p  # exact: p divides it
            if digits == checkpoint or digits == MAX_DIGITS:
                checkpoint *= 2
                # stop at the first entry that does not reconstruct yet
                fits = (_rational_reconstruct(int(v), p_power) for v in combined)
                x = list(takewhile(lambda f: f is not None, fits))
                if len(x) < len(combined):
                    continue
                den = lcm(*(f.denominator for f in x))
                num = [f.numerator * (den // f.denominator) for f in x]
                if (times(np.array(num, dtype=object)) == den * rhs).all():
                    return num, den
        raise SingularSystem("p-adic lifting did not converge")
    raise SingularSystem("system singular modulo every tested prime")


def solve_dixon(rows: list[dict[int, int]], rhs: list[int]) -> list[Fraction]:
    """Solve a nonsingular integer system exactly over one dense inverse mod p.

    This is the small-system cross-check for the block solver inside
    stationary_exact: it shares the lifting and the mod-p kernel but not
    the elimination by blocks, and costs O(n**3) per prime.
    """
    n = len(rows)

    def factor(p):
        inv = _inverse_mod_p(_dense_mod_p(rows, n, p), p)
        return lambda b: inv @ b % p

    num, den = _dixon(rows, rhs, n, factor)
    return [Fraction(v, den) for v in num]


def _pinned_blocks(cols, blocks):
    """Cut the transposed generator, with the empty word pinned, into blocks.

    The unknowns are the words with N >= 1 in block order; x(empty) = 1
    moves the empty word's column to the right-hand side, and its own
    equation is dropped. Returns the rows of that system over the
    unknowns, its right-hand side, and for N = 1..L the rows of D_N (to
    block N), Lo_N (to N - 1) and Up_N (to N + 1), each with columns
    local to the block it reaches.
    """
    index = {w: k - 1 for k, w in enumerate(chain.from_iterable(blocks))}
    count, local = [0] * len(index), [0] * len(index)
    for n, block in enumerate(blocks):
        for a, w in enumerate(block):
            count[w], local[w] = n, a
    rows, rhs, parts = [], [], []
    for n, block in enumerate(blocks[1:], start=1):
        d, lo, up = [], [], []
        for w in block:
            band = ({}, {}, {})  # Lo, D, Up rows of this word
            for i, v in cols[w].items():
                step = count[i] - n
                if abs(step) > 1:
                    raise ValueError(
                        "generator is not block tridiagonal in the particle number"
                    )
                if i:
                    band[step + 1][local[i]] = v
            lo.append(band[0])
            d.append(band[1])
            up.append(band[2])
            rows.append({index[i]: v for i, v in cols[w].items() if i})
            rhs.append(-cols[w].get(0, 0))
        parts.append((d, lo, up))
    return rows, rhs, parts


def _columns(rows: list[dict[int, int]], width: int) -> list[dict[int, int]]:
    cols = [{} for _ in range(width)]
    for i, row in enumerate(rows):
        for j, v in row.items():
            cols[j][i] = v
    return cols


def _factor_blocks(parts, p: int):
    """Block elimination of the pinned system over GF(p); returns its solver.

    The Schur complements are S_1 = D_1 and S_{N+1} = D_{N+1} - Lo_{N+1}
    S_N^{-1} Up_N, and each S_N^{-1} is kept mod p (_inverse_mod_p). Lo and
    Up hold only boundary entries, at most two per row and per column, so
    both products with them are gathers, and W_N = S_N^{-1} Up_N is never
    formed. A solve is one forward sweep, z_N = S_N^{-1} y_N with y_N =
    b_N - Lo_N z_{N-1}, and one backward sweep, x_N = S_N^{-1} (y_N - Up_N
    x_{N+1}): two matrix-vector products per block. No int64 kernel here
    sums more products than the largest block has rows, since a row of
    Lo_N or Up_N has no more entries than the block it reaches, and the
    inverses' float64 products sum PANEL (see _primes_for).
    """
    sizes = [len(d) for d, _, _ in parts]
    invs, los, ups = [], [], []
    for t, (d, lo, up) in enumerate(parts):
        los.append(_ell_mod_p(lo, p))
        ups.append(_ell_mod_p(up, p))
        s = _dense_mod_p(d, sizes[t], p)
        if t:
            lo_inv = _gather(*los[t], invs[-1]) % p
            up_cols = _ell_mod_p(_columns(parts[t - 1][2], sizes[t]), p)
            s = (s - _gather(*up_cols, lo_inv.T).T) % p
        invs.append(_inverse_mod_p(s, p))
    bounds = np.cumsum([0] + sizes)

    def solve(b):
        ys, z = [], None
        for t, inv in enumerate(invs):
            y = b[bounds[t] : bounds[t + 1]]
            if t:
                y = (y - _gather(*los[t], z)) % p
            ys.append(y)
            z = inv @ y % p
        x = [z]
        for t in reversed(range(len(invs) - 1)):
            x.append(invs[t] @ ((ys[t] - _gather(*ups[t], x[-1])) % p) % p)
        return np.concatenate(x[::-1])

    return solve


def _is_stationary(cols, masses: list[int]) -> bool:
    """Exact certificate that masses, indexed by word, are proportional to
    a stationary law: they are nonnegative, not all zero, and x @ G = 0 on
    every column of the integer transpose cols (_integer_transpose)."""
    return (
        min(masses) >= 0
        and any(masses)
        and all(sum(v * masses[i] for i, v in col.items()) == 0 for col in cols)
    )


def stationary_exact(g: GeneratorMatrix) -> Distribution:
    """The unique probability vector annihilated by the generator.

    With states ordered by particle number (particle_blocks) the
    transposed generator is block tridiagonal. The empty state is pinned,
    x(empty) = 1, and its equation dropped; the equations sum to zero, so
    it is redundant. The remaining square system is solved exactly by
    p-adic lifting over a block elimination mod p (_factor_blocks). The
    solution is kept as integer masses over the least common denominator
    of its entries, which is the empty word's mass.

    The pin is safe for every generator build_generator makes: alpha =
    1/(1+A) > 0 and beta = 1/(1+B) > 0, so the chain is irreducible and
    pi(empty) > 0. Since the empty state is reachable from every state,
    every Schur complement of the elimination is nonsingular too. A
    generator whose pinned system is singular raises SingularSystem, and
    one with a move that changes N by more than one raises ValueError.
    Nonsingularity modulo a prime certifies that the nullspace is
    one-dimensional, and the masses are certified exactly against every
    column of the generator, the dropped one included (_is_stationary),
    before the law is returned.
    """
    blocks = particle_blocks(g.L)
    cols = _integer_transpose(g)
    rows, rhs, parts = _pinned_blocks(cols, blocks)
    k = max(len(d) for d, _, _ in parts)
    tail, den = _dixon(rows, rhs, k, lambda p: _factor_blocks(parts, p))
    masses = [0] * g.dim
    for w, m in zip(chain.from_iterable(blocks), [den] + tail):
        masses[w] = m
    if not _is_stationary(cols, masses):
        raise SingularSystem("solution is not a stationary law of the generator")
    return occupation_law(g.L, dict(enumerate(masses)))


# ---------------------------------------------------------------------------
# stochastic simulation (floating point, quarantined here)


# Largest expected number of events in one simulation: the run lasts
# burn_in + horizon time units, and no state leaves at a higher total rate
# than (L - 1) max(1, q) + max(alpha, gamma) + max(beta, delta). At L = 30
# a run takes about 13 s per million events on a 2-CPU VM.
MAX_EVENTS = 10 ** 7


class SimulationResult(Record):
    """Time-averaged occupation frequencies from an event-driven run."""

    __slots__ = (
        "L", "observed_time", "steps", "site_density", "config_freq", "insufficient"
    )

    def __init__(
        self,
        L: int,
        observed_time: float,
        steps: int,
        site_density: tuple[float, ...],
        config_freq: dict | None,
        insufficient: bool,
    ):
        self._init(L, observed_time, steps, site_density, config_freq, insufficient)


def gillespie_simulate(
    L: int,
    r: Rates,
    horizon: float,
    burn_in: float = 0.0,
    seed: int = 0,
    max_L: int | None = None,
) -> SimulationResult:
    """Exponential-clock simulation of the process; reproducible per seed.

    The run lasts burn_in + horizon time units, so both must be finite and
    burn_in nonnegative, and that time at the largest total rate out of a
    state may not exceed MAX_EVENTS events; a horizon <= 0 observes nothing
    and is flagged insufficient.
    """
    admit("simulation", L, max_L)
    if L < 1:
        raise ValueError("simulation needs L >= 1")
    if not isfinite(horizon):
        raise ValueError(f"horizon must be finite, got {horizon}")
    if not (isfinite(burn_in) and burn_in >= 0):
        raise ValueError(f"burn_in must be finite and nonnegative, got {burn_in}")
    t_end = burn_in + max(horizon, 0.0)
    top_rate = (L - 1) * max(1, r.q) + max(r.alpha, r.gamma) + max(r.beta, r.delta)
    if t_end * top_rate > MAX_EVENTS:
        raise ValueError(
            f"burn_in + horizon = {t_end:g} at a total rate up to "
            f"{float(top_rate):g} exceeds the limit of {MAX_EVENTS} events"
        )
    rates = [1.0] + [float(getattr(r, k)) for k in ("q", "alpha", "beta", "gamma", "delta")]
    rng = random.Random(seed)
    track_configs = L <= 12
    config_time: dict[int, float] = {}
    site_time = [0.0] * L
    w = 0
    t = 0.0
    steps = 0

    def credit(state: int, lo: float, hi: float):
        span = min(hi, t_end) - max(lo, burn_in)
        if span <= 0:
            return
        if track_configs:
            config_time[state] = config_time.get(state, 0.0) + span
        for i in range(L):
            if (state >> i) & 1:
                site_time[i] += span

    while t < t_end:
        options = _moves(w, L, *rates)
        total = sum(rate for _, rate in options)
        if total == 0.0:
            credit(w, t, t_end)
            t = t_end
            break
        dt = rng.expovariate(total)
        credit(w, t, t + dt)
        t += dt
        if t >= t_end:
            break
        pick = rng.random() * total
        acc = 0.0
        target = options[-1][0]
        for nxt, rate in options:
            acc += rate
            if pick < acc:
                target = nxt
                break
        w = target
        steps += 1

    observed = max(horizon, 0.0)
    insufficient = observed <= 0.0
    freq = None
    if track_configs and not insufficient:
        freq = {  # the visited states, in enumerate_occupations order
            s: config_time[s.word] / observed
            for s in enumerate_occupations(L)
            if s.word in config_time
        }
    density = tuple(
        (s / observed if not insufficient else 0.0) for s in site_time
    )
    return SimulationResult(
        L=L,
        observed_time=observed,
        steps=steps,
        site_density=density,
        config_freq=freq,
        insufficient=insufficient,
    )
