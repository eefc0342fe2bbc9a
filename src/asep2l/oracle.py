"""Ground truth: the exclusion-process generator and its exact stationary law.

The continuous-time generator acts on the 2**L occupation words: particles
hop right at rate 1 and left at rate q when the target site is free;
particles enter at site 1 at rate alpha and leave there at rate gamma;
they leave at site L at rate beta and enter there at rate delta. Under the
boundary constraint used throughout this package, gamma = q(1-alpha) and
delta = q(1-beta) with alpha = 1/(1+A), beta = 1/(1+B).

The stationary distribution is the one-dimensional nullspace of the
transposed generator, normalized to total mass one. stationary_exact
orders the words by their breadth-first level from the empty word, over
the generator's moves taken in either direction (_levels). Every move
joins two words at most one level apart, so in that order the transposed
generator is block tridiagonal, with one block per level: 31 levels of
at most 76 words at L = 10, where the particle numbers, which a move
changes by at most one, give 11 blocks of up to 252. stationary_exact
scales the generator to integers once, as one set of entry arrays (row,
column, value) with the diagonal included; the level search, the pin
x(empty) = 1, which replaces the empty word's redundant equation, and
the block solve all read those arrays. The solver for block-tridiagonal
integer systems, _solve_blocks, takes the entries of that pinned system;
its bands Lo (to the previous block), D (to its own) and Up (to the
next) are selected from those entries by a label of each entry's band,
in their given order. It eliminates block by block modulo a word-sized
prime, inverting each Schur complement S_{t+1} = D_{t+1} - Lo_{t+1}
S_t^{-1} Up_t by one Gauss-Jordan kernel, and lifts that elimination
p-adically to the exact rational solution (Dixon's method with rational
reconstruction). For levels of n_t words this costs sum_t n_t**3
operations per prime instead of 8**L for one dense elimination (3.4e6 at
L = 10, against 3.8e7 in blocks by particle number), and each p-adic
digit costs two matrix-vector products per block. The kernel eliminates
by panels of PANEL columns and applies each panel to the rest of the
matrix as float64 (BLAS) products of residues, ROWS rows at a time,
exact because the prime is kept below 2**24 (PANEL * p**2 < 2**53); the
panel's factor is formed in float64 and each product is added to the
int64 matrix by one casting add, which reduces lazily under the bound
n * p**2 < 2**63 for an n x n block. The Schur updates and the sweeps
between blocks stay under the same bound for the largest block, since no
row of a band to the previous or the next block has more entries than
that block has words.

The elimination's memory is its inverses: one per block, kept as int32
since every residue is below p < 2**24, sum_t n_t**2 entries in all
(9.8 MB at L = 13, where blocks by particle number held C(2L, L)
entries, 41.6 MB). Beside them it holds one Schur complement, as int64,
which the kernel reduces and overwrites with its inverse in place before
that is cast to int32, and temporaries of ROWS rows: the kernel's float64
products, and the rows of Lo_{t+1} S_t^{-1} that the Schur update of
those rows reads. Every other temporary is a panel, a slot, a vector or
the int32 copy of a finished inverse, so no second int64 matrix of a
block is made. The lifting reads the int32 inverses without copying them.
The lifting keeps its residues, digits and products with the system in
int64 whenever the system's entries and right-hand side bound every
residue below 2**62, and in Python integers otherwise. Reconstruction is
tried after 1, 2, 4, 8, ... digits, reading the entries in order over one
running denominator. The solution is kept as integer masses over one
denominator, and the solve returns it only once it satisfies the pinned
system exactly: x @ G = 0 on every column of the integer generator but
the empty word's, which follows from the others since every row of G
sums to zero. The masses' signs are the one property left to check, and
solvability modulo the prime certifies that the nullspace is
one-dimensional. A single block is one dense inverse: that case,
solve_dixon, is kept as the small-system cross-check.

The Gillespie simulator at the bottom is the only code in the package
whose results are floating point (the kernel's float64 products are
exact integer arithmetic). It draws from the same moves the generator is
built from (_moves), with the rates as floats.

numpy is loaded with one OpenBLAS thread. Starting OpenBLAS's pool of
threads is about half the cost of importing numpy, which every oracle
request pays, while the kernel's BLAS products, at most ROWS x PANEL by
PANEL x n, are too small for a second thread to pay for itself, at
L = 14 as at the default size limit. A caller who sets OPENBLAS_NUM_THREADS,
GOTO_NUM_THREADS or OMP_NUM_THREADS keeps that choice. Otherwise
OPENBLAS_NUM_THREADS=1 is set for the import alone, and os.environ is
restored after it, so child processes see the environment unchanged.
Results do not depend on the count: every product is exact.
"""

from __future__ import annotations

import os
import random
from fractions import Fraction
from itertools import accumulate, chain
from math import gcd, isfinite, isqrt, lcm

_BLAS_THREADS_CHOSEN = any(
    v in os.environ for v in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"))
if not _BLAS_THREADS_CHOSEN:
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
try:
    import numpy as np
finally:
    if not _BLAS_THREADS_CHOSEN:
        del os.environ["OPENBLAS_NUM_THREADS"]

from .errors import SingularSystem
from .ensemble import Distribution
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


class GeneratorMatrix(Record):
    """Sparse generator: rows of {column: rate}; the diagonal is minus the
    sum of a row's rates to other words."""

    __slots__ = ("L", "rows", "dim")

    def __init__(self, L: int, rows):
        self._init(L, rows, 1 << L)

    def entry(self, i: int, j: int) -> Fraction:
        """G[i, j]; a row's rate to its own word cancels in its diagonal."""
        if i == j:
            return self.rows[i].get(i, 0) - sum(self.rows[i].values(), Fraction(0))
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

    Each move stores its rate object itself, so the rows share six rate
    objects, which saves memory. Two moves reach the same word only at
    L = 1, where site 1 is site L, and there their rates are summed.
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


def _entries(rows):
    """Sparse rows of {column: value} as entry arrays (row, column, value)."""
    i = np.repeat(np.arange(len(rows)), [len(row) for row in rows])
    j = np.fromiter(chain.from_iterable(rows), np.int64, len(i))
    v = np.fromiter(chain.from_iterable(row.values() for row in rows), object, len(i))
    return i, j, v


def _integer_generator(g: GeneratorMatrix):
    """The generator with its denominators cleared, as entries (i, j, v) of
    G: each move i -> j at its rate times the lcm of the rates'
    denominators, then each word's diagonal entry, minus its row's sum. A
    row that lists its own word leaves two entries at (i, i); they sum to
    G[i, i], in which that rate cancels. Each distinct rate object is
    scaled once, as build_generator's rows share six: a Fraction's
    numerator and denominator are Python-level properties. So
    build_generator's rows already get one int per rate. Moves of equal
    scaled rate also share one int, the first made of that value, which
    serves rows whose equal rates are distinct objects: such rows would
    otherwise hold a large int once per move. For build_generator's rows
    it saves nothing (`oracle --L 12` at 9-digit parameters peaked at
    61.26 MiB with it, 61.29 without)."""
    i, j, rates = _entries(g.rows)
    distinct = dict(zip(map(id, rates), rates)).items()
    scale = lcm(*{f.denominator for _, f in distinct})
    ints, scaled = {}, {}  # every move of a scaled value takes its first int
    for k, f in distinct:
        x = f.numerator * (scale // f.denominator)
        scaled[k] = ints.setdefault(x, x)
    v = np.fromiter(map(scaled.__getitem__, map(id, rates)), object, len(rates))
    diagonal = np.zeros(g.dim, dtype=object)
    np.subtract.at(diagonal, i, v)
    words = np.arange(g.dim)
    return tuple(map(np.concatenate, ([i, words], [j, words], [v, diagonal])))


# columns per panel of the Gauss-Jordan kernel: one float64 product per panel
PANEL = 32
# rows per float64 product of the kernel and per Schur update of the block
# solve, which bounds their temporaries
ROWS = 64


def _primes_for(k: int):
    """The five largest primes p with k * p**2 < 2**63 and PANEL * p**2 < 2**53,
    largest first, each found only when it is asked for.

    Every int64 kernel below adds at most k products of residues to a
    residue, a sum below k * p**2, so none of its sums can overflow; and
    _inverse_mod_p sums PANEL products of residues in float64, exact below
    2**53. At PANEL = 32 the second bound caps p at 2**24 - 1. Each odd
    candidate is tested by trial division by the odd d <= sqrt(n). A solve
    almost always succeeds with the first prime, so the others are seldom
    searched for.
    """
    top = min(isqrt((2**53 - 1) // PANEL), isqrt((2**63 - 1) // k))
    assert k * top**2 < 2**63 and PANEL * top**2 < 2**53
    n = top - 1 + top % 2  # the largest odd number <= top
    for _ in range(5):
        while not all(n % d for d in range(3, isqrt(n) + 1, 2)):
            n -= 2
        yield n
        n -= 2


class _SingularModP(Exception):
    pass


def _inverse_mod_p(a: np.ndarray, p: int) -> np.ndarray:
    """Inverse of a square int64 matrix over GF(p), entries in [0, p).

    The matrix a is consumed: it is reduced and overwritten with its
    inverse, which is returned, so a caller that needs a passes a copy.
    In-place Gauss-Jordan elimination with partial pivoting (the first
    nonzero entry at or below the diagonal): step k scales the pivot row by
    the pivot's inverse, which takes the pivot's place, and subtracts
    multiples of that row from every other row; the row swaps are undone
    as column swaps at the end. The steps run by panels K of PANEL columns
    and delay their rank-1 updates (Dumas, Giorgi and Pernet, "Dense linear
    algebra over word-size prime fields: the FFLAS and FFPACK packages",
    ACM TOMS 35(3), 2008). A panel's steps run on a reduced copy of its
    columns, with their row swaps also applied to the whole matrix. Each
    step there is one rank-1 update of the copy, by the outer product of
    the reduced pivot column, less one at the pivot, and the reduced pivot
    row times inv, the pivot's inverse, with inv + 1 in column k. Mod p,
    row k becomes itself less (pivot - 1) times that row, which is the
    scaled row, and column k becomes -inv times the column off the pivot
    and pivot - (pivot - 1)(inv + 1) = inv at it. The steps leave T[:, K]
    in the copy: T is the panel's row operations after its
    swaps, and differs from I only in the columns K. Every other column
    then takes the panel's steps at once, a += (T[:, K] - I[:, K]) @ a[K],
    with both factors reduced to [0, p) and multiplied in float64, exact
    since each entry sums PANEL products below p**2 (see _primes_for), and
    the copy is written back over columns K. The first factor is formed on
    the float side: the reduced copy as float64, less one on the diagonal
    of its rows K, which alone are reduced again. The product is taken
    ROWS rows at a time, and each part is added to the int64 matrix by one
    add that casts it in place, so no identity columns and no n x n
    temporary are made: beside a itself the kernel holds O((ROWS + PANEL) n).

    Reduction is lazy: the whole matrix is reduced only in the panel's
    columns and in the rows that enter the product, which only adds, so
    every entry stays below one residue plus one product below p**2 per
    step, n products in all for the n x n kernel (see _primes_for); inside a
    panel only the pivot row and column are reduced at each step. Their
    factors are below p and at most p, so a step subtracts less than p**2
    from an entry of the copy, which stays below PANEL * p**2 + p < 2**53.
    Raises ValueError for p above those bounds, _SingularModP if singular
    mod p.
    """
    n = a.shape[0]
    if not (n * p * p < 2**63 and PANEL * p * p < 2**53):
        raise ValueError(f"prime {p} is too large for an exact {n} x {n} kernel")
    np.remainder(a, p, out=a)
    swaps = []
    for k0 in range(0, n, PANEL):
        k1 = min(k0 + PANEL, n)
        panel = a[:, k0:k1] % p
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
            inv = pow(int(col[k]), -1, p)
            row = panel[k] % p * inv % p
            row[k - k0] = inv + 1
            col[k] -= 1
            panel -= np.multiply.outer(col, row)
        panel %= p
        # T[:, K] - I[:, K] on the float side: I[:, K] is one on the
        # diagonal of the rows K, where the difference is reduced again
        update = panel.astype(np.float64)
        block = update[k0:k1]
        np.fill_diagonal(block, block.diagonal() - 1)
        block %= p
        rows = (a[k0:k1] % p).astype(np.float64)
        for i0 in range(0, n, ROWS):
            i = slice(i0, i0 + ROWS)  # fewer rows in the last part
            np.add(a[i], update[i] @ rows, out=a[i], casting="unsafe", dtype=np.int64)
        a[:, k0:k1] = panel
    for k, piv in reversed(swaps):
        a[:, [k, piv]] = a[:, [piv, k]]
    a %= p
    return a


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


def _reconstruct_common(entries, m: int) -> tuple[list[int], int] | None:
    """The entries, residues mod m, as integer numerators over one
    denominator, or None at the first entry that does not reconstruct.

    The entries are read in order against the denominator found so far:
    an entry times that denominator, as a symmetric residue mod m, is taken
    as its numerator if it is within sqrt(m/2); only otherwise is the entry
    reconstructed alone (_rational_reconstruct) and the denominator grown
    to the lcm. No entry after a failing one is read. While the denominator
    stays within sqrt(m/2), as it does when the lcm of the entries' own
    denominators does, an accepted numerator is the entry's own
    reconstruction, so the result is that of reconstructing every entry
    and taking the lcm, None included. Beyond that bound a wrong
    candidate may come out, which the caller's exact check refuses.
    """
    bound = isqrt(m // 2)
    den = 1
    nums, dens = [], []  # each numerator over the denominator of its time
    for e in entries:
        t = e * den % m
        if t > m // 2:
            t -= m
        if abs(t) > bound:
            f = _rational_reconstruct(e, m)
            if f is None:
                return None
            den = lcm(den, f.denominator)
            t = f.numerator * (den // f.denominator)
        nums.append(t)
        dens.append(den)
    return [t if d == den else t * (den // d) for t, d in zip(nums, dens)], den


def _ell(r: np.ndarray, c: np.ndarray, v: np.ndarray, n: int):
    """Entries (row r, column c, value v) as n zero-padded rows: (columns, values)."""
    order = np.argsort(r, kind="stable")
    counts = np.bincount(r, minlength=n)
    pos = np.arange(len(r)) - np.repeat(np.cumsum(counts) - counts, counts)
    idx = np.zeros((n, counts.max(initial=0)), dtype=np.int64)
    val = np.zeros(idx.shape, dtype=v.dtype)
    idx[r[order], pos] = c[order]
    val[r[order], pos] = v[order]
    return idx, val


def _gather(idx: np.ndarray, val: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Sparse rows (idx, val) times a vector x, unreduced; in objects if
    either is."""
    return (val * x[idx]).sum(axis=1)


# p-adic digits lifted per prime before the next prime is tried
MAX_DIGITS = 4096


def _lifting_dtype(val: np.ndarray, rhs: np.ndarray):
    """int64 if no residue of the lifting can leave it, else object.

    The system is given as padded rows val, k entries wide. A residue
    starts as rhs and becomes (r - A x) / p for a digit vector x in [0, p),
    and every prime is below 2**24 (see _primes_for), so each row of A x is
    below k max|val| 2**24. If that and max|rhs| are below 2**62, every
    residue stays below 2**62 by induction, and r - A x below 2**63.
    """
    top = int(abs(val).max(initial=0))
    fits = max(map(abs, rhs), default=0) < 2**62 and val.shape[1] * top * 2**24 < 2**62
    return np.int64 if fits else object


def _bands(r: np.ndarray, c: np.ndarray, bounds: np.ndarray) -> np.ndarray:
    """The band 2t + u of each entry (row r, column c) from block t to block
    u, distinct for every |t - u| <= 1. Raises ValueError for an entry
    outside the bands, |t - u| > 1."""
    br, bc = (np.searchsorted(bounds, a, side="right") - 1 for a in (r, c))
    if (abs(bc - br) > 1).any():
        raise ValueError("system is not block tridiagonal")
    return 2 * br + bc


def _solve_blocks(r: np.ndarray, c: np.ndarray, v: np.ndarray, rhs, sizes: list[int]):
    """Solve a nonsingular block-tridiagonal integer system exactly.

    The system is given by its entries (row r, column c, integer value v),
    where entries at the same position add up. The unknowns fall into
    consecutive blocks of the given sizes, and a row of block t may reach
    only the columns of blocks t - 1, t and t + 1; any other entry raises
    ValueError. The entries are padded once into sparse rows for the exact
    products. Each entry is labeled once by its band (_bands), and a band
    of block t is the entries with its label, in their given order: D_t (to
    block t itself), summed into a dense matrix, and Lo_t (to block t - 1)
    and Up_t (to block t + 1), compacted into sparse rows of their own.
    Every product of padded rows with a vector is one gather (_gather): the
    mod-p sweeps', the lifting's and the exact check's.

    Over GF(p) the system is eliminated block by block: the Schur
    complements are S_1 = D_1 and S_{t+1} = D_{t+1} - Lo_{t+1} S_t^{-1}
    Up_t, and each S_t^{-1} is kept mod p (_inverse_mod_p) as int32, which
    holds every residue since p < 2**24, so a single block is one dense
    inverse. S_{t+1} is updated in place, ROWS rows at a time: those rows of
    Lo_{t+1} S_t^{-1} are summed into one int64 buffer, one slot of
    Lo_{t+1}'s padded rows at a time (a gather of rows of the inverse),
    reduced, and subtracted from S_{t+1} one slot of the padded rows of the
    transpose of Up_t at a time (a gather of columns of the buffer); for the
    generator in level order a row or column of either band holds the moves
    between one word and the words of the other level, bulk hops included,
    at most 6 at L = 10. W_t = S_t^{-1} Up_t is never formed, and the kernel
    overwrites S_{t+1} with its inverse, so beside the int32 inverses the
    elimination holds one Schur complement and O(ROWS n) for a block of n
    rows. A solve is one forward sweep, z_t = S_t^{-1} y_t with y_t = b_t -
    Lo_t z_{t-1}, and one backward sweep, x_t = S_t^{-1} (y_t - Up_t
    x_{t+1}): two matrix-vector products per block, each of which reads an
    int32 inverse as it is (np.einsum casts it in buffered chunks, where
    matmul would copy it to int64 first). No int64 kernel here sums more
    products than the largest block has rows, since a row of Lo_t or Up_t,
    or of the transpose of Up_t, has no more entries than the block it
    reaches, and the inverses' float64 products sum PANEL (see _primes_for).

    That elimination is lifted p-adically (Dixon, "Exact solution of
    linear equations using p-adic expansions", Numer. Math. 40, 1982):
    each p-adic digit costs one mod-p solve and one exact product with the
    system, which takes the residue r to (r - A x) / p. Residues, digits
    and those products stay in int64 when max|rhs| < 2**62 and (entries per
    row) * max|v| * 2**24 < 2**62, which keeps every residue below 2**62
    (_lifting_dtype), and are Python integers otherwise. If the system is
    singular modulo p, the next prime is tried. Reconstruction is tried at
    checkpoints of 1, 2, 4, 8, ... digits and at MAX_DIGITS: the entries
    are read in order over one running denominator, stopping at the first
    that fails (_reconstruct_common). A candidate is returned only once it
    satisfies the system exactly, in Python integers, as integer
    numerators over their least common denominator. Raises SingularSystem
    if every prime fails.
    """
    n = len(rhs)
    bounds = np.cumsum([0, *sizes])
    bands = _bands(r, c, bounds)
    idx, val = _ell(r, c, v, n)
    rhs = np.array(rhs, dtype=object)
    val = val.astype(_lifting_dtype(val, rhs))

    def factor(p):  # the elimination over GF(p); returns its solver
        vp = (v % p).astype(np.int64)
        invs, los, ups = [], [], []

        def band(t, u):  # block t to block u, with rows and columns local
            m = bands == 2 * t + u
            return r[m] - bounds[t], c[m] - bounds[u], vp[m]

        def schur(t):  # S_t, returned so that no reference outlives its inversion
            s = np.zeros((sizes[t], sizes[t]), dtype=np.int64)
            i, j, x = band(t, t)
            np.add.at(s, (i, j), x)  # entries at one position add up
            if t:
                los.append(_ell(*band(t, t - 1), sizes[t]))
                i, j, x = band(t - 1, t)
                ups.append(_ell(i, j, x, sizes[t - 1]))
                # the padded rows of Lo_t and of the transpose of Up_{t-1}, a slot a row
                lo = [a.T for a in los[-1]]
                up = [a.T for a in _ell(j, i, x, sizes[t])]
                for r0 in range(0, sizes[t], ROWS):  # ROWS rows of S_t at a time
                    rows = s[r0 : r0 + ROWS]
                    lo_inv = np.zeros((len(rows), sizes[t - 1]), dtype=np.int64)
                    for cols, vals in zip(*lo):
                        lo_inv += vals[r0 : r0 + ROWS, None] * invs[-1][cols[r0 : r0 + ROWS]]
                    lo_inv %= p
                    for cols, vals in zip(*up):
                        rows -= lo_inv[:, cols] * vals
            return s

        for t in range(len(sizes)):
            invs.append(_inverse_mod_p(schur(t), p).astype(np.int32))

        def solve(b):
            ys, z = [], None
            for t, inv in enumerate(invs):
                y = b[bounds[t] : bounds[t + 1]]
                if t:
                    y = (y - _gather(*los[t - 1], z)) % p
                ys.append(y)
                z = np.einsum("ij,j->i", inv, y) % p
            x = [z]
            for t in reversed(range(len(invs) - 1)):
                y = (ys[t] - _gather(*ups[t], x[-1])) % p
                x.append(np.einsum("ij,j->i", invs[t], y) % p)
            return np.concatenate(x[::-1])

        return solve

    for p in _primes_for(max(sizes)):
        try:
            solve = factor(p)
        except _SingularModP:
            continue
        residue = rhs.astype(val.dtype)
        combined = np.zeros(n, dtype=object)
        p_power = 1
        for digits in range(1, MAX_DIGITS + 1):
            xk = solve((residue % p).astype(np.int64, copy=False))
            combined += p_power * xk.astype(object)
            p_power *= p
            residue = (residue - _gather(idx, val, xk)) // p  # p divides it
            if digits & (digits - 1) == 0 or digits == MAX_DIGITS:
                candidate = _reconstruct_common(combined, p_power)
                if candidate is None:
                    continue
                num, den = candidate
                if (_gather(idx, val, np.array(num, dtype=object)) == den * rhs).all():
                    return num, den
        raise SingularSystem("p-adic lifting did not converge")
    raise SingularSystem("system singular modulo every tested prime")


def solve_dixon(rows: list[dict[int, int]], rhs: list[int]) -> list[Fraction]:
    """Solve a nonsingular integer system exactly over one dense inverse mod p.

    This is the one-block case of _solve_blocks, and the small-system
    cross-check for the block solve inside stationary_exact: it shares the
    lifting and the mod-p kernel but never runs the elimination by blocks,
    and costs O(n**3) per prime.
    """
    num, den = _solve_blocks(*_entries(rows), rhs, [len(rows)])
    return [Fraction(v, den) for v in num]


def _levels(i: np.ndarray, j: np.ndarray, dim: int) -> np.ndarray:
    """Each word's breadth-first level from the empty word over the entries
    (i, j) with i != j, each taken in either direction; -1 for a word the
    search never reaches. Every such entry joins two words at most one
    level apart, so in level order the system is block tridiagonal
    (Cuthill and McKee, "Reducing the bandwidth of sparse symmetric
    matrices", Proc. 24th ACM National Conference, 1969). Each level is
    one vectorized step over the links whose source is in the frontier."""
    off = i != j
    src, dst = np.concatenate([i[off], j[off]]), np.concatenate([j[off], i[off]])
    level = np.full(dim, -1)
    level[0] = t = 0
    frontier = level == 0
    while frontier.any():
        t += 1
        reached = dst[frontier[src]]
        level[reached[level[reached] < 0]] = t
        frontier = level == t
    return level


def stationary_exact(g: GeneratorMatrix) -> Distribution:
    """The unique probability vector annihilated by the generator.

    The generator is scaled to integers once, as entries (i, j, v) of G
    (_integer_generator), and stationarity x @ G = 0 is the system whose
    equation j reads column j. With the words in a stable order of their
    breadth-first level from the empty word (_levels), over the entries i !=
    j taken in either direction, that system is block tridiagonal: every
    entry joins two words at most one level apart. The equations sum to
    zero, so one is redundant: the empty word's equation, its column of G,
    is replaced by the pin x(empty) = 1, one entry with right-hand side 1.
    That square system over all 2**L words is solved exactly by
    _solve_blocks, with one block per level, the empty word alone in level
    0. The solution is kept as integer masses over the least common
    denominator of its entries, which is the empty word's mass, and the law
    is read from them in enumerate_occupations order.

    The pin is safe for every generator build_generator makes: alpha =
    1/(1+A) > 0 and beta = 1/(1+B) > 0, so the chain is irreducible and
    pi(empty) > 0. In any order that starts with the empty word, every
    Schur complement of the elimination is nonsingular over Q too: after
    the pin, the leading blocks are the generator restricted to the words
    of levels 1 to t, a sub-generator that the chain can leave from each
    of those words, since it reaches the empty word. The words that the
    search never reaches share no entry with the others, so their rows of
    G sum to zero among themselves and the pinned system is singular: one
    such word raises SingularSystem at once, before any prime is tried,
    and any other singular pinned system raises it once every prime
    fails. A move that changes N by more than one, the empty word's moves
    included, raises ValueError as a check of the input; the level order
    itself needs no bound on N. Nonsingularity modulo a prime certifies
    that the nullspace is one-dimensional.

    The solve returns the masses only once they satisfy the pinned system
    exactly, in integers: the pin, and x @ G = 0 on every column but the
    empty word's. That column needs no check of its own. Every row of the
    integer generator sums to zero, its diagonal entry being minus the sum
    of its moves (_integer_generator), so the columns of x @ G sum to zero
    and the empty word's is minus the sum of the others. The signs are the
    one test left: a negative mass raises SingularSystem. The masses are
    not all zero, since the pin gives the empty word the denominator.
    """
    i, j, v = _integer_generator(g)
    count = np.array([w.bit_count() for w in range(g.dim)])
    if (abs(count[i] - count[j]) > 1).any():
        raise ValueError("a move changes the particle number by more than one")
    level = _levels(i, j, g.dim)
    if (level < 0).any():
        raise SingularSystem("a word is not reachable from the empty word")
    words = np.argsort(level, kind="stable")  # the words in level order
    place = np.empty_like(words)  # each word's unknown; the empty word's is 0
    place[words] = np.arange(g.dim)
    kept = j != 0  # every equation but the empty word's, which the pin replaces
    r, c = (np.append(place[a[kept]], 0) for a in (j, i))  # the pin's entry is (0, 0)
    sizes = np.bincount(level).tolist()
    num, den = _solve_blocks(r, c, np.append(v[kept], 1), [1] + [0] * (g.dim - 1), sizes)
    if min(num) < 0:
        raise SingularSystem("solution is not a stationary law of the generator")
    states = list(enumerate_occupations(g.L))
    masses = [num[k] for k in place[[s.word for s in states]].tolist()]
    return Distribution(states, masses)


# ---------------------------------------------------------------------------
# stochastic simulation (floating point, quarantined here)


# Largest expected number of events in one simulation: the run lasts
# burn_in + horizon time units, and no state leaves at a higher total rate
# than (L - 1) max(1, q) + max(alpha, gamma) + max(beta, delta). At L = 30
# a run takes about 13 s per million events on a 2-CPU VM.
MAX_EVENTS = 10 ** 7


class SimulationResult(Record):
    """Time-averaged occupation frequencies from an event-driven run."""

    __slots__ = ("L", "observed_time", "steps", "site_density", "config_freq")

    def __init__(
        self,
        L: int,
        observed_time: float,
        steps: int,
        site_density: tuple[float, ...],
        config_freq: dict | None,
    ):
        self._init(L, observed_time, steps, site_density, config_freq)


def gillespie_simulate(
    L: int,
    r: Rates,
    horizon: float,
    burn_in: float = 0.0,
    seed: int = 0,
    max_L: int | None = None,
) -> SimulationResult:
    """Exponential-clock simulation of the process; reproducible per seed.

    The run lasts burn_in + horizon time units, so both must be finite,
    the horizon positive (a horizon <= 0 observes nothing) and burn_in
    nonnegative, and that time at the largest total rate out of a state may
    not exceed MAX_EVENTS events.
    """
    admit("simulation", L, max_L)
    if L < 1:
        raise ValueError("simulation needs L >= 1")
    if not (isfinite(horizon) and horizon > 0):
        raise ValueError(f"horizon must be finite and positive, got {horizon}")
    if not (isfinite(burn_in) and burn_in >= 0):
        raise ValueError(f"burn_in must be finite and nonnegative, got {burn_in}")
    t_end = burn_in + horizon
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
        cum = list(accumulate(rate for _, rate in options))
        total = cum[-1] if cum else 0.0
        if total == 0.0:
            credit(w, t, t_end)
            break
        dt = rng.expovariate(total)
        credit(w, t, t + dt)
        t += dt
        if t >= t_end:
            break
        w = rng.choices(options, cum_weights=cum)[0][0]
        steps += 1

    freq = None
    if track_configs:
        freq = {  # the visited states, in enumerate_occupations order
            s: config_time[s.word] / horizon
            for s in enumerate_occupations(L)
            if s.word in config_time
        }
    return SimulationResult(
        L=L,
        observed_time=horizon,
        steps=steps,
        site_density=tuple(s / horizon for s in site_time),
        config_freq=freq,
    )
