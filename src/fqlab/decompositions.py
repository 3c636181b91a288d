"""Constructive combinatorial engines: popularity pigeonholing, dyadic energy
slicing, popular-point extraction with an explicit tracked constant chain,
the searches (covering by translates and the two refinement stages' subsets,
each exhaustive at or below EXACT_SEARCH_LIMIT elements and greedy above; the
exhaustive subset scorer is shared with survey's exhaustive minimum), and the
full shifted-product proof trace with case classification.

Everything here is pure and deterministic and imports no layer above it;
ties always break toward the smallest canonical encoding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, combinations, islice

import numpy as np

from .errors import (
    DegenerateSlice,
    EmptySet,
    EmptySpectrum,
    EpsilonOutOfRange,
    InvariantViolated,
    SecondSetLarger,
    SumBelowK,
    TraceDegenerate,
    ZeroInSet,
)
from .finite_field import _clip, _scalar, proper_subfields
from .set_algebra import (
    FqSet,
    _batches,
    _blocks,
    _grid,
    _pair_counts,
    _require_same_field,
    _restriction,
    _row_sizes,
    _sum_of_squares,
    coset_intersection_counts,
    dilate,
    quotient_closure_failure,
    quotient_set,
    representation_spectrum,
    set_op,
    set_op_size,
    translate,
)

EXACT_SEARCH_LIMIT = 12  # subset/cover searches go exhaustive at or below this size


# ---------------------------------------------------------------------------
# popularity pigeonhole
# ---------------------------------------------------------------------------


def _popularity(counts: np.ndarray, K: int, M_cap: int | None = None):
    """The popularity pigeonhole over the positions of a dense count array
    whose count f is positive: keep those where f reaches K/(2|domain|),
    compared exactly as 2*|domain|*f >= K.

    Returns (kept positions, threshold, kept mass, domain size).  The kept
    mass is always at least K/2, and when f <= M_cap the number of kept
    positions is at least K/(2*M_cap); both guarantees are exact integer
    facts, checked here (an f above M_cap breaks the second and raises
    InvariantViolated).
    """
    hit = np.flatnonzero(counts)
    f = np.asarray(counts)[hit]
    total = int(f.sum())
    if total < K:
        raise SumBelowK(f"sum of f is {total} < K = {K}")
    keep = 2 * hit.size * f >= K
    mass = int(f[keep].sum())
    if 2 * mass < K:
        raise InvariantViolated(f"kept mass {mass} is below K/2 = {K}/2")
    if M_cap is not None and ((f > M_cap).any() or 2 * M_cap * int(keep.sum()) < K):
        raise InvariantViolated(f"f exceeds M_cap = {M_cap}, or fewer than K/(2*M_cap) kept")
    return hit[keep], Fraction(K, 2 * hit.size), mass, hit.size


def popularity_subset(domain: FqSet, f: dict[int, int], K: int,
                      M_cap: int | None = None) -> FqSet:
    """Subset of elements whose f-value reaches K/(2|domain|); keeps at least
    half the total mass.  ``_popularity`` over f laid out on the domain's
    positions: f, K and M_cap are integers (MalformedLiteral otherwise), K is
    at least 1 and f positive on the whole domain (ValueError otherwise)."""
    K, M_cap = _scalar(K, "K"), None if M_cap is None else _scalar(M_cap, "M_cap")
    if K < 1:
        raise ValueError(f"K must be at least 1, got {K}")
    counts = np.array([_scalar(f.get(x, 0), "f") for x in domain], dtype=np.int64)
    if (counts <= 0).any():
        raise ValueError("popularity requires f > 0 on the domain")
    kept, _, _, _ = _popularity(counts, K, M_cap)
    return FqSet._from_sorted(domain.spec, domain.members[kept])


# ---------------------------------------------------------------------------
# dyadic energy slice
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DyadicSlice:
    """Dominant dyadic level of the ratio spectrum between X and Y: the
    length-q counts r(xi) of ``representation_spectrum``, not kept.

    D holds the popular slopes, every one carrying between N and 2N-1 point
    pairs; P is the set of pairs supported on those slopes, and line[k] is
    the position in D of the slope of pairs[k].  The certificates r(xi) in
    [N, 2N), multiplicative energy <= (floor(log2 |X|)+1)*4*L*N^2 and L*N <
    |X||Y| hold whenever |X||Y| >= 2 and Y contains a nonzero element: the
    two excluded shapes (a 1x1 instance, and Y = {0} whose pairs all sit on
    the slope-zero line) concentrate the whole first moment on a single
    slope, where nothing can be dropped below it.
    """

    X: FqSet
    Y: FqSet
    D: FqSet
    N: int
    L: int
    M: int
    energy: int  # the multiplicative energy between X and Y, sum of r(xi)^2
    pairs: np.ndarray  # (k, 2) int64 rows (x, y), lexicographically sorted
    line: np.ndarray  # (k,) int64: the position of y/x in D for each pair


def dyadic_energy_slice(X: FqSet, Y: FqSet) -> DyadicSlice:
    """Bucket the ratio counts by powers of two and keep the level with the
    largest squared mass (smallest level on ties).

    The counts are ``representation_spectrum``'s.  A count's level is its
    place among the powers of two, and the masses (the squares of the
    counts, widened first) add up in int64, exactly: each is at most the
    energy, below (|X||Y|)^(3/2).  A perfectly flat spectrum at a power of
    two would make L*N equal |X||Y| exactly; in that case the largest-encoded
    slope is dropped, which keeps every certificate valid.  The slice's
    pairs, sum of r(xi) over D, are then listed by ``_batches`` of X's rows,
    each pair's line read through a q-length rank of D, so nothing of size
    |X||Y| is held but the pairs themselves.
    """
    _require_same_field(X, Y)
    if len(Y) > len(X):
        raise SecondSetLarger("need |Y| <= |X|")
    spectrum = representation_spectrum(X, Y)
    counts = spectrum[spectrum > 0].astype(np.int64)
    if not counts.size:
        raise EmptySpectrum("no ratio pairs between X and Y")
    powers = 1 << np.arange(int(counts.max()).bit_length(), dtype=np.int64)
    mass = np.zeros(powers.size, dtype=np.int64)
    np.add.at(mass, np.searchsorted(powers, counts, side="right") - 1, counts * counts)
    N = int(powers[np.argmax(mass)])  # first maximum = smallest level
    slopes = np.flatnonzero((spectrum >= N) & (spectrum < 2 * N))
    if slopes.size * N == len(X) * len(Y) and slopes.size >= 2:
        slopes = slopes[:-1]
    D = FqSet._from_sorted(X.spec, slopes)
    k = int(spectrum[slopes].sum(dtype=np.int64))
    energy = _sum_of_squares(spectrum)
    del spectrum, counts
    rank = np.cumsum(D.bitmask, dtype=np.int32)
    rank -= 1  # rank[xi] is the position of xi in D, for xi in D
    pairs = np.empty((k, 2), dtype=np.int64)  # row-major: (x, y) sorted
    line = np.empty(k, dtype=np.int64)
    done = 0
    for rows in _batches(len(X), len(Y)):
        x = X.members[rows.start:rows.stop]
        ratios = X.spec.div_arr(Y.members[None, :], x[:, None])
        xi, yi = np.nonzero(D.bitmask[ratios])
        end = done + xi.size
        if end <= k:
            pairs[done:end, 0] = x[xi]
            pairs[done:end, 1] = Y.members[yi]
            line[done:end] = rank[ratios[xi, yi]]
        done = end
        del ratios, xi, yi
    if done != k:
        raise InvariantViolated(f"the slice holds {done} pairs, its spectrum {k}")
    L = len(D)
    return DyadicSlice(X=X, Y=Y, D=D, N=N, L=L, M=L * N * N, energy=energy,
                       pairs=pairs, line=line)


def slice_certificates(sl: DyadicSlice) -> dict:
    """The three exact slice certificates, with the numbers behind them; the
    band is checked on r(xi) recounted as the pairs on each line."""
    counts = np.bincount(sl.line, minlength=sl.L)
    energy_bound = len(sl.X).bit_length() * 4 * sl.L * sl.N**2  # floor(log2 |X|) + 1
    return {
        "level_band": bool(np.all((sl.N <= counts) & (counts < 2 * sl.N))),
        "energy": sl.energy,
        "energy_bound": energy_bound,
        "energy_ok": sl.energy <= energy_bound,
        "mass": sl.L * sl.N,
        "mass_bound": len(sl.X) * len(sl.Y),
        "mass_strict": sl.L * sl.N < len(sl.X) * len(sl.Y),
    }


# ---------------------------------------------------------------------------
# popular points
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PopularPoints:
    """Replay of the popular-point extraction over a dyadic slice.

    x0 is the popular abscissa, y0 the popular ordinate; A_x0 holds the
    ordinates over x0 and B_y0 the abscissas under y0.  For every z in A_tilde
    the stored S[z] equals the line of slope z/x0 intersected with B_y0, and
    the thresholds in `constants` reproduce the inequality chain exactly: each
    pigeonhole step keeps half the mass.  Every count behind them is a
    bincount or a 0/1 matrix product over the slice's pairs (see
    `popular_points`), never a list of the pairs per row, column or line.
    """

    x0: int
    y0: int
    A_x0: FqSet
    B_y0: FqSet
    A_tilde: FqSet
    S: dict[int, FqSet]
    y_popular: FqSet  # popular ordinate rows
    x_popular: FqSet  # popular abscissa columns
    d_popular: FqSet  # popular slopes inside the restricted point set
    constants: dict


# proven composite constants of the pigeonhole chain (each factor is exact)
C_ROWS = Fraction(1, 2)       # |B_y0| >= (1/2) * L*N / |Y|
C_COLS = Fraction(1, 4)       # |A_x0| >= (1/4) * L*N / |X|
C_TILDE = Fraction(1, 16384)  # |A_tilde| >= c * L^2*N^2 / (|X|^2 |Y|)
C_SLICE_SETS = Fraction(1, 8192)  # |S_z| >= c * L^2*N^3 / (|X|^2 |Y|^2)


def popular_points(sl: DyadicSlice) -> PopularPoints:
    """Popular-point extraction over the slice's pairs, by counting.

    Each pair (x, y) has a line (``sl.line``), a column (position of x in X)
    and a row (position of y in Y).  The pigeonhole steps are bincounts over
    masks of pairs: rows count `row`; columns count `col` over the pairs in
    popular rows; slopes count `line` over the pairs in popular rows and
    columns.  With `lines` the 0/1 (line, x) incidence and `points` the 0/1
    (x, popular y) incidence, the double sum over x_popular × y_popular is
    the sum over ``_batches`` of lines, |X| cells a line (grouped by one
    stable argsort of `line`, ascending x within a line), of
    lines[:, popular columns].T @ (lines @ points).  Its first row-major
    maximum is the smallest (x0, y0) on ties; the float64 products are
    exact, as an entry counts at most |X||Y| pairs.  The last step counts,
    on each line through x0, the pairs whose x lies in B_y0.
    """
    if sl.L == 0 or sl.pairs.size == 0:
        raise DegenerateSlice("slice has no popular slopes")
    spec, nx = sl.X.spec, len(sl.X)
    xs, ys, line = sl.pairs[:, 0], sl.pairs[:, 1], sl.line
    col = np.searchsorted(sl.X.members, xs)
    row = np.searchsorted(sl.Y.members, ys)

    # rows: keep ordinates whose pair count reaches half the average
    rows, t_rows, mass_rows, row_domain = _popularity(
        np.bincount(row, minlength=len(sl.Y)), len(xs))
    y_popular = FqSet._from_sorted(spec, sl.Y.members[rows])
    in_rows = y_popular.bitmask[ys]

    # columns: restrict to the kept rows, then pigeonhole abscissas
    cols, t_cols, mass_cols, col_domain = _popularity(
        np.bincount(col[in_rows], minlength=nx), mass_rows)
    x_popular = FqSet._from_sorted(spec, sl.X.members[cols])
    in_cols = x_popular.bitmask[xs]

    # slopes: pigeonhole the doubly-restricted point set by its lines
    slope_counts = np.bincount(line[in_rows & in_cols], minlength=sl.L)
    mass_dd, slope_cap = int(slope_counts.sum()), int(slope_counts.max())
    slopes, t_slopes, _, slope_domain = _popularity(slope_counts, mass_dd, slope_cap)
    d_popular = FqSet._from_sorted(spec, sl.D.members[slopes])

    # the double sum over blocks of lines, and its exact maximizing cell
    by_line = np.argsort(line, kind="stable")
    start = np.searchsorted(line[by_line], np.arange(sl.L + 1))
    points = np.zeros((nx, len(sl.Y)))
    points[col, row] = 1
    points = points[:, rows]
    sums = np.zeros((cols.size, rows.size))
    for batch in _batches(sl.L, nx):
        block = by_line[start[batch.start]:start[batch.stop]]
        lines = np.zeros((len(batch), nx))
        lines[line[block] - batch.start, col[block]] = 1
        sums += lines[:, cols].T @ (lines @ points)
    sums = sums.astype(np.int64)
    i, j = np.unravel_index(int(np.argmax(sums)), sums.shape)
    x0, y0 = int(sl.X.members[cols[i]]), int(sl.Y.members[rows[j]])
    inner_max, sigma = int(sums[i, j]), int(sums.sum())

    over_x0 = xs == x0
    A_x0 = FqSet._from_sorted(spec, ys[over_x0])
    B_y0 = FqSet._from_sorted(spec, xs[ys == y0])

    # final pigeonhole: ordinates over x0 whose slice set inside B_y0 is popular
    on_B = B_y0.bitmask[xs]
    z_lines = line[over_x0]
    z_counts = np.bincount(line[on_B], minlength=sl.L)[z_lines]
    z_cap = int(z_counts.max())
    tilde, t_z, _, z_domain = _popularity(z_counts, inner_max, z_cap)
    A_tilde = FqSet._from_sorted(spec, ys[over_x0][tilde])
    on_lines = (by_line[start[l]:start[l + 1]] for l in z_lines[tilde])
    S = {int(z): FqSet._from_sorted(spec, xs[ks[on_B[ks]]])
         for z, ks in zip(A_tilde.members, on_lines)}

    constants = {
        "p_size": len(xs),
        "row_threshold": t_rows, "row_domain": row_domain, "row_mass": mass_rows,
        "col_threshold": t_cols, "col_domain": col_domain, "col_mass": mass_cols,
        "slope_threshold": t_slopes, "slope_domain": slope_domain, "slope_cap": slope_cap,
        "slope_mass": mass_dd, "d_popular_size": len(d_popular),
        "sigma": sigma, "inner_max": inner_max,
        "tilde_threshold": t_z, "tilde_domain": z_domain, "tilde_cap": z_cap,
        "pigeonhole_factor": Fraction(1, 2), "pigeonhole_steps": 4,
        "c_rows": C_ROWS, "c_cols": C_COLS, "c_tilde": C_TILDE, "c_slice_sets": C_SLICE_SETS,
    }
    return PopularPoints(x0=x0, y0=y0, A_x0=A_x0, B_y0=B_y0, A_tilde=A_tilde, S=S,
                         y_popular=y_popular, x_popular=x_popular, d_popular=d_popular,
                         constants=constants)


def points_certificates(sl: DyadicSlice, pts: PopularPoints) -> dict:
    """Exact inequality chain of the popular-point construction, evaluated with
    the tracked constants (never the constant-free asymptotic forms)."""
    L, N = sl.L, sl.N
    nx, ny = len(sl.X), len(sl.Y)
    c = pts.constants
    sigma_floor = (c["d_popular_size"] * c["slope_threshold"] ** 2 * c["col_threshold"])
    checks = {
        "p_mass": c["p_size"] >= L * N,
        "rows_kept_mass": 2 * c["row_mass"] >= c["p_size"],
        "cols_kept_mass": 2 * c["col_mass"] >= c["row_mass"],
        "b_y0_size": len(pts.B_y0) >= C_ROWS * Fraction(L * N, ny),
        "a_x0_size": len(pts.A_x0) >= C_COLS * Fraction(L * N, nx),
        "sigma_floor": Fraction(c["sigma"]) >= sigma_floor,
        "inner_max_avg": (Fraction(c["inner_max"])
                          >= Fraction(c["sigma"], len(pts.x_popular) * len(pts.y_popular))),
        "a_tilde_size": len(pts.A_tilde) >= C_TILDE * Fraction(L**2 * N**2, nx**2 * ny),
        "slice_sets_size": all(
            len(s) >= C_SLICE_SETS * Fraction(L**2 * N**3, nx**2 * ny**2)
            for s in pts.S.values()
        ),
        "slopes_in_band": bool(np.all(
            sl.D.bitmask[sl.X.spec.div_arr(pts.A_x0.members, np.int64(pts.x0))])),
        "factor_product_ok": (c["pigeonhole_factor"] ** c["pigeonhole_steps"]
                              >= Fraction(1, 2) ** c["pigeonhole_steps"]),
    }
    checks["all"] = all(v for k, v in checks.items() if isinstance(v, bool))
    return checks


# ---------------------------------------------------------------------------
# searches: covering by translates, then the refinement stages' subsets
# ---------------------------------------------------------------------------


def _greedy_cover(target: FqSet, tile: FqSet, counts: np.ndarray):
    """Greedy cover of target by translates t + tile, the first (= smallest)
    t of largest gain each step.  The gain of t starts at counts[t] =
    |(t + tile) ∩ target|, the pair counts of target - tile, and counts is
    lowered in place, by decrements of its own dtype: a newly covered
    element e takes one gain from each shift e - s, s in tile.  A step scans
    the gains of the candidates (the shifts whose translate meets the
    target), and the whole run makes |target| |tile| decrements:
    O(steps |candidates| + |target| |tile|)."""
    spec = target.spec
    candidates = np.flatnonzero(counts)
    uncovered = target.bitmask.copy()
    remaining, shifts = len(target), []
    while remaining:
        best = int(candidates[np.argmax(counts[candidates])])  # first maximum = smallest shift
        if counts[best] == 0:
            raise InvariantViolated("no candidate shift covers an uncovered element")
        hit = spec.add_arr(best, tile.members)
        covered = hit[uncovered[hit]]
        uncovered[covered] = False
        remaining -= covered.size
        np.subtract.at(counts, spec.sub_arr(covered[:, None], tile.members[None, :]),
                       counts.dtype.type(1))
        shifts.append(best)
    return len(shifts), shifts


def _exact_cover(target: FqSet, tile: FqSet):
    """Minimum cover of target by translates t + tile, breadth first over the
    2^n covered-target states, n = |target| <= EXACT_SEARCH_LIMIT.  Bit i of
    shift t's mask marks target[i] in t + tile; each mask keeps its smallest
    shift, and a mask inside another is dropped (a cover can swap it for the
    larger one).  Level k holds the states first reached by k translates, so
    the first level to reach the full state gives the minimum.  Tie-break: a
    state keeps the first (earlier state, mask) pair that reaches it, both
    ascending; the shifts are returned ascending.  Work and memory are
    O(n |tile| + 2^n |masks|)."""
    n = len(target)
    diffs = target.spec.sub_arr(target.members[:, None], tile.members[None, :]).ravel()
    shifts, inverse = np.unique(diffs, return_inverse=True)
    # a row's differences are distinct, so each shift's sum of bits is their OR
    bits = np.repeat(1 << np.arange(n, dtype=np.int64), len(tile))
    by_shift = np.bincount(inverse, weights=bits).astype(np.int64)
    masks, first = np.unique(by_shift, return_index=True)  # first = smallest shift
    supersets = np.zeros(1 << n, dtype=np.int64)
    supersets[masks] = 1
    for i in range(n):  # sum over supersets, one bit at a time
        halves = supersets.reshape(-1, 2, 1 << i)
        halves[:, 0] += halves[:, 1]
    maximal = supersets[masks] == 1
    masks, shifts = masks[maximal], shifts[first[maximal]]

    full = (1 << n) - 1
    prev = np.full(1 << n, -1, dtype=np.int64)  # the state a state was first reached from
    via = np.zeros(1 << n, dtype=np.int64)  # and the shift that reached it
    prev[0], frontier = 0, np.zeros(1, dtype=np.int64)
    while prev[full] < 0:
        states, cell = np.unique(frontier[:, None] | masks, return_index=True)
        new = prev[states] < 0
        states, cell = states[new], cell[new]
        prev[states], via[states] = frontier[cell // masks.size], shifts[cell % masks.size]
        frontier = states
    chosen, state = [], full
    while state:
        chosen.append(int(via[state]))
        state = int(prev[state])
    return len(chosen), sorted(chosen)


def covering_number(target: FqSet, tile: FqSet, sign: int = +1):
    """Fewest translates t + sign*tile covering target, sign +1 or -1: the
    exact minimum (breadth first) when |target| <= EXACT_SEARCH_LIMIT,
    else greedy with the smallest-shift tie-break.  Returns (count, shifts)."""
    _require_same_field(target, tile)
    if len(tile) == 0:
        raise EmptySet("covering tile must be nonempty")
    if sign not in (1, -1):
        raise ValueError(f"sign must be +1 or -1, got {sign!r}")
    if len(target) == 0:
        return 0, []
    spec = target.spec
    shifted_tile = tile if sign == 1 else FqSet.from_iterable(spec, spec.neg_arr(tile.members))
    if len(target) <= EXACT_SEARCH_LIMIT:
        return _exact_cover(target, shifted_tile)
    return _greedy_cover(target, shifted_tile, _pair_counts(target, shifted_tile, "diff"))


def _plunnecke_terms(X: FqSet, Bs: list[FqSet]) -> tuple[FqSet, int]:
    """(B1 + ... + Bk, |X + B1| ... |X + Bk|) for nonempty X, B1, ..., Bk."""
    if not Bs:
        raise EmptySet("need at least one summand set")
    if not len(X) or any(len(B) == 0 for B in Bs):
        raise EmptySet("all sets must be nonempty")
    total = Bs[0]
    for B in Bs[1:]:
        total = set_op(total, B, "sum")
    sizes = {}  # |X + B| once per distinct B: refine_stage passes one set k times
    for B in Bs:
        if id(B) not in sizes:
            sizes[id(B)] = set_op_size(X, B, "sum")
    return total, math.prod(sizes[id(B)] for B in Bs)


def _min_sumset_subset(X: FqSet, S: FqSet, floor: int):
    """Minimize |X' + S| over X' of size exactly floor (supersets only grow).

    Row x + S of the grid X + S holds distinct values, so removing x loses the
    values its row holds once.  The greedy search counts by ``_pair_counts``
    and scores every row once in the ``_blocks`` of the sum ``_grid``,
    O(|X||S|), never holding the grid.  Removing x* then changes the loss of
    another row only through the values of x* + S whose count falls to 1:
    each such v is charged to its one remaining owner x, the x with v - x in
    S.  That is one |V| x |X'| membership check per step, V the values that
    fell; no rescan.

    A removal lowers each count by at most 1.  So when every positive count
    is at least removals + 1, a count can reach 1 only at the last removal,
    after the last argmax: every loss the search reads is 0, and the
    first-maximum tie-break removes the smallest encodings.  The search then
    returns at once, scoring nothing."""
    spec = X.spec
    if len(X) <= EXACT_SEARCH_LIMIT:
        size, rows = _min_subsets(spec.add_arr(X.members[:, None], S.members[None, :]),
                                  floor, 1)
        return X.members[rows[0]], size
    counts = _pair_counts(X, S, "sum")
    removals = len(X) - floor
    held = counts[counts > 0]
    if held.min() >= removals + 1:
        return X.members[removals:], int(held.size)
    a, b, op, _, _ = _grid(X, S, "sum")
    lost = np.concatenate([(counts[values] == 1).sum(axis=1) for values in _blocks(a, b, op)])
    alive = np.ones(len(X), dtype=bool)
    for _ in range(removals):
        best = int(np.argmax(np.where(alive, lost, -1)))  # first maximum = smallest encoding
        alive[best] = False
        row = spec.add_arr(X.members[best], S.members)
        counts[row] -= 1  # the row's values are distinct
        fell = row[counts[row] == 1]
        owned = S.bitmask[spec.sub_arr(fell[:, None], X.members[alive][None, :])]
        lost[alive] += owned.sum(axis=0)
    return X.members[alive], int(np.count_nonzero(counts))


def _min_diffset_subset(A: FqSet, floor: int):
    """Minimize |A' - A'| over A' of size exactly floor.

    Removing x deletes row x (the values x - y) and column x (the values
    y - x) of the difference grid.  Each of the two holds distinct values, and
    the row value x - y recurs in column x exactly when 2x - y is in A'
    (always in characteristic 2, where 2x - y = y).  The alive grid is
    symmetric, c(v) = c(-v) for its counts c, so with m = [2x - y in A'] x
    loses

        sum over y in A' of [c(x - y) = 1 + m] + [c(x - y) = 1 and not m],

    m read from a q-length copy of A's bitmask, cleared as elements go,
    through the flat grid of 2x - y.  The diagonal y = x needs no exclusion:
    there m = 1 and c(0) = |A'|, so it adds the same [|A'| = 2] to every x and
    leaves the argmax alone.  A greedy step is O(|A'|^2) gathers and
    comparisons, no sort."""
    spec, n = A.spec, len(A)
    diffs = spec.sub_arr(A.members[:, None], A.members[None, :])
    if n <= EXACT_SEARCH_LIMIT:
        size, rows = _min_subsets(diffs, floor, 1, square=True)
        return A.members[rows[0]], size
    # flat grids, gathered per step; each difference is labelled by its rank
    # among the distinct ones, so the counts span the grid, not the field: the
    # ranks are a q-length int32 mark summed in place (a bool mark summed to
    # int32 is cast whole first), and the labels intp, as every step gathers
    # through them
    rank = np.zeros(spec.q, dtype=np.int32)
    rank[diffs.ravel()] = 1
    labels = np.cumsum(rank, out=rank)[diffs.ravel()].astype(np.intp)
    labels -= 1
    del rank, diffs
    reflected = spec.sub_arr(spec.add_arr(A.members, A.members)[:, None],
                             A.members[None, :]).ravel()
    counts = np.bincount(labels)
    member = A.bitmask.copy()  # A' as a q-length bitmask
    for _ in range(n - floor):
        rows = np.flatnonzero(member[A.members])
        flat = (rows * n)[:, None] + rows  # the alive subgrid
        cells = labels[flat]
        held = counts[cells]
        m = member[reflected[flat]]
        lost = (held == 1 + m).sum(axis=1) + ((held == 1) & ~m).sum(axis=1)
        best = int(np.argmax(lost))  # first maximum = smallest encoding
        np.subtract.at(counts, cells[best], np.intp(1))
        np.subtract.at(counts, cells[:, best], np.intp(1))
        counts[cells[best, best]] += 1  # the diagonal cell is in both
        member[A.members[rows[best]]] = False
    return A.members[member[A.members]], int(np.count_nonzero(counts))


def _min_subsets(grid: np.ndarray, k: int, limit: int, square: bool = False):
    """(m, rows): the fewest distinct values m that k rows of a value grid
    hold (with ``square``, in their own k columns only), and the first
    ``limit`` k-subsets of rows that hold m, in combinations order, as an
    array of row indices.  The math.comb(n, k) subsets of the n rows are
    scored in ``_batches`` of their gathered cells, one sort a batch.  Both
    subset searches take this path at or below EXACT_SEARCH_LIMIT elements
    (their greedy removal, above it, bounds it above); survey's exhaustive
    minimum always."""
    cells = k * (k if square else grid.shape[1])
    combos = combinations(range(grid.shape[0]), k)
    best, found = None, None
    for batch in _batches(math.comb(grid.shape[0], k), cells):
        rows = np.fromiter(chain.from_iterable(islice(combos, len(batch))),
                           dtype=np.int64).reshape(-1, k)
        values = grid[rows[:, :, None], rows[:, None, :]] if square else grid[rows]
        sizes = _row_sizes(values.reshape(len(rows), cells))
        low = int(sizes.min())
        if best is None or low < best:
            best, found = low, rows[:0]
        if low == best:
            found = np.concatenate([found, rows[sizes == low]])[:limit]
    return best, found


def shift_stage(A: FqSet, alpha: int) -> tuple[FqSet, int, Fraction]:
    """The first refinement, for nonempty A avoiding 0 and alpha != 0: A' of
    ceil(|A|/2) elements minimizing |A' - A'|.  Returns (A', |A' - A'|, the
    ratio |A' - A'| |A|^5 / (|A(A+alpha)|^4 |A/A|^2), of unknown constant)."""
    alpha = _scalar(alpha, "alpha", A.spec.q, nonzero=True)
    members, size = _min_diffset_subset(A, math.ceil(len(A) / 2))
    bound = set_op_size(A, translate(A, alpha), "prod") ** 4 * set_op_size(A, A, "ratio") ** 2
    return FqSet._from_sorted(A.spec, members), size, Fraction(size * len(A) ** 5, bound)


def refine_stage(X: FqSet, Bs: list[FqSet], eps: Fraction) -> tuple[FqSet, int, Fraction]:
    """The second refinement, for 0 < eps < 1 (EpsilonOutOfRange otherwise),
    taken exactly as Fraction(eps): X' of max(1, ceil((1-eps)|X|)) elements
    minimizing |X' + S|, S = B1 + ... + Bk.  Returns (X', |X' + S|, the
    ratio |X' + S| |X|^(k-1) / (|X + B1| ... |X + Bk|), of a constant that
    depends on eps in an unspecified way)."""
    eps = Fraction(eps)
    if not 0 < eps < 1:
        raise EpsilonOutOfRange(f"eps must be in (0, 1), got {_clip(str(eps))}")
    total, denom = _plunnecke_terms(X, Bs)
    members, size = _min_sumset_subset(X, total, max(1, math.ceil((1 - eps) * len(X))))
    return (FqSet._from_sorted(X.spec, members), size,
            Fraction(size * len(X) ** (len(Bs) - 1), denom))


# ---------------------------------------------------------------------------
# proof trace
# ---------------------------------------------------------------------------


REFINE_EPSILON = Fraction(1, 4)  # proportion the refine stage may drop


@dataclass(frozen=True)
class ProofTrace:
    """All intermediates of the shifted-product growth pipeline on one input.

    a_prime and a_dprime are the two refinement stages (kept distinct from the
    input; nothing is renamed back).  The slice and points are built over
    X = a_dprime + alpha and Y = a_dprime, and `case` is the branch of the
    growth argument the input lands in, with re-verifiable witnesses and the
    exact certificates checked along that branch.
    """

    field: str
    input_set: tuple[int, ...]
    alpha: int
    a_prime: tuple[int, ...]
    a_dprime: tuple[int, ...]
    removed_minus_alpha: bool
    diff_ratio: Fraction
    iterated_ratio: Fraction
    gamma: Fraction
    slice: DyadicSlice
    points: PopularPoints
    case: str
    witnesses: dict
    certificates: dict

    def to_json(self) -> dict:
        sl, pts = self.slice, self.points
        return _jsonable({
            "field": self.field, "input": self.input_set, "alpha": self.alpha,
            "a_prime": self.a_prime, "a_dprime": self.a_dprime,
            "removed_minus_alpha": self.removed_minus_alpha,
            "diff_ratio": self.diff_ratio, "iterated_ratio": self.iterated_ratio,
            "gamma": self.gamma,
            "slice": {"D": sl.D, "N": sl.N, "L": sl.L, "M": sl.M,
                      "pair_count": sl.pairs.shape[0]},
            "points": {"x0": pts.x0, "y0": pts.y0, "A_x0": pts.A_x0, "B_y0": pts.B_y0,
                       "A_tilde": pts.A_tilde, "S": pts.S},
            "case": self.case, "witnesses": self.witnesses, "certificates": self.certificates,
        })


def _jsonable(obj):
    if isinstance(obj, Fraction):
        return f"{obj.numerator}/{obj.denominator}"
    if isinstance(obj, FqSet):
        return obj.members.tolist()
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.generic):
        return obj.item()
    return obj


def _first_ratio_quadruple(S: FqSet, r: int):
    """Lexicographically first (a, b, c, d) in S^4 with (a-b)/(c-d) = r, for
    r != 0, or None when r is not in R(S).  (a, b) is the first row-major
    cell of the difference ``_grid``, scanned in ``_blocks``, whose nonzero
    quotient (a-b)/r lies in S - S (the bitmask of ``set_op``).  Each c
    fixes d = c - (a-b)/r, so c is the first member with that d in S."""
    spec, s = S.spec, S.members
    diffs = set_op(S, S, "diff").bitmask
    a, b, op, _, _ = _grid(S, S, "diff")
    row = 0
    for block in _blocks(a, b, op):
        quotients = spec.div_arr(block, np.int64(r))
        hit = np.flatnonzero((block != 0) & diffs[quotients])
        if hit.size:
            i, j = divmod(int(hit[0]), s.size)
            need = int(quotients.flat[hit[0]])
            c = int(s[np.argmax(S.bitmask[spec.sub_arr(s, need)])])
            return int(s[row + i]), int(s[j]), c, spec.sub(c, need)
        row += len(block)
    return None


def run_proof_trace(A: FqSet, alpha: int, *, kappa: int = 1) -> ProofTrace:
    """Run the whole growth pipeline on (A, alpha) and classify the branch.

    Requires alpha != 0, 0 not in A and |A| >= 4; the derived popular sets must
    carry at least two elements each for the quotient-set machinery, otherwise
    the input is rejected as degenerate.  Structural comparisons in the case-4
    family are evaluated against the original input set, with kappa the slack
    for their implied constant, an integer >= 1 (ValueError otherwise).  The
    cover counts of the active branch are measured, never asserted
    (``_measure_covers``).
    """
    if _scalar(kappa, "kappa") < 1:
        raise ValueError(f"kappa must be at least 1, got {kappa!r}")
    spec = A.spec
    alpha = _scalar(alpha, "alpha", spec.q, nonzero=True)
    if 0 in A:
        raise ZeroInSet("translate or dilate the input away from 0 first")
    if len(A) < 4:
        raise TraceDegenerate("need |A| >= 4")

    A1, _, shift_ratio = shift_stage(A, alpha)
    neg_A1 = FqSet.from_iterable(spec, spec.neg_arr(A1.members))
    A2, _, refine_ratio = refine_stage(A1, [neg_A1, neg_A1, neg_A1], REFINE_EPSILON)

    minus_alpha = spec.neg(alpha)
    removed = minus_alpha in A2
    if removed:
        A2 = A2.without([minus_alpha])
    if len(A2) < 2:
        raise TraceDegenerate("refined subset too small after removing -alpha")

    shifted = set_op_size(A2, translate(A2, alpha), "prod")
    diff2 = set_op(A2, A2, "diff")
    diff4 = set_op_size(set_op(diff2, A2, "diff"), A2, "diff")  # A - A - A - A
    n2 = len(A2)
    diff_ratio = Fraction(len(diff2) * n2**7, shifted ** 8)
    iterated_ratio = Fraction(diff4 * n2**23, shifted ** 24)

    sl = dyadic_energy_slice(translate(A2, alpha), A2)
    pts = popular_points(sl)
    gamma = Fraction(n2**2 * shifted ** 4, sl.M**2)

    if len(pts.A_tilde) < 2 or len(pts.B_y0) < 2:
        raise TraceDegenerate("popular sets too small for quotient machinery")

    lhs, rhs = set_op_size(A2, A2, "ratio") * n2, shifted ** 2
    certificates = {
        "slice": slice_certificates(sl),
        "points_chain": points_certificates(sl, pts),
        "ratio_to_shift": {"lhs": lhs, "rhs": rhs, "ok": lhs <= rhs},
        "shift_stage_ratio": float(shift_ratio),
        "refine_stage_ratio": float(refine_ratio),
    }

    case, witnesses, case_certs = _classify(A, pts, kappa)
    certificates.update(case_certs)
    certificates["covers"] = _measure_covers(A2, shifted, sl, pts, gamma, case, witnesses)

    return ProofTrace(
        field=spec.descriptor,
        input_set=tuple(A.members.tolist()),
        alpha=alpha,
        a_prime=tuple(A1.members.tolist()),
        a_dprime=tuple(A2.members.tolist()),
        removed_minus_alpha=removed,
        diff_ratio=diff_ratio,
        iterated_ratio=iterated_ratio,
        gamma=gamma,
        slice=sl,
        points=pts,
        case=case,
        witnesses=witnesses,
        certificates=certificates,
    )


def _classify(A_input: FqSet, pts: PopularPoints, kappa: int):
    spec = A_input.spec
    At, B = pts.A_tilde, pts.B_y0
    R_A = quotient_set(At)
    named = {"A_tilde": (At, R_A), "B_y0": (B, quotient_set(B))}

    # case 1: the quotient sets differ; 1.1 when R(A_tilde) has a ratio R(B_y0) lacks
    for case, side, other in (("1.1", "A_tilde", "B_y0"), ("1.2", "B_y0", "A_tilde")):
        (S, R_S), (T, R_T) = named[side], named[other]
        extra = np.flatnonzero(R_S.bitmask & ~R_T.bitmask)
        if extra.size:
            r = int(extra[0])
            eq = set_op_size(T, dilate(T, r), "diff") == len(T) ** 2
            return case, {"r": r, "quadruple": _first_ratio_quadruple(S, r), "side": side}, {
                "rbcard_equality": {"set": other, "r": r, "ok": eq}}

    # case 2: 1 + R not contained in R; case 3: (A_tilde / x0) * R not contained in R
    failure = quotient_closure_failure(R_A, spec.div_arr(At.members, np.int64(pts.x0)))
    if failure is not None:
        i, j = failure
        rho = int(R_A.members[j])
        quad = _first_ratio_quadruple(At, rho)
        if i is None:
            r = spec.add(1, rho)
            S_a = pts.S.get(quad[0])
            cert = {"rho": rho, "r": r}
            if S_a is not None and len(S_a):
                cert["rbcard_equality"] = {
                    "set": "B_y0 - r*S_a", "r": r,
                    "ok": set_op_size(B, dilate(S_a, r), "diff") == len(B) * len(S_a)}
            return "2", {"rho": rho, "r": r, "quadruple": quad}, {"case2": cert}
        a = int(At.members[i])
        r = spec.mul(spec.div(a, pts.x0), rho)
        return "3", {"a": a, "rho": rho, "r": r, "quadruple": quad}, {
            "case3": {"r": r, "not_in_quotient": r not in R_A}}

    # case 4: R(A_tilde) is the subfield generated by A_tilde / x0
    if len(R_A) == spec.q:
        if len(At) ** 2 > spec.q:
            return "4.1", {"quotient": "full field", "a_tilde_size": len(At)}, {
                "case4": {"full_field": True, "above_sqrt_q": True}}
        return "4.2", {"quotient": "full field", "a_tilde_size": len(At)}, {
            "case4": {"full_field": True, "above_sqrt_q": False}}
    G0 = next((G for G in proper_subfields(spec) if len(R_A) == G.size and R_A == G.elements),
              None)
    if G0 is None:
        raise InvariantViolated("closure held but the quotient set is not a subfield")
    counts = coset_intersection_counts(A_input, G0)
    max_size = int(counts.max())
    if _restriction(max_size, G0.size, 25, 26, len(A_input), kappa)[0]:
        return "4.2", {"subfield_degree": G0.d, "max_coset_intersection": max_size}, {
            "case4": {"full_field": False, "sqrt_condition": True, "kappa": kappa}}
    # x0 != 0 (-alpha was removed from A''), so x0*G0 is the coset at log x0
    inter = int(counts[spec.log_table[pts.x0] % counts.size])
    cond = _restriction(inter, G0.size, 25, 26, len(A_input), kappa)[1]
    return "4.3", {"subfield_degree": G0.d, "x0_coset_intersection": inter}, {
        "case4": {"full_field": False, "sqrt_condition": False,
                  "exponent_condition": cond, "kappa": kappa}}


def _measure_covers(A2: FqSet, shifted_size: int, sl: DyadicSlice, pts: PopularPoints,
                    gamma: Fraction, case: str, witnesses: dict):
    """Measured covering counts for the translate families the active branch
    uses, with shifted_size = |A2(A2+alpha)|; the asymptotic covering bound
    carries an unknown constant, so counts and curves are reported side by
    side, never asserted."""
    spec = A2.spec
    s4 = shifted_size**4
    n2 = len(A2)
    L, N, M = sl.L, sl.N, sl.M
    tile_x = dilate(A2, pts.x0)
    tile_y = dilate(A2, pts.y0)
    out = []

    def measure(role, target, tile, sign, curve):
        if len(target) == 0:
            return
        count, _ = covering_number(target, tile, sign)
        out.append({"role": role, "target_size": len(target), "sign": sign,
                    "count": count, "curve": curve,
                    "ratio": float(count / curve) if curve else None})

    if case == "1.1":
        a, b, c, d = witnesses["quadruple"]
        curve = Fraction(s4, L * N**3)
        for w in (a, b, c):
            measure(f"w={w}*B_y0", dilate(pts.B_y0, w), tile_x, +1, curve)
        measure(f"w={d}*B_y0", dilate(pts.B_y0, d), tile_x, -1, curve)
    elif case in ("1.2", "4.1", "4.2"):
        sample = [int(v) for v in pts.B_y0.members[:4]]
        for i, w in enumerate(sample):
            sign = -1 if i == len(sample) - 1 else +1
            measure(f"w={w}*A_tilde", dilate(pts.A_tilde, w), tile_y, sign, gamma)
    elif case == "2":
        a, b, c, d = witnesses["quadruple"]
        curve_b = Fraction(s4, L * N**3)
        measure(f"w={c}*B_y0", dilate(pts.B_y0, c), tile_x, +1, curve_b)
        measure(f"w={d}*B_y0", dilate(pts.B_y0, d), tile_x, +1, curve_b)
        S_a = pts.S.get(a)
        if S_a is not None and len(S_a):
            measure(f"w={b}*S_a", dilate(S_a, b), tile_x, -1,
                    Fraction(n2**3 * s4, L * M * N**3))
    elif case == "3":  # rho != 0 (0 * rows stays in R), so the quadruple exists
        b, c, d, e = witnesses["quadruple"]
        S_d = pts.S.get(d)
        if S_d is not None and len(S_d):
            measure(f"w={e}*S_d", dilate(S_d, e), tile_x, +1,
                    Fraction(n2**3 * s4, L * M * N**3))
        # c is in A_tilde, so (x0, c) is a pair and its slope c/x0 is in D
        on_line = sl.line == np.searchsorted(sl.D.members, spec.div(c, pts.x0))
        measure(f"w={b}*P_line", dilate(FqSet._from_sorted(spec, sl.pairs[on_line, 0]), b),
                tile_x, -1, Fraction(s4, n2 * N**3))
    return out
