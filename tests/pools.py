"""Shared test helpers: independent brute-force oracles (kept deliberately
naive and separate from the library's computation paths) and deterministic
instance pools."""

import math
import tracemalloc
from fractions import Fraction
from itertools import combinations, product
from unittest.mock import patch

import numpy as np

from fqlab import decompositions, set_algebra
from fqlab.finite_field import FieldSpec, arith, build_field, parse_descriptor
from fqlab.set_algebra import FqSet
from fqlab.survey import MAX_MINIMIZERS

# the acceptance field list; the largest field participates at a reduced rate
POOL_DESCRIPTORS = ("2^2", "5^1", "7^1", "2^3", "3^2", "11^1", "13^1", "2^4",
                    "5^2", "3^3", "2^6", "3^4", "11^2", "5^3")
LARGE_DESCRIPTOR = "2^10"


def pool_specs() -> list[FieldSpec]:
    return [parse_descriptor(d) for d in POOL_DESCRIPTORS]


def pool_field(index: int, every_large: int = 20) -> FieldSpec:
    if index % every_large == every_large - 1:
        return parse_descriptor(LARGE_DESCRIPTOR)
    return parse_descriptor(POOL_DESCRIPTORS[index % len(POOL_DESCRIPTORS)])


def rng_for(tag: int, seed: int, index: int) -> np.random.Generator:
    return np.random.default_rng([seed, tag, index])


def draw_set(rng, spec, size, nonzero=False) -> FqSet:
    lo = 1 if nonzero else 0
    pool = np.arange(lo, spec.q, dtype=np.int64)
    return FqSet.from_iterable(spec, rng.choice(pool, size=min(size, pool.size),
                                                replace=False))


def peak_bytes(fn):
    """(peak, fn()): the tracemalloc peak of the bytes allocated while fn
    runs, and what fn returned."""
    tracemalloc.start()
    try:
        result = fn()
        return tracemalloc.get_traced_memory()[1], result
    finally:
        tracemalloc.stop()


EXACT, GREEDY = math.inf, 0  # search-size limits that force one path of a search


def on_path(limit, search, *args):
    """search(*args) with decompositions.EXACT_SEARCH_LIMIT patched to limit:
    EXACT takes every size to the exact or exhaustive path, GREEDY none."""
    with patch.object(decompositions, "EXACT_SEARCH_LIMIT", limit):
        return search(*args)


_plan = set_algebra._plan


def force_backend(monkeypatch, name: str) -> list[str]:
    """Replace ``set_algebra._plan`` so that the backend ``name`` serves every
    pair op that ``set_algebra._backends`` says it can serve, and the real
    plan serves the rest.  ``name`` may also be "triangle": the grid, on the
    ops whose ``set_algebra._grid`` it reports as a triangle (the sum or
    product of a set with itself) and no other.  Returns the list of the
    kinds of the ops ``name`` served, appended as they run."""
    served = []

    def serves(A, B, kind, support):
        if name == "triangle":
            return set_algebra._grid(A, B, kind)[-1]
        return name in set_algebra._backends(A, B, kind, support)

    def forced(A, B, kind, support):
        if serves(A, B, kind, support):
            served.append(kind)
            return "grid" if name == "triangle" else name
        return _plan(A, B, kind, support)
    monkeypatch.setattr(set_algebra, "_plan", forced)
    return served


# ---------------------------------------------------------------------------
# independent oracles (scalar arithmetic, literal definitions)
# ---------------------------------------------------------------------------


def naive_add(spec: FieldSpec, a: int, b: int, sign: int = 1) -> int:
    """a + sign*b digit by digit in base p, without the library's addition tables."""
    out, pk = 0, 1
    for _ in range(spec.m):
        out += (a // pk % spec.p + sign * (b // pk % spec.p)) % spec.p * pk
        pk *= spec.p
    return out


def naive_sub(spec: FieldSpec, a: int, b: int) -> int:
    return naive_add(spec, a, b, -1)


def naive_neg(spec: FieldSpec, a: int) -> int:
    return naive_add(spec, 0, a, -1)


def _naive_divisible(num, den, p) -> bool:
    """True if the monic den divides num over F_p, by schoolbook long division
    (low-degree-first coefficient tuples)."""
    rem = list(num)
    for shift in range(len(num) - len(den), -1, -1):
        lead = rem[shift + len(den) - 1]
        for i, d in enumerate(den):
            rem[shift + i] = (rem[shift + i] - lead * d) % p
    return not any(rem)


def naive_is_irreducible(poly: tuple[int, ...], p: int) -> bool:
    """Trial division of the monic poly by every monic polynomial of degree
    1..deg(poly)/2."""
    return not any(_naive_divisible(poly, low + (1,), p)
                   for d in range(1, (len(poly) - 1) // 2 + 1)
                   for low in product(range(p), repeat=d))


def naive_smallest_irreducible(p: int, m: int) -> tuple[int, ...]:
    """The full scan: every monic candidate of degree m in lexicographic order
    of its low-degree-first coefficients, constant term 0 included."""
    for low in product(range(p), repeat=m):
        if naive_is_irreducible(low + (1,), p):
            return low + (1,)
    raise AssertionError(f"no monic irreducible of degree {m} over F_{p}")


def naive_set_op(spec: FieldSpec, A, B, kind: str) -> list[int]:
    out = set()
    for a in A:
        for b in B:
            if kind == "sum":
                out.add(naive_add(spec, a, b))
            elif kind == "diff":
                out.add(naive_sub(spec, a, b))
            elif kind == "prod":
                out.add(arith(spec, "mul", a, b))
            elif kind == "ratio":
                out.add(arith(spec, "div", a, b))
    return sorted(out)


def naive_pair_counts(spec: FieldSpec, A, B, kind: str) -> list[int]:
    """counts[v] = #{(a, b) in A x B : a ∘ b = v} for ∘ = kind, length q."""
    op = {"sum": naive_add, "diff": naive_sub,
          "prod": lambda spec, a, b: arith(spec, "mul", a, b),
          "ratio": lambda spec, a, b: arith(spec, "div", a, b)}[kind]
    counts = [0] * spec.q
    for a in A:
        for b in B:
            counts[op(spec, a, b)] += 1
    return counts


def naive_shifted_product(spec: FieldSpec, A, alpha: int) -> list[int]:
    return sorted({arith(spec, "mul", a, naive_add(spec, b, alpha))
                   for a in A for b in A})


def naive_additive_energy(spec: FieldSpec, A) -> int:
    """Literal quadruple count a1 + a2 = a3 + a4 (broadcast equality)."""
    sums = np.array([naive_add(spec, a, b) for a in A for b in A])
    return int((sums[:, None] == sums[None, :]).sum())


def naive_multiplicative_energy(spec: FieldSpec, X, Y) -> int:
    """Literal quadruple count x1*y1 = x2*y2."""
    prods = np.array([arith(spec, "mul", x, y) for x in X for y in Y])
    return int((prods[:, None] == prods[None, :]).sum())


def naive_quotient_set(spec: FieldSpec, X) -> list[int]:
    out = set()
    for x1 in X:
        for x2 in X:
            for x3 in X:
                for x4 in X:
                    if x3 != x4:
                        out.add(arith(spec, "div", naive_sub(spec, x1, x2),
                                      naive_sub(spec, x3, x4)))
    return sorted(out)


def naive_quotient_closure_failure(spec: FieldSpec, R, rows):
    """The literal row-major scan: (None, j) for the first R[j] with 1 + R[j]
    outside R, else (i, j) for the first rows[i] * R[j] outside R, else None."""
    members = set(R)
    for j, rho in enumerate(R):
        if naive_add(spec, 1, rho) not in members:
            return None, j
    for i, x in enumerate(rows):
        for j, rho in enumerate(R):
            if arith(spec, "mul", x, rho) not in members:
                return i, j
    return None


def naive_first_collision(spec: FieldSpec, X1, X2, r: int):
    """The first value of x1 - r*x2 to repeat, scanning X1 x X2 row by row in
    ascending order: {"first": the pair where it first occurred, "second":
    the pair repeating it}, or None when all values differ."""
    seen: dict[int, tuple[int, int]] = {}
    for x1 in sorted(X1):
        for x2 in sorted(X2):
            v = naive_sub(spec, x1, arith(spec, "mul", r, x2))
            if v in seen:
                return {"first": seen[v], "second": (x1, x2)}
            seen[v] = (x1, x2)
    return None


def naive_first_ratio_quadruple(spec: FieldSpec, S, r: int):
    """Lexicographically first (a, b, c, d) in S^4 with (a-b)/(c-d) = r, r != 0:
    the first (c, d) of every nonzero difference in a dict, then the first
    (a, b) whose (a-b)/r has one; None when r is not in R(S)."""
    S = sorted(S)
    first_cd: dict[int, tuple[int, int]] = {}
    for c in S:
        for d in S:
            if c != d:
                first_cd.setdefault(naive_sub(spec, c, d), (c, d))
    for a in S:
        for b in S:
            if a == b:
                continue
            need = arith(spec, "div", naive_sub(spec, a, b), r)
            if need in first_cd:
                return (a, b, *first_cd[need])
    return None


def naive_coset_profile(spec: FieldSpec, A) -> list[tuple[int, int, int, int]]:
    """(d, |G|, rep, |A ∩ cG|) for every distinct dilate cG of every proper
    subfield G = {x : x^(p^d) = x}, rep the smallest c in F_q^* giving cG;
    sorted by (d, rep)."""
    members = set(A)
    out = []
    for d in range(1, spec.m):
        if spec.m % d:
            continue
        G = [x for x in range(spec.q) if arith(spec, "pow", x, spec.p**d) == x]
        reps: dict[frozenset, int] = {}
        for c in range(1, spec.q):  # ascending, so the first c naming cG is its rep
            reps.setdefault(frozenset(arith(spec, "mul", c, g) for g in G), c)
        out.extend((d, len(G), c, len(cG & members)) for cG, c in reps.items())
    return sorted(out)


def naive_cover_min(spec: FieldSpec, target, tile, sign: int) -> int:
    """Exact minimum covering count by plain recursive search: branch on every
    translate hitting the first uncovered element (independent of the
    library's breadth-first search over covered-target masks: no bit masks,
    no dominated-mask pruning, no level sets).  Shifts with equal masks are
    one branch."""
    tile_eff = [naive_neg(spec, t) for t in tile] if sign < 0 else list(tile)
    target = list(target)
    universe = frozenset(target)
    candidates = sorted({naive_sub(spec, e, t) for e in target for t in tile_eff})
    masks = {frozenset(naive_add(spec, c, t) for t in tile_eff) & universe
             for c in candidates}
    masks = sorted(masks - {frozenset()}, key=sorted)

    best = len(target) + 1

    def search(covered: frozenset, used: int):
        nonlocal best
        if used >= best:
            return
        if covered == universe:
            best = used
            return
        pivot = min(universe - covered)
        for m in masks:
            if pivot in m:
                search(covered | m, used + 1)

    search(frozenset(), 0)
    assert best <= len(target)
    return best


def naive_greedy_cover(spec: FieldSpec, target, tile, sign: int):
    """Greedy cover by literal recomputation: every step scores each shift t
    whose translate t + sign*tile meets the target, in ascending t, by the
    number of still uncovered elements that translate holds, counted afresh,
    and takes the first maximum.  Returns (count, shifts)."""
    tile_eff = [naive_neg(spec, t) for t in tile] if sign < 0 else list(tile)
    candidates = sorted({naive_sub(spec, e, t) for e in target for t in tile_eff})
    translate = {c: {naive_add(spec, c, t) for t in tile_eff} for c in candidates}
    uncovered, shifts = set(target), []
    while uncovered:
        gains = [len(translate[c] & uncovered) for c in candidates]
        best = candidates[gains.index(max(gains))]
        shifts.append(best)
        uncovered -= translate[best]
    return len(shifts), shifts


def naive_greedy_min_subset(spec: FieldSpec, members, floor: int, S=None):
    """Greedy worst-element removal by literal recomputation: repeatedly drop
    the element whose removal leaves the smallest X' + S (or X' - X' when S is
    None), the first minimum in ascending encoding, until floor elements
    remain.  Returns (subset, size)."""
    current = sorted(members)
    if S is None:
        table = {(a, b): naive_sub(spec, a, b) for a in current for b in current}

        def size(sub):
            return len({table[a, b] for a in sub for b in sub})
    else:
        table = {(x, s): naive_add(spec, x, s) for x in current for s in S}

        def size(sub):
            return len({table[x, s] for x in sub for s in S})
    while len(current) > floor:
        sizes = [size(current[:i] + current[i + 1:]) for i in range(len(current))]
        del current[sizes.index(min(sizes))]
    return current, size(current)


def naive_dyadic_slice(spec: FieldSpec, X, Y) -> dict:
    """The dyadic slice by literal definition: the ratio counts r(xi) in a
    dict by scalar division, each count's level c.bit_length() - 1, the level
    of largest squared mass (the smallest on ties), the slopes whose count
    lies in [N, 2N), less the largest one when a flat spectrum makes L*N =
    |X||Y|, and the pairs (x, y) on those slopes in ascending order.  Returns
    N, D (ascending) and the pairs."""
    r: dict[int, int] = {}
    for x in X:
        for y in Y:
            xi = arith(spec, "div", y, x)
            r[xi] = r.get(xi, 0) + 1
    levels: dict[int, int] = {}
    for c in r.values():
        j = c.bit_length() - 1
        levels[j] = levels.get(j, 0) + c * c
    best = max(levels.values())
    N = 1 << min(j for j, s in levels.items() if s == best)
    D = sorted(xi for xi, c in r.items() if N <= c < 2 * N)
    if len(D) * N == len(X) * len(Y) and len(D) >= 2:
        D = D[:-1]
    on_slice = set(D)
    pairs = sorted((x, y) for x in X for y in Y if arith(spec, "div", y, x) in on_slice)
    return {"N": N, "D": D, "pairs": pairs}


def _naive_popularity(f: dict, K: int):
    """Keys with f >= K/(2|domain|) by Fraction comparison, ascending; returns
    (kept, threshold, kept mass)."""
    threshold = Fraction(K, 2 * len(f))
    kept = sorted(x for x, c in f.items() if c >= threshold)
    return kept, threshold, sum(f[x] for x in kept)


def naive_popular_points(spec: FieldSpec, pairs) -> dict:
    """The popular-point chain over a slice's point pairs by literal
    definition: rows, columns and lines as Python sets, slopes by scalar
    division, the line/column incidence and the double sum by set
    intersection, the first strict maximum over ascending (x, y).  Returns the
    PopularPoints fields as ints, sorted lists, a dict S in ascending z and the
    constants dict."""
    pairs = [(int(x), int(y)) for x, y in pairs]
    slope = {(x, y): arith(spec, "div", y, x) for x, y in pairs}
    by_x: dict[int, set] = {}
    by_y: dict[int, set] = {}
    line_x: dict[int, set] = {}
    for x, y in pairs:
        by_x.setdefault(x, set()).add(y)
        by_y.setdefault(y, set()).add(x)
        line_x.setdefault(slope[x, y], set()).add(x)

    f_rows = {y: len(xs) for y, xs in by_y.items()}
    rows, t_rows, mass_rows = _naive_popularity(f_rows, len(pairs))
    f_cols = {x: len(ys.intersection(rows)) for x, ys in by_x.items()}
    f_cols = {x: c for x, c in f_cols.items() if c}
    cols, t_cols, mass_cols = _naive_popularity(f_cols, mass_rows)
    row_set, col_set = set(rows), set(cols)
    f_slopes: dict[int, int] = {}
    for x, y in pairs:
        if x in col_set and y in row_set:
            f_slopes[slope[x, y]] = f_slopes.get(slope[x, y], 0) + 1
    mass_dd = sum(f_slopes.values())
    slopes, t_slopes, _ = _naive_popularity(f_slopes, mass_dd)

    C = {(xi, y): len(xs & by_y[y]) for xi, xs in line_x.items() for y in rows}
    sigma, best = 0, (-1, None, None)
    for x in cols:
        for y in rows:
            total = sum(C[slope[x, z], y] for z in by_x[x])
            sigma += total
            if total > best[0]:
                best = (total, x, y)
    inner_max, x0, y0 = best

    f_z = {z: C[slope[x0, z], y0] for z in sorted(by_x[x0]) if C[slope[x0, z], y0]}
    tilde, t_z, _ = _naive_popularity(f_z, inner_max)
    S = {z: sorted(line_x[slope[x0, z]] & by_y[y0]) for z in tilde}
    constants = {
        "p_size": len(pairs), "row_threshold": t_rows, "row_domain": len(f_rows),
        "row_mass": mass_rows, "col_threshold": t_cols, "col_domain": len(f_cols),
        "col_mass": mass_cols, "slope_threshold": t_slopes, "slope_domain": len(f_slopes),
        "slope_cap": max(f_slopes.values()), "slope_mass": mass_dd,
        "d_popular_size": len(slopes), "sigma": sigma, "inner_max": inner_max,
        "tilde_threshold": t_z, "tilde_domain": len(f_z), "tilde_cap": max(f_z.values()),
        "pigeonhole_factor": Fraction(1, 2), "pigeonhole_steps": 4,
        "c_rows": Fraction(1, 2), "c_cols": Fraction(1, 4),
        "c_tilde": Fraction(1, 16384), "c_slice_sets": Fraction(1, 8192),
    }
    return {"x0": x0, "y0": y0, "A_x0": sorted(by_x[x0]), "B_y0": sorted(by_y[y0]),
            "A_tilde": tilde, "S": S, "y_popular": rows, "x_popular": cols,
            "d_popular": slopes, "constants": constants}


def naive_min_expander(spec: FieldSpec, k: int, alpha: int, nonzero: bool):
    """(minimum of |A(A+alpha)| over the k-subsets A of F_q or F_q^*, the
    first MAX_MINIMIZERS subsets that reach it in combinations order), by
    listing every subset."""
    universe = range(1, spec.q) if nonzero else range(spec.q)
    best, minimizers = None, []
    for A in combinations(universe, k):
        size = len(naive_shifted_product(spec, A, alpha))
        if best is None or size < best:
            best, minimizers = size, [A]
        elif size == best and len(minimizers) < MAX_MINIMIZERS:
            minimizers.append(A)
    return best, minimizers


def naive_exhaustive_min_subset(spec: FieldSpec, members, floor: int, S=None):
    """The floor-subset X' of members with the fewest X' + S (or X' - X' when
    S is None), the first minimum in combinations order, by scalar sets.
    Returns (subset, size)."""
    def size(sub):
        if S is None:
            return len({naive_sub(spec, a, b) for a in sub for b in sub})
        return len({naive_add(spec, x, s) for x in sub for s in S})

    best = min(combinations(sorted(members), floor), key=size)
    return list(best), size(best)


def verify_trace_case(tr, spec) -> None:
    """Re-evaluate the case predicate of a proof trace from its stored sets and
    witnesses; raises AssertionError on any mismatch."""
    import numpy as np

    from fqlab.set_algebra import quotient_set

    At, B = tr.points.A_tilde, tr.points.B_y0
    R_A, R_B = quotient_set(At), quotient_set(B)
    w = tr.witnesses
    if tr.case == "1.1":
        a, b, c, d = w["quadruple"]
        assert all(v in At for v in (a, b, c, d))
        assert spec.div(spec.sub(a, b), spec.sub(c, d)) == w["r"]
        assert w["r"] in R_A and w["r"] not in R_B
    elif tr.case == "1.2":
        a, b, c, d = w["quadruple"]
        assert all(v in B for v in (a, b, c, d))
        assert spec.div(spec.sub(a, b), spec.sub(c, d)) == w["r"]
        assert w["r"] in R_B and w["r"] not in R_A
    elif tr.case == "2":
        assert R_A == R_B
        assert w["rho"] in R_A and spec.add(1, w["rho"]) not in R_A
        a, b, c, d = w["quadruple"]
        assert spec.div(spec.sub(a, b), spec.sub(c, d)) == w["rho"]
    elif tr.case == "3":
        assert R_A == R_B
        shifted = spec.add_arr(R_A.members, np.int64(1))
        assert R_A.bitmask[shifted].all()
        assert w["a"] in At and w["rho"] in R_A
        assert spec.mul(spec.div(w["a"], tr.points.x0), w["rho"]) not in R_A
    elif tr.case in ("4.1", "4.2", "4.3"):
        assert R_A == R_B
        shifted = spec.add_arr(R_A.members, np.int64(1))
        assert R_A.bitmask[shifted].all()
        scaled = spec.div_arr(At.members, np.int64(tr.points.x0))
        grid = spec.mul_arr(scaled[:, None], R_A.members[None, :])
        assert R_A.bitmask[grid].all()
        if tr.case == "4.1":
            assert len(R_A) == spec.q and len(At) ** 2 > spec.q
        elif tr.case == "4.2":
            full = tr.certificates["case4"]["full_field"]
            if full:
                assert len(R_A) == spec.q and len(At) ** 2 <= spec.q
            else:
                kappa = tr.certificates["case4"]["kappa"]
                assert len(R_A) < spec.q
                assert w["max_coset_intersection"] ** 2 <= kappa ** 2 * len(R_A)
        else:
            assert len(R_A) < spec.q
    else:
        raise AssertionError(f"unknown case label {tr.case}")
