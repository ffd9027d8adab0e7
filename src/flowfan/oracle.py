"""Brute-force reference implementations for validating the cone engine.

Deliberately naive and size-capped. The geometry here (ray search by
solving tight constraint subsets, catalog enumeration over a full
coefficient box, lattice-point reachability on a grid) shares no code
with the cone or fan modules; only the graph and weighting layers are
reused, as those define the objects under test.
"""

from fractions import Fraction
from itertools import product
from math import gcd

from .errors import BoxTooSmall, DimensionTooLarge, NotPointed
from .graph import contract, cycle_basis, enumerate_cycles
from .weightings import base_weighting, enumeration_bound, shift_by_cycles


def _kernel(rows, dim):
    """Basis of the rational kernel of the rows (Fraction elimination)."""
    m = [[Fraction(x) for x in r] for r in rows]
    pivots = []
    row = 0
    for col in range(dim):
        piv = None
        for i in range(row, len(m)):
            if m[i][col] != 0:
                piv = i
                break
        if piv is None:
            continue
        m[row], m[piv] = m[piv], m[row]
        inv = m[row][col]
        m[row] = [x / inv for x in m[row]]
        for i in range(len(m)):
            if i != row and m[i][col] != 0:
                c = m[i][col]
                m[i] = [x - c * y for x, y in zip(m[i], m[row])]
        pivots.append(col)
        row += 1
    free = [c for c in range(dim) if c not in pivots]
    basis = []
    for fc in free:
        v = [Fraction(0)] * dim
        v[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = -m[r][fc]
        basis.append(tuple(v))
    return basis


def _rank(rows, dim):
    return dim - len(_kernel(rows, dim))


def _to_primitive(vec):
    den = 1
    for x in vec:
        den = den * x.denominator // gcd(den, x.denominator)
    ints = [int(x * den) for x in vec]
    g = 0
    for x in ints:
        g = gcd(g, x)
    return tuple(x // g for x in ints) if g > 1 else tuple(ints)


def oracle_extreme_rays(c):
    """Extreme rays by exhausting tight subsets of the inequalities.

    Every subset of constraints with a one-dimensional kernel yields a
    candidate; it survives if it satisfies the H-representation and its
    full tight set has corank one. Capped at ambient dimension 5.
    """
    d = c.ambient_dim
    if d > 5:
        raise DimensionTooLarge(f"oracle handles ambient dimension <= 5, got {d}")
    eq = list(c.equalities)
    ineq = list(c.inequalities)
    if d and len(_kernel(eq + ineq, d)) > 0:
        raise NotPointed("oracle ray search requires a pointed cone")
    found = set()
    for mask in range(1 << len(ineq)):
        rows = eq + [ineq[i] for i in range(len(ineq)) if mask >> i & 1]
        ker = _kernel(rows, d)
        if len(ker) != 1:
            continue
        v = _to_primitive(ker[0])
        for cand in (v, tuple(-x for x in v)):
            if any(sum(a * x for a, x in zip(row, cand)) != 0 for row in eq):
                continue
            if any(sum(b * x for b, x in zip(row, cand)) < 0 for row in ineq):
                continue
            tight = eq + [row for row in ineq
                          if sum(b * x for b, x in zip(row, cand)) == 0]
            if _rank(tight, d) == d - 1:
                found.add(cand)
    return tuple(sorted(found))


def _orthant_section_rays(eq_rows, dim):
    units = [tuple(1 if i == j else 0 for i in range(dim)) for j in range(dim)]

    class _C:
        ambient_dim = dim
        equalities = tuple(eq_rows)
        inequalities = tuple(units)

    return oracle_extreme_rays(_C())


def oracle_cone_catalog(g, box_radius):
    """Unpruned catalog: one cone per coefficient vector in the full box,
    plus the contraction recursion, canonicalised by the oracle's own ray
    search. Returns a frozenset of canonical keys."""
    base = base_weighting(g)
    needed = enumeration_bound(g, base)
    if box_radius < needed:
        raise BoxTooSmall(f"box radius {box_radius} below the proved bound {needed}")
    edges = g.edges()
    index = {e: i for i, e in enumerate(edges)}
    basis = cycle_basis(g)
    keys = set()
    for coeffs in product(range(-box_radius, box_radius + 1), repeat=len(basis)):
        w = shift_by_cycles(g, base, coeffs, basis)
        rows = []
        for cyc in basis:
            row = [0] * len(edges)
            for h in cyc.halves:
                row[index[g.edge_of(h)]] = w.values[h]
            rows.append(tuple(row))
        rays = _orthant_section_rays(rows, len(edges))
        keys.add(((), rays))
    for cyc in enumerate_cycles(g):
        cyc_edges = frozenset(cyc.edges(g))
        res = contract(g, cyc_edges)
        small = res.contracted.edges()
        pos = [index[e] for e in small]
        for _, rays in oracle_cone_catalog(res.contracted, box_radius):
            padded = []
            for r in rays:
                big = [0] * len(edges)
                for val, p in zip(r, pos):
                    big[p] = val
                padded.append(tuple(big))
            keys.add(((), tuple(sorted(padded))))
    return frozenset(keys)


def _shifted(arr, offsets):
    import numpy as np

    src, dst = [], []
    for o, n in zip(offsets, arr.shape):
        if abs(o) >= n:
            return None
        if o >= 0:
            src.append(slice(0, n - o))
            dst.append(slice(o, n))
        else:
            src.append(slice(-o, n))
            dst.append(slice(0, n + o))
    out = np.zeros_like(arr)
    out[tuple(dst)] = arr[tuple(src)]
    return out


def oracle_monoid_check(c, gens, bound):
    """True when every lattice point of the cone with coordinates in
    [-bound, bound] is a non-negative integer combination of ``gens``.

    Reachability is computed by dynamic programming on an integer grid.
    Partial sums must fit a working box around the targets; the box grows
    once on failure (up to a cell budget), so a False from generators that
    only reach their targets through very large intermediate points is
    possible in principle but does not occur at the scales checked here.
    """
    import numpy as np  # loaded here only, so importing the package stays numpy-free

    if bound > 6:
        raise ValueError("oracle monoid check is capped at bound 6")
    d = c.ambient_dim
    if d == 0:
        return True
    lo, hi = -bound, bound
    targets = []
    for p in product(range(lo, hi + 1), repeat=d):
        if (all(sum(a * x for a, x in zip(row, p)) == 0 for row in c.equalities)
                and all(sum(b * x for b, x in zip(row, p)) >= 0
                        for row in c.inequalities)):
            targets.append(p)
    if not targets:
        return True
    gvecs = [tuple(int(x) for x in gv) for gv in gens]
    if all(all(x >= 0 for x in gv) for gv in gvecs) and \
            all(all(x >= 0 for x in t) for t in targets):
        margins = [0]  # partial sums are coordinatewise monotone
    else:
        gmax = max((max(abs(x) for x in gv) for gv in gvecs), default=1)
        margins = [max(1, gmax), 3 * max(1, gmax)]
    for margin in margins:
        W = bound + margin
        if (2 * W + 1) ** d > 8_000_000:
            continue
        shape = (2 * W + 1,) * d
        reach = np.zeros(shape, dtype=bool)
        origin = (W,) * d
        reach[origin] = True
        changed = True
        while changed:
            changed = False
            for gv in gvecs:
                moved = _shifted(reach, gv)
                if moved is None:
                    continue
                new = moved & ~reach
                if new.any():
                    reach |= new
                    changed = True
        if all(reach[tuple(x + W for x in t)] for t in targets):
            return True
    return False
