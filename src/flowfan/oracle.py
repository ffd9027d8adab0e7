"""Brute-force reference implementations for validating the cone engine.

Deliberately naive and size-capped. The geometry here (ray search by
solving tight constraint subsets, catalog enumeration over a full
coefficient box, lattice-point reachability on a grid) shares no code
with the cone or fan modules; only the graph and weighting layers are
reused, as those define the objects under test.
"""

from itertools import product
from math import gcd, lcm

from .errors import BoxTooSmall, BudgetExceeded, DimensionTooLarge, NotPointed
from .graph import contract, cycle_basis, enumerate_cycles
from .weightings import base_weighting, enumeration_bound, shift_by_cycles


def _kernel(rows, dim):
    """Basis of the rational kernel of the rows, as integer vectors.

    Fraction-free Gauss-Jordan elimination: a row is cleared against the
    pivot row p at column c as ``p[c] * row - row[c] * p`` and divided by
    the gcd of its entries. For each free column f the basis vector is
    ``L`` at f and ``-m[r][f] * L / m[r][c_r]`` at the pivot column c_r of
    each reduced row r, with ``L`` the lcm of the pivots.
    """
    m = [list(r) for r in rows]
    pivots = []
    for col in range(dim):
        top = len(pivots)
        piv = next((i for i in range(top, len(m)) if m[i][col] != 0), None)
        if piv is None:
            continue
        m[top], m[piv] = m[piv], m[top]
        p = m[top]
        a = p[col]
        for i, r in enumerate(m):
            b = r[col]
            if i != top and b != 0:
                r = [a * x - b * y for x, y in zip(r, p)]
                g = gcd(*r)
                m[i] = [x // g for x in r] if g > 1 else r
        pivots.append(col)
    L = lcm(*(m[r][c] for r, c in enumerate(pivots)))
    basis = []
    for f in range(dim):
        if f in pivots:
            continue
        v = [0] * dim
        v[f] = L
        for r, c in enumerate(pivots):
            v[c] = -m[r][f] * (L // m[r][c])
        basis.append(tuple(v))
    return basis


def _rank(rows, dim):
    return dim - len(_kernel(rows, dim))


def _to_primitive(vec):
    g = gcd(*vec)
    return tuple(x // g for x in vec) if g > 1 else tuple(vec)


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


# the most coefficient vectors oracle_cone_catalog walks in one box, of
# the scale of FLOW_LIMIT and MONOID_POINT_LIMIT
ORACLE_BOX_LIMIT = 1_000_000


def oracle_cone_catalog(g, box_radius):
    """Unpruned catalog: one cone per coefficient vector in the full box,
    plus the contraction recursion, canonicalised by the oracle's own ray
    search. Returns a frozenset of canonical keys.

    A box of more than ``ORACLE_BOX_LIMIT`` points, ``(2 r + 1)^h`` for
    radius r and first Betti number h, raises ``BudgetExceeded`` with that
    count before any point is visited."""
    base = base_weighting(g)
    needed = enumeration_bound(g, base)
    if box_radius < needed:
        raise BoxTooSmall(f"box radius {box_radius} below the proved bound {needed}")
    basis = cycle_basis(g)
    points = (2 * box_radius + 1) ** len(basis)
    if points > ORACLE_BOX_LIMIT:
        raise BudgetExceeded("oracle_cone_catalog: box points", points,
                             ORACLE_BOX_LIMIT)
    edges = g.edges()
    index = {e: i for i, e in enumerate(edges)}
    keys = set()
    for coeffs in product(range(-box_radius, box_radius + 1), repeat=len(basis)):
        w = shift_by_cycles(g, base, coeffs)
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
    # the (2 bound + 1)^d grid points as rows, in itertools.product order
    axis = np.arange(-bound, bound + 1, dtype=np.int64)
    grid = np.stack(np.meshgrid(*[axis] * d, indexing="ij"), axis=-1).reshape(-1, d)
    exact = None  # the grid as Python ints, for rows whose products could overflow
    keep = np.ones(len(grid), dtype=bool)
    for rows, test in ((c.equalities, np.equal), (c.inequalities, np.greater_equal)):
        for row in rows:
            if max(abs(a) for a in row) * bound * d <= np.iinfo(np.int64).max:
                values = grid @ np.array(row, dtype=np.int64)
            else:
                if exact is None:
                    exact = grid.astype(object)
                values = exact @ np.array(row, dtype=object)
            keep &= test(values, 0)
    targets = grid[keep]
    if not len(targets):
        return True
    gvecs = [tuple(int(x) for x in gv) for gv in gens]
    if all(all(x >= 0 for x in gv) for gv in gvecs) and (targets >= 0).all():
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
        if reach[tuple((targets + W).T)].all():
            return True
    return False
