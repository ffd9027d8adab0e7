"""Exact rational polyhedral cones in the edge space of a graph.

A cone is held by its H-representation: integer equality rows a (a.t = 0)
and inequality rows b (b.t >= 0). The V-representation (extreme rays of
the pointed part plus a lineality basis) is computed lazily by a
deterministic double description pass: constraints are inserted in sorted
order, candidate rays from crossing pairs are kept only when an exact rank
test certifies extremality, and rays are canonicalised by reduction
modulo the lineality span. All arithmetic is arbitrary-precision integer.

After every insertion the pass holds the rows inserted so far, a
lineality basis and the extreme rays of the cone those rows cut out. A
solved pointed cone is such a state with an empty lineality, so a pass
can resume from it and insert only further rows; the extremality test
still sees every row, and the rays are those of a pass from scratch.
``Cone.intersect`` resumes from the solved pointed operand with fewer
rays, which makes the pairwise check of a fan cheap.

A cone caches what it computes: its rays and lineality, its dimension,
and a tight-set table of its ray frozenset plus, per inequality row, the
frozenset of rays on that row's hyperplane. Face enumeration and the
face test read the table instead of taking dot products. The caches rely
on the rows never changing after construction, which nothing in this
package does. Intersections and faces are built from rows that are
normalized already, without passing them through ``__init__`` again.

The cone attached to a weighting w lives in the non-negative orthant of
Q^E and is cut out by one equality per basis cycle, with entries the
source-half values of w along the cycle; linearity of the constraint in
the cycle class makes basis cycles sufficient.
"""

from dataclasses import dataclass
from itertools import product
from math import lcm

from .errors import AmbientMismatch, FlowFanError, NotPointed
from .graph import cycle_basis
from . import linalg
from .linalg import dot, int_rank, is_zero, primitive, reduce_mod, rref_int, sign_normalized


def _unit_rows(dim):
    return tuple(tuple(1 if i == j else 0 for i in range(dim)) for j in range(dim))


def _normalize_rows(rows, equalities):
    norm = sign_normalized if equalities else primitive
    distinct = {norm(r) for r in rows}
    return tuple(sorted(r for r in distinct if not is_zero(r)))


def _extreme(dim, lin_count, tight_rows):
    return int_rank(tight_rows) == dim - lin_count - 1


def _double_description(dim, equalities, inequalities, start=None):
    """Return (lineality rref rows, sorted extreme rays of the pointed part).

    ``start=(equalities, inequalities, rays)`` resumes from a pointed cone
    whose sorted primitive extreme rays are known: its rows and rays seed
    the pass, the lineality starts empty, and ``equalities`` and
    ``inequalities`` are then inserted as usual. The result is that of a
    pass from scratch over all the rows.
    """
    if start is None:
        lin = [list(r) for r in _unit_rows(dim)]
        rays, eq_rows, ineq_rows = [], [], []
    else:
        lin = []
        eq_rows, ineq_rows, rays = (list(x) for x in start)

    def cleanup(candidates, check_new):
        lin_rref = rref_int(lin)
        out = []
        seen = set()
        for r, is_new in candidates:
            rr = primitive(reduce_mod(r, lin_rref))
            if is_zero(rr) or rr in seen:
                continue
            if check_new and is_new:
                tight = list(eq_rows) + [q for q in ineq_rows if dot(q, rr) == 0]
                if not _extreme(dim, len(lin), tight):
                    continue
            seen.add(rr)
            out.append(rr)
        return sorted(out)

    def insert(a, is_eq):
        nonlocal lin, rays
        ds = [dot(a, b) for b in lin]
        hit = next((i for i, d in enumerate(ds) if d != 0), None)
        if hit is not None:
            b0, d0 = lin[hit], ds[hit]
            if d0 < 0:
                b0, d0 = [-x for x in b0], -d0
            lin = [primitive(tuple(d0 * x - ds[i] * y for x, y in zip(b, b0)))
                   for i, b in enumerate(lin) if i != hit]
            lin = [list(b) for b in lin]
            moved = [(tuple(d0 * x - dot(a, r) * y for x, y in zip(r, b0)), False)
                     for r in rays]
            if not is_eq:
                moved.append((tuple(b0), False))
            (eq_rows if is_eq else ineq_rows).append(a)
            rays = cleanup(moved, check_new=False)
            return
        plus, zero, minus = [], [], []
        for r in rays:
            d = dot(a, r)
            (plus if d > 0 else zero if d == 0 else minus).append((r, d))
        kept = [(r, False) for r, _ in zero]
        if not is_eq:
            kept += [(r, False) for r, _ in plus]
        combos = [(tuple(dp * x - dm * y for x, y in zip(rm, rp)), True)
                  for rp, dp in plus for rm, dm in minus]
        (eq_rows if is_eq else ineq_rows).append(a)
        rays = cleanup(kept + combos, check_new=True)

    for a in equalities:
        insert(a, True)
    for a in inequalities:
        insert(a, False)
    return rref_int(lin), tuple(rays)


class Cone:
    """Rational polyhedral cone given by equality and inequality rows.

    ``labels``, when present, name the ambient coordinates (edge keys for
    cones in the edge space). Rays and lineality are computed on demand and
    cached; instances are immutable afterwards.
    """

    __slots__ = ("ambient_dim", "labels", "equalities", "inequalities",
                 "_lineality", "_rays", "_tight", "_dim")

    def __init__(self, ambient_dim, equalities=(), inequalities=(), labels=None):
        self.ambient_dim = ambient_dim
        self.labels = tuple(labels) if labels is not None else None
        self.equalities = _normalize_rows(equalities, equalities=True)
        self.inequalities = _normalize_rows(inequalities, equalities=False)
        self._rays = None
        self._lineality = None
        self._tight = None
        self._dim = None

    @classmethod
    def _pointed(cls, ambient_dim, labels, equalities, inequalities, rays):
        """A pointed cone with known rays from rows that are normalized and
        sorted already, as ``__init__`` leaves them; skips ``__init__``."""
        cone = cls.__new__(cls)
        cone.ambient_dim = ambient_dim
        cone.labels = labels
        cone.equalities = equalities
        cone.inequalities = inequalities
        cone._rays = rays
        cone._lineality = ()
        cone._tight = None
        cone._dim = None
        return cone

    @classmethod
    def orthant_section(cls, ambient_dim, equalities=(), labels=None):
        """The cone {t >= 0 : equalities . t = 0} inside the orthant."""
        return cls(ambient_dim, equalities, _unit_rows(ambient_dim), labels)

    @classmethod
    def from_generators(cls, ambient_dim, vectors, labels=None):
        """Cone spanned by integer vectors, via the dual H-representation."""
        lin, rays = _double_description(
            ambient_dim, (), _normalize_rows(vectors, equalities=False))
        return cls(ambient_dim, equalities=lin, inequalities=rays, labels=labels)

    def _compute(self):
        if self._rays is None:
            lin, rays = _double_description(
                self.ambient_dim, self.equalities, self.inequalities)
            self._lineality = lin
            self._rays = rays

    def rays(self):
        """Extreme rays of the pointed part, primitive, reduced modulo the
        lineality span, sorted."""
        self._compute()
        return self._rays

    def lineality(self):
        self._compute()
        return self._lineality

    def _tight_sets(self):
        """(frozenset of the rays, one frozenset per inequality row of the
        rays on its hyperplane), built on first use."""
        if self._tight is None:
            rays = self.rays()
            self._tight = (frozenset(rays),
                           tuple(frozenset(r for r in rays if dot(q, r) == 0)
                                 for q in self.inequalities))
        return self._tight

    def is_pointed(self):
        return not self.lineality()

    def dim(self):
        if self._dim is None:
            self._compute()
            self._dim = int_rank(list(self._lineality) + list(self._rays))
        return self._dim

    def contains(self, v):
        return (all(dot(a, v) == 0 for a in self.equalities)
                and all(dot(b, v) >= 0 for b in self.inequalities))

    def contains_cone(self, other):
        gens = list(other.rays())
        for b in other.lineality():
            gens += [b, tuple(-x for x in b)]
        return all(self.contains(g) for g in gens)

    def key(self):
        return canonical_key(self)

    def intersect(self, other):
        """The intersection cone. When an operand's rays are known and it is
        pointed, the rays are computed at once by resuming double
        description from the one with fewer rays; otherwise lazily."""
        if self.ambient_dim != other.ambient_dim or self.labels != other.labels:
            raise AmbientMismatch("cones live in different ambient spaces")
        solved = [c for c in (self, other)
                  if c._rays is not None and not c._lineality]
        if not solved:
            return Cone(self.ambient_dim,
                        self.equalities + other.equalities,
                        self.inequalities + other.inequalities,
                        self.labels)
        start = min(solved, key=lambda c: len(c._rays))
        rest = other if start is self else self
        eqs = set(start.equalities)
        ineqs = set(start.inequalities)
        _, rays = _double_description(
            self.ambient_dim,
            [a for a in rest.equalities if a not in eqs],
            [b for b in rest.inequalities if b not in ineqs],
            start=(start.equalities, start.inequalities, start._rays))
        return Cone._pointed(self.ambient_dim, self.labels,
                             tuple(sorted(eqs.union(rest.equalities))),
                             tuple(sorted(ineqs.union(rest.inequalities))),
                             rays)

    def polar(self):
        """Polar dual {u : u.x >= 0 on the cone}, in the dual coordinates."""
        return Cone(self.ambient_dim,
                    equalities=self.lineality(),
                    inequalities=self.rays(),
                    labels=self.labels)

    def __eq__(self, other):
        if not isinstance(other, Cone):
            return NotImplemented
        return (self.ambient_dim == other.ambient_dim
                and self.labels == other.labels
                and self.key() == other.key())

    def __hash__(self):
        return hash((self.ambient_dim, self.labels, self.key()))

    def __repr__(self):
        return (f"Cone(dim={self.ambient_dim}, eq={len(self.equalities)}, "
                f"ineq={len(self.inequalities)})")


# -- spec operations --------------------------------------------------------


def cycle_constraint_rows(g, w, cycles=None):
    """One integer row per cycle: entry at edge e is the value of w on the
    source half of e as the cycle traverses it, zero off the cycle."""
    edges = g.edges()
    index = {e: i for i, e in enumerate(edges)}
    rows = []
    for cyc in (cycles if cycles is not None else cycle_basis(g)):
        row = [0] * len(edges)
        for h in cyc.halves:
            row[index[g.edge_of(h)]] = w.values[h]
        rows.append(tuple(row))
    return edges, rows


def cone_of_weighting(g, w) -> Cone:
    """The cone of all non-negative edge vectors compatible with w (sum of
    source-half value times coordinate vanishes around every cycle)."""
    edges, rows = cycle_constraint_rows(g, w)
    return Cone.orthant_section(len(edges), rows, labels=edges)


def extreme_rays(c: Cone):
    """Extreme rays of a pointed cone (raises NotPointed otherwise)."""
    if not c.is_pointed():
        raise NotPointed("cone has a nonzero lineality space")
    return c.rays()


def _face_ray_sets(c: Cone):
    """All tight-set closures of the ray set: the faces of the pointed part,
    each given by the frozenset of rays it contains."""
    full, facet_sets = c._tight_sets()
    seen = {full}
    queue = [full]
    while queue:
        s = queue.pop()
        for f in facet_sets:
            t = s & f
            if t not in seen:
                seen.add(t)
                queue.append(t)
    return seen


def _face_cone(c: Cone, ray_subset):
    """The face of pointed ``c`` with the given rays: ``c`` with its rows
    tight on them turned into equalities."""
    _, tight_sets = c._tight_sets()
    tight = {sign_normalized(q)
             for q, t in zip(c.inequalities, tight_sets) if ray_subset <= t}
    return Cone._pointed(c.ambient_dim, c.labels,
                         tuple(sorted(tight.union(c.equalities))),
                         c.inequalities, tuple(sorted(ray_subset)))


def faces(c: Cone):
    """All faces of a pointed cone, including the origin and the cone
    itself, sorted by (dimension, rays)."""
    if not c.is_pointed():
        raise NotPointed("face enumeration requires a pointed cone")
    out = [_face_cone(c, s) for s in _face_ray_sets(c)]
    return sorted(out, key=lambda f: (len(f.rays()), f.rays()))


def intersect_cones(c1: Cone, c2: Cone) -> Cone:
    return c1.intersect(c2)


def is_face_of(f: Cone, c: Cone) -> bool:
    """Exact face test: f's rays are rays of c and form a tight-set closure
    (f equals c cut by a supporting hyperplane)."""
    if f.ambient_dim != c.ambient_dim or f.labels != c.labels:
        raise AmbientMismatch("cones live in different ambient spaces")
    fr = frozenset(f.rays())
    cr, tight_sets = c._tight_sets()
    if not f.is_pointed() or not fr <= cr:
        return False
    closure = cr
    for t in tight_sets:
        if fr <= t:
            closure &= t
    return fr == closure


@dataclass(frozen=True)
class DualGenerators:
    """Integer generators of the polar dual of a weighting cone: the unit
    vector of every edge plus both orientations of the cycle vector of each
    basis cycle (entries the source-half values along the cycle)."""

    labels: tuple
    vectors: tuple

    def spanned_cone(self) -> Cone:
        return Cone.from_generators(len(self.labels), self.vectors, self.labels)


def dual_cone_generators(g, w) -> DualGenerators:
    edges, rows = cycle_constraint_rows(g, w)
    gens = list(_unit_rows(len(edges)))
    for row in rows:
        if not is_zero(row):
            gens.append(tuple(row))
            gens.append(tuple(-x for x in row))
    seen = []
    for v in gens:
        if v not in seen:
            seen.append(v)
    return DualGenerators(tuple(edges), tuple(seen))


def polar_dual(c: Cone) -> Cone:
    return c.polar()


def canonical_key(c: Cone):
    """Canonical identifier: (lineality rref rows, sorted primitive rays).

    For pointed cones the first component is empty and the key is just the
    sorted ray tuple; equal keys mean equal cones.
    """
    return (c.lineality(), c.rays())


# -- lattice monoid generators ----------------------------------------------


def _facets_within(face_sets, dims, s):
    subs = [t for t in face_sets if t < s]
    return [t for t in subs if dims[t] == dims[s] - 1]


def _triangulate_rays(c: Cone):
    """Pulling triangulation of the pointed part into simplicial ray lists."""
    rays = c.rays()
    if not rays:
        return []
    face_sets = _face_ray_sets(c)
    dims = {s: int_rank(sorted(s)) for s in face_sets}

    def pull(s):
        rlist = sorted(s)
        if len(rlist) == dims[s]:
            return [rlist]
        r0 = rlist[0]
        out = []
        for t in _facets_within(face_sets, dims, s):
            if r0 not in t and t:
                for tri in pull(t):
                    out.append([r0] + tri)
        return out

    return pull(frozenset(rays))


def _parallelepiped_points(basis_rows, lattice_rows):
    """Integer points of the half-open parallelepiped spanned by
    ``basis_rows``, all lying in the saturated lattice ``lattice_rows``.

    Enumerates one representative per coset of the basis sublattice (their
    count is the determinant in lattice coordinates) and folds it into the
    parallelepiped.

    In lattice coordinates the basis is the integer matrix ``C``
    (``basis_rows = C . lattice_rows``), and a representative ``x`` folds
    to ``(x - floor(x C^-1) C) . lattice_rows``. One elimination of
    ``[C | I]`` gives ``D C^-1`` as an integer matrix ``M`` with ``D > 0``:
    its rows are ``(a_j e_j | u_j)``, so row j of ``C^-1`` is ``u_j / a_j``
    and ``D = lcm(a_j)``. With ``r = (x M) mod D`` the fractional part of
    ``x C^-1`` is ``r / D`` exactly, so the point is
    ``(sum_i r_i basis_rows[i]) / D``; the sum is an integer combination
    of the lattice rows times ``D``, so the division is exact. Each point
    then costs integer dot products only, and it is zero iff ``r`` is.
    """
    k = len(lattice_rows)
    coords = []
    for b in basis_rows:
        sol = linalg.solve_left(lattice_rows, b)
        if sol is None or any(x.denominator != 1 for x in sol):
            raise FlowFanError(f"basis vector {b} does not lie in the lattice")
        coords.append(tuple(int(x) for x in sol))
    H = linalg.row_hnf(coords)
    if len(H) != k:
        raise FlowFanError("basis does not span the lattice rationally")

    inv = rref_int([c + u for c, u in zip(coords, _unit_rows(k))])
    D = lcm(*(row[j] for j, row in enumerate(inv)))
    # column i of D C^-1, so that (x M)_i is one dot product
    cols = tuple(zip(*(tuple(D // row[j] * u for u in row[k:])
                       for j, row in enumerate(inv))))

    basis_cols = tuple(zip(*basis_rows))
    points = []
    for x in product(*(range(H[i][i]) for i in range(k))):
        rs = [dot(x, col) % D for col in cols]
        if any(rs):
            points.append(tuple(dot(rs, col) // D for col in basis_cols))
    return points


def monoid_generators(c: Cone):
    """A finite generating set of the monoid of lattice points of ``c``.

    Both signs of a saturated lattice basis of the lineality space, the
    primitive extreme rays, and every lattice point of the fundamental
    parallelepiped of each simplicial piece of a pulling triangulation
    (padded with the lineality basis). Generates all lattice points by the
    standard rounding argument; not guaranteed minimal.

    A lattice point of a simplicial piece is an integer combination of its
    basis plus a point of the half-open parallelepiped, namely its
    fractional part; ``_parallelepiped_points`` finds one per coset of the
    basis lattice by an integer fold through ``D C^-1``, computed once per
    piece, so each point costs integer dot products and no elimination.
    """
    d = c.ambient_dim
    lin_lattice = linalg.integer_kernel(c.equalities + c.inequalities, d)
    rays = c.rays()
    gens = set()
    for b in lin_lattice:
        gens.add(b)
        gens.add(tuple(-x for x in b))
    gens.update(rays)
    if rays:
        span_rows = list(lin_lattice) + list(rays)
        normals = linalg.integer_kernel(span_rows, d)
        lattice = linalg.integer_kernel(normals, d)
        for simplex in _triangulate_rays(c):
            basis = list(lin_lattice) + list(simplex)
            for pt in _parallelepiped_points(basis, lattice):
                gens.add(pt)
    return sorted(gens)
