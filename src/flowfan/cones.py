"""Exact rational polyhedral cones in the edge space of a graph.

A cone is held by its H-representation: integer equality rows a (a.t = 0)
and inequality rows b (b.t >= 0). The V-representation (extreme rays of
the pointed part plus a lineality basis) is computed by a deterministic
double description pass, lazily except for orthant sections: constraints
are inserted in sorted order, candidate rays from crossing pairs are kept
only when an exact rank test certifies extremality, and rays are
canonicalised by reduction modulo the lineality span. All arithmetic is
arbitrary-precision integer.

The pass keeps the lineality in reduced form, as in Fukuda and Prodon,
"Double description method revisited" (1996): it holds the lineality
basis beside its canonical RREF, and re-eliminates only when an
insertion cuts the basis down, the one step that changes it.
``Cone.from_generators`` inserts a generator whose negative is also a
generator as one equality row of the dual rather than as two opposite
inequalities, since {u : u.v >= 0, -u.v >= 0} = {u : u.v = 0}. The
result does not depend on how a cone is split into rows: the lineality
is a canonical RREF, and the rays are primitive, reduced modulo it and
sorted.

After every insertion the pass holds the rows inserted so far, a
lineality basis and the extreme rays of the cone those rows cut out. A
solved pointed cone is such a state with an empty lineality, so a pass
can resume from it and insert only further rows; the extremality test
still sees every row, and the rays are those of a pass from scratch.
``Cone.intersect`` resumes from the solved pointed operand with fewer
rays, which makes the pairwise check of a fan cheap, and
``Cone.orthant_section`` resumes from the orthant, a solved pointed cone
whose rays are the unit vectors, and inserts its equalities only.
``orthant_section`` is the path for general rows, that of
:func:`cone_of_weighting`. The catalog takes the rays of a weighting's
cone from :meth:`~flowfan.weightings.FlowCore.rays`, which reads them
off the directed bonds of the flow's orientation, and builds the cone
with ``Cone._pointed``. Each orientation is solved once; where it
leaves too many vertices for the bond search, by one ``orthant_section``
over its sign pattern's rows.

A cone caches what it computes: its rays and lineality, its dimension,
and, for a cone of a fan from :func:`~flowfan.fan.build_fan`, its facets
(the ``_facets`` slot), recorded once by the descent as the ray tuples
of the facet cones. The caches rely on the rows never changing after
construction, which nothing in this package does. Every constructor
path, ``__init__`` and ``Cone._pointed``, starts them empty.
Intersections and faces are built from rows that are normalized already,
without passing them through ``__init__`` again.

Faces are ray bitmasks, as in Kaibel and Pfetsch, "Computing the face
lattice of a polytope from its vertex-facet incidences" (2002), and
Kliem and Stump, "A face iterator for polyhedra and more" (2019). A
mask is an int over a cone's sorted rays, bit j standing for the ray j;
:func:`_row_masks` gives, per inequality row, the mask of the rays on
that row's hyperplane, computed afresh on each call. The faces of the
pointed part are the tight-set closures, the ANDs of row masks
(:func:`_face_masks`); the facets of a face are read off its mask and
the row masks by :func:`_facets_of`. A mask's rays are read in
ascending bit order (:func:`_rays_of`), so they come out sorted. A face
of a pointed cone keeps its parent's inequality rows, so the parent's
row masks cut down to the face are the face's own, with its rays
renumbered in the same order; a descent through faces therefore keeps
the masks of the cone it started from.

A cone built from known rays, by ``Cone._pointed`` with ``equalities``
None, gets its equality rows by one rule: on their first read, once, they
are the normals of the linear span of its rays, the rational kernel of
the ray matrix read off one :func:`~flowfan.linalg.rref_int` and
normalized as ``__init__`` leaves rows (:func:`_span_normals`). Such a
cone C is pointed, so it lies in the span of its rays, and it is cut out
by these normals and its inequality rows b exactly when every t in
span C with b.t >= 0 lies in C. That holds for the two kinds built:

* A catalog cone is C = O ∩ ker(rows), O the orthant, whose rows b are
  the unit rows. Since span C ⊆ ker(rows), a t >= 0 in span C is in C.
  The cone of a contracted graph G/K, padded with zeros on K into the
  root graph's edges, is the section of the root's orthant by its padded
  rows and the unit rows of K, so the same holds for it.
* A face F of a pointed cone C = {a.t = 0, b.t >= 0} keeps C's rows b
  (:func:`faces`, :func:`~flowfan.fan.build_fan`). Since F ⊆ C,
  span F ⊆ ker a, so the t in span F with b.t >= 0 form C ∩ span F, and
  that is F: F = C ∩ {c.t = 0} for some c with c.t >= 0 on C, and c
  vanishes on F, so on span F (Ziegler, *Lectures on Polytopes*,
  section 2.2).

A face of a pointed cone is fixed by its rays, so building, closing,
checking and writing a fan reads the rows of few of its cones.
``__init__``, ``orthant_section``, ``intersect``, ``from_generators``
and ``polar`` compute their rows at once.

A pointed cone on at most three rays takes its dimension from its ray
count, with no rank: distinct primitive extreme rays of a pointed cone
are never parallel (a ray and its negative would make a line), so a
pointed cone of dimension one has one extreme ray and one of dimension
two exactly two, while three vectors span at most three dimensions.
Such a cone is simplicial, so every set of its rays spans a face, its
facets drop one ray each, and it needs no row masks either. A polar dual takes its dimension from duality,
the ambient dimension less that of the lineality it is dual to (see
``Cone.polar``). Other cones rank their rays and lineality basis.

The cone attached to a weighting w lives in the non-negative orthant of
Q^E and is cut out by one equality per basis cycle, with entries the
source-half values of w along the cycle; linearity of the constraint in
the cycle class makes basis cycles sufficient.
"""

from dataclasses import dataclass
from functools import lru_cache, reduce
from itertools import product
from math import lcm, prod
from operator import and_

from .errors import AmbientMismatch, BudgetExceeded, FlowFanError, NotPointed
from .graph import cycle_basis
from . import linalg
from .linalg import dot, int_rank, is_zero, primitive, reduce_mod, rref_int, sign_normalized


@lru_cache(maxsize=None)
def _unit_rows(dim):
    return tuple(tuple(1 if i == j else 0 for i in range(dim)) for j in range(dim))


@lru_cache(maxsize=None)
def _orthant_rows(dim):
    """The unit rows sorted, the normalized inequality rows of the orthant."""
    return tuple(sorted(_unit_rows(dim)))


def _normalize_rows(rows, equalities):
    norm = sign_normalized if equalities else primitive
    distinct = {norm(r) for r in rows}
    return tuple(sorted(r for r in distinct if not is_zero(r)))


def _span_normals(dim, rays):
    """The normalized normals of the span of ``rays``: one kernel vector of
    the ray matrix per column that holds no pivot of its RREF, with the
    lcm L of the pivots at that column, zero at the other such columns and
    ``-row[f] * L / pivot`` at each pivot."""
    rref = rref_int(rays)
    pivots = [next(j for j, x in enumerate(row) if x) for row in rref]
    L = lcm(*(row[p] for row, p in zip(rref, pivots)))
    normals = []
    for f in range(dim):
        if f not in pivots:
            v = [0] * dim
            v[f] = L
            for row, p in zip(rref, pivots):
                v[p] = -row[f] * (L // row[p])
            normals.append(v)
    return _normalize_rows(normals, equalities=True)


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

    # the canonical form of ``lin``, refreshed only where ``lin`` changes
    lin_rref = rref_int(lin)

    def cleanup(candidates, check_new):
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
        nonlocal lin, lin_rref, rays
        ds = [dot(a, b) for b in lin]
        hit = next((i for i, d in enumerate(ds) if d != 0), None)
        if hit is not None:
            b0, d0 = lin[hit], ds[hit]
            if d0 < 0:
                b0, d0 = [-x for x in b0], -d0
            lin = [primitive(tuple(d0 * x - ds[i] * y for x, y in zip(b, b0)))
                   for i, b in enumerate(lin) if i != hit]
            lin = [list(b) for b in lin]
            lin_rref = rref_int(lin)
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
    return lin_rref, tuple(rays)


class Cone:
    """Rational polyhedral cone given by equality and inequality rows.

    ``labels``, when present, name the ambient coordinates (edge keys for
    cones in the edge space). Rays and lineality are computed on demand and
    cached; instances are immutable afterwards.
    """

    __slots__ = ("ambient_dim", "labels", "_equalities", "inequalities",
                 "_lineality", "_rays", "_dim", "_facets")

    def __init__(self, ambient_dim, equalities=(), inequalities=(), labels=None):
        self.ambient_dim = ambient_dim
        self.labels = tuple(labels) if labels is not None else None
        self._equalities = _normalize_rows(equalities, equalities=True)
        self.inequalities = _normalize_rows(inequalities, equalities=False)
        self._rays = None
        self._lineality = None
        self._dim = None
        self._facets = None

    @classmethod
    def _pointed(cls, ambient_dim, labels, equalities, inequalities, rays):
        """A pointed cone with known rays from rows that are normalized and
        sorted already, as ``__init__`` leaves them; skips ``__init__``.
        With ``equalities`` None they are the normals of the span of
        ``rays``, computed on first read (see the module docstring)."""
        cone = cls.__new__(cls)
        cone.ambient_dim = ambient_dim
        cone.labels = labels
        cone._equalities = equalities
        cone.inequalities = inequalities
        cone._rays = rays
        cone._lineality = ()
        cone._dim = None
        cone._facets = None
        return cone

    @property
    def equalities(self):
        """The equality rows, normalized and sorted; a cone built from known
        rays may compute them on first read, once, as the normals of the
        span of its rays."""
        if self._equalities is None:
            self._equalities = _span_normals(self.ambient_dim, self._rays)
        return self._equalities

    @classmethod
    def orthant_section(cls, ambient_dim, equalities=(), labels=None):
        """The cone {t >= 0 : equalities . t = 0} inside the orthant.

        Solved at once: the orthant is a pointed cone whose rays are the
        sorted unit vectors, so double description resumes from it and
        inserts the normalized equalities only."""
        units = _orthant_rows(ambient_dim)
        equalities = _normalize_rows(equalities, equalities=True)
        _, rays = _double_description(ambient_dim, equalities, (),
                                      start=((), units, units))
        return cls._pointed(ambient_dim,
                            tuple(labels) if labels is not None else None,
                            equalities, units, rays)

    @classmethod
    def from_generators(cls, ambient_dim, vectors, labels=None):
        """Cone spanned by integer vectors, via the dual H-representation.

        A generator whose negative is also a generator enters the dual as
        one equality row rather than two opposite inequalities (see the
        module docstring)."""
        gens = _normalize_rows(vectors, equalities=False)
        present = set(gens)
        paired = {v for v in gens if tuple(-x for x in v) in present}
        lin, rays = _double_description(
            ambient_dim, sorted({sign_normalized(v) for v in paired}),
            [v for v in gens if v not in paired])
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

    def is_pointed(self):
        return not self.lineality()

    def dim(self):
        if self._dim is None:
            self._compute()
            if not self._lineality and len(self._rays) <= 3:
                # a pointed cone on at most three rays is simplicial
                self._dim = len(self._rays)
            else:
                self._dim = int_rank(list(self._lineality) + list(self._rays))
        return self._dim

    def contains(self, v):
        return (all(dot(a, v) == 0 for a in self.equalities)
                and all(dot(b, v) >= 0 for b in self.inequalities))

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
        """Polar dual {u : u.x >= 0 on the cone}, in the dual coordinates.

        Its dimension is set by duality, with no rank: the polar is
        full-dimensional in the orthogonal complement of the lineality
        space, so it has dimension ``ambient_dim - dim lin`` (Schrijver,
        *Theory of Linear and Integer Programming*, 1986, section 7.2),
        and ``dim lin`` is the length of the lineality's RREF."""
        lin = self.lineality()
        polar = Cone(self.ambient_dim, equalities=lin,
                     inequalities=self.rays(), labels=self.labels)
        polar._dim = self.ambient_dim - len(lin)
        return polar

    def __eq__(self, other):
        if not isinstance(other, Cone):
            return NotImplemented
        return (self.ambient_dim == other.ambient_dim
                and self.labels == other.labels
                and canonical_key(self) == canonical_key(other))

    def __hash__(self):
        return hash((self.ambient_dim, self.labels, canonical_key(self)))

    def __repr__(self):
        return (f"Cone(dim={self.ambient_dim}, eq={len(self.equalities)}, "
                f"ineq={len(self.inequalities)})")


# -- spec operations --------------------------------------------------------


def cycle_constraint_rows(g, w, cycles=None):
    """One integer row per cycle: entry at edge e is the value of w on the
    source half of e as the cycle traverses it, zero off the cycle."""
    edges = g.edges()
    pos = g.index.edge_pos
    rows = []
    for cyc in (cycles if cycles is not None else cycle_basis(g)):
        row = [0] * len(edges)
        for h in cyc.halves:
            row[pos[h]] = w.values[h]
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


def _row_masks(c: Cone):
    """One ray mask per inequality row of ``c``, in row order: bit j is set
    when ``c.rays()[j]`` lies on that row's hyperplane. Not cached."""
    rays = c.rays()
    return tuple(sum(1 << j for j, r in enumerate(rays) if dot(q, r) == 0)
                 for q in c.inequalities)


def _facet_row_masks(c: Cone):
    """The row masks :func:`_facets_of` and :func:`_is_closure` read for
    ``c``: those of :func:`_row_masks`, or none on at most three rays,
    where ``c`` is simplicial and neither reads them."""
    return _row_masks(c) if len(c.rays()) > 3 else ()


def _rays_of(rays, mask):
    """The rays of ``mask`` in ascending bit order, so sorted when ``rays``
    is."""
    return tuple(r for j, r in enumerate(rays) if mask >> j & 1)


def _face_masks(c: Cone):
    """All tight-set closures of the rays of ``c``: the faces of the pointed
    part, each as its ray mask. They are the ANDs of the full mask with
    any set of row masks, taken one row mask at a time."""
    out = {(1 << len(c.rays())) - 1}
    for m in _row_masks(c):
        out |= {s & m for s in out}
    return out


def _facets_of(s, masks):
    """The facets of the face with the ray mask ``s`` of a cone whose row
    masks are ``masks``, as ray masks.

    On more than three rays they are the inclusion-maximal proper cuts
    ``s & m``, in row order: a face is cut out by rows turned into
    equalities, every proper face lies in a facet, and a facet is cut out
    by a single row (Ziegler, *Lectures on Polytopes*, section 2.2). On
    at most three rays the face is simplicial (see the module docstring)
    and each facet drops one bit, in ascending bit order; ``masks`` is
    then not read."""
    if s.bit_count() <= 3:
        return tuple(s ^ (1 << j) for j in range(s.bit_length()) if s >> j & 1)
    proper = [u for u in dict.fromkeys(s & m for m in masks) if u != s]
    return tuple(u for u in proper
                 if not any(u != v and u | v == v for v in proper))


def _facet_rays(c: Cone):
    """The facets of pointed ``c`` as sorted ray tuples: those
    :func:`~flowfan.fan.build_fan` recorded on it, or else those of its
    own rows by :func:`_facets_of`. Every face of ``c`` but ``c`` itself
    lies in a facet, and is a face of it."""
    if c._facets is not None:
        return c._facets
    rays = c.rays()
    return tuple(_rays_of(rays, t)
                 for t in _facets_of((1 << len(rays)) - 1, _facet_row_masks(c)))


def faces(c: Cone):
    """All faces of a pointed cone, including the origin and the cone
    itself, sorted by (dimension, rays). Each keeps ``c``'s inequality
    rows; its equality rows are computed on first read (see the module
    docstring)."""
    if not c.is_pointed():
        raise NotPointed("face enumeration requires a pointed cone")
    rays = c.rays()
    out = [Cone._pointed(c.ambient_dim, c.labels, None, c.inequalities,
                         _rays_of(rays, s))
           for s in _face_masks(c)]
    return sorted(out, key=lambda f: (f.dim(), f.rays()))


def intersect_cones(c1: Cone, c2: Cone) -> Cone:
    return c1.intersect(c2)


def _is_closure(face_rays, rays, masks):
    """Whether ``face_rays`` are rays of a pointed cone with the sorted
    ``rays`` and the row masks ``masks`` whose mask s is a tight-set
    closure: the AND of the row masks that hold s is s. A cone on at most
    three rays is simplicial (see the module docstring), so every set of
    its rays spans a face, and ``masks`` is then not read."""
    inside = set(face_rays)
    s = sum(1 << j for j, r in enumerate(rays) if r in inside)
    return s.bit_count() == len(inside) and (len(rays) <= 3 or s == reduce(
        and_, (m for m in masks if s & m == s), (1 << len(rays)) - 1))


def is_face_of(f: Cone, c: Cone) -> bool:
    """Exact face test: ``f`` and ``c`` have the same lineality RREF, and
    f's rays are rays of c that form a tight-set closure (f equals c cut
    by a supporting hyperplane). Every face of c holds c's lineality
    space, and c's rows vanish on it, so the closure is taken on the rays
    of the pointed part, reduced modulo that space."""
    if f.ambient_dim != c.ambient_dim or f.labels != c.labels:
        raise AmbientMismatch("cones live in different ambient spaces")
    return (f.lineality() == c.lineality()
            and _is_closure(f.rays(), c.rays(), _facet_row_masks(c)))


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
    return DualGenerators(tuple(edges), tuple(dict.fromkeys(gens)))


def polar_dual(c: Cone) -> Cone:
    return c.polar()


def canonical_key(c: Cone):
    """Canonical identifier: (lineality rref rows, sorted primitive rays).

    For pointed cones the first component is empty and the key is just the
    sorted ray tuple; equal keys mean equal cones.
    """
    return (c.lineality(), c.rays())


# -- lattice monoid generators ----------------------------------------------


def _triangulate_rays(c: Cone):
    """Pulling triangulation of the pointed part into simplicial ray lists.

    A face of dimension k is a simplex when it has k rays. Otherwise it is
    pulled from its least ray r0, its lowest bit: its simplices are r0
    joined with those of each facet without r0 (:func:`_facets_of` on the
    row masks of ``c``), whose dimension is k - 1. The pointed part has
    dimension ``c.dim()`` less that of the lineality, so no face is
    ranked."""
    rays = c.rays()
    if not rays:
        return []
    masks = _facet_row_masks(c)

    def pull(s, k):
        if s.bit_count() == k:
            return [list(_rays_of(rays, s))]
        low = s & -s
        r0 = rays[low.bit_length() - 1]
        return [[r0] + tri for t in _facets_of(s, masks)
                if not t & low for tri in pull(t, k - 1)]

    return pull((1 << len(rays)) - 1, c.dim() - len(c.lineality()))


# the most parallelepiped points monoid_generators folds for one cone
MONOID_POINT_LIMIT = 1_000_000


def _lattice_coords(basis_rows, lattice_rows):
    """(C, H): the basis in coordinates of the saturated lattice rows,
    ``basis_rows = C . lattice_rows``, as integer rows, and the Hermite
    form of ``C``, whose diagonal product ``|det C|`` counts the cosets of
    the basis sublattice.

    When the lattice rows are the unit vectors, as for a full-dimensional
    cone, the lattice is Z^d and ``C`` is the basis itself, with no
    elimination. Otherwise ``C`` comes from one elimination of
    ``[lattice^T | basis^T]`` (:func:`~flowfan.linalg.solve_left_many`),
    not one per basis row. A basis row off the lattice, or a basis that
    does not span it, raises ``FlowFanError`` naming the failure."""
    if lattice_rows == _unit_rows(len(lattice_rows)):
        coords = [tuple(b) for b in basis_rows]
    else:
        coords = []
        for b, sol in zip(basis_rows,
                          linalg.solve_left_many(lattice_rows, basis_rows)):
            if sol is None or any(x.denominator != 1 for x in sol):
                raise FlowFanError(f"basis vector {b} does not lie in the lattice")
            coords.append(tuple(int(x) for x in sol))
    H = linalg.row_hnf(coords)
    if len(H) != len(lattice_rows):
        raise FlowFanError("basis does not span the lattice rationally")
    return coords, H


def _parallelepiped_points(basis_rows, lattice_rows, lattice_coords):
    """Integer points of the half-open parallelepiped spanned by
    ``basis_rows``, all lying in the saturated lattice ``lattice_rows``;
    ``lattice_coords`` is ``_lattice_coords(basis_rows, lattice_rows)``.

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
    coords, H = lattice_coords
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

    The points are counted in the lattice of the cone's linear span. For
    a full-dimensional cone that lattice is Z^d, given by the unit rows
    with no Hermite form, as in Normaliz (Bruns and Koch, "Computing the
    integral closure of an affine semigroup", 2001); otherwise it is the
    integer kernel of the integer normals of the span. The test is on
    the dimension, not on the absence of equality rows, since opposite
    inequality rows also cut the span down.

    A lattice point of a simplicial piece is an integer combination of its
    basis plus a point of the half-open parallelepiped, namely its
    fractional part; ``_parallelepiped_points`` finds one per coset of the
    basis lattice by an integer fold through ``D C^-1``, computed once per
    piece, so each point costs integer dot products and no elimination.

    The cosets are counted before any point is folded: every piece's
    Hermite form is built first, and when the diagonal products sum to
    more than ``MONOID_POINT_LIMIT`` the call raises ``BudgetExceeded``
    with that sum.
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
        if c.dim() == d:
            lattice = _unit_rows(d)
        else:
            normals = linalg.integer_kernel(list(lin_lattice) + list(rays), d)
            lattice = linalg.integer_kernel(normals, d)
        pieces = []
        for simplex in _triangulate_rays(c):
            basis = list(lin_lattice) + list(simplex)
            pieces.append((basis, _lattice_coords(basis, lattice)))
        estimate = sum(prod(H[i][i] for i in range(len(H)))
                       for _, (_, H) in pieces)
        if estimate > MONOID_POINT_LIMIT:
            raise BudgetExceeded("monoid_generators: parallelepiped points",
                                 estimate, MONOID_POINT_LIMIT)
        for basis, lattice_coords in pieces:
            gens.update(_parallelepiped_points(basis, lattice, lattice_coords))
    return sorted(gens)
