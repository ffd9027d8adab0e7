"""Small exact linear-algebra helpers over the integers and rationals.

Vectors are tuples of Python ints (arbitrary precision), matrices are
sequences of row tuples. Ambient dimensions equal the number of graph
edges, so everything here is tiny; the implementations favour clarity
and determinism over asymptotics.

Two eliminations carry the module, both on integers only:

* :func:`rref_int`, a fraction-free Gauss-Jordan elimination, gives the
  canonical basis of a row span over Q. :func:`int_rank` and
  :func:`solve_left_many` read their answers off it; the latter solves
  for any number of targets in one elimination, and :func:`solve_left`
  is its single-target form.
* :func:`row_hnf`, a unimodular row reduction, gives the canonical
  (Hermite) basis of a row lattice over Z. :func:`integer_kernel` reads
  a saturated kernel basis off the Hermite form of ``[rows^T | I]``.

:func:`dot` and :func:`is_zero` run in the hot loops of double
description and the monoid fold, so they hand their loops to builtins
(``sum(map(mul, ...))``, ``any``) rather than to generator expressions.

The brute-force oracle keeps its own integer elimination on purpose,
so that cross-checks against it share no code with this module.
"""

from fractions import Fraction
from math import gcd
from operator import mul


def primitive(v):
    """Divide an integer vector by the gcd of its entries (direction kept)."""
    g = gcd(*v)
    if g <= 1:
        return tuple(v)
    return tuple(x // g for x in v)


def sign_normalized(v):
    """Primitive vector rescaled so the first nonzero entry is positive."""
    w = primitive(v)
    for x in w:
        if x > 0:
            return w
        if x < 0:
            return tuple(-y for y in w)
    return w


def dot(a, b):
    return sum(map(mul, a, b))


def is_zero(v):
    return not any(v)


def rref_int(rows):
    """Reduced row echelon form scaled to primitive integer rows.

    Pivot entries are positive and pivot columns are cleared above and
    below, so the result is canonical for the row span over Q: each row of
    the rational RREF is fixed up to scale, and "primitive with a positive
    pivot" fixes the scale.
    """
    m = [primitive(r) for r in rows if not is_zero(r)]
    if not m:
        return ()
    rank = 0
    for col in range(len(m[0])):
        piv = next((i for i in range(rank, len(m)) if m[i][col] != 0), None)
        if piv is None:
            continue
        p = m[piv]
        if p[col] < 0:
            p = tuple(-x for x in p)
        m[piv] = m[rank]
        m[rank] = p
        a = p[col]
        for i, r in enumerate(m):
            b = r[col]
            if b != 0 and i != rank:
                m[i] = primitive([a * x - b * y for x, y in zip(r, p)])
        rank += 1
        if rank == len(m):
            break
    return tuple(m[:rank])


def int_rank(rows):
    """Rank of an integer matrix."""
    return len(rref_int(rows))


def reduce_mod(v, rref_rows):
    """Eliminate the pivot coordinates of ``v`` against canonical rref rows,
    whose pivots are positive as :func:`rref_int` leaves them.

    Only positive rescalings of ``v`` are applied, so for rays this is the
    canonical projection along the row span (direction preserved).
    """
    w = list(v)
    for r in rref_rows:
        p = next(j for j, x in enumerate(r) if x != 0)
        if w[p] != 0:
            a, c = r[p], w[p]
            w = [a * x - c * y for x, y in zip(w, r)]
    return tuple(w)


def row_hnf(rows):
    """Canonical (row-style Hermite) basis of the lattice the rows generate.

    Pivots are positive, entries above each pivot are reduced into
    [0, pivot), zero rows are dropped.
    """
    m = [list(r) for r in rows if not is_zero(r)]
    if not m:
        return ()
    ncols = len(m[0])
    row = 0
    for col in range(ncols):
        while True:
            nz = [i for i in range(row, len(m)) if m[i][col] != 0]
            if not nz:
                break
            i0 = min(nz, key=lambda i: (abs(m[i][col]), i))
            m[row], m[i0] = m[i0], m[row]
            if m[row][col] < 0:
                m[row] = [-x for x in m[row]]
            reduced = True
            for i in range(row + 1, len(m)):
                if m[i][col] != 0:
                    q = m[i][col] // m[row][col]
                    m[i] = [x - q * y for x, y in zip(m[i], m[row])]
                    if m[i][col] != 0:
                        reduced = False
            if reduced:
                break
        if row < len(m) and m[row][col] != 0:
            for i in range(row):
                q = m[i][col] // m[row][col]
                if q != 0:
                    m[i] = [x - q * y for x, y in zip(m[i], m[row])]
            row += 1
        if row == len(m):
            break
    return tuple(tuple(r) for r in m[:row] if not is_zero(r))


def integer_kernel(rows, dim):
    """Saturated basis of {x in Z^dim : rows . x = 0}.

    The Hermite form of ``[rows^T | I]`` is ``[H | U]`` with ``U``
    unimodular and ``U . rows^T = H``; the rows of ``U`` beside the zero
    rows of ``H`` are a basis of the integer kernel, so every integer
    solution is an integer combination of the returned rows. Those rows
    are the bottom rows of a Hermite form, so they are already the
    Hermite basis of the kernel lattice: ``row_hnf`` leaves them unchanged.
    """
    n = len(rows)
    aug = [tuple(r[j] for r in rows) + tuple(int(i == j) for i in range(dim))
           for j in range(dim)]
    return tuple(h[n:] for h in row_hnf(aug) if is_zero(h[:n]))


def solve_left_many(basis_rows, targets):
    """Solve ``coeffs . basis_rows = target`` exactly for every target, in
    one elimination of ``[basis^T | targets^T]``.

    Returns one entry per target: a tuple of Fractions, or None if that
    system is inconsistent. Requires the rows to be linearly independent;
    when they are not, every entry is None.

    With k independent rows the first k pivots of the eliminated matrix
    lie in columns 0..k-1, so row j < k reads ``coeffs_j`` off its
    target columns. A target is consistent iff its column is zero in
    every row past k. That its column holds no pivot is not enough: a
    target outside the span that depends on an earlier such target has
    no pivot of its own, yet a nonzero entry in the earlier one's pivot
    row.
    """
    k = len(basis_rows)
    if k == 0:
        return tuple(() if is_zero(t) else None for t in targets)
    r = rref_int(zip(*basis_rows, *targets))
    if len(r) < k or r[k - 1][k - 1] == 0:
        return (None,) * len(targets)
    rest = r[k:]
    return tuple(
        None if any(row[c] for row in rest)
        else tuple(Fraction(r[j][c], r[j][j]) for j in range(k))
        for c in range(k, k + len(targets)))


def solve_left(basis_rows, target):
    """Solve ``coeffs . basis_rows = target`` exactly: the single-target
    form of :func:`solve_left_many`.

    Returns a tuple of Fractions, or None if the system is inconsistent.
    Requires the rows to be linearly independent.
    """
    return solve_left_many(basis_rows, (target,))[0]
