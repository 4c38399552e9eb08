"""Exhaustive enumeration of simplicial maps and attaching squares.

``enumerate_maps`` backtracks over generators in order of increasing
dimension, assigning each generator a target simplex (in normal form)
and pruning on the first violated face equation.  Output order is
canonical: lexicographic on generator assignments by dimension then
index, with candidate simplices ordered by degeneracy word then
generator.

``enumerate_squares`` uses the Yoneda reduction instead: a map of
Delta^n is an n-simplex b, and a map of its boundary is a tuple of
(n-1)-simplices x_0 .. x_n with d_i x_j = d_{j-1} x_i for i < j.  So an
attaching square is its facets and its disk, ranks into the one
``SquareTable`` that all squares of one search share, and the search
runs on int64 rank arrays: the facets are joined level by level on
mixed-radix face prefixes (argsort, searchsorted, repeat), the tuples
are joined the same way with the disks, and one lexsort over keys of
the attaching maps, weighed per facet, puts the squares in canonical
order.  A key
tuple is one int64 only while ``base ** width < KEY_LIMIT`` (checked in
Python ints), and its rows are numbered by ``np.unique`` otherwise, so
ranks stay exact.  A search returns one ``SquareRow`` of rank arrays;
labels and stage files gather attaching maps and their tokens a chunk of
rows at a time, and a square's maps are built only when asked for.
"""

from __future__ import annotations

from functools import cache, cached_property
from itertools import accumulate, combinations
from math import comb, prod
from operator import getitem

import numpy as np

from .core import (
    Simplex,
    SimplexRef,
    SimplicialMap,
    SimplicialSet,
    ValidationError,
    boundary_inclusion,
    boundary_simplex,
    compose,
    degenerate,
    face,
    standard_simplex,
)

DEFAULT_BUDGET = 10_000_000

# A key tuple of ranks is read as one int64 only when it stays below this
KEY_LIMIT = 2 ** 62


class BudgetExceeded(RuntimeError):
    """A search did more steps than its budget allows."""

    def __init__(self, budget, used, unit, context=""):
        self.budget = budget
        self.used = used
        self.unit = unit
        self.context = context
        msg = f"search budget of {budget} {unit} exceeded: {used} used"
        if context:
            msg += f" ({context})"
        super().__init__(msg)


class Budget:
    """The join steps one build may take, shared by all of its stages.

    A join step is one partial boundary tuple visited by
    ``enumerate_squares``; ``used`` counts the steps taken so far.
    """

    def __init__(self, limit=DEFAULT_BUDGET):
        self.limit = limit
        self.used = 0


def simplex_candidates(X: SimplicialSet, total_dim):
    """All simplices of X of the given total dimension, in canonical order:
    by degeneracy word, which fixes the generator's dimension, then index."""
    words = sorted((tuple(reversed(combo)), m) for m in range(min(total_dim, X.dim) + 1)
                   for combo in combinations(range(total_dim), total_dim - m))
    return [Simplex(word, SimplexRef(m, i)) for word, m in words for i in range(X.counts[m])]


def enumerate_maps(K: SimplicialSet, X: SimplicialSet, budget=DEFAULT_BUDGET):
    """Every simplicial map K -> X, each exactly once, in canonical order."""
    gens = list(K.generators())
    cands = {d: simplex_candidates(X, d) for d in {g.dim for g in gens}}
    assign = {}
    results = []
    visited = 0

    def compatible(ref, target):
        for i in range(ref.dim + 1):
            fs = face(K, Simplex((), ref), i)
            img = degenerate(assign[fs.gen], fs.word)
            if img != face(X, target, i):
                return False
        return True

    def extend(pos):
        nonlocal visited
        if pos == len(gens):
            table = tuple(
                tuple(assign[SimplexRef(d, g)] for g in range(K.counts[d]))
                for d in range(len(K.counts)))
            results.append(SimplicialMap(K, X, table))
            return
        ref = gens[pos]
        for target in cands[ref.dim]:
            visited += 1
            if visited > budget:
                raise BudgetExceeded(budget, visited, "partial assignments",
                                     f"enumerate_maps at generator {ref.dim}:{ref.index}")
            if ref.dim >= 1 and not compatible(ref, target):
                continue
            assign[ref] = target
            extend(pos + 1)
            del assign[ref]

    extend(0)
    return results


@cache
def _yoneda_plan(m):
    """How to read the Yoneda map of an m-simplex off rank face tables.

    The generators of Delta^m, in flat order (by dimension, then index),
    are its vertex subsets, and the Yoneda map of an m-simplex x sends a
    subset to the face of x it spans.  Returns (dims, steps, bounds):
    ``dims[q]`` is the dimension of flat generator q; ``steps`` lists,
    from the top down, (q, parent, i) where generator q is the face d_i
    of the generator ``parent`` one dimension up (the top generator is
    last); ``bounds`` splits the flat order into rows by dimension.
    """
    flat = [s for k in range(m + 1) for s in combinations(range(m + 1), k + 1)]
    at = {s: q for q, s in enumerate(flat)}
    steps = []
    for q in range(len(flat) - 2, -1, -1):
        s = flat[q]
        # the least vertex v missing from s is vertex number v of s + {v}
        v = next(v for v in range(m + 1) if v not in s)
        steps.append((q, at[tuple(sorted(s + (v,)))], v))
    ends = list(accumulate(comb(m + 1, k + 1) for k in range(m + 1)))
    return tuple(len(s) - 1 for s in flat), tuple(steps), tuple(zip([0] + ends, ends))


def _yoneda(m, faces, count):
    """The flat Yoneda ranks (``_yoneda_plan`` order) of the m-simplices
    0..count-1, one row each, read off the rank face tables ``faces``."""
    dims, steps, _ = _yoneda_plan(m)
    out = np.empty((count, len(dims)), dtype=np.int64)
    out[:, -1] = np.arange(count)
    for q, parent, i in steps:
        out[:, q] = faces[dims[parent]][out[:, parent], i]
    return out


@cache
def _gather_plan(n):
    """How to gather attaching maps from their facets, one plan per n.

    For facets (x_0 .. x_n), x_j being the image of the face d_j of
    Delta^n, the attaching map, flat in the generator order of the
    boundary of Delta^n, reads a boundary generator S (a vertex subset)
    in the facet of the largest vertex j missing from S, at the Yoneda
    position of S in that facet.  Returns (facet, position, dims), one
    entry per column of the map: the facet it is read in, the position
    in that facet's Yoneda row, and the column's dimension.
    """
    inner = {s: q for q, s in enumerate(
        s for k in range(n) for s in combinations(range(n), k + 1))}
    facet, position, dims = [], [], []
    for k in range(n):
        for s in combinations(range(n + 1), k + 1):
            j = max(v for v in range(n + 1) if v not in s)
            facet.append(j)
            position.append(inner[tuple(v - (v > j) for v in s)])
            dims.append(k)
    return np.array(facet), np.array(position), tuple(dims)


@cache
def _places(radices, limit):
    """Key columns with these radices, split into runs that each read as
    one mixed-radix integer below ``limit``: (start, stop, place values)
    per run.  The products are Python ints, so the check is exact."""
    runs, start, size = [], 0, 1
    for c, r in enumerate(radices):
        if c > start and size * r >= limit:
            runs.append((start, c))
            start, size = c, 1
        size *= r
    runs.append((start, len(radices)))
    return tuple((a, b, np.array([prod(radices[c + 1:b]) for c in range(a, b)], dtype=np.int64))
                 for a, b in runs)


def _codes(base, keys, probes):
    """One int64 per row of ``keys`` and of ``probes`` (entries below
    ``base``), equal exactly when the rows are: a row's mixed-radix number
    if ``base ** width < KEY_LIMIT``, else its runs' numbers numbered by
    ``np.unique`` over the rows of both."""
    runs = _places((base,) * keys.shape[1], KEY_LIMIT)
    if len(runs) == 1:
        return keys.dot(runs[0][2]), probes.dot(runs[0][2])
    both = np.concatenate((keys, probes))
    packed = np.stack([both[:, a:b].dot(place) for a, b, place in runs], axis=1)
    codes = np.unique(packed, axis=0, return_inverse=True)[1].reshape(-1)
    return codes[:len(keys)], codes[len(keys):]


def match_rows(base, keys, probes):
    """The rows of ``keys`` equal to each row of ``probes`` (entries below
    ``base``): (order, hi, counts), the keys' row numbers sorted stably by
    key, and per probe the end and the length of its run in ``order``."""
    keys, probes = _codes(base, keys, probes)
    order = keys.argsort(kind="stable")
    keys = keys[order]
    hi = keys.searchsorted(probes, "right")
    return order, hi, hi - keys.searchsorted(probes, "left")


def _runs(order, hi, counts, ends):
    """``order[hi[k] - counts[k]:hi[k]]`` for every k, concatenated; ``ends``
    is ``counts.cumsum()``."""
    return order[(hi - ends).repeat(counts) + np.arange(ends[-1] if len(ends) else 0)]


def _rows(flat, n):
    """Flat ranks in Delta^n's generator order, split into rows by dimension."""
    return tuple(flat[a:b] for a, b in _yoneda_plan(n)[2])


def _grow(X, top, cand=(), rank=(), faces=(), tokens=()):
    """The candidates of X through dimension ``top``, their ranks, the ranks
    ``faces[d][r]`` in ``cand[d - 1]`` of the faces of ``cand[d][r]`` (an
    int64 array, no columns for d = 0) and their tokens, keeping the rows
    given below dimension ``top``."""
    from .textio import format_simplex
    cand, rank, faces, tokens = (list(rows[:top]) for rows in (cand, rank, faces, tokens))
    for d in range(len(cand), top + 1):
        cand.append(simplex_candidates(X, d))
        rank.append({s: r for r, s in enumerate(cand[d])})
        tokens.append(list(map(format_simplex, cand[d])))
        # the nondegenerate candidates come first, in generator order
        gens = iter(X.faces[d] if d < len(X.counts) else ())
        rows = [tuple(map(rank[d - 1].__getitem__, next(gens) if not s.word
                          else [face(X, s, i) for i in range(d + 1)]))
                for s in cand[d]] if d else []
        faces.append(np.array(rows, dtype=np.int64).reshape(len(cand[d]), d + 1 if d else 0))
    return cand, rank, faces, tokens


class SquareTable:
    """The candidate simplices of one stage and of the target, as ranks.

    One ``enumerate_squares`` call searches one table for (n, p) and every
    square it returns shares it.  ``cand_a[d]`` lists the d-simplices of
    the stage A = p.dom for d < n and ``cand_b[d]`` those of the target
    B = p.cod for d <= n, in ``simplex_candidates`` order; ``rank_a`` and
    ``rank_b`` invert them.  ``faces_a[d]`` and ``faces_b[d]`` are int64
    arrays whose row r holds the ranks of the faces of candidate r,
    ``tokens_a[d][r]`` and ``tokens_b[d][r]`` are its text, and
    ``p_top[x]`` is the rank in ``cand_b[n - 1]`` of p applied to
    ``cand_a[n - 1][x]``.  A tower grows one table (``below``), so each
    candidate is listed, ranked, faced and formatted once per tower.

    A square is its facets (x_0 .. x_n), ranks in ``cand_a[n - 1]``, and
    its disk b, a rank in ``cand_b[n]``.  Everything else about it is read
    off the face tables as arrays, many squares at a time:
    ``attach_ranks`` gathers attaching maps from the facets' Yoneda rows
    ``yoneda_a``, ``attach_keys`` weighs them into sort keys,
    ``yoneda_b[b]`` is the Yoneda map of b, and ``lines`` gathers the
    squares' lines from the facets' Yoneda tokens.
    """

    def __init__(self, n, p: SimplicialMap, below: SquareTable | None = None):
        if n < 1:
            raise ValidationError("a square table needs n >= 1")
        self.n, self.p = n, p
        # ``below``, the table of stage n - 1, holds A's candidates below
        # n - 1 and B's below n: stage n - 1 appended only (n - 1)-generators
        a = (below.cand_a, below.rank_a, below.faces_a, below.tokens_a) if below else ()
        b = (below.cand_b, below.rank_b, below.faces_b, below.tokens_b) if below else ()
        self.cand_a, self.rank_a, self.faces_a, self.tokens_a = _grow(p.dom, n - 1, *a)
        self.cand_b, self.rank_b, self.faces_b, self.tokens_b = _grow(p.cod, n, *b)
        self.p_top = np.array([self.rank_b[n - 1][p(s)] for s in self.cand_a[n - 1]],
                              dtype=np.int64)

    @cached_property
    def yoneda_a(self):
        """The flat Yoneda ranks of every candidate of ``cand_a[n - 1]``."""
        return _yoneda(self.n - 1, self.faces_a, len(self.cand_a[-1]))

    @cached_property
    def facet_cands(self):
        """``cand_a[n - 1]``, the simplices that facets rank, as an object array."""
        return np.array(self.cand_a[-1], dtype=object)

    @cached_property
    def yoneda_b(self):
        """The flat Yoneda ranks of every candidate of ``cand_b[n]``."""
        return _yoneda(self.n, self.faces_b, len(self.cand_b[-1]))

    @cached_property
    def cellular(self):
        """Every candidate of total dimension d lies on a generator of
        dimension at most d, so every map into the stage that the table
        ranks carries k-skeleta into k-skeleta.

        In the simplicial model the image of a k-generator has total
        dimension k, so this holds for every table; it is kept executable
        so that the coincidence of the cellular construction with the
        default one is observable (``verify --suite variant``)."""
        return all(s.gen.dim <= d for d, c in enumerate(self.cand_a) for s in c)

    def attach_ranks(self, facets):
        """The attaching maps of the facet rows ``facets``, one row of ranks
        per square, flat in boundary generator order."""
        facet, position, _ = _gather_plan(self.n)
        return self.yoneda_a[np.asarray(facets)[:, facet], position]

    def attach_keys(self, facets):
        """Sort keys of the attaching maps of the facet rows ``facets``: per
        run of ``_places``, one int64 per row, the run's digits read as one
        number, so the keys sort (the first run first) like the maps.  A
        row's number is a sum over its facets: facet j weighs the digits
        read in it, which is one product of ``yoneda_a`` per table."""
        facet, position, dims = _gather_plan(self.n)
        slots = np.arange(self.n + 1)
        keys = []
        for a, b, place in _places(tuple(len(self.cand_a[d]) for d in dims), KEY_LIMIT):
            weights = np.zeros((self.yoneda_a.shape[1], self.n + 1), dtype=np.int64)
            weights[position[a:b], facet[a:b]] = place
            keys.append(self.yoneda_a.dot(weights)[facets, slots].sum(axis=1))
        return keys

    @cached_property
    def yoneda_tokens(self):
        """The tokens of the Yoneda maps of ``cand_a[n - 1]``: one object
        array row per candidate, the candidate's own token last."""
        dims = _yoneda_plan(self.n - 1)[0]
        starts = list(accumulate(map(len, self.tokens_a), initial=0))
        tokens = np.array([t for row in self.tokens_a for t in row], dtype=object)
        return tokens[self.yoneda_a + np.array([starts[d] for d in dims])]

    @cached_property
    def disk_text(self):
        """``[b]``: the tokens of the Yoneda map of disk b, joined by spaces."""
        dims = _yoneda_plan(self.n)[0]
        return [" ".join(map(getitem, map(self.tokens_b.__getitem__, dims), y))
                for y in self.yoneda_b.tolist()]

    def lines(self, facets, tops):
        """The lines of the squares (facets[k], tops[k]), which are their
        cells' labels: one gather of attaching-map tokens for them all."""
        facet, position, _ = _gather_plan(self.n)
        attach = self.yoneda_tokens[np.asarray(facets)[:, facet], position].tolist()
        return [f"square n={self.n} attach[{' '.join(a)}] disk[{self.disk_text[b]}]"
                for a, b in zip(attach, np.asarray(tops).tolist())]

    def ranks_alike(self, other: SquareTable):
        """Do ranks mean the same simplices?  That depends on n, stage and target."""
        return self is other or (self.n == other.n and self.p.dom == other.p.dom
                                 and self.p.cod == other.p.cod)


class AttachmentSquare:
    """One commutative attaching square for an n-cell.

    Its attaching map sends the boundary of Delta^n into the stage
    ``table.p.dom`` and its disk map sends Delta^n into the target
    ``table.p.cod``.  By the Yoneda reduction a square is its facets and
    its disk: the images x_0 .. x_n of the faces d_0 .. d_n of Delta^n,
    which fix the attaching map, held as ``facets`` (a tuple of ranks in
    ``table.cand_a[n - 1]``), and the n-simplex b that the disk map is,
    held as ``top`` (a rank in ``table.cand_b[n]``).  The maps ``attach``
    and ``disk`` are read off the table only when they are asked for.

    Two squares are equal exactly when their maps are: when their ranks
    are, in tables whose ranks mean the same simplices.
    """

    def __init__(self, table: SquareTable, facets, top):
        self.n, self.table, self.facets, self.top = table.n, table, facets, top

    @cached_property
    def attach(self) -> SimplicialMap:
        t = self.table
        rows = _rows(t.attach_ranks([self.facets])[0].tolist(), self.n)[:-1]
        return SimplicialMap(boundary_simplex(self.n), t.p.dom, tuple(
            tuple(map(t.cand_a[d].__getitem__, row)) for d, row in enumerate(rows)))

    @cached_property
    def disk(self) -> SimplicialMap:
        """The Yoneda map of the disk simplex."""
        t = self.table
        return SimplicialMap(standard_simplex(self.n), t.p.cod, tuple(
            tuple(map(t.cand_b[d].__getitem__, row))
            for d, row in enumerate(_rows(t.yoneda_b[self.top].tolist(), self.n))))

    def __eq__(self, other):
        if not isinstance(other, AttachmentSquare):
            return NotImplemented
        return (self.facets == other.facets and self.top == other.top
                and self.table.ranks_alike(other.table))

    def __hash__(self):
        return hash((self.n, self.facets, self.top))

    def __repr__(self):
        return f"AttachmentSquare(n={self.n}, attach={self.attach!r}, disk={self.disk!r})"


class SquareRow:
    """The attaching squares of one stage, in order: one table, two rank arrays.

    Square k is its facets ``facets[k]`` (a row of an int64 array of n + 1
    columns) and its disk ``tops[k]``, ranks in ``table``.  The row reads
    as a sequence of ``AttachmentSquare``s, each made only when indexed,
    with its facets a tuple of ints; a slice is a row.  Rows compare by
    ranks.
    """

    def __init__(self, table: SquareTable, facets, tops):
        self.table, self.facets, self.tops = table, np.asarray(facets), np.asarray(tops)

    def __len__(self):
        return len(self.tops)

    def __getitem__(self, k):
        if isinstance(k, slice):
            return SquareRow(self.table, self.facets[k], self.tops[k])
        return AttachmentSquare(self.table, tuple(self.facets[k].tolist()), int(self.tops[k]))

    def __eq__(self, other):
        if not isinstance(other, SquareRow):
            return NotImplemented
        return (np.array_equal(self.tops, other.tops)
                and np.array_equal(self.facets, other.facets)
                and self.table.ranks_alike(other.table))

    def faces(self, start, stop):
        """The facets of squares start..stop-1 as tuples of simplices, which
        are their cells' faces."""
        return list(map(tuple, self.table.facet_cands[self.facets[start:stop]].tolist()))

    def lines(self, start, stop):
        """The lines of squares start..stop-1, which label their cells."""
        return self.table.lines(self.facets[start:stop], self.tops[start:stop])


def square_commutes(sq: AttachmentSquare, p: SimplicialMap) -> bool:
    """Exact commutativity p . attach == disk . (boundary inclusion)."""
    if sq.attach.cod != p.dom:
        return False
    incl = boundary_inclusion(sq.n)
    return compose(p, sq.attach) == compose(sq.disk, incl)


def enumerate_squares(table: SquareTable, budget: Budget | None = None):
    """All attaching squares of the table's dimension n over its projection p.

    A disk Delta^n -> B is an n-simplex b of B, and an attaching map from
    the boundary of Delta^n to A is a tuple (x_0 .. x_n) of
    (n-1)-simplices of A with d_i x_j = d_{j-1} x_i for i < j, x_i being
    the image of the face d_i of Delta^n.  The search runs on int64 rank
    arrays in three steps:

    * the tuples grow one facet a level: x_j joins on its first j faces,
      matched against the faces d_{j-1} x_i of the tuple so far by a sort
      of the candidates' face prefixes and two ``searchsorted`` (a join
      step is one candidate matched to one tuple);
    * each tuple is joined the same way with the disks b whose faces
      (d_0 b .. d_n b) are (p x_0 .. p x_n);
    * one ``np.lexsort`` over the attaching maps' keys
      (``SquareTable.attach_keys``, read off the facets' Yoneda rows)
      puts the squares in the order of (attach, disk) under the
      canonical map order.

    Ranks are in ``simplex_candidates`` order, so they sort like the
    simplices they stand for.  The squares are returned as one
    ``SquareRow`` over ``table``.  The steps of each join level, the sum
    of its bucket lengths, are charged to ``budget`` (a fresh ``Budget()``
    if none is given) before the level is built; if they exceed it,
    ``used`` counts the buckets in the order of the tuples, up to the one
    that crosses it.  The budget arithmetic is in Python ints.
    """
    if budget is None:
        budget = Budget()
    n = table.n
    faces = table.faces_a[n - 1]
    base = len(table.cand_a[n - 2]) if n > 1 else 1
    left, steps = budget.limit - budget.used, 0

    def charge(ends):  # the running total of one level's bucket lengths
        nonlocal steps
        total = int(ends[-1]) if len(ends) else 0
        if steps + total > left:
            budget.used += steps + int(ends[np.searchsorted(ends, left - steps, "right")])
            raise BudgetExceeded(budget.limit, budget.used, "join steps")
        steps += total

    # x_0 is any candidate; x_j joins on its first j faces: d_i x_j = d_{j-1} x_i
    # for i < j (a vertex has no faces, so for n = 1 the key is empty)
    charge([len(faces)])
    rows = np.arange(len(faces))[:, None]
    for j in range(1, n + 1):
        probes = faces[rows, j - 1] if n > 1 else rows[:, :0]
        order, hi, counts = match_rows(base, faces[:, :j], probes)
        ends = counts.cumsum()
        charge(ends)
        hits = _runs(order, hi, counts, ends)
        rows = np.concatenate((rows.repeat(counts, axis=0), hits[:, None]), axis=1)
    budget.used += steps

    if len(rows):  # no plan is made for a stage without squares (its n may be large)
        rows = rows[np.lexsort(table.attach_keys(rows)[::-1])]
    order, hi, counts = match_rows(len(table.cand_b[n - 1]), table.faces_b[n], table.p_top[rows])
    return SquareRow(table, rows.repeat(counts, axis=0), _runs(order, hi, counts, counts.cumsum()))
