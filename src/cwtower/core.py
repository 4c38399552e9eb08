"""Finite simplicial sets and their morphisms.

A simplicial set is presented by its nondegenerate generators (dense
integer indices per dimension) together with a face table.  Every
simplex, degenerate or not, is written in Eilenberg-Zilber normal form:
a strictly decreasing word of degeneracy operators applied to a
generator.  All face computations reduce eagerly to this normal form.

Values are immutable after construction and safe to share.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, cached_property
from itertools import combinations

# How many entries of new generators an ``AppendedRow`` makes at a time
ROW_CHUNK = 4096


class ValidationError(ValueError):
    """A simplicial set or map failed structural validation."""


@dataclass(frozen=True, order=True)
class SimplexRef:
    """A nondegenerate generator: (dimension, index within that dimension)."""

    dim: int
    index: int

    def __post_init__(self):
        if self.dim < 0 or self.index < 0:
            raise ValidationError(f"bad generator reference {self.dim}:{self.index}")


@dataclass(frozen=True, order=True)
class Simplex:
    """A simplex in normal form: a degeneracy word applied to a generator.

    ``word`` lists the degeneracy indices outermost first and must be
    strictly decreasing (the Eilenberg-Zilber normal form).  The total
    dimension is ``gen.dim + len(word)``.
    """

    word: tuple
    gen: SimplexRef

    def __post_init__(self):
        w = self.word
        for a, b in zip(w, w[1:]):
            if a <= b:
                raise ValidationError(f"degeneracy word {w} is not strictly decreasing")
        if w:
            if w[-1] < 0:
                raise ValidationError(f"negative degeneracy index in {w}")
            if w[0] > self.gen.dim + len(w) - 1:
                raise ValidationError(
                    f"degeneracy word {w} too large for generator of dim {self.gen.dim}"
                )

    @property
    def dim(self):
        return self.gen.dim + len(self.word)

    @property
    def is_degenerate(self):
        return bool(self.word)


def _insert_degeneracy(i, word):
    """Normal form of s_i applied outside the strictly decreasing ``word``."""
    out = []
    t = 0
    while t < len(word) and i <= word[t]:
        # s_i s_j = s_{j+1} s_i for i <= j
        out.append(word[t] + 1)
        t += 1
    out.append(i)
    out.extend(word[t:])
    return tuple(out)


def degenerate(s: Simplex, extra) -> Simplex:
    """Apply an extra degeneracy word (outermost first) to a simplex."""
    word = s.word
    for j in reversed(tuple(extra)):
        word = _insert_degeneracy(j, word)
    return Simplex(word, s.gen)


@dataclass(frozen=True)
class SimplicialSet:
    """A finite simplicial set given by generator counts and face tables.

    ``counts[d]`` is the number of nondegenerate generators in dimension
    ``d``; trailing zero counts are trimmed so equal sets compare equal.
    ``faces[d][g]`` is the tuple (face_0, ..., face_d) of simplices of
    total dimension d-1; ``faces[0][g]`` is empty.  ``labels`` carries an
    optional string per generator.  A row of either table may be an
    ``AppendedRow``: it is kept as it is, and only its head is checked
    here, since whoever appended its new entries checked them.

    Equality is literal: counts, face tables and labels.
    """

    counts: tuple
    faces: tuple
    labels: tuple

    def __post_init__(self):
        counts = tuple(int(c) for c in self.counts)
        while counts and counts[-1] == 0:
            counts = counts[:-1]
        faces = tuple(row if isinstance(row, AppendedRow) else tuple(map(tuple, row))
                      for row in self.faces[:len(counts)])
        faces += ((),) * (len(counts) - len(faces))
        labels = tuple(row if isinstance(row, (tuple, AppendedRow)) else tuple(row)
                       for row in self.labels[:len(counts)])
        labels += ((),) * (len(counts) - len(labels))
        for d, c in enumerate(counts):
            if len(faces[d]) != c:
                raise ValidationError(f"face table length mismatch in dimension {d}")
            if len(labels[d]) != c:
                raise ValidationError(f"label table length mismatch in dimension {d}")
            want = d + 1 if d else 0
            head = faces[d].head if isinstance(faces[d], AppendedRow) else faces[d]
            if head and not min(map(len, head)) == max(map(len, head)) == want:
                g, fs = next((g, fs) for g, fs in enumerate(head) if len(fs) != want)
                if d == 0:
                    raise ValidationError("vertices have no faces")
                raise ValidationError(f"generator {d}:{g} needs {want} faces, has {len(fs)}")
        object.__setattr__(self, "counts", counts)
        object.__setattr__(self, "faces", faces)
        object.__setattr__(self, "labels", labels)

    # -- constructors -------------------------------------------------

    @staticmethod
    def empty():
        return SimplicialSet((), (), ())

    @staticmethod
    def build(counts, faces, labels=None):
        """Construct from plain lists; labels default to None per generator."""
        if labels is None:
            labels = [[None] * c for c in counts]
        return SimplicialSet(tuple(counts), tuple(faces), tuple(labels))

    # -- basic queries ------------------------------------------------

    @property
    def dim(self):
        return len(self.counts) - 1

    def count(self, d):
        return self.counts[d] if 0 <= d < len(self.counts) else 0

    @property
    def total_generators(self):
        return sum(self.counts)

    def generators(self):
        for d, c in enumerate(self.counts):
            for i in range(c):
                yield SimplexRef(d, i)

    def has_generator(self, ref: SimplexRef):
        return ref.dim < len(self.counts) and ref.index < self.counts[ref.dim]

    def face_of_generator(self, ref: SimplexRef, i) -> Simplex:
        return self.faces[ref.dim][ref.index][i]

    @cached_property
    def checked_report(self):
        """What ``validate`` reports, computed once (the value is immutable),
        unless gluing set it: ``attach_cells`` and ``stage_zero`` set ``()``
        on a stage glued onto a valid set, whose new cells they checked.

        The cache lives in the instance ``__dict__``, outside the fields,
        so the dataclass stays frozen and equality is unchanged.
        """
        return tuple(_validation_report(self))


class AppendedRow:
    """A row of a table, faces or labels: the entries of ``head``, then
    those of ``count`` new generators, each made when read.
    ``make(start, stop)`` makes the entries of new generators
    start..stop-1, and iterating makes them ``ROW_CHUNK`` at a time.
    Immutable, equal and hashing equal to the tuple of them."""

    def __init__(self, head, make, count):
        self.head, self.make, self.count = head, make, count

    def __len__(self):
        return len(self.head) + self.count

    def __iter__(self):
        yield from self.head
        for start in range(0, self.count, ROW_CHUNK):
            yield from self.make(start, min(start + ROW_CHUNK, self.count))

    def __getitem__(self, i):
        if isinstance(i, slice):
            return tuple(self)[i]
        k = range(len(self))[i] - len(self.head)  # IndexError out of range
        return self.head[k] if k < 0 else self.make(k, k + 1)[0]

    def __eq__(self, other):
        return isinstance(other, (tuple, AppendedRow)) and tuple(self) == tuple(other)

    def __hash__(self):
        return hash(tuple(self))


def face(X: SimplicialSet, s: Simplex, i) -> Simplex:
    """The i-th face of a simplex of X, in normal form."""
    if not (0 <= i <= s.dim):
        raise ValidationError(f"face index {i} out of range for dim {s.dim}")
    if s.dim == 0:
        raise ValidationError("vertices have no faces")
    out = []
    k = i
    word = s.word
    for t, j in enumerate(word):
        if k < j:
            # d_i s_j = s_{j-1} d_i
            out.append(j - 1)
        elif k == j or k == j + 1:
            # d_j s_j = d_{j+1} s_j = id
            return Simplex(tuple(out) + word[t + 1:], s.gen)
        else:
            # d_i s_j = s_j d_{i-1} for i > j + 1
            out.append(j)
            k -= 1
    base = X.face_of_generator(s.gen, k)
    return degenerate(base, out) if out else base


def simplex_errors(X: SimplicialSet, s: Simplex, expected_dim=None):
    """Reasons why ``s`` is not a valid simplex of X (empty list if valid)."""
    errs = []
    if not X.has_generator(s.gen):
        errs.append(f"dangling generator reference {s.gen.dim}:{s.gen.index}")
    if expected_dim is not None and s.dim != expected_dim:
        errs.append(f"simplex has dimension {s.dim}, expected {expected_dim}")
    return errs


def validate(X: SimplicialSet):
    """Report every violated simplicial identity or dangling reference.

    Returns a list of human-readable strings; empty iff X is well formed.
    This is the full walk over every generator, the exact reference, run
    at every call; ``X.checked_report`` keeps its report, or ``()`` for a
    stage whose cells ``attach_cells`` checked where it glued them.
    """
    return _validation_report(X)


def _validation_report(X: SimplicialSet):
    report = []
    counts = X.counts
    for d in range(1, len(counts)):
        for g, fs in enumerate(X.faces[d]):
            for i, s in enumerate(fs):
                m = s.gen.dim
                if m + len(s.word) == d - 1 and s.gen.index < counts[m]:
                    continue  # m <= d - 1 < len(counts), so counts[m] exists
                for e in simplex_errors(X, s, d - 1):
                    report.append(f"generator {d}:{g} face {i}: {e}")
    if report:
        return report
    for d in range(2, len(X.counts)):
        # faces are shared between generators: compute the faces of each
        # (d-1)-simplex object once (its id is stable while X lives)
        below = {}
        for g, fs in enumerate(X.faces[d]):
            ff = []
            for t in fs:
                tf = below.get(id(t))
                if tf is None:
                    tf = below[id(t)] = tuple(face(X, t, i) for i in range(d))
                ff.append(tf)
            for j in range(d + 1):
                for i in range(j):
                    # d_i d_j and d_{j-1} d_i of the generator
                    lhs = ff[j][i]
                    rhs = ff[i][j - 1]
                    if lhs != rhs:
                        report.append(
                            f"generator {d}:{g}: d_{i} d_{j} != d_{j - 1} d_{i}"
                            f" ({lhs} vs {rhs})")
    return report


# ---------------------------------------------------------------------------
# Simplicial maps
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SimplicialMap:
    """A morphism of simplicial sets, given generator-wise.

    ``assign[d][g]`` is the image of generator d:g, a simplex of ``cod``
    of total dimension d.  Degeneracy-compatibility is automatic once
    face-compatibility holds on generators.
    """

    dom: SimplicialSet
    cod: SimplicialSet
    assign: tuple

    def __post_init__(self):
        assign = tuple(tuple(row) for row in self.assign)
        if len(assign) != len(self.dom.counts):
            raise ValidationError("assignment table does not match domain dimensions")
        for d, row in enumerate(assign):
            if len(row) != self.dom.counts[d]:
                raise ValidationError(f"assignment table length mismatch in dimension {d}")
        object.__setattr__(self, "assign", assign)

    def __call__(self, s: Simplex) -> Simplex:
        """f(s); a generator's image is the stored one, not a copy."""
        y = self.assign[s.gen.dim][s.gen.index]
        return degenerate(y, s.word) if s.word else y


# ---------------------------------------------------------------------------
# Appending generators
# ---------------------------------------------------------------------------
#
# Every stage of a tower is the one below it with generators appended
# after the old ones, so a stage inclusion sends each generator to the
# generator of the same index.  These three helpers are that one fact.

def inclusion(X: SimplicialSet, Y: SimplicialSet) -> SimplicialMap:
    """The map X -> Y that sends every generator of X to the generator of
    Y with the same index: X's generators are Y's first ones."""
    return SimplicialMap(X, Y, tuple(
        tuple(Simplex((), SimplexRef(d, g)) for g in range(c))
        for d, c in enumerate(X.counts)))


def appended(rows, d, new):
    """The per-dimension table ``rows`` with ``new`` added at the end of row
    d, empty rows filling in below d; ``rows`` itself when ``new`` is empty."""
    new = tuple(new)
    if not new:
        return rows
    rows = tuple(rows) + ((),) * (d + 1 - len(rows))
    return rows[:d] + (rows[d] + new,) + rows[d + 1:]


def with_generators(X: SimplicialSet, d, count, faces, lines) -> SimplicialSet:
    """X with ``count`` new d-generators after its own.  ``faces(start, stop)``
    and ``lines(start, stop)`` give the face tuples and the labels of new
    generators start..stop-1, made when read (an ``AppendedRow`` each)."""
    def grown(rows, make):
        rows = rows + ((),) * (d + 1 - len(rows))
        return rows[:d] + (AppendedRow(rows[d], make, count),) + rows[d + 1:]

    faces = grown(X.faces, faces)
    return SimplicialSet(tuple(map(len, faces)), faces, grown(X.labels, lines))


def identity_map(X: SimplicialSet) -> SimplicialMap:
    return inclusion(X, X)


def empty_map(B: SimplicialSet) -> SimplicialMap:
    """The unique map from the empty simplicial set to B."""
    return SimplicialMap(SimplicialSet.empty(), B, ())


def compose(g: SimplicialMap, f: SimplicialMap) -> SimplicialMap:
    """The composite g . f."""
    if g.dom != f.cod:
        raise ValidationError("composition mismatch: cod(f) != dom(g)")
    assign = tuple(tuple(g(s) for s in row) for row in f.assign)
    return SimplicialMap(f.dom, g.cod, assign)


def map_errors(f: SimplicialMap):
    """Face-compatibility violations of f (empty list iff f is a valid map);
    an invalid domain or codomain is reported instead, and no face is read."""
    report = [f"{end}: {e}" for end, X in (("domain", f.dom), ("codomain", f.cod))
              for e in X.checked_report]
    if report:
        return report
    for d in range(len(f.dom.counts)):
        for g in range(f.dom.counts[d]):
            img = f.assign[d][g]
            errs = simplex_errors(f.cod, img, d)
            report.extend(f"generator {d}:{g}: {e}" for e in errs)
            if errs:
                continue
            if d >= 1:
                src = Simplex((), SimplexRef(d, g))
                for i in range(d + 1):
                    lhs = f(face(f.dom, src, i))
                    rhs = face(f.cod, img, i)
                    if lhs != rhs:
                        report.append(
                            f"generator {d}:{g}: image of d_{i} is {lhs},"
                            f" d_{i} of image is {rhs}")
    return report


def subset_witness(f: SimplicialMap):
    """None if f is a subset inclusion, else the first offending generator.

    Generators must land on nondegenerate simplices, injectively per
    dimension; faces then match because f is a simplicial map.
    """
    for d in range(len(f.dom.counts)):
        seen = set()
        for g in range(f.dom.counts[d]):
            img = f.assign[d][g]
            if img.is_degenerate or img.gen in seen:
                return SimplexRef(d, g)
            seen.add(img.gen)
    return None


# ---------------------------------------------------------------------------
# Standard objects
# ---------------------------------------------------------------------------
#
# These are cached per n: every square of dimension n then shares one
# domain object, so comparing domains costs an identity check.

@cache
def standard_simplex(n) -> SimplicialSet:
    """The simplicial set Delta^n, generators indexed by vertex subsets."""
    if n < 0:
        raise ValidationError("standard_simplex needs n >= 0")
    subsets = [list(combinations(range(n + 1), k + 1)) for k in range(n + 1)]
    index = [{s: i for i, s in enumerate(level)} for level in subsets]
    counts = [len(level) for level in subsets]
    faces = []
    labels = []
    for k, level in enumerate(subsets):
        faces.append([])
        labels.append(["".join(str(v) for v in s) for s in level])
        for s in level:
            if k == 0:
                faces[k].append(())
                continue
            fs = []
            for i in range(k + 1):
                sub = s[:i] + s[i + 1:]
                fs.append(Simplex((), SimplexRef(k - 1, index[k - 1][sub])))
            faces[k].append(tuple(fs))
    return SimplicialSet.build(counts, faces, labels)


@cache
def boundary_simplex(n) -> SimplicialSet:
    """The boundary of Delta^n (n >= 1): Delta^n minus its top generator."""
    if n < 1:
        raise ValidationError("boundary_simplex needs n >= 1; the empty set is"
                              " SimplicialSet.empty()")
    full = standard_simplex(n)
    return SimplicialSet(full.counts[:n], full.faces[:n], full.labels[:n])


@cache
def boundary_inclusion(n) -> SimplicialMap:
    """The canonical inclusion of the boundary into Delta^n."""
    return inclusion(boundary_simplex(n), standard_simplex(n))


# ---------------------------------------------------------------------------
# Subset algebra
# ---------------------------------------------------------------------------

def face_closure_errors(X: SimplicialSet, gens):
    """Violations of face-closedness of a generator subset of X."""
    errs = []
    for ref in gens:
        if not X.has_generator(ref):
            errs.append(f"generator {ref.dim}:{ref.index} not in ambient complex")
            continue
        if ref.dim == 0:
            continue
        for i in range(ref.dim + 1):
            fgen = X.face_of_generator(ref, i).gen
            if fgen not in gens:
                errs.append(
                    f"face {i} of {ref.dim}:{ref.index} escapes the subset"
                    f" (generator {fgen.dim}:{fgen.index})")
    return errs


def subcomplex(X: SimplicialSet, gens):
    """The simplicial subset of X on a face-closed generator set.

    Returns (S, incl) where incl: S -> X is the subset inclusion.
    """
    gens = set(gens)
    errs = face_closure_errors(X, gens)
    if errs:
        raise ValidationError("subset is not face-closed: " + "; ".join(errs[:4]))
    by_dim = {}
    for ref in gens:
        by_dim.setdefault(ref.dim, []).append(ref.index)
    ndims = max(by_dim) + 1 if by_dim else 0
    old_index = [sorted(by_dim.get(d, [])) for d in range(ndims)]
    new_index = [{old: new for new, old in enumerate(row)} for row in old_index]
    counts = [len(row) for row in old_index]
    faces = []
    labels = []
    for d in range(ndims):
        frow = []
        lrow = []
        for old in old_index[d]:
            lrow.append(X.labels[d][old])
            if d == 0:
                frow.append(())
            else:
                frow.append(tuple(
                    Simplex(s.word, SimplexRef(s.gen.dim, new_index[s.gen.dim][s.gen.index]))
                    for s in X.faces[d][old]))
        faces.append(tuple(frow))
        labels.append(tuple(lrow))
    S = SimplicialSet(tuple(counts), tuple(faces), tuple(labels))
    incl = SimplicialMap(S, X, tuple(
        tuple(Simplex((), SimplexRef(d, old)) for old in old_index[d])
        for d in range(len(S.counts))))
    return S, incl

