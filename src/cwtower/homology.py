"""Integral simplicial homology by sparse elimination over Z.

Normalized chains: one basis element per nondegenerate generator, with
degenerate faces contributing zero.  Boundary matrices are kept as
sparse columns ``{row: coefficient}`` built from the face tables.

Every lattice question (invariant factors, rank, kernel basis, integral
solutions) goes through one column eliminator.  It pivots only on
entries +-1, sparsest row first, using column operations alone; each
pivot splits off an invariant factor 1 (Dumas, Heckenbach, Saunders and
Welker, *Computing simplicial homology based on efficient Smith normal
form algorithms*, 2003).  Boundary matrices of simplicial sets are
almost all +-1, so the residual block (rows and columns left without a
pivot) is small, and only it goes through the dense Smith normal form.
All arithmetic is arbitrary precision (Python integers, object-dtype
arrays for the dense part); the Smith form pivots on the smallest
nonzero absolute value to limit entry growth.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache

import numpy as np

from .core import SimplicialMap, SimplicialSet, ValidationError


# numpy fills object-dtype zeros and identities with the Python ints 0 and 1
def zeros(m, n):
    return np.zeros((m, n), dtype=object)


def identity(n):
    return np.identity(n, dtype=object)


# ---------------------------------------------------------------------------
# Sparse columns
# ---------------------------------------------------------------------------
#
# A sparse matrix is a list of columns, each a dict {row: nonzero entry};
# the row count travels separately.

def _add(dst, k, src, on_row=None, j=None):
    """dst += k * src for sparse columns, k != 0.

    With ``on_row``, keep the row index of column j (``dst``) in step.
    """
    for i, a in src.items():
        v = dst.get(i, 0) + k * a
        if v:
            if on_row is not None and i not in dst:
                on_row[i].add(j)
            dst[i] = v
        else:
            del dst[i]
            if on_row is not None:
                on_row[i].discard(j)


def _apply(cols, x):
    """The product of a sparse matrix and a sparse vector."""
    out = {}
    for j, a in x.items():
        _add(out, a, cols[j])
    return out


# ---------------------------------------------------------------------------
# Smith normal form (dense, for residual blocks)
# ---------------------------------------------------------------------------

def smith_normal_form(M):
    """(U, D, V) with D = U M V diagonal, successive divisibility, U, V unimodular."""
    M = np.asarray(M, dtype=object)
    m, n = M.shape
    A = M.copy()
    U = identity(m)
    V = identity(n)
    t = 0
    while t < min(m, n):
        if not _move_pivot(A, U, V, t):
            break
        _clear_position(A, U, V, t)
        # enforce divisibility of the remaining block by the pivot
        p = A[t, t]
        bad = next((i for i in range(t + 1, m) for j in range(t + 1, n) if A[i, j] % p), None)
        if bad is not None:
            A[t, :] += A[bad, :]
            U[t, :] += U[bad, :]
            continue
        t += 1
    for i in range(min(m, n)):
        if A[i, i] < 0:
            A[i, :] = -A[i, :]
            U[i, :] = -U[i, :]
    return U, A, V


def _move_pivot(A, U, V, t):
    """Move a minimal-magnitude nonzero entry of A[t:, t:] to (t, t)."""
    m, n = A.shape
    nonzero = [(i, j) for i in range(t, m) for j in range(t, n) if A[i, j] != 0]
    if not nonzero:
        return False
    _swap_to(A, U, V, t, *min(nonzero, key=lambda ij: abs(A[ij])))
    return True


def _swap_to(A, U, V, t, i, j):
    """Swap row i and column j of A into position t."""
    if i != t:
        A[[t, i], :] = A[[i, t], :]
        U[[t, i], :] = U[[i, t], :]
    if j != t:
        A[:, [t, j]] = A[:, [j, t]]
        V[:, [t, j]] = V[:, [j, t]]


def _clear_position(A, U, V, t):
    """Zero out row t and column t beyond the pivot.

    Each pass first moves the smallest nonzero entry of row t and column
    t to (t, t), then reduces the others by it.  Every remainder is
    smaller than that pivot, so the pivot shrinks from pass to pass
    until it divides the whole row and column.
    """
    m, n = A.shape
    while True:
        line = ([(i, t) for i in range(t, m) if A[i, t] != 0]
                + [(t, j) for j in range(t + 1, n) if A[t, j] != 0])
        if len(line) == 1:
            return
        _swap_to(A, U, V, t, *min(line, key=lambda ij: abs(A[ij])))
        p = A[t, t]
        for i in range(t + 1, m):
            if A[i, t] != 0:
                q = A[i, t] // p
                A[i, :] -= q * A[t, :]
                U[i, :] -= q * U[t, :]
        for j in range(t + 1, n):
            if A[t, j] != 0:
                q = A[t, j] // p
                A[:, j] -= q * A[:, t]
                V[:, j] -= q * V[:, t]


def _dense_solve(A, B):
    """An integer X with A X = B by Smith form, or None if none exists."""
    U, D, V = smith_normal_form(A)
    C = U @ B
    m, n = A.shape
    Y = zeros(n, B.shape[1])
    for i in range(m):
        d = D[i, i] if i < min(m, n) else 0
        for j in range(B.shape[1]):
            c = C[i, j]
            if d == 0:
                if c != 0:
                    return None
            else:
                if c % d != 0:
                    return None
                Y[i, j] = c // d
    return V @ Y


# ---------------------------------------------------------------------------
# Unit-pivot elimination
# ---------------------------------------------------------------------------

@dataclass
class _Reduced:
    """A sparse matrix M after unit-pivot column elimination.

    ``cols`` is M V.  Each pivot column was frozen when chosen, so the
    pivot entries, in elimination order, form a unit lower triangle: a
    pivot row is zero in every later pivot column and in every non-pivot
    column.  The non-pivot columns thus live on the rows without a
    pivot.  ``V`` is kept only when tracked.
    """

    cols: list
    pivots: list  # (row, column, unit), in elimination order
    V: list

    def residual(self):
        """(R, rows, cols): the dense residual block on its nonzero rows and columns.

        The invariant factors of M are the pivots' 1s followed by those of R.
        """
        piv = {c for _, c, _ in self.pivots}
        cols = [j for j, col in enumerate(self.cols) if col and j not in piv]
        rows = sorted({i for j in cols for i in self.cols[j]})
        at = {i: a for a, i in enumerate(rows)}
        R = zeros(len(rows), len(cols))
        for b, j in enumerate(cols):
            for i, v in self.cols[j].items():
                R[at[i], b] = v
        return R, rows, cols


def _eliminate(cols, nrows, track=False):
    """Column-eliminate the +-1 pivots of a sparse integer matrix.

    Repeatedly takes the row with fewest entries that holds a +-1, and in
    it the +-1 whose column is shortest; clears the rest of that row by
    column operations; and drops the pivot row and column from the
    active block.  ``cols`` is copied, not changed.
    """
    cols = [dict(c) for c in cols]
    on_row = [set() for _ in range(nrows)]
    for j, col in enumerate(cols):
        for i in col:
            on_row[i].add(j)
    V = [{j: 1} for j in range(len(cols))] if track else None
    active = set(range(nrows))
    pivots = []
    while (pick := _pick_pivot(active, on_row, cols)) is not None:
        r, c = pick
        u = cols[c][r]
        for j in list(on_row[r]):
            if j != c:
                k = -cols[j][r] * u
                _add(cols[j], k, cols[c], on_row, j)
                if track:
                    _add(V[j], k, V[c])
        for i in cols[c]:
            on_row[i].discard(c)
        active.discard(r)
        pivots.append((r, c, u))
    return _Reduced(cols, pivots, V)


def _pick_pivot(active, on_row, cols):
    for r in sorted(active, key=lambda i: len(on_row[i])):
        best = None
        for j in on_row[r]:
            if cols[j][r] in (1, -1) and (best is None or len(cols[j]) < len(cols[best])):
                best = j
        if best is not None:
            return r, best
    return None


def _factors(cols, nrows):
    red = _eliminate(cols, nrows)
    R = red.residual()[0]
    rest = ()
    if R.size:
        _, D, _ = smith_normal_form(R)
        rest = tuple(int(D[i, i]) for i in range(min(D.shape)) if D[i, i] != 0)
    return (1,) * len(red.pivots) + rest


def _kernel(cols, nrows):
    """Sparse columns forming a basis of the integer kernel lattice."""
    red = _eliminate(cols, nrows, track=True)
    R, _, rcols = red.residual()
    piv = {c for _, c, _ in red.pivots}
    basis = [red.V[j] for j, col in enumerate(red.cols) if not col and j not in piv]
    if R.size:
        _, D, W = smith_normal_form(R)
        r = sum(1 for i in range(min(D.shape)) if D[i, i] != 0)
        for b in range(r, len(rcols)):
            x = {}
            for a, j in enumerate(rcols):
                if W[a, b] != 0:
                    _add(x, int(W[a, b]), red.V[j])
            basis.append(x)
    return basis


def _solve(cols, nrows, rhs):
    """Sparse columns X with M X = B (B given by ``rhs``), or None."""
    if not rhs:
        return []
    red = _eliminate(cols, nrows, track=True)
    R, rrows, rcols = red.residual()
    at = {i: a for a, i in enumerate(rrows)}
    ys = []
    C = zeros(len(rrows), len(rhs))
    for k, b in enumerate(rhs):
        # each pivot row fixes y at its pivot column
        b = dict(b)
        y = {}
        for r, c, u in red.pivots:
            t = b.get(r)
            if t:
                y[c] = t * u
                _add(b, -t * u, red.cols[c])
        for i, v in b.items():
            if i not in at:
                return None
            C[at[i], k] = v
        ys.append(y)
    if C.any():
        Z = _dense_solve(R, C)
        if Z is None:
            return None
        for k, y in enumerate(ys):
            for a, j in enumerate(rcols):
                if Z[a, k] != 0:
                    y[j] = int(Z[a, k])
    return [_apply(red.V, y) for y in ys]


# ---------------------------------------------------------------------------
# Chain complexes and homology
# ---------------------------------------------------------------------------

@dataclass
class ChainComplex:
    """Normalized integer chains of a simplicial set.

    ``columns[n-1][g]`` is the boundary of generator g of degree n, a
    sparse column over the generators of degree n-1.  Invariant factors
    and cycle presentations are memoised per degree in ``memo``.
    """

    ranks: tuple
    columns: tuple
    memo: dict = field(default_factory=dict, repr=False, compare=False)

    def rank(self, n):
        return self.ranks[n] if 0 <= n < len(self.ranks) else 0

    def boundary_columns(self, n):
        if 1 <= n < len(self.ranks):
            return self.columns[n - 1]
        return [{} for _ in range(self.rank(n))]

    def factors(self, n):
        """The invariant factors of the boundary in degree n."""
        key = ("factors", n)
        if key not in self.memo:
            self.memo[key] = _factors(self.boundary_columns(n), self.rank(n - 1))
        return self.memo[key]


def chain_complex(X: SimplicialSet) -> ChainComplex:
    """The normalized chain complex of X, which must be valid.

    Validity is ``X.checked_report``: the ``validate`` report, which a
    stage built by ``attach_cells`` gives from its new cells (falling back
    to the full walk), and any other set from the full walk.
    """
    errs = X.checked_report
    if errs:
        raise ValidationError("invalid simplicial set: " + "; ".join(errs[:4]))
    columns = []
    for n in range(1, len(X.counts)):
        level = []
        for fs in X.faces[n]:
            col = {}
            for i, s in enumerate(fs):
                if not s.word:
                    k = s.gen.index
                    v = col.get(k, 0) + (-1) ** i
                    if v:
                        col[k] = v
                    else:
                        del col[k]
            level.append(col)
        columns.append(tuple(level))
    cc = ChainComplex(tuple(X.counts), tuple(columns))
    for n in range(2, len(X.counts)):
        lower = cc.columns[n - 2]
        if any(_apply(lower, col) for col in cc.columns[n - 1]):
            raise ValidationError(f"boundary squared is nonzero in degree {n}")
    return cc


@dataclass(frozen=True)
class HomologyGroup:
    """H_dim = Z^betti plus torsion by the listed invariant factors (> 1)."""

    dim: int
    betti: int
    torsion: tuple

    def is_trivial(self):
        return self.betti == 0 and not self.torsion

    def __str__(self):
        parts = ["Z"] * self.betti + [f"Z/{d}" for d in self.torsion]
        return " + ".join(parts) if parts else "0"


def homology(X: SimplicialSet, i) -> HomologyGroup:
    return homology_of_complex(chain_complex(X), i)


def homology_of_complex(cc: ChainComplex, i) -> HomologyGroup:
    if i < 0 or cc.rank(i) == 0:
        return HomologyGroup(i, 0, ())
    factors = cc.factors(i + 1)
    betti = cc.rank(i) - len(cc.factors(i)) - len(factors)
    torsion = tuple(d for d in factors if d > 1)
    return HomologyGroup(i, betti, torsion)


def homology_groups(cc: ChainComplex):
    """H_0 .. H_top of a complex, checked against its Euler characteristic."""
    groups = [homology_of_complex(cc, i) for i in range(max(len(cc.ranks), 1))]
    chi = sum((-1) ** i * r for i, r in enumerate(cc.ranks))
    if chi != sum((-1) ** H.dim * H.betti for H in groups):
        raise AssertionError(f"Betti numbers {[H.betti for H in groups]} do not"
                             f" sum to the Euler characteristic {chi}")
    return groups


def _presentation(cc: ChainComplex, i):
    """(K, W) as sparse columns: K a basis of the cycle lattice, coker(W) presenting H_i."""
    key = ("presentation", i)
    if key not in cc.memo:
        K = _kernel(cc.boundary_columns(i), cc.rank(i - 1))
        W = _solve(K, cc.rank(i), cc.boundary_columns(i + 1))
        if W is None:
            raise ValidationError("boundaries do not lie in the cycle lattice")
        cc.memo[key] = (K, W)
    return cc.memo[key]


def _chain_map_columns(f: SimplicialMap, i):
    """Sparse columns of the map f induces on degree-i chains."""
    row = f.assign[i] if 0 <= i < len(f.assign) else ()
    return [{} if img.word else {img.gen.index: 1} for img in row]


@dataclass
class HomologyMap:
    """Whether the map induced on H_degree is onto, and an isomorphism."""

    degree: int
    is_epi: bool
    is_iso: bool


def induced_homology_map(f: SimplicialMap, i, ccX=None, ccY=None) -> HomologyMap:
    """The map f induces on H_i; pass the chain complexes of dom and cod to reuse them."""
    ccX = chain_complex(f.dom) if ccX is None else ccX
    ccY = chain_complex(f.cod) if ccY is None else ccY
    KX, WX = _presentation(ccX, i)
    KY, WY = _presentation(ccY, i)
    F = _chain_map_columns(f, i)
    T = _solve(KY, ccY.rank(i), [_apply(F, z) for z in KX])
    if T is None:
        raise ValidationError("chain map does not preserve cycles")

    kY = len(KY)
    factors = _factors(T + WY, kY)
    epi = len(factors) == kY and all(d == 1 for d in factors)

    # kernel of the induced map: x with T x a boundary must itself come
    # from a boundary of the source
    kX = len(KX)
    L = [{a: v for a, v in x.items() if a < kX}
         for x in _kernel(T + [{a: -v for a, v in w.items()} for w in WY], kY)]
    mono = _solve(WX, kX, L) is not None
    return HomologyMap(degree=i, is_epi=epi, is_iso=epi and mono)


# ---------------------------------------------------------------------------
# Connectivity reports
# ---------------------------------------------------------------------------

@dataclass
class ConnectivityReport:
    """Computable facets of n-connectedness of a stage projection.

    ``checks`` maps each facet's name to its verdict, in the order they
    are printed.  pi_0 is exact: H_0(X) is free on the path components
    of X and H_0(p) extends p on components linearly, so H_0(p) is onto,
    or an isomorphism, exactly when p is onto, or a bijection, on pi_0.
    Homotopy groups in higher degrees are proxied by integral homology,
    with the reliance recorded in ``caveats``.
    """

    stage: int
    checks: dict
    caveats: tuple


def connectivity_report(tower, n, simply_connected_B=False) -> ConnectivityReport:
    """Certify the computable facets of n-connectedness of p_n: A_n -> B."""
    if n < 0 or n > tower.cap:
        raise ValidationError(f"stage {n} out of range (cap {tower.cap})")
    p = tower.projections[n]
    # one chain complex per object and one induced map per degree
    ccA, ccB = chain_complex(p.dom), chain_complex(p.cod)
    if simply_connected_B and not homology_of_complex(ccB, 1).is_trivial():
        raise ValidationError(
            "simply-connected flag set but the target has nontrivial H_1")

    @cache
    def h(i):
        return induced_homology_map(p, i, ccA, ccB)

    checks = {"pi0_surjective": h(0).is_epi}
    caveats = ["homotopy groups in degree >= 1 are not computed; homology"
               " facets only"]
    if n >= 1:
        checks["pi0_bijective"] = h(0).is_iso
        checks["h1_epi"] = h(1).is_epi
    if simply_connected_B and n >= 2:
        checks.update({f"h{i}_iso": h(i).is_iso for i in range(n)})
        checks[f"h{n}_epi"] = h(n).is_epi
        caveats.append(
            "H_* checks certify n-connectedness only when the stage is"
            " simply connected")
    return ConnectivityReport(n, checks, tuple(caveats))
