"""Stratumwise transversality against a finite collection of corner manifolds.

A member of the collection is either a level set cut out of the ambient
manifold by polynomial equations and inequalities, or a parametric patch
(a polynomial simplex map into the tube, post-projected).  Strata on both
sides are indexed by what vanishes: barycentric coordinates for simplices
and parametric patches, active inequalities for level sets.

The locus finder makes each stratum pair's points in one pass.  For one
open face of the simplex against one open stratum of a member it seeds a
uniform lattice in the joint parameter domain, runs batched Gauss-Newton,
keeps the roots that lie in both open strata, clusters them, and gives each
kept point its spanning margin from the face map, the face coordinates and
the stratum's constraints or chart coordinates that the solve already
holds.

Where the face residual has a Bernstein net (an unprojected map against a
level-set stratum with affine equations), an exclusion test runs first.  It
certifies that Newton's float residual stays above ``tau_root`` in max norm
on the whole closed face, so Newton, which would keep no point there, is
skipped and the face is never restricted.  Its data is the map's control
net (a face's net is a selection of rows, r's net the equations applied to
it), and its rounding allowance is derived (see ``_residual_net``).  Curved
strata go to Newton.  Located points are still numerical: completeness
elsewhere is heuristic and is guarded by the density escalation in
``is_transverse_pair``, so a verdict with points is a numerical statement
about them, not a certificate.

Callers that read only the verdict use ``is_T_transverse_ok``.  Where the
equations of a stratum are affine, the same exclusion runs on the critical
system (r, the c x c minors of Dr), built from the same nets and scaled so
that a certified face pair has no point Newton could keep with a spanning
value below 10 tol_rank (see ``_transverse``).  A simplex depth whose pairs
all certify is left out of the sweep, and the rest is swept as in
``is_T_transverse``, so its verdict is ``is_T_transverse(...).ok``.  Both
tests read what they know of a map from one ``_Certificate``, made per
locus solve or verdict-only call.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .ambient import AmbientManifold
from .errors import OutOfTube, RankDrop, TrialsExhausted
from .poly import PolyMap, point_block
from .simplex_geom import (
    _bernstein,
    _control_net,
    _face_rows,
    _partial_rows,
    _product_weights,
    barycentrics_many,
    collapse_to_simplex,
    face_for_vertices,
    realize_morphism,
    simplex_grid,
)
from .smooth_maps import SmoothSimplexMap, _abs_bound, _restriction_rounding, finite_flatten

__all__ = [
    "CornerManifold",
    "TCollection",
    "LocusOptions",
    "IntersectionPoint",
    "IntersectionReport",
    "PairVerdict",
    "TransversalityResult",
    "PerturbationResult",
    "intersection_locus",
    "is_transverse_pair",
    "is_T_transverse",
    "is_T_transverse_ok",
    "perturb_to_transverse",
]

LEVEL_SET = "level_set"
PARAMETRIC = "parametric"

_STRATUM_RANK_TOL = 1e-7
_MAX_CELLS_PER_DIM = 64  # cap of the cell escalation in is_transverse_pair
_CLUSTER_RADIUS = 1e-6  # located points closer than this are one point
_OPEN_TOL = 1e-9  # barycentric / inequality margin of an open stratum
_MAX_ITERS = 30  # most Gauss-Newton iterations per solve
_EXCLUSION_DEPTH = 6  # bisection levels of the root-free test before Newton
_CERTIFICATE_DEPTH = 12  # bisection levels of the transversality certificate
_COLUMN_FLOOR = 1e-3  # norm floor of the spanning test's columns


@dataclass(frozen=True)
class CornerManifold:
    """One member of the collection T, with its stratification.

    Level-set members live inside the ambient manifold as {G = 0} cut down
    by inequalities h_a >= 0; depth counts active inequalities.  Parametric
    members are the image of a polynomial simplex map; depth counts
    vanishing barycentric coordinates of the patch domain.
    """

    name: str
    ambient: AmbientManifold
    codim_in_m: int
    kind: str
    level: PolyMap | None = None
    inequalities: tuple[PolyMap, ...] = ()
    chart: SmoothSimplexMap | None = None
    coorientation: tuple[PolyMap, ...] = ()

    def __post_init__(self):
        if self.kind == LEVEL_SET:
            if self.level is None:
                raise ValueError("level-set member needs a level polynomial")
            if self.level.nvars != self.ambient.ambient_dim:
                raise ValueError("level polynomial has wrong arity")
            if self.level.ncomp != self.codim_in_m:
                raise ValueError("level component count must equal the codimension")
            for h in self.inequalities:
                if h.nvars != self.ambient.ambient_dim or h.ncomp != 1:
                    raise ValueError("inequalities must be scalar in ambient coordinates")
        elif self.kind == PARAMETRIC:
            if self.chart is None:
                raise ValueError("parametric member needs a chart")
            if self.chart.ambient.ambient_dim != self.ambient.ambient_dim:
                raise ValueError("chart ambient mismatch")
            expected = self.ambient.intrinsic_dim - self.chart.dim
            if expected != self.codim_in_m:
                raise ValueError("chart dimension inconsistent with codimension")
        else:
            raise ValueError(f"unknown member kind {self.kind!r}")
        for v in self.coorientation:
            if v.nvars != self.ambient.ambient_dim or v.ncomp != self.ambient.ambient_dim:
                raise ValueError("coorientation fields map ambient to ambient")

    @classmethod
    def level_set_in(
        cls,
        name: str,
        ambient: AmbientManifold,
        level: PolyMap,
        inequalities: tuple[PolyMap, ...] = (),
        coorientation: tuple[PolyMap, ...] = (),
    ) -> "CornerManifold":
        return cls(
            name,
            ambient,
            level.ncomp,
            LEVEL_SET,
            level=level,
            inequalities=tuple(inequalities),
            coorientation=tuple(coorientation),
        )

    @classmethod
    def parametric(
        cls,
        name: str,
        chart: SmoothSimplexMap,
        coorientation: tuple[PolyMap, ...] = (),
    ) -> "CornerManifold":
        codim = chart.ambient.intrinsic_dim - chart.dim
        return cls(name, chart.ambient, codim, PARAMETRIC, chart=chart,
                   coorientation=tuple(coorientation))

    @property
    def dim(self) -> int:
        return self.ambient.intrinsic_dim - self.codim_in_m

    def depths(self) -> range:
        if self.kind == LEVEL_SET:
            return range(min(len(self.inequalities), self.dim) + 1)
        return range(self.chart.dim + 1)

    def descriptors(self, ell: int) -> list[tuple[int, ...]]:
        """Active sets (level set) or vanishing barycentric sets (parametric)."""
        if self.kind == LEVEL_SET:
            return [tuple(c) for c in itertools.combinations(range(len(self.inequalities)), ell)]
        d = self.chart.dim
        if ell > d:
            return []
        return [tuple(c) for c in itertools.combinations(range(d + 1), ell)]

    def coorientation_frame(self, zs) -> np.ndarray:
        """Normal frames at a block of points, shape (p, N, codim): the
        declared fields as columns, none if none are declared."""
        n = self.ambient.ambient_dim
        zs = point_block(zs, n)
        if not self.coorientation:
            return np.zeros((len(zs), n, 0))
        return np.stack([v.eval_many(zs) for v in self.coorientation], axis=2)


@dataclass(frozen=True)
class TCollection:
    members: tuple[CornerManifold, ...]

    def __post_init__(self):
        names = [m.name for m in self.members]
        if len(set(names)) != len(names):
            raise ValueError("member names must be distinct")

    @classmethod
    def empty(cls) -> "TCollection":
        return cls(())

    @classmethod
    def of(cls, *members: CornerManifold) -> "TCollection":
        return cls(tuple(members))

    def __iter__(self):
        return iter(self.members)

    def __len__(self):
        return len(self.members)


@dataclass(frozen=True)
class LocusOptions:
    cells_per_dim: int = 8
    tau_root: float = 1e-10

    def __post_init__(self):
        cells = self.cells_per_dim
        if isinstance(cells, bool) or not isinstance(cells, int) or cells < 1:
            raise ValueError(f"cells_per_dim must be an int >= 1, got {cells!r}")
        tau = self.tau_root
        if (isinstance(tau, bool) or not isinstance(tau, (int, float))
                or not (math.isfinite(tau) and tau > 0)):
            raise ValueError(f"tau_root must be finite and > 0, got {tau!r}")


@dataclass
class IntersectionPoint:
    member: str
    x: np.ndarray
    simplex_vanishing: tuple[int, ...]
    y: np.ndarray
    member_active: tuple[int, ...]
    z: np.ndarray
    residual: float
    spanning_sv: float | None = None

    @property
    def simplex_depth(self) -> int:
        return len(self.simplex_vanishing)

    @property
    def member_depth(self) -> int:
        return len(self.member_active)


@dataclass
class IntersectionReport:
    """Located points of one or more stratum pairs.

    ``newton_failures`` counts the seeds that stall inside the open face
    with a residual above 1e-6, on faces where Newton ran: always on a
    curved stratum.  A face that the root-free test certifies from the
    parent map's net skips Newton and reports 0, so the count depends on
    which faces the exclusion certifies, not only on the map."""

    points: list[IntersectionPoint] = field(default_factory=list)
    newton_failures: int = 0
    cells_used: int = 0

    def extend(self, other: "IntersectionReport") -> None:
        self.points.extend(other.points)
        self.newton_failures += other.newton_failures
        self.cells_used = max(self.cells_used, other.cells_used)


def _batched_newton(linearize, seeds: np.ndarray, opts: LocusOptions,
                    clip=collapse_to_simplex):
    """Gauss-Newton from every seed at once; returns (solutions, residual norms).

    ``linearize(u)`` gives the residuals (p, c) and their Jacobians (p, c, k)
    at a block of iterates.  Iterates are retracted into the feasible block
    after every step: the sought roots live in the simplex, and projected
    maps are only guaranteed to stay inside the ambient tube there.  A
    linearization that vanishes identically (no free coordinates, as on a
    vertex against a point) gives every seed a zero step, so the loop stops.

    The loop also stops when a step returns the whole block, bit for bit, to
    an earlier iterate: a fixed point, or a cycle of last-bit changes.
    ``linearize`` is a pure function of the iterates, so from then on the
    iterates repeat that cycle, no earlier exit can fire, and running out
    the iteration budget would return the cycle's iterate at the budget's
    end with its norms.  That pair is returned at once.  Seeds that stall at
    a nonzero least-squares residual (a curve that misses a point) end the
    solve here instead of at ``_MAX_ITERS``.
    """
    u = seeds.copy()
    seen: dict[bytes, int] = {}  # iterate bytes -> iteration
    visited = []  # (iterate, norms) per iteration
    for it in range(_MAX_ITERS):
        r, j = linearize(u)
        norms = np.max(np.abs(r), axis=1)
        if np.all(norms <= opts.tau_root) or not j.any():
            return u, norms
        seen[u.tobytes()] = it
        visited.append((u, norms))
        step = np.einsum("pij,pj->pi", np.linalg.pinv(j), r)
        u = clip(u - step)
        first = seen.get(u.tobytes())
        if first is not None:
            return visited[first + (_MAX_ITERS - first) % (it + 1 - first)]
    r, _ = linearize(u)
    return u, np.max(np.abs(r), axis=1)


def _gamma(n: int) -> float:
    """Higham's gamma_n = n u / (1 - n u), u = 2^-53 the unit roundoff.  A
    value built by + and * with at most n roundings on a path (a product
    adds its operands' counts) is within gamma_n X of exact, X the same
    expression on absolute values (Accuracy and Stability, Lemma 3.3)."""
    return n * 2.0 ** -53 / (1 - n * 2.0 ** -53)


class _Certificate:
    """What the exclusion tests know of one map sigma, made per
    ``intersection_locus`` solve or ``is_T_transverse_ok`` call and dropped
    with it.  Only ``finite_flatten`` runs at once (a non-finite map raises
    ``NonFiniteMap``); the rest is made on first use.  The allowances are
    written in n, g and N, sigma's dimension, degree and ambient dimension;
    Z = ``_abs_bound(sigma)``; h = ``_restriction_rounding(sigma)``; a
    face's rho^g, rho its realization's largest absolute row sum; and a
    stratum's S = max_i |e_i|(Z)."""

    def __init__(self, sigma: SmoothSimplexMap):
        self.sigma, self.flat = sigma, finite_flatten(sigma)
        self.n, self.n_amb = sigma.dim, sigma.ambient.ambient_dim
        self._nets, self._strata = {}, {}

    g = functools.cached_property(lambda self: self.sigma.degree())
    z = functools.cached_property(lambda self: _abs_bound(self.sigma))
    h = functools.cached_property(lambda self: _restriction_rounding(self.sigma))

    def rho_g(self, kept: tuple[int, ...]) -> int:
        """rho^g of the face ``kept``: rho = 1 through vertex 0, else k + 1."""
        return (1 if kept[0] == 0 else len(kept)) ** self.g

    def net(self, degree: int) -> np.ndarray:
        """flatten(sigma)'s control net of that degree."""
        if degree not in self._nets:
            self._nets[degree] = _control_net(self.flat, degree)
        return self._nets[degree]

    def stratum(self, member: CornerManifold, active: tuple[int, ...]) -> _Stratum:
        """The stratum of a level-set member with ``active`` active."""
        key = id(member), active  # the stratum holds the member, so the id stays its own
        if key not in self._strata:
            self._strata[key] = _Stratum(self, member, active)
        return self._strata[key]


class _Stratum:
    """A level-set stratum {e = 0}, e the level and active inequalities, as
    one map's certificate sees it.  The root-free test needs an unprojected
    map and affine e, which takes sigma's net to e o sigma's (``netted``);
    the transversality certificate needs a Euclidean frame too (``rows``)."""

    def __init__(self, cx: _Certificate, member: CornerManifold, active: tuple[int, ...]):
        self.cx, self.member = cx, member
        self.eqs = [member.level] + [member.inequalities[a] for a in active]
        self.netted = not cx.sigma.project_flag and all(e.total_degree() <= 1 for e in self.eqs)

    @functools.cached_property
    def bound(self) -> float:
        """S = max_i |e_i|(Z), by e's own evaluation arrays."""
        def magnitude(e):
            deg, idx, coef, _, _ = e._eval_arrays()
            return float(np.max(np.abs(coef).T @ e._monomials(self.cx.z, deg, idx)))
        return max(map(magnitude, self.eqs))

    @functools.cached_property
    def rows(self) -> np.ndarray | None:
        """A, e's constant c x N Jacobian, if it passes
        ``_level_set_tangent``'s rank test, else None: such a stratum raises
        ``RankDrop`` at its first located point, so only Newton may settle it."""
        ambient = self.cx.sigma.ambient
        if not self.netted or ambient.kind != "euclidean":
            return None
        z = np.zeros(self.cx.n_amb)
        rows = (np.concatenate([e.jac_many(z) for e in self.eqs], axis=1)[0]
                @ ambient.tangent_basis(z))
        if not np.isfinite(rows).all():
            return None
        try:
            _level_set_tangent(self.member, rows, z)
        except RankDrop:
            return None
        return rows


def _residual_net(cx: _Certificate, kept: tuple[int, ...], stratum: _Stratum, degree: int,
                  columns: int, depth: int):
    """Control points of that degree of r = e o flatten(sigma) on the face
    ``kept``, for the netted stratum's e, shape (K, c), and ``error``,
    bounding the rounding of each, of d.b per unit of |d|_1 and of Newton's
    value of r_i on the face map ``restrict`` makes, in a system of
    ``columns`` columns bisected ``depth`` times (terms of ``_Certificate``).

    The face's net is a selection of rows of flatten(sigma)'s net, and e of
    it is r's net, as the basis sums to 1.  Counting h for a coefficient of
    flatten, K + 1 for the control matrix (entries in [0, 1]), K = C(degree
    + n, n), N + 1 for e, degree + 2 per halving (convex weights) and c + 1
    for d.b, each control point is within gamma_n S of exact (``_gamma``),
    n = h + K + (degree + 2) L + N + c + 6.  Newton's r_i is within
    gamma_(h + N + 2) rho^g S of exact.  As fl(S) >= (1 - gamma_n) S,
    ``error`` = gamma_2n (1 + rho^g) fl(S) covers both."""
    n = cx.n
    face = cx.net(degree)[_face_rows(n, degree, kept)]
    count = cx.h + math.comb(degree + n, n) + (degree + 2) * depth + cx.n_amb + columns + 6
    error = _gamma(2 * count) * (1 + cx.rho_g(kept)) * stratum.bound
    return np.concatenate([e.eval_many(face) for e in stratum.eqs], axis=1), error


def _bisect(pieces: np.ndarray, ctrl: np.ndarray, halves: np.ndarray):
    """Both halves of every simplex in ``pieces`` (rows of vertices), split
    at the midpoint of its longest edge, and their control points."""
    gaps = np.sum((pieces[:, :, None] - pieces[:, None, :]) ** 2, axis=3)
    i, j = np.divmod(np.argmax(gaps.reshape(len(pieces), -1), axis=1), pieces.shape[1])
    rows = np.arange(len(pieces))
    mid = (pieces[rows, i] + pieces[rows, j]) / 2
    left, right = pieces.copy(), pieces.copy()
    left[rows, j] = mid
    right[rows, i] = mid
    halved = halves[i, j] @ ctrl[:, None]
    return np.concatenate([left, right]), np.concatenate([halved[:, 0], halved[:, 1]])


def _excluded(ctrl: np.ndarray, k: int, degree: int, tau: float, error: float,
              depth: int = _EXCLUSION_DEPTH) -> bool:
    """True when the map g on Delta^k whose control points of that degree
    are ``ctrl``, shape (nb, c), each within ``error`` of its exact value,
    d.b included per unit of |d|_1, provably has max_i |g_i| > tau + error
    on the whole closed simplex.

    g lies in the hull of its control points b, so d.b > sqrt(c) |d|_2 (tau
    + 2 error) on a piece gives, as |d|_1 <= sqrt(c) |d|_2, d.g > sqrt(c)
    |d|_2 (tau + error) and max |g_i| > tau + error there.  For d = +-e_i or
    the mean control point, 1 + gamma_(2c+12) covers |d|_2 (2c + 3
    roundings) and the 7 roundings of ``margin``; underflow is not
    modelled.  Failing pieces are halved at their longest edge, up to
    ``depth`` times.  A non-finite value never certifies."""
    c = ctrl.shape[1]
    margin = math.sqrt(c) * (1 + _gamma(2 * c + 12)) * (tau + 2 * error)
    pieces, ctrl = np.concatenate([np.zeros((1, k)), np.eye(k)])[None], ctrl[None]
    for level in range(depth + 1 if k else 1):
        if level:
            pieces, ctrl = _bisect(pieces, ctrl, _bernstein(k, degree)[2])
        mean = ctrl.mean(axis=1)
        norm = np.linalg.norm(mean, axis=1, keepdims=True)
        d = mean / np.where(norm > 0, norm, 1.0)
        lower = np.concatenate([ctrl.min(axis=1), -ctrl.max(axis=1),
                                np.min(ctrl @ d[:, :, None], axis=1)], axis=1)
        keep = ~(np.max(lower, axis=1) > margin)  # a NaN bound stays
        pieces, ctrl = pieces[keep], ctrl[keep]
        if not len(pieces):
            return True
    return False


def _root_free(cx: _Certificate, kept: tuple[int, ...], stratum: _Stratum, tau_root: float,
               depth: int = _EXCLUSION_DEPTH) -> bool:
    """True when Newton's float residual r~ of the netted ``stratum`` on the
    face ``kept`` provably keeps max |r~| > tau_root on the closed face:
    ``_excluded`` gives max |r| > tau_root + error, and r~ is within
    ``error`` of r (see ``_residual_net``)."""
    ctrl, error = _residual_net(cx, kept, stratum, cx.g, sum(e.ncomp for e in stratum.eqs), depth)
    return _excluded(ctrl, len(kept) - 1, cx.g, tau_root, error, depth)


def _critical_system(cx: _Certificate, kept: tuple[int, ...], stratum: _Stratum,
                     tol_rank: float, tau_root: float):
    """Control points of the critical system (r, m_S) of the k-face ``kept``
    against the c affine equations of ``stratum``, k >= c, at the degree D
    = c d, d = max(g - 1, ceil(g / c)), shape (K, c + M) with one minor m_S
    of Dr per c-subset S of the face coordinates; D; each column's bound t
    (tau' for r, mu_S for m_S, see ``_transverse``); and each column's
    rounding allowance (terms of ``_Certificate``).

    r's net and allowance are ``_residual_net``'s.  d/dw_j of the face's net
    b of degree d + 1 >= g is (d + 1) (b_(beta + e_j) - b_(beta + e_0)) of
    degree d (``_partial_rows``), A of it dr/dw_j's, and m_S sums c!
    products of c of those, nets of degrees p and q multiplying to one of
    degree p + q (``_product_weights``): degree c d = D >= g, r's, so no net
    is elevated.  A partial's control point takes n_p = h/2 + C(d + 1 + n,
    n) + 4 roundings and is at most 2 (d + 1) Z on absolute values; A adds
    N + 1, a product its factors' counts plus K^2 + 3, K = C(D + n, n), for
    its weights (in [0, 1], summing to 1) and sum, and the signs c!.  With
    the halvings, d.b and fl(S_m) a minor takes n_m = c (n_p + N + 1) + (c -
    1) (K^2 + 3) + c! + (D + 2) L + 2 c + M + 4, and is at most S_m = c! (2
    (d + 1) S)^c: gamma_2n_m fl(S_m) bounds its rounding.

    mu_S = (10 tol_rank + slack) rho |A|_2^c c^((c-1)/2) prod_(j in S)
    max(W_j, f), with |A|_2 <= s_1 + gamma_p |A|_F, s_1 >= ... >= s_c the
    singular values LAPACK gives for A, and 1 + gamma_(4c+16) covering its
    own roundings.  W_j bounds |J_j| on the face by dflatten/dw_j's net,
    within gamma_2n_p 2 (d + 1) Z.  ``slack`` covers the rounding of
    Newton's path (Weyl's inequality): on the restricted face a column of
    ``jacobian_many`` is within sqrt(N) gamma_h g rho^g max Z of J_j
    (``_restriction_rounding``), which the normalization moves at most 2/f
    as much, plus gamma_(N+4) for its own roundings; LAPACK's SVDs are
    backward stable with a perturbation at most gamma_p times the Frobenius
    norm, p = 16 (N + k)^2 standing for their dimension constant (Demmel
    and Kahan 1990), which moves K by at most 2 sqrt(N - c) gamma_p (1 + 2
    |A|_F / s_c) (Wedin 1972) and the least singular value of M by gamma_p
    |M|_F <= 2 gamma_p sqrt(k + N - c)."""
    n, k, n_amb, g, z, h = cx.n, len(kept) - 1, cx.n_amb, cx.g, cx.z, cx.h
    constraints, bound = stratum.rows, stratum.bound
    c = len(constraints)
    d = max(g - 1, -(-g // c))
    degree = c * d
    subsets = list(itertools.combinations(range(k), c))
    perms = list(itertools.permutations(range(c)))
    r, error = _residual_net(cx, kept, stratum, degree, c + len(subsets), _CERTIFICATE_DEPTH)
    face = cx.net(d + 1)[_face_rows(n, d + 1, kept)]
    plus, minus = _partial_rows(k, d + 1)
    partials = (d + 1) * (face[plus] - face[minus])  # (k, K_d, N): d flatten / dw_j
    grads = partials @ constraints.T  # (k, K_d, c): dr_i / dw_j

    def factor(i):  # dr_i / dw_(S[p[i]]) for every (S, p), shape (K_d, M c!)
        return grads[[s[p[i]] for s in subsets for p in perms], :, i].T

    term = factor(0)
    for i in range(1, c):
        outer = (term[:, None] * factor(i)[None]).reshape(-1, term.shape[1])
        term = _product_weights(k, i * d, d) @ outer
    signs = [(-1.0) ** sum(p > q for p, q in itertools.combinations(perm, 2)) for perm in perms]
    minors = term.reshape(len(term), len(subsets), len(perms)) @ np.array(signs)
    ctrl = np.concatenate([r, minors], axis=1)

    n_p = h // 2 + math.comb(d + 1 + n, n) + 4
    n_m = (c * (n_p + n_amb + 1) + (c - 1) * (math.comb(degree + n, n) ** 2 + 3)
           + math.factorial(c) + (degree + 2) * _CERTIFICATE_DEPTH + 2 * c + len(subsets) + 4)
    error_m = _gamma(2 * n_m) * math.factorial(c) * (2 * (d + 1) * bound) ** c
    jac = np.abs(partials).max(axis=1) + _gamma(2 * n_p) * 2 * (d + 1) * z
    widths = np.maximum(np.linalg.norm(jac, axis=1) * (1 + _gamma(2 * n_amb + 8)),
                        _COLUMN_FLOOR)
    lapack = _gamma(16 * (n_amb + k) ** 2)
    sv = np.linalg.svd(constraints, compute_uv=False)
    frobenius = float(np.linalg.norm(constraints))
    slack = (math.sqrt(k) * (2 / _COLUMN_FLOOR * math.sqrt(n_amb) * _gamma(2 * h) * g
                             * cx.rho_g(kept) * float(np.max(z)) + _gamma(n_amb + 4))
             + 2 * lapack * math.sqrt(k + n_amb - c))
    rho = 1.0
    if c < n_amb:
        slack += 2 * math.sqrt(n_amb - c) * lapack * (1 + 2 * frobenius / sv[-1])
        rho = math.sqrt(1 + k)
    norm_a = (sv[0] + lapack * frobenius) * (1 + _gamma(1))
    mu = ((10 * tol_rank + slack) * rho * norm_a ** c * c ** ((c - 1) / 2)
          * (1 + _gamma(4 * c + 16)) * np.array([math.prod(widths[list(s)]) for s in subsets]))
    bounds = np.concatenate([np.full(c, tau_root + 2 * error), mu])
    return ctrl, degree, bounds, np.concatenate([np.full(c, error), np.full(len(mu), error_m)])


def _transverse(cx: _Certificate, kept: tuple[int, ...], stratum: _Stratum, tol_rank: float,
                tau_root: float) -> bool:
    """True when every point Newton can keep on the face ``kept`` of sigma
    against ``stratum`` provably has a spanning value of at least 10
    tol_rank, so the pair can neither fail nor escalate
    ``is_transverse_pair``.  The stratum has rows: A = ``stratum.rows``,
    the constant c x N Jacobian of its c affine equations.

    On a k-face with k < c the spanning test cannot pass, so the certificate
    is ``_root_free``, with _CERTIFICATE_DEPTH bisections.  For k >= c,
    Newton keeps only points w with max |r~(w)| <= tau_root, and there
    Dr = A J, J = Dsigma_f.  The spanning test takes the least singular
    value of M = [J D^-1 | K], D = diag(max(|J_j|, f)), f = _COLUMN_FLOOR,
    K an orthonormal basis of ker A (for c < N; any basis gives the same
    singular values).  Let U be an orthonormal basis of the row space of A,
    X = K^T J D^-1, Y = U^T J D^-1 and s = sigma_c(Y).  For a unit v = (v1,
    v2) in ker A + row A, |M^T v|^2 = |X^T v1 + Y^T v2|^2 + |v1|^2, whose
    least value is at least s^2 / (1 + |X|^2 + s^2) >= s^2 / (1 + k), as
    |X|^2 + s^2 <= |J D^-1|_F^2 <= k.  For c = N, sigma_N(M) = s.  With
    B = A J D^-1, s >= sigma_c(B) / |A|_2, and for a c-subset S of the
    columns, by interlacing, sigma_c(B) >= sigma_c(B_S) >= |det B_S| /
    |B_S|_2^(c-1), |B_S|_2 <= |A|_2 sqrt(c).  As det B_S = m_S /
    prod_(j in S) D_j, m_S the minor of Dr on the columns S,

        sigma_N(M) >= |m_S| / (rho |A|_2^c c^((c-1)/2) prod_(j in S) D_j),

    rho = sqrt(1 + k) for c < N, else 1.  So |m_S| > mu_S (see
    ``_critical_system``) gives sigma_N(M) >= 10 tol_rank + slack, and
    Newton's computed value is at least 10 tol_rank.

    One exclusion of the stacked system (r / tau', m_S / mu_S) settles the
    pair: at every point some |m_S| > mu_S, or some |r_i| > tau' = tau_root
    + 2 error, where r~ exceeds tau_root and Newton keeps nothing.  A column
    scaled by its bound t adds one rounding, which 2 error / t covers, as
    error >= 2 u S."""
    k = len(kept) - 1
    if k < len(stratum.rows):
        return _root_free(cx, kept, stratum, tau_root, _CERTIFICATE_DEPTH)
    ctrl, degree, bounds, errors = _critical_system(cx, kept, stratum, tol_rank, tau_root)
    return _excluded(ctrl / bounds, k, degree, 1.0, float(np.max(2 * errors / bounds)),
                     _CERTIFICATE_DEPTH)


def _cluster(points: list[IntersectionPoint]) -> list[int]:
    """Indices of the points a greedy merge keeps, lowest residual first: a
    point within _CLUSTER_RADIUS of a kept one in both x and y is dropped."""
    rounded = np.round(np.array([p.x for p in points]), 12).tolist()
    order = sorted(range(len(points)), key=lambda i: (points[i].residual, tuple(rounded[i])))
    rows = np.array([np.concatenate([p.x, p.y]) for p in points])
    # each point's distance to the nearest point kept so far, updated once
    # per kept point; np.minimum keeps a NaN distance the way np.min does
    nearest = np.full(len(points), np.inf)
    kept: list[int] = []
    for i in order:
        if nearest[i] <= _CLUSTER_RADIUS:
            continue
        kept.append(i)
        np.minimum(nearest, np.max(np.abs(rows - rows[i]), axis=1), out=nearest)
    return kept


def _level_set_tangent(member: CornerManifold, constraints: np.ndarray,
                       z: np.ndarray) -> np.ndarray:
    """Orthonormal basis, in the tangent frame the constraint rows are
    written in, of the kernel of a level-set stratum's constraints."""
    _, sv, vh = np.linalg.svd(constraints)
    scale = max(sv[0], 1.0) if len(sv) else 1.0
    rank = int(np.sum(sv > _STRATUM_RANK_TOL * scale))
    if rank < constraints.shape[0]:
        raise RankDrop(f"member {member.name}: stratum constraints drop rank at z={z}")
    return vh[rank:].T


def _normalize_columns(a: np.ndarray) -> np.ndarray:
    # Scale floor, not pure normalization: a column whose norm sits below
    # the floor is a vanishing pushforward direction (the image of the
    # differential collapses there), and blowing it up to unit length
    # would report a tangency as a healthy crossing.
    if a.shape[1] == 0:
        return a
    norms = np.linalg.norm(a, axis=0)
    return a / np.maximum(norms, _COLUMN_FLOOR)


def _spanning_sv(cols: np.ndarray) -> float:
    """Smallest singular value of the spanning test: 0 if too few columns."""
    m, p = cols.shape
    if p < m:
        return 0.0
    sv = np.linalg.svd(cols, compute_uv=False)
    return float(sv[m - 1])


def _solve_descriptor_pair(cx: _Certificate, member: CornerManifold, vanishing: tuple[int, ...],
                           active: tuple[int, ...], cells: int,
                           opts: LocusOptions) -> IntersectionReport:
    """Located points of one open face of ``cx``'s map against one open
    member stratum, each with its spanning margin.  A face the root-free
    test declines is restricted."""
    sigma, n = cx.sigma, cx.n
    kept = tuple(i for i in range(n + 1) if i not in vanishing)
    split = len(kept) - 1
    if member.kind == LEVEL_SET:
        stratum = cx.stratum(member, active)
        eqs = stratum.eqs
        if stratum.netted and _root_free(cx, kept, stratum, opts.tau_root):
            return IntersectionReport(cells_used=cells)
    beta = face_for_vertices(n, kept)
    sigma_f = sigma.restrict(beta)
    aff = realize_morphism(beta)

    if member.kind == LEVEL_SET:
        seeds = simplex_grid(split, cells + 1)

        def linearize(w):
            raw = sigma_f.raw_many(w)
            z = sigma_f.eval_many(w, raw)
            r = np.concatenate([e.eval_many(z) for e in eqs], axis=1)
            dz = np.concatenate([e.jac_many(z) for e in eqs], axis=1)
            return r, np.einsum("pij,pjk->pik", dz, sigma_f.jacobian_many(w, raw))

        clip = collapse_to_simplex
    else:
        d = member.chart.dim
        gamma = face_for_vertices(d, tuple(i for i in range(d + 1) if i not in active))
        chart_f = member.chart.restrict(gamma)
        aff_m = realize_morphism(gamma)
        seeds_w, seeds_m = simplex_grid(split, cells + 1), simplex_grid(d - len(active), cells + 1)
        seeds = np.concatenate([np.repeat(seeds_w, len(seeds_m), axis=0),
                                np.tile(seeds_m, (len(seeds_w), 1))], axis=1)

        def linearize(u):
            w, v = u[:, :split], u[:, split:]
            raw_w, raw_v = sigma_f.raw_many(w), chart_f.raw_many(v)
            r = sigma_f.eval_many(w, raw_w) - chart_f.eval_many(v, raw_v)
            jac = np.concatenate([sigma_f.jacobian_many(w, raw_w),
                                  -chart_f.jacobian_many(v, raw_v)], axis=2)
            return r, jac

        def clip(u):
            return np.concatenate(
                [collapse_to_simplex(u[:, :split]), collapse_to_simplex(u[:, split:])],
                axis=1,
            )

    sols, norms = _batched_newton(linearize, seeds, opts, clip)

    report = IntersectionReport(cells_used=cells)
    inside = np.all(barycentrics_many(split, sols[:, :split]) > _OPEN_TOL, axis=1)
    failed = norms > opts.tau_root
    # count only failures that stayed in the domain; seeds that wander off
    # are expected and not evidence of trouble
    report.newton_failures = int(np.count_nonzero(failed & inside & (norms > 1e-6)))
    converged = inside & ~failed
    if not converged.any():
        return report
    sols, residuals = sols[converged], norms[converged]
    w = sols[:, :split]
    z = sigma_f.eval_many(w)
    if member.kind == LEVEL_SET:
        open_rows = np.ones(len(sols), dtype=bool)
        for b, h in enumerate(member.inequalities):
            if b not in active:
                open_rows &= ~(h.eval_many(z)[:, 0] <= _OPEN_TOL)
        y = z
    else:
        v = sols[:, split:]
        open_rows = np.all(barycentrics_many(v.shape[1], v) > _OPEN_TOL, axis=1)
        y = aff_m.apply(v)
    x = aff.apply(w)
    candidates = [
        IntersectionPoint(member=member.name, x=x[i], simplex_vanishing=vanishing,
                          y=y[i], member_active=active, z=z[i],
                          residual=float(residuals[i]))
        for i in np.flatnonzero(open_rows)
    ]
    candidate_sols = sols[open_rows]

    # clustered first: the margin is computed once per kept point
    keep = _cluster(candidates)
    report.points = [candidates[i] for i in keep]
    if not keep:
        return report
    kept_sols = candidate_sols[keep]
    simplex_jacs = sigma_f.jacobian_many(kept_sols[:, :split])
    if member.kind == LEVEL_SET:
        zs = np.array([p.z for p in report.points])
        member_jacs = np.concatenate([e.jac_many(zs) for e in eqs], axis=1)
    else:
        member_jacs = chart_f.jacobian_many(kept_sols[:, split:])
    for p, js, jm in zip(report.points, simplex_jacs, member_jacs):
        frame = sigma.ambient.tangent_basis(p.z)
        if member.kind == LEVEL_SET:
            member_cols = _level_set_tangent(member, jm @ frame, p.z)
        else:
            member_cols = frame.T @ jm
        p.spanning_sv = _spanning_sv(np.concatenate(
            [_normalize_columns(frame.T @ js), _normalize_columns(member_cols)], axis=1))
    return report


def intersection_locus(
    sigma: SmoothSimplexMap,
    simplex_depth: int,
    member: CornerManifold,
    member_depth: int,
    opts: LocusOptions = LocusOptions(),
    cells: int | None = None,
) -> IntersectionReport:
    """All located intersections between the open depth-k stratum of the
    simplex and the open depth-l stratum of the member, with their spanning
    margins.  A map with a NaN or infinite coefficient raises
    ``NonFiniteMap``: no locus of it means anything.

    The locus is a deterministic function of the map, the member, the
    depths, the cell density and the options, so the map keeps each one it
    solved in ``sigma.loci`` and a repeated call looks it up.  Every call
    returns a report of its own, with its own point list; a solve that
    raises keeps nothing."""
    cells = opts.cells_per_dim if cells is None else cells
    # keyed on the member's identity (it is not hashable); the stored member
    # keeps that identity from being reused
    key = (simplex_depth, id(member), member_depth, cells, opts)
    known = sigma.loci.get(key)
    if known is None or known[0] is not member:
        cx = _Certificate(sigma)
        n = sigma.dim
        report = IntersectionReport(cells_used=cells)
        if simplex_depth <= n and member_depth in member.depths():
            for vanishing in itertools.combinations(range(n + 1), simplex_depth):
                for active in member.descriptors(member_depth):
                    report.extend(_solve_descriptor_pair(cx, member, vanishing, active, cells,
                                                         opts))
            report.points = [report.points[i] for i in _cluster(report.points)]
        known = sigma.loci[key] = (member, report)
    return replace(known[1], points=list(known[1].points))


@dataclass
class PairVerdict:
    ok: bool
    min_sv: float
    report: IntersectionReport
    member: str
    tol_rank: float


@dataclass
class TransversalityResult:
    ok: bool
    verdicts: dict[str, PairVerdict]

    @property
    def min_sv(self) -> float:
        svs = [v.min_sv for v in self.verdicts.values()]
        return min(svs) if svs else math.inf


def _depth_list(sigma: SmoothSimplexMap, simplex_depths) -> list[int]:
    if simplex_depths is None:
        return list(range(sigma.dim + 1))
    return sorted(set(int(k) for k in simplex_depths))


def is_transverse_pair(
    sigma: SmoothSimplexMap,
    member: CornerManifold,
    tol_rank: float = 1e-6,
    simplex_depths=None,
    opts: LocusOptions = LocusOptions(),
) -> PairVerdict:
    """Spanning-test verdict over every located intersection point.

    Cell density escalates (x2, up to the cap) while any located point sits
    within a factor 10 of tol_rank: near-threshold verdicts are the ones a
    missed intersection could flip.
    """
    cells = opts.cells_per_dim
    while True:
        report = IntersectionReport(cells_used=cells)
        for k in _depth_list(sigma, simplex_depths):
            for ell in member.depths():
                report.extend(intersection_locus(sigma, k, member, ell, opts, cells))
        svs = [p.spanning_sv for p in report.points]
        min_sv = min(svs) if svs else math.inf
        near = any(tol_rank / 10 <= s < tol_rank * 10 for s in svs)
        if near and cells * 2 <= _MAX_CELLS_PER_DIM:
            cells *= 2
            continue
        ok = all(s >= tol_rank for s in svs)
        return PairVerdict(ok=ok, min_sv=min_sv, report=report,
                           member=member.name, tol_rank=tol_rank)


def is_T_transverse(
    sigma: SmoothSimplexMap,
    members: TCollection,
    tol_rank: float = 1e-6,
    simplex_depths=None,
    opts: LocusOptions = LocusOptions(),
) -> TransversalityResult:
    """Conjunction of pair verdicts over the whole collection.

    Depth k >= 1 strata of the simplex are exactly the open strata of its
    proper faces, so the default all-depths sweep is the stratumwise check
    for the simplex together with every face.
    """
    verdicts = {}
    ok = True
    for member in members:
        v = is_transverse_pair(sigma, member, tol_rank, simplex_depths, opts)
        verdicts[member.name] = v
        ok = ok and v.ok
    return TransversalityResult(ok=ok, verdicts=verdicts)


def is_T_transverse_ok(
    sigma: SmoothSimplexMap,
    members: TCollection,
    tol_rank: float = 1e-6,
    opts: LocusOptions = LocusOptions(),
) -> bool:
    """``is_T_transverse(sigma, members, tol_rank, opts=opts).ok``, for
    callers that read only the verdict.

    A simplex depth is left out of a member's sweep when every face at that
    depth is certified against every stratum of the member (``_transverse``):
    no point located there has a spanning value below 10 tol_rank, so it
    could neither fail the verdict nor start an escalation.  The other
    depths go to ``is_transverse_pair``.  Only a level-set member whose
    strata all have rows (``_Stratum``) is certified, from the map's nets,
    restricting no face; anything else is swept whole.  A map with a
    non-finite coefficient raises ``NonFiniteMap``."""
    cx = _Certificate(sigma)
    n = sigma.dim
    ok = True
    for member in members:
        strata = [cx.stratum(member, active) for ell in member.depths()
                  for active in member.descriptors(ell)] if member.kind == LEVEL_SET else []
        settled = strata and all(s.rows is not None for s in strata)
        rest = [k for k in range(n + 1) if not settled or not all(
            _transverse(cx, kept, s, tol_rank, opts.tau_root)
            for kept in itertools.combinations(range(n + 1), n + 1 - k) for s in strata)]
        if rest:
            ok = is_transverse_pair(sigma, member, tol_rank, rest, opts).ok and ok
    return ok


@dataclass
class PerturbationResult:
    sigma_prime: SmoothSimplexMap
    s: np.ndarray
    amplitude: float
    trials_used: int
    seed: int
    tol_rank: float
    min_sv: float


def _ball_sample(rng: np.random.Generator, dim: int) -> np.ndarray:
    direction = rng.normal(size=dim)
    norm = np.linalg.norm(direction)
    while norm < 1e-12:
        direction = rng.normal(size=dim)
        norm = np.linalg.norm(direction)
    radius = rng.random() ** (1.0 / dim)
    return direction / norm * radius


def perturb_to_transverse(
    sigma: SmoothSimplexMap,
    members: TCollection,
    seed: int,
    max_trials: int = 32,
    tol_rank: float = 1e-6,
    opts: LocusOptions = LocusOptions(),
) -> PerturbationResult:
    """Rel-boundary perturbation into T-transverse position.

    Adds rho(x) * amp * s with rho the product of all barycentric
    coordinates, s drawn from the open unit ball with the seeded generator,
    and amp chosen so the raw image keeps headroom inside the tube.  The
    candidate is accepted when its interior stratum is transverse to every
    member stratum; boundary strata are untouched by construction, so face
    transversality (the lemma hypothesis) is preserved verbatim.
    """
    eps = sigma.ambient.tube_radius
    if sigma.project_flag:
        headroom = eps - sigma.max_raw_offset()
        amplitude = min(0.9 * headroom, 0.15 * eps)
        if amplitude <= 0:
            raise OutOfTube("no tube headroom left for a perturbation")
    else:
        amplitude = 0.15 * eps

    ambient_dim = sigma.ambient.ambient_dim
    per_trial_sv: list[float] = []
    for trial in range(max_trials):
        rng = np.random.default_rng([int(seed), trial])
        s = _ball_sample(rng, ambient_dim)
        candidate = sigma.with_bump(s, amplitude=amplitude)
        result = is_T_transverse(candidate, members, tol_rank, simplex_depths=(0,), opts=opts)
        per_trial_sv.append(result.min_sv)
        if result.ok:
            return PerturbationResult(
                sigma_prime=candidate,
                s=s,
                amplitude=amplitude,
                trials_used=trial + 1,
                seed=int(seed),
                tol_rank=tol_rank,
                min_sv=result.min_sv,
            )
    raise TrialsExhausted(
        f"no transverse perturbation in {max_trials} trials",
        diagnostics={
            "seed": int(seed),
            "tol_rank": tol_rank,
            "per_trial_min_sv": per_trial_sv,
        },
    )
