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

Where the face residual is a polynomial (an unprojected simplex map against
a level-set member), a Bernstein exclusion test runs first.  It certifies
that Newton's float residual stays above ``tau_root`` in max norm on the
whole closed face, so Newton, which would keep no point there, is skipped.
Its control points come from the coefficients of r = e o flatten(sigma_f),
and its allowance for rounding is derived: Higham's gamma_n times a bound
from the coefficients' magnitudes (see ``_control_points``).  Located
points are still numerical: completeness elsewhere is heuristic and is
guarded by the density escalation in ``is_transverse_pair``, so a verdict
with points is a numerical statement about them, not a certificate.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .ambient import AmbientManifold
from .errors import OutOfTube, RankDrop, TrialsExhausted
from .poly import PolyMap, _substitute, _sum_terms, point_block
from .simplex_geom import (
    _bernstein,
    barycentrics_many,
    collapse_to_simplex,
    face_for_vertices,
    realize_morphism,
    simplex_grid,
)
from .smooth_maps import SmoothSimplexMap, finite_flatten

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
    "perturb_to_transverse",
]

LEVEL_SET = "level_set"
PARAMETRIC = "parametric"

_STRATUM_RANK_TOL = 1e-7
_MAX_CELLS_PER_DIM = 64  # cap of the cell escalation in is_transverse_pair
_CLUSTER_RADIUS = 1e-6  # located points closer than this are one point
_OPEN_TOL = 1e-9  # barycentric / inequality margin of an open stratum
_MAX_ITERS = 30  # most Gauss-Newton iterations per solve
_EXCLUSION_DEPTH = 6  # bisection levels of the root-free test


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
        if not isinstance(tau, (int, float)) or not (math.isfinite(tau) and tau > 0):
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
    with a residual above 1e-6, on faces where Newton ran.  A face that the
    root-free test certifies skips Newton and reports 0, so the count
    depends on which faces the exclusion certifies, not only on the map."""

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
    """Higham's gamma_n = n u / (1 - n u), u = 2^-53 the unit roundoff."""
    return n * 2.0 ** -53 / (1 - n * 2.0 ** -53)


def _control_points(sigma_f: SmoothSimplexMap, eqs: list[PolyMap], degree: int):
    """Control points of that degree of r = e o flatten(sigma_f) on the face,
    shape (nb, c), and ``error``, bounding the rounding of each one, of d.b
    per unit of |d|_1 and of Newton's value of each r_i.

    Built from the stored data by + and *, a value is within gamma_h X of its
    exact value, X the same expression on absolute values and h the roundings
    on its longest path, a product adding its operands' counts (Higham,
    Accuracy and Stability, 3.1, Lemma 3.3).  A dict or matrix product adds
    at most K = C(degree + k, k) here, and a value of sigma_f or a
    coefficient of flatten at most F = (g + 1) (k + 3) + T + B (g, T, B: its
    degree, term and bump counts).  With D_e and T_e the equations' degree
    and most terms, N the ambient dimension and L = _EXCLUSION_DEPTH, n =
    (D_e + L + 2) (K + F + T_e + N + c) covers r's coefficients and Newton's
    value (D_e factors of F + K, + T_e + N), the control points (+ (L + 2)
    K), d.b (+ c) and fl(S).  As |w_j| <= 1 on the face, X <= S = max_i
    |e_i|(Z), Z = sum |poly coefficients| + sum over bumps |w| |s| prod
    (|a|_1 + |b|), w = fl(scale * amplitude), and the control matrix (entries
    in [0, 1]) and halvings (convex weights) keep X <= S; fl(S) >= (1 -
    gamma_n) S, so ``error`` = gamma_2n fl(S) covers gamma_n S."""
    row, to_bernstein, _ = _bernstein(sigma_f.dim, degree)
    flat = sigma_f.flatten()
    xs = [dict(zip(flat.terms, col))
          for col in np.array(list(flat.terms.values())).reshape(-1, flat.ncomp).T.tolist()]
    parts = [(_substitute(e.terms, xs, sigma_f.dim), e.ncomp) for e in eqs]
    coeffs = np.concatenate([[r.get(a, np.zeros(c)) for a in row] for r, c in parts], axis=1)
    z = sum((np.abs(v) for v in sigma_f.poly.terms.values()), np.zeros(flat.ncomp))
    for b in sigma_f.bumps:
        z = z + abs(b.scale * b.amplitude) * np.abs(b.s) * math.prod(
            float(np.sum(np.abs(a))) + abs(f) for a, f in b.rho.factors)

    def magnitude(e):  # max_i |e_i|(z), by e's own evaluation arrays
        deg, idx, coef, _, _ = e._eval_arrays()
        return np.max(_sum_terms(np.abs(coef)[:, :, None] * e._monomials(z, deg, idx)[:, None, :]))

    bound = max(map(magnitude, eqs))
    n = ((max(e.total_degree() for e in eqs) + _EXCLUSION_DEPTH + 2)
         * (len(row) + (sigma_f.degree() + 1) * (sigma_f.dim + 3) + len(sigma_f.poly.terms)
            + len(sigma_f.bumps) + max(len(e.terms) for e in eqs) + len(z) + coeffs.shape[1]))
    return to_bernstein @ coeffs, _gamma(2 * n) * float(bound)


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


def _root_free(sigma_f: SmoothSimplexMap, eqs: list[PolyMap], tau_root: float) -> bool:
    """True when Newton's float residual r~ of ``eqs`` on the unprojected face
    map ``sigma_f`` provably keeps max |r~| > tau_root on the closed face.

    r lies in the hull of its control points b, so d.b > sqrt(c) |d|_2
    (tau_root + 2 error) on a piece gives, as |d|_1 <= sqrt(c) |d|_2, d.r >
    sqrt(c) |d|_2 (tau_root + error) and max |r~| > tau_root there.  For d =
    +-e_i or the mean control point, 1 + gamma_(2c+12) covers |d|_2 (2c + 3
    roundings) and the 7 roundings of ``margin``; underflow is not modelled.
    Failing pieces are halved at their longest edge, up to _EXCLUSION_DEPTH
    times.  A non-finite value never certifies."""
    c, k = sum(e.ncomp for e in eqs), sigma_f.dim
    degree = sigma_f.degree() * max(e.total_degree() for e in eqs)
    ctrl, error = _control_points(sigma_f, eqs, degree)
    margin = math.sqrt(c) * (1 + _gamma(2 * c + 12)) * (tau_root + 2 * error)
    pieces, ctrl = np.concatenate([np.zeros((1, k)), np.eye(k)])[None], ctrl[None]
    for level in range(_EXCLUSION_DEPTH + 1 if k else 1):
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
    return a / np.maximum(norms, 1e-3)


def _spanning_sv(cols: np.ndarray) -> float:
    """Smallest singular value of the spanning test: 0 if too few columns."""
    m, p = cols.shape
    if p < m:
        return 0.0
    sv = np.linalg.svd(cols, compute_uv=False)
    return float(sv[m - 1])


def _solve_descriptor_pair(
    sigma: SmoothSimplexMap,
    member: CornerManifold,
    vanishing: tuple[int, ...],
    active: tuple[int, ...],
    cells: int,
    opts: LocusOptions,
) -> IntersectionReport:
    """Located points of one open simplex face against one open member
    stratum, each with its spanning margin."""
    n = sigma.dim
    kept_vertices = tuple(i for i in range(n + 1) if i not in vanishing)
    beta = face_for_vertices(n, kept_vertices)
    sigma_f = sigma.restrict(beta)
    aff = realize_morphism(beta)
    split = n - len(vanishing)

    if member.kind == LEVEL_SET:
        eqs = [member.level] + [member.inequalities[a] for a in active]
        if not sigma_f.project_flag and _root_free(sigma_f, eqs, opts.tau_root):
            return IntersectionReport(cells_used=cells)
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
        finite_flatten(sigma)
        n = sigma.dim
        report = IntersectionReport(cells_used=cells)
        if simplex_depth <= n and member_depth in member.depths():
            for vanishing in itertools.combinations(range(n + 1), simplex_depth):
                for active in member.descriptors(member_depth):
                    report.extend(
                        _solve_descriptor_pair(sigma, member, vanishing, active, cells, opts)
                    )
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
