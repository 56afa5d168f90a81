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
a level-set member), a Bernstein exclusion test runs first: if the convex
hull of the residual's control points, on the face or on each piece of a
few bisections, stays a margin away from zero, the face is certified
root-free and Newton is skipped.  Skipping changes no output: Newton keeps a
point only where the evaluated residual is within ``tau_root``, which the
margin rules out on the whole closed face.  Located points are still
numerical: completeness elsewhere is heuristic and is guarded by the
density escalation in ``is_transverse_pair``, so a verdict with points is a
numerical statement about them, not a certificate.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .ambient import AmbientManifold
from .corner_ext import _bernstein_basis
from .errors import OutOfTube, RankDrop, TrialsExhausted
from .poly import PolyMap
from .simplex_geom import (
    barycentrics_many,
    collapse_to_simplex,
    face_for_vertices,
    principal_lattice,
    realize_morphism,
    simplex_grid,
)
from .smooth_maps import SmoothSimplexMap

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
_EXCLUSION_ROUNDING = 1e-9  # rounding allowance of the root-free margin, relative


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

    def coorientation_frame(self, z: np.ndarray) -> np.ndarray:
        """Columns of the normal frame at z; empty (N, 0) if none declared."""
        n = self.ambient.ambient_dim
        if not self.coorientation:
            return np.zeros((n, 0))
        return np.stack([v.eval(z) for v in self.coorientation], axis=1)


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
    sign: int | None = None

    @property
    def simplex_depth(self) -> int:
        return len(self.simplex_vanishing)

    @property
    def member_depth(self) -> int:
        return len(self.member_active)


@dataclass
class IntersectionReport:
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

    The loop also stops at a fixed point: when a step leaves the whole
    block unchanged bit for bit.  ``linearize`` is a pure function of the
    iterates, so every later iteration would repeat this one, and running
    out the iteration budget would return the same pair.  Seeds that stall
    at a nonzero least-squares residual (a curve that misses a point) end
    the solve here instead of at ``_MAX_ITERS``.
    """
    u = seeds.copy()
    for _ in range(_MAX_ITERS):
        r, j = linearize(u)
        norms = np.max(np.abs(r), axis=1)
        if np.all(norms <= opts.tau_root) or not j.any():
            return u, norms
        step = np.einsum("pij,pj->pi", np.linalg.pinv(j), r)
        nxt = clip(u - step)
        if nxt.tobytes() == u.tobytes():
            return u, norms
        u = nxt
    r, _ = linearize(u)
    return u, np.max(np.abs(r), axis=1)


_control_cache: dict[tuple[int, int], tuple[np.ndarray, np.ndarray, float]] = {}


def _control_map(k: int, degree: int) -> tuple[np.ndarray, np.ndarray, float]:
    """The order-``degree`` principal lattice of Delta^k, the matrix taking
    values there to Bernstein control points, and its infinity norm."""
    key = (k, degree)
    if key not in _control_cache:
        lattice = principal_lattice(k, degree)[0]
        vand = np.stack([b.eval_many(lattice)[:, 0] for b in _bernstein_basis(k, degree)],
                        axis=1)
        inv = np.linalg.inv(vand)
        _control_cache[key] = (lattice, inv, float(np.max(np.sum(np.abs(inv), axis=1))))
    return _control_cache[key]


def _bisect(pieces: np.ndarray) -> np.ndarray:
    """Both halves of every simplex in ``pieces`` (rows of vertices), split
    at the midpoint of its longest edge."""
    gaps = np.sum((pieces[:, :, None] - pieces[:, None, :]) ** 2, axis=3)
    i, j = np.divmod(np.argmax(gaps.reshape(len(pieces), -1), axis=1), pieces.shape[1])
    rows = np.arange(len(pieces))
    mid = (pieces[rows, i] + pieces[rows, j]) / 2
    left, right = pieces.copy(), pieces.copy()
    left[rows, j] = mid
    right[rows, i] = mid
    return np.concatenate([left, right])


def _root_free(residual, k: int, degree: int, tau_root: float) -> bool:
    """True when the polynomial ``residual`` of at most that degree provably
    keeps ``max |r| > tau_root`` on the closed face Delta^k.

    On a simplex, r lies in the convex hull of its Bernstein control points
    b, so a unit direction d with ``min d.b`` above the margin keeps
    ``|r|_2``, and hence ``sqrt(c) * max |r|``, above it too.  The
    directions tried are +-e_i and the mean of the control points.  The
    margin adds to ``sqrt(c) * tau_root`` an allowance for the rounding of
    the values, of the control points, and of iterates a few ulps outside
    the face.  Pieces that fail are bisected, every piece of one level in
    one ``residual`` call, up to ``_EXCLUSION_DEPTH`` levels.  A non-finite
    value never certifies.
    """
    lattice, inv, inv_norm = _control_map(k, degree)
    pieces = np.concatenate([np.zeros((1, k)), np.eye(k)])[None]
    for level in range(_EXCLUSION_DEPTH + 1):
        if level:
            pieces = _bisect(pieces)
        base = pieces[:, :1]
        shape = (len(pieces), len(lattice))
        pts = base + lattice @ (pieces[:, 1:] - base)
        vals = residual(pts.reshape(shape[0] * shape[1], k)).reshape(*shape, -1)
        if not np.all(np.isfinite(vals)):
            return False
        ctrl = inv @ vals
        mean = ctrl.mean(axis=1)
        norm = np.linalg.norm(mean, axis=1, keepdims=True)
        d = mean / np.where(norm > 0, norm, 1.0)
        lower = np.concatenate([ctrl.min(axis=1), -ctrl.max(axis=1),
                                np.min(ctrl @ d[:, :, None], axis=1)], axis=1)
        scale = np.maximum(1.0, np.max(np.abs(vals), axis=(1, 2)))
        margin = math.sqrt(vals.shape[2]) * tau_root + _EXCLUSION_ROUNDING * inv_norm * scale
        pieces = pieces[np.max(lower, axis=1) <= margin]
        if not len(pieces):
            return True
        if k == 0:
            return False
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
    seeds = simplex_grid(split, cells + 1)

    if member.kind == LEVEL_SET:
        eqs = [member.level] + [member.inequalities[a] for a in active]
        if not sigma_f.project_flag:
            def residual(w):
                z = sigma_f.eval_many(w)
                return np.concatenate([e.eval_many(z) for e in eqs], axis=1)

            degree = sigma_f.degree() * max(e.total_degree() for e in eqs)
            if _root_free(residual, split, degree, opts.tau_root):
                return IntersectionReport(cells_used=cells)

        def linearize(w):
            z = sigma_f.eval_many(w)
            r = np.concatenate([e.eval_many(z) for e in eqs], axis=1)
            dz = np.concatenate([e.jac_many(z) for e in eqs], axis=1)
            return r, np.einsum("pij,pjk->pik", dz, sigma_f.jacobian_many(w))

        clip = collapse_to_simplex
    else:
        d = member.chart.dim
        gamma = face_for_vertices(d, tuple(i for i in range(d + 1) if i not in active))
        chart_f = member.chart.restrict(gamma)
        aff_m = realize_morphism(gamma)
        seeds_m = simplex_grid(d - len(active), cells + 1)
        seeds = np.concatenate(
            [np.repeat(seeds, len(seeds_m), axis=0), np.tile(seeds_m, (len(seeds), 1))],
            axis=1,
        )

        def linearize(u):
            w, v = u[:, :split], u[:, split:]
            r = sigma_f.eval_many(w) - chart_f.eval_many(v)
            jac = np.concatenate([sigma_f.jacobian_many(w), -chart_f.jacobian_many(v)],
                                 axis=2)
            return r, jac

        def clip(u):
            return np.concatenate(
                [collapse_to_simplex(u[:, :split]), collapse_to_simplex(u[:, split:])],
                axis=1,
            )

    sols, norms = _batched_newton(linearize, seeds, opts, clip)

    report = IntersectionReport(cells_used=cells)
    candidates: list[IntersectionPoint] = []
    candidate_sols = []
    inside = np.all(barycentrics_many(split, sols[:, :split]) > _OPEN_TOL, axis=1)
    for sol, norm, ins in zip(sols, norms, inside):
        if norm > opts.tau_root:
            # count only failures that stayed in the domain; seeds that wander
            # off are expected and not evidence of trouble
            if ins and norm > 1e-6:
                report.newton_failures += 1
            continue
        if not ins:
            continue
        w = sol[:split]
        z = sigma_f.eval(w)
        if member.kind == LEVEL_SET:
            if any(h.eval(z)[0] <= _OPEN_TOL
                   for b, h in enumerate(member.inequalities) if b not in active):
                continue
            y = z
        else:
            v = sol[split:]
            if not np.all(barycentrics_many(len(v), v[None, :])[0] > _OPEN_TOL):
                continue
            y = aff_m.apply(v)
        candidates.append(IntersectionPoint(
            member=member.name, x=aff.apply(w), simplex_vanishing=vanishing,
            y=y, member_active=active, z=z, residual=float(norm),
        ))
        candidate_sols.append(sol)

    # clustered first: the margin is computed once per kept point
    keep = _cluster(candidates)
    report.points = [candidates[i] for i in keep]
    if not keep:
        return report
    kept_sols = np.array([candidate_sols[i] for i in keep])
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
    margins."""
    n = sigma.dim
    cells = opts.cells_per_dim if cells is None else cells
    report = IntersectionReport(cells_used=cells)
    if simplex_depth > n or member_depth not in member.depths():
        return report
    for vanishing in itertools.combinations(range(n + 1), simplex_depth):
        for active in member.descriptors(member_depth):
            report.extend(
                _solve_descriptor_pair(sigma, member, vanishing, active, cells, opts)
            )
    report.points = [report.points[i] for i in _cluster(report.points)]
    return report


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

    def witness(self) -> IntersectionPoint | None:
        worst = None
        for v in self.verdicts.values():
            for p in v.report.points:
                if p.spanning_sv is not None and p.spanning_sv < v.tol_rank:
                    if worst is None or p.spanning_sv < worst.spanning_sv:
                        worst = p
        return worst


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
