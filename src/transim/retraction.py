"""Scheduled homotopies that push singular families into transverse position.

Every simplex record gets a homotopy track on [0,1] assembled from four
stages: a cone retraction that pulls the boundary motion inward, a
polynomial smoothing, a rel-boundary perturbation into transverse position,
and a constant tail.  The stage breakpoints depend only on the dimension,

    t_A = 1 - 1/(n+1),   t_B = 1 - 1/(n+2),

so that a face track (dimension n-1) is already constant on [t_A, 1] while
the parent still moves; that is what makes the side assembly of the cone
stage well defined.  Tracks are memoized by record id and degenerate
records reuse the track of their nondegenerate base, so naturality under
face and degeneracy operators holds by construction and the verification
routines only measure evaluation noise.
"""

from __future__ import annotations

import bisect
import csv
import operator
from dataclasses import dataclass, field

import numpy as np

from .corner_ext import smooth_rel_boundary
from .errors import NonFiniteMap
from .poly import PolyMap
from .simplex_geom import (
    DeltaMorphism,
    barycentrics,
    collapse_to_simplex,
    facet_coordinates,
    realize_morphism,
    simplex_grid,
)
from .smooth_maps import SmoothSimplexMap, maps_close
from .transversal import (
    LocusOptions,
    TCollection,
    is_T_transverse,
    perturb_to_transverse,
)

__all__ = [
    "SingularRecord",
    "HomotopyTrack",
    "FiniteSingularFamily",
    "nondeg_factorize",
    "homotopy_H",
    "verify_naturality",
    "export_track_csv",
]

STATUS_SMOOTH = "smooth"
STATUS_TRANSVERSE = "transverse"

_DEGENERATE_TOL = 1e-13  # coefficient tolerance of the collapse round trip
_NATURALITY_TIMES, _NATURALITY_GRID = 9, 5  # samples of verify_naturality
_CSV_TIMES, _CSV_GRID = 11, 6  # samples of export_track_csv


@dataclass
class SingularRecord:
    id: str
    dim: int
    map: SmoothSimplexMap
    status: str
    faces: tuple[str, ...]
    # signed counts of this map, filled by cochain.iota_W
    counts: dict = field(default_factory=dict, repr=False, compare=False)


# -- factorization ------------------------------------------------------------------


def _degenerate_at(m: SmoothSimplexMap, j: int) -> bool:
    """True if m factors through the collapse s_j.

    The test composes the j-th face with the j-th degeneracy and compares
    coefficients; for genuinely collapsed maps the round trip is exact
    because all the affine data is 0/1 valued.
    """
    n = m.dim
    face = m.restrict(DeltaMorphism.face(j, n))
    round_trip = face.restrict(DeltaMorphism.degeneracy(j, n))
    return maps_close(m, round_trip, _DEGENERATE_TOL)


def nondeg_factorize(m: SmoothSimplexMap) -> tuple[DeltaMorphism, SmoothSimplexMap]:
    """Unique factorization m = base o |s| with base nondegenerate.

    Collapses the lowest degenerate index first and repeats; the ascending
    scan gives the canonical normal form of the degeneracy s.
    """
    collapse = DeltaMorphism.identity(m.dim)
    current = m
    progress = True
    while progress and current.dim > 0:
        progress = False
        for j in range(current.dim):
            if _degenerate_at(current, j):
                s_j = DeltaMorphism.degeneracy(j, current.dim)
                current = current.restrict(DeltaMorphism.face(j, current.dim))
                collapse = s_j.compose(collapse)
                progress = True
                break
    return collapse, current


# -- stages -------------------------------------------------------------------------


@dataclass
class Stage:
    a: float
    b: float
    kind: str

    def local(self, t: float) -> float:
        if self.b <= self.a:
            return 1.0
        return min(max((t - self.a) / (self.b - self.a), 0.0), 1.0)

    def describe(self) -> dict:
        return {"interval": [self.a, self.b], "kind": self.kind}


@dataclass
class ConstantStage(Stage):
    map: SmoothSimplexMap = None

    def eval(self, t: float, x: np.ndarray) -> np.ndarray:
        return self.map.eval(x)


@dataclass
class SmoothingStage(Stage):
    """Straight-line homotopy from a facetwise-polynomial map to its
    polynomial surrogate, pushed through the tube projection."""

    start: object = None
    end: SmoothSimplexMap = None

    def eval(self, t: float, x: np.ndarray) -> np.ndarray:
        tau = self.local(t)
        v0 = self.start.eval(x)
        v1 = self.end.eval(x)
        v = (1.0 - tau) * v0 + tau * v1
        if self.end.project_flag:
            return self.end.ambient.project(v)
        return v


@dataclass
class PerturbStage(Stage):
    """Bump amplitude ramp t -> F(., t s); rel boundary since the bump
    profile vanishes there."""

    end: SmoothSimplexMap = None

    def eval(self, t: float, x: np.ndarray) -> np.ndarray:
        tau = self.local(t)
        return self.end.with_last_bump_scale(tau).eval(x)


class ConeStage(Stage):
    """Radial cone retraction of [0, t_A] x Delta^n onto its bottom and sides.

    Rays emanate from (2 t_A, barycenter).  A point is pushed along its ray
    until it hits the bottom {t = 0} (value: the raw simplex) or a side wall
    {lambda_i = 0} (value: the i-th face track at the hit time).  On the
    walls themselves the hit is immediate, so boundary agreement with the
    face tracks is exact.
    """

    def __init__(self, t_a: float, sigma: SmoothSimplexMap, face_tracks: tuple):
        super().__init__(0.0, t_a, "boundary_retraction")
        self.sigma = sigma
        self.face_tracks = face_tracks
        self.n = sigma.dim

    def eval(self, t: float, x: np.ndarray) -> np.ndarray:
        n = self.n
        t_a = self.b
        lam = barycentrics(n, x)
        lam_c = 1.0 / (n + 1)
        tau_bottom = 2.0 * t_a / (2.0 * t_a - t)
        best = tau_bottom
        side = None
        for i in range(n + 1):
            gap = lam_c - lam[i]
            if gap > 1e-15:
                tau_i = lam_c / gap
                if tau_i < best - 1e-14:
                    best = tau_i
                    side = i
        center = np.full(n, lam_c)
        hit = center + best * (x - center)
        if side is None:
            return self.sigma.eval(collapse_to_simplex(hit.reshape(1, n)))
        t_side = 2.0 * t_a + best * (t - 2.0 * t_a)
        t_side = min(max(t_side, 0.0), t_a)
        w = facet_coordinates(n, side, hit)
        return self.face_tracks[side].eval(t_side, w)


class ConeSlice:
    """The time t_A slice of a cone stage: continuous on the simplex,
    polynomial on every facet (the face tracks are constant by then)."""

    def __init__(self, cone: ConeStage):
        self.cone = cone
        self.dim = cone.n
        self.ambient = cone.sigma.ambient

    def eval(self, x: np.ndarray) -> np.ndarray:
        return self.cone.eval(self.cone.b, x)

    def facet_map(self, i: int) -> SmoothSimplexMap:
        return self.cone.face_tracks[i].end_map


# -- tracks -------------------------------------------------------------------------


class HomotopyTrack:
    """Stage-tiled homotopy on [0,1] from a recorded simplex to its
    transverse replacement."""

    def __init__(self, dim: int, stages: tuple, end_map: SmoothSimplexMap,
                 record_id: str, constant: bool):
        self.dim = dim
        self.stages = stages
        self.end_map = end_map
        self.record_id = record_id
        self.constant = constant

    @property
    def t_a(self) -> float:
        return 1.0 - 1.0 / (self.dim + 1)

    @property
    def t_b(self) -> float:
        return 1.0 - 1.0 / (self.dim + 2)

    def eval(self, t: float, x: np.ndarray) -> np.ndarray:
        t = min(max(t, 0.0), 1.0)
        for stage in self.stages:
            if t <= stage.b or stage is self.stages[-1]:
                return stage.eval(t, x)
        raise AssertionError("stages do not tile [0,1]")

    def describe(self) -> dict:
        return {
            "record": self.record_id,
            "dim": self.dim,
            "constant": self.constant,
            "stages": [s.describe() for s in self.stages],
        }


class DegenerateTrack(HomotopyTrack):
    """Track of a degenerate record: the base track precomposed with the
    affine collapse, h = h_base o (id x |s|)."""

    def __init__(self, base: HomotopyTrack, collapse: DeltaMorphism, record_id: str):
        aff = realize_morphism(collapse)
        end = base.end_map.restrict(collapse)
        super().__init__(collapse.source, base.stages, end, record_id, base.constant)
        self.base = base
        self.collapse = collapse
        self._aff = aff

    def eval(self, t: float, x: np.ndarray) -> np.ndarray:
        return self.base.eval(t, self._aff.apply(x))

    def describe(self) -> dict:
        d = self.base.describe()
        d["record"] = self.record_id
        d["dim"] = self.dim
        d["degeneracy"] = list(self.collapse.values)
        return d


# -- the family ---------------------------------------------------------------------

_DEDUP_TOL = 1e-12
# maps_close compares rounded differences, which may exceed the exact ones
# by an ulp; a few ulps of slack keep every record it accepts in the window
_DEDUP_WINDOW = _DEDUP_TOL * (1.0 + 8.0 * np.finfo(float).eps)


def _index_key(m: SmoothSimplexMap) -> tuple:
    """What maps_close requires to be equal before it compares coefficients."""
    return (m.dim, m.project_flag, m.ambient.kind, m.ambient.ambient_dim)


def _constant_key(flat: PolyMap) -> float:
    """First component of the constant term; 0 when the term is absent."""
    const = flat.terms.get((0,) * flat.nvars)
    return 0.0 if const is None else float(const[0])


_by_constant = operator.itemgetter(0)


def _finite_flatten(m: SmoothSimplexMap) -> PolyMap:
    flat = m.flatten()
    if not all(np.all(np.isfinite(c)) for c in flat.terms.values()):
        raise NonFiniteMap(f"a {m.dim}-simplex map has a non-finite coefficient")
    return flat


class FiniteSingularFamily:
    """A face-closed set of simplex records over a fixed collection T,
    together with memoized homotopy tracks and the retraction p."""

    def __init__(
        self,
        members: TCollection,
        tol_rank: float = 1e-6,
        seed: int = 0,
        opts: LocusOptions = LocusOptions(),
        smoothing_tol: float = 0.25,
        max_trials: int = 32,
    ):
        self.members = members
        self.tol_rank = tol_rank
        self.seed = int(seed)
        self.opts = opts
        self.smoothing_tol = smoothing_tol
        self.max_trials = max_trials
        self.records: dict[str, SingularRecord] = {}  # in insertion order
        self.memo: dict[str, HomotopyTrack] = {}
        self._retracted: dict[str, str] = {}
        # _index_key -> [(constant key, insertion order, record, its flatten())]
        # sorted on the constant key
        self._index: dict[tuple, list[tuple]] = {}

    # record management

    def _find(self, m: SmoothSimplexMap, flat: PolyMap) -> SingularRecord | None:
        """The earliest-inserted record whose map is close to m, that is
        ``maps_close(rec.map, m, 1e-12)``; ``flat`` is ``m.flatten()``.

        Records are indexed by the data ``maps_close`` compares exactly
        (dimension, projection flag, ambient kind and dimension), and each
        index list is sorted on the first component of the constant term.
        Closeness bounds that component's difference too, so only the
        records in a window around the probe's value are confirmed
        coefficientwise.  Of those that match, the one inserted first is
        returned: the record a scan in insertion order would find.
        """
        entries = self._index.get(_index_key(m), [])
        c = _constant_key(flat)
        lo = bisect.bisect_left(entries, c - _DEDUP_WINDOW, key=_by_constant)
        hi = bisect.bisect_right(entries, c + _DEDUP_WINDOW, key=_by_constant)
        matches = [(order, rec) for _, order, rec, rec_flat in entries[lo:hi]
                   if rec_flat.max_coeff_diff(flat) <= _DEDUP_TOL]
        return min(matches)[1] if matches else None

    def _new_record(self, m: SmoothSimplexMap, flat: PolyMap, faces: tuple[str, ...],
                    status: str = STATUS_SMOOTH) -> SingularRecord:
        order = len(self.records)
        rid = f"r{order}"
        rec = SingularRecord(id=rid, dim=m.dim, map=m, status=status, faces=faces)
        self.records[rid] = rec
        bisect.insort(self._index.setdefault(_index_key(m), []),
                      (_constant_key(flat), order, rec, flat), key=_by_constant)
        return rec

    def add(self, m: SmoothSimplexMap) -> SingularRecord:
        """Register a simplex map and, recursively, all its faces.

        Maps that agree coefficientwise with an existing record (to 1e-12,
        as ``maps_close`` decides) are deduplicated onto the earliest such
        record, which is what makes memoization-by-id meaningful.  The
        lookup bisects a keyed index instead of scanning every record; see
        ``_find``.  A map with a non-finite coefficient raises
        ``NonFiniteMap``, so it is never indexed.
        """
        flat = _finite_flatten(m)
        found = self._find(m, flat)
        if found is not None:
            return found
        faces = ()
        if m.dim > 0:
            faces = tuple(
                self.add(m.restrict(DeltaMorphism.face(i, m.dim))).id
                for i in range(m.dim + 1)
            )
        return self._new_record(m, flat, faces)

    def __iter__(self):
        return iter(self.records.values())

    # track construction

    def track(self, rec: SingularRecord) -> HomotopyTrack:
        if rec.id in self.memo:
            return self.memo[rec.id]
        built = self._build_track(rec)
        self.memo[rec.id] = built
        return built

    def _record_seed(self, rec: SingularRecord) -> int:
        return self.seed * 100003 + int(rec.id[1:])

    def _constant_track(self, rec: SingularRecord) -> HomotopyTrack:
        stage = ConstantStage(0.0, 1.0, "constant", map=rec.map)
        return HomotopyTrack(rec.dim, (stage,), rec.map, rec.id, constant=True)

    def _build_track(self, rec: SingularRecord) -> HomotopyTrack:
        collapse, base_map = nondeg_factorize(rec.map)
        if not collapse.is_identity():
            base_rec = self.add(base_map)
            base_track = self.track(base_rec)
            if base_rec.status == STATUS_TRANSVERSE:
                rec.status = STATUS_TRANSVERSE
            return DegenerateTrack(base_track, collapse, rec.id)

        check = is_T_transverse(rec.map, self.members, self.tol_rank, opts=self.opts)
        if check.ok:
            rec.status = STATUS_TRANSVERSE
            return self._constant_track(rec)

        n = rec.dim
        if n == 0:
            result = perturb_to_transverse(
                rec.map, self.members, seed=self._record_seed(rec),
                max_trials=self.max_trials, tol_rank=self.tol_rank, opts=self.opts,
            )
            stages = (
                PerturbStage(0.0, 0.5, "transversality", end=result.sigma_prime),
                ConstantStage(0.5, 1.0, "constant", map=result.sigma_prime),
            )
            return HomotopyTrack(0, stages, result.sigma_prime, rec.id, constant=False)

        t_a = 1.0 - 1.0 / (n + 1)
        t_b = 1.0 - 1.0 / (n + 2)
        mid = 0.5 * (t_a + t_b)
        face_tracks = tuple(self.track(self.records[fid]) for fid in rec.faces)

        if all(ft.constant for ft in face_tracks):
            # nothing moves on the boundary: skip the cone, keep the simplex
            # as its own slice (it is already polynomial)
            stage_a: Stage = ConstantStage(0.0, t_a, "boundary_retraction", map=rec.map)
            slice_map = rec.map
        else:
            cone = ConeStage(t_a, rec.map, face_tracks)
            stage_a = cone
            slice_map = ConeSlice(cone)

        smoothed, info = smooth_rel_boundary(slice_map, self.smoothing_tol)
        if info.get("already_polynomial"):
            stage_b: Stage = ConstantStage(t_a, mid, "smoothing", map=smoothed)
        else:
            stage_b = SmoothingStage(t_a, mid, "smoothing", start=slice_map, end=smoothed)

        interior = is_T_transverse(smoothed, self.members, self.tol_rank,
                                   simplex_depths=(0,), opts=self.opts)
        if interior.ok:
            final = smoothed
            stage_c: Stage = ConstantStage(mid, t_b, "transversality", map=smoothed)
        else:
            result = perturb_to_transverse(
                smoothed, self.members, seed=self._record_seed(rec),
                max_trials=self.max_trials, tol_rank=self.tol_rank, opts=self.opts,
            )
            final = result.sigma_prime
            stage_c = PerturbStage(mid, t_b, "transversality", end=final)

        stages = (stage_a, stage_b, stage_c,
                  ConstantStage(t_b, 1.0, "constant", map=final))
        return HomotopyTrack(n, stages, final, rec.id, constant=False)

    # the retraction

    def retract(self, rec: SingularRecord) -> SingularRecord:
        """p(sigma): the endpoint of the track, wired so that faces of the
        result are the retracted faces.  Transverse records are returned
        unchanged with the same id, and the result is a fixed point."""
        if rec.id in self._retracted:
            return self.records[self._retracted[rec.id]]
        track = self.track(rec)
        if track.constant:
            rec.status = STATUS_TRANSVERSE
            self._retracted[rec.id] = rec.id
            return rec
        face_ids = tuple(
            self.retract(self.records[fid]).id for fid in rec.faces
        )
        flat = _finite_flatten(track.end_map)
        existing = self._find(track.end_map, flat)
        if existing is not None and existing.faces == face_ids:
            target = existing
        else:
            target = self._new_record(track.end_map, flat, face_ids)
        target.status = STATUS_TRANSVERSE
        self._retracted[rec.id] = target.id
        self._retracted[target.id] = target.id
        return target

    def report(self) -> dict:
        recs = []
        for rec in self.records.values():
            recs.append({
                "id": rec.id,
                "dim": rec.dim,
                "status": rec.status,
                "nondegenerate": nondeg_factorize(rec.map)[0].is_identity(),
                "faces": list(rec.faces),
                "degree": rec.map.degree(),
                "bumps": len(rec.map.bumps),
            })
        tracks = [self.memo[rid].describe() for rid in self.records if rid in self.memo]
        return {
            "seed": self.seed,
            "tol_rank": self.tol_rank,
            "records": recs,
            "tracks": tracks,
            "retracted": dict(sorted(self._retracted.items())),
        }


# -- the simplicial homotopy H ------------------------------------------------------


class DiagonalSlice:
    """H(alpha x sigma): x -> h_sigma(|alpha|(x), x)."""

    def __init__(self, track: HomotopyTrack, alpha: DeltaMorphism,
                 record: SingularRecord | None = None):
        if alpha.target != 1:
            raise ValueError("alpha must land in [1]")
        self.track = track
        self.alpha = alpha
        self.record = record
        self._aff = realize_morphism(alpha)
        self.dim = alpha.source

    def eval(self, x: np.ndarray) -> np.ndarray:
        t = float(self._aff.apply(np.asarray(x, dtype=float))[0])
        return self.track.eval(t, x)


def homotopy_H(fam: FiniteSingularFamily, alpha: DeltaMorphism,
               rec: SingularRecord) -> DiagonalSlice:
    """The homotopy from the identity to i o p, evaluated on (alpha, sigma).

    Constant alpha = 0 recovers sigma, constant alpha = 1 recovers p(sigma);
    in those cases the returned slice carries the matching record.
    """
    if alpha.source != rec.dim:
        raise ValueError("alpha and sigma must share a dimension")
    track = fam.track(rec)
    record = None
    vals = set(alpha.values)
    if vals == {0}:
        record = rec
    elif vals == {1}:
        record = fam.retract(rec)
    return DiagonalSlice(track, alpha, record)


def verify_naturality(
    fam: FiniteSingularFamily,
    rec: SingularRecord,
    beta: DeltaMorphism,
    alpha: DeltaMorphism | None = None,
) -> float:
    """Max deviation between h_{sigma o |beta|} and h_sigma o (id x |beta|),
    plus the corresponding square for H when alpha is supplied."""
    if beta.target != rec.dim:
        raise ValueError("beta must land in the record's dimension")
    restricted = fam.add(rec.map.restrict(beta))
    track_parent = fam.track(rec)
    track_child = fam.track(restricted)
    aff = realize_morphism(beta)
    pts = simplex_grid(beta.source, _NATURALITY_GRID)
    worst = 0.0
    for t in np.linspace(0.0, 1.0, _NATURALITY_TIMES):
        for w in pts:
            lhs = track_child.eval(float(t), w)
            rhs = track_parent.eval(float(t), aff.apply(w))
            worst = max(worst, float(np.max(np.abs(lhs - rhs))))
    if alpha is not None:
        h_parent = homotopy_H(fam, alpha, rec)
        h_child = homotopy_H(fam, alpha.compose(beta), restricted)
        for w in pts:
            lhs = h_child.eval(w)
            rhs = h_parent.eval(aff.apply(w))
            worst = max(worst, float(np.max(np.abs(lhs - rhs))))
    return worst


def export_track_csv(track: HomotopyTrack, path: str) -> None:
    """Dense (t, x, value) slices of one track for external plotting."""
    pts = simplex_grid(track.dim, _CSV_GRID)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        dim = track.dim
        ncomp = track.end_map.ambient.ambient_dim
        writer.writerow(
            ["t"] + [f"x{i}" for i in range(dim)] + [f"v{i}" for i in range(ncomp)]
        )
        for t in np.linspace(0.0, 1.0, _CSV_TIMES):
            for x in pts:
                v = track.eval(float(t), x)
                writer.writerow([f"{t:.12g}"]
                                + [f"{xi:.12g}" for xi in x]
                                + [f"{vi:.17g}" for vi in v])
