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
from dataclasses import dataclass

import numpy as np

from .corner_ext import smooth_rel_boundary
from .poly import PolyMap, point_block
from .simplex_geom import (
    DeltaMorphism,
    barycentrics_many,
    collapse_to_simplex,
    facet_coordinates_many,
    realize_morphism,
    simplex_grid,
)
from .smooth_maps import SmoothSimplexMap, finite_flatten, maps_close
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
    "verify_track_contracts",
    "export_track_csv",
]

STATUS_SMOOTH = "smooth"
STATUS_TRANSVERSE = "transverse"

_DEGENERATE_TOL = 1e-13  # coefficient tolerance of the collapse round trip
_CHECK_TIMES, _CHECK_GRID = 9, 5  # samples of verify_naturality and verify_track_contracts
_CSV_TIMES, _CSV_GRID = 11, 6  # samples of export_track_csv


@dataclass
class SingularRecord:
    id: str
    dim: int
    map: SmoothSimplexMap
    status: str
    faces: tuple[str, ...]


# -- factorization ------------------------------------------------------------------


def _degenerate_at(m: SmoothSimplexMap, j: int) -> bool:
    """True if m factors through the collapse s_j.

    The test restricts once, by delta_j o s_j (vertex j collapsed onto
    j + 1), and compares coefficients up to _DEGENERATE_TOL.  The affine
    data is 0/1 valued, but the substitution still sums coefficients, so
    the round trip of a collapsed map can move its last bits.
    """
    n = m.dim
    round_trip = m.restrict(DeltaMorphism.face(j, n).compose(DeltaMorphism.degeneracy(j, n)))
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
# A stage's eval takes one time per row and a block of points.  Evaluation is
# row-invariant all the way down (see poly): a block has the bits of a loop.


@dataclass
class Stage:
    a: float
    b: float
    kind: str

    def local(self, t: np.ndarray) -> np.ndarray:
        if self.b <= self.a:
            return np.ones_like(t)
        return np.clip((t - self.a) / (self.b - self.a), 0.0, 1.0)

    def describe(self) -> dict:
        return {"interval": [self.a, self.b], "kind": self.kind}


@dataclass
class ConstantStage(Stage):
    map: SmoothSimplexMap = None

    def eval(self, t, pts) -> np.ndarray:
        return self.map.eval_many(pts)


@dataclass
class SmoothingStage(Stage):
    """Straight-line homotopy from a facetwise-polynomial map to its
    polynomial surrogate, pushed through the tube projection."""

    start: object = None
    end: SmoothSimplexMap = None

    def eval(self, t, pts) -> np.ndarray:
        tau = self.local(t)[:, None]
        v0 = self.start.eval(pts)
        v1 = self.end.eval_many(pts)
        v = (1.0 - tau) * v0 + tau * v1
        if self.end.project_flag:
            return self.end.ambient.project_many(v)
        return v


@dataclass
class PerturbStage(Stage):
    """Bump amplitude ramp t -> F(., t s); rel boundary since the bump
    profile vanishes there."""

    end: SmoothSimplexMap = None

    def eval(self, t, pts) -> np.ndarray:
        return self.end.with_last_bump_scale(self.local(t)).eval_many(pts)


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

    def eval(self, t, pts) -> np.ndarray:
        n, t_a = self.n, self.b
        lam = barycentrics_many(n, pts)
        lam_c = 1.0 / (n + 1)
        # ray parameter of the first hit: the bottom, then each wall in turn
        best = 2.0 * t_a / (2.0 * t_a - t)
        side = np.full(len(pts), -1)
        for i in range(n + 1):
            gap = lam_c - lam[:, i]
            tau_i = np.divide(lam_c, gap, out=np.full(len(pts), np.inf), where=gap > 1e-15)
            closer = tau_i < best - 1e-14
            best = np.where(closer, tau_i, best)
            side[closer] = i
        hit = lam_c + best[:, None] * (pts - lam_c)
        out = np.empty((len(pts), self.sigma.ambient.ambient_dim))
        bottom = side < 0
        if bottom.any():
            out[bottom] = self.sigma.eval_many(collapse_to_simplex(hit[bottom]))
        for i in np.unique(side[~bottom]):
            rows = side == i
            t_side = np.clip(2.0 * t_a + best[rows] * (t[rows] - 2.0 * t_a), 0.0, t_a)
            w = facet_coordinates_many(n, i, hit[rows])
            out[rows] = self.face_tracks[i].eval(t_side, w)
        return out


class ConeSlice:
    """The time t_A slice of a cone stage: continuous on the simplex,
    polynomial on every facet (the face tracks are constant by then)."""

    def __init__(self, cone: ConeStage):
        self.cone = cone
        self.dim = cone.n
        self.ambient = cone.sigma.ambient

    def eval(self, pts) -> np.ndarray:
        return self.cone.eval(np.full(len(pts), self.cone.b), pts)

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

    def eval(self, t, pts) -> np.ndarray:
        """Values at a block of points, at one time or one time per row.

        A row goes to the first stage whose interval ends at or after its
        time, the last stage taking the rest; each stage evaluates its rows
        as one block.
        """
        pts = point_block(pts, self.dim)
        t = np.clip(np.broadcast_to(np.asarray(t, dtype=float), len(pts)), 0.0, 1.0)
        which = np.searchsorted([stage.b for stage in self.stages[:-1]], t)
        out = np.empty((len(pts), self.end_map.ambient.ambient_dim))
        for k in np.unique(which):
            rows = which == k
            out[rows] = self.stages[k].eval(t[rows], pts[rows])
        return out

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

    def eval(self, t, pts) -> np.ndarray:
        return self.base.eval(t, self._aff.apply(pts))

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


def _affine_part(flat: PolyMap) -> np.ndarray:
    """The constant term and the n linear coefficient vectors of ``flat``,
    as rows of one (n + 1, N) array; an absent term is a row of 0."""
    zero, absent = (0,) * flat.nvars, np.zeros(flat.ncomp)
    exps = [zero] + [zero[:i] + (1,) + zero[i + 1:] for i in range(flat.nvars)]
    return np.array([flat.terms.get(e, absent) for e in exps])


_by_constant = operator.itemgetter(0)


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
        # _index_key -> [(constant key, insertion order, record, its flatten(),
        # its _affine_part)] sorted on the constant key, the affine part's [0, 0]
        self._index: dict[tuple, list[tuple]] = {}

    # record management

    def _find(self, m: SmoothSimplexMap, flat: PolyMap) -> SingularRecord | None:
        """The earliest-inserted record whose map is close to m, that is
        ``maps_close(rec.map, m, 1e-12)``; ``flat`` is ``m.flatten()``.

        Records are indexed by the data ``maps_close`` compares exactly
        (dimension, projection flag, ambient kind and dimension), and each
        index list is sorted on the first component of the constant term,
        the map's value at vertex 0.  Closeness bounds that component's
        difference too, so only the records in a window around the probe's
        value can match.  Every face and degeneracy through vertex 0 shares
        that value, so a window candidate must next agree with the probe to
        _DEDUP_TOL on its affine part (``_affine_part``), and only then is
        it compared coefficientwise.  That filter is exact: it takes the same
        rounded differences |a - b| that ``max_coeff_diff`` takes, on a
        subset of the terms.  Of the records that match, the one inserted
        first is returned: the record a scan in insertion order would find.
        """
        entries = self._index.get(_index_key(m), [])
        aff = _affine_part(flat)
        c = float(aff[0, 0])
        lo = bisect.bisect_left(entries, c - _DEDUP_WINDOW, key=_by_constant)
        hi = bisect.bisect_right(entries, c + _DEDUP_WINDOW, key=_by_constant)
        matches = [(order, rec) for _, order, rec, rec_flat, rec_aff in entries[lo:hi]
                   if np.abs(rec_aff - aff).max() <= _DEDUP_TOL
                   and rec_flat.max_coeff_diff(flat) <= _DEDUP_TOL]
        return min(matches)[1] if matches else None

    def _new_record(self, m: SmoothSimplexMap, flat: PolyMap, faces: tuple[str, ...],
                    status: str = STATUS_SMOOTH) -> SingularRecord:
        order = len(self.records)
        rid = f"r{order}"
        rec = SingularRecord(id=rid, dim=m.dim, map=m, status=status, faces=faces)
        self.records[rid] = rec
        aff = _affine_part(flat)
        bisect.insort(self._index.setdefault(_index_key(m), []),
                      (float(aff[0, 0]), order, rec, flat, aff), key=_by_constant)
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
        flat = finite_flatten(m)
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
            # nothing moves on the boundary: skip the cone, and the simplex,
            # already polynomial, is its own smoothing
            smoothed = rec.map
            stage_a: Stage = ConstantStage(0.0, t_a, "boundary_retraction", map=rec.map)
            stage_b: Stage = ConstantStage(t_a, mid, "smoothing", map=smoothed)
        else:
            cone = ConeStage(t_a, rec.map, face_tracks)
            slice_map = ConeSlice(cone)
            smoothed = smooth_rel_boundary(slice_map, self.smoothing_tol)
            stage_a = cone
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
        flat = finite_flatten(track.end_map)
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

    def eval(self, pts) -> np.ndarray:
        pts = point_block(pts, self.dim)
        return self.track.eval(self._aff.apply(pts)[:, 0], pts)


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


def _time_grid(dim: int, times: int, per_dim: int) -> tuple[np.ndarray, np.ndarray]:
    """Every (t, x) pair of ``times`` even times in [0, 1] and the lattice
    ``simplex_grid(dim, per_dim)``, time-major: one time per row, and the
    rows' points."""
    pts = simplex_grid(dim, per_dim)
    return np.repeat(np.linspace(0.0, 1.0, times), len(pts)), np.tile(pts, (times, 1))


def _max_gap(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.max(np.abs(a - b)))


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
    t, w = _time_grid(beta.source, _CHECK_TIMES, _CHECK_GRID)
    worst = _max_gap(track_child.eval(t, w), track_parent.eval(t, aff.apply(w)))
    if alpha is not None:
        h_parent = homotopy_H(fam, alpha, rec)
        h_child = homotopy_H(fam, alpha.compose(beta), restricted)
        pts = simplex_grid(beta.source, _CHECK_GRID)
        worst = max(worst, _max_gap(h_child.eval(pts), h_parent.eval(aff.apply(pts))))
    return worst


def verify_track_contracts(fam: FiniteSingularFamily, rec: SingularRecord) -> dict:
    """Largest deviations of a record's track from its contracts: it starts
    at the record's map, ends at the retraction's map, is constant on
    [t_B, 1], and restricts on each facet to that face's track."""
    track = fam.track(rec)
    pts = simplex_grid(rec.dim, _CHECK_GRID)
    start_err = _max_gap(track.eval(0.0, pts), rec.map.eval_many(pts))
    end_map = fam.retract(rec).map
    at_end = track.eval(1.0, pts)
    end_err = _max_gap(at_end, end_map.eval_many(pts))
    tail = np.linspace(track.t_b, 1.0, 6)
    const_err = _max_gap(track.eval(np.repeat(tail, len(pts)), np.tile(pts, (6, 1))),
                         np.tile(at_end, (6, 1)))
    boundary_err = 0.0
    if rec.dim > 0:
        t, w = _time_grid(rec.dim - 1, _CHECK_TIMES, _CHECK_GRID)
        for i, fid in enumerate(rec.faces):
            face_track = fam.track(fam.records[fid])
            aff = realize_morphism(DeltaMorphism.face(i, rec.dim))
            boundary_err = max(boundary_err,
                               _max_gap(track.eval(t, aff.apply(w)), face_track.eval(t, w)))
    return {
        "record": rec.id,
        "start_error": start_err,
        "end_error": end_err,
        "constancy_error": const_err,
        "boundary_error": boundary_err,
    }


def export_track_csv(track: HomotopyTrack, path: str) -> None:
    """Dense (t, x, value) slices of one track for external plotting."""
    t, pts = _time_grid(track.dim, _CSV_TIMES, _CSV_GRID)
    values = track.eval(t, pts)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        dim = track.dim
        ncomp = track.end_map.ambient.ambient_dim
        writer.writerow(
            ["t"] + [f"x{i}" for i in range(dim)] + [f"v{i}" for i in range(ncomp)]
        )
        for ti, x, v in zip(t, pts, values):
            writer.writerow([f"{ti:.12g}"]
                            + [f"{xi:.12g}" for xi in x]
                            + [f"{vi:.17g}" for vi in v])
