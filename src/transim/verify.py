"""Invariant battery shared by the CLI verify command and the test suite.

Each check returns an InvariantResult with the measured quantity and the
threshold it was held against, so reports stay reproducible and the
acceptance tests can reuse the same machinery without reimplementing it.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .errors import TrialsExhausted

from .cochain import (
    Chain,
    CoorientedMember,
    boundary,
    cocycle_check,
    iota_W,
    iota_W_chain,
    pullback_evaluate,
    winding_number,
)
from .corner_ext import CornerData, extend_from_corner, verify_restriction_identity
from .poly import PolyMap, monomial_exponents
from .retraction import (
    FiniteSingularFamily,
    homotopy_H,
    verify_naturality,
    verify_track_contracts,
)
from .scenarios import (
    longitude_arcs,
    meridian_arcs,
    meridian_member,
    origin_member,
    perturbation_cases,
    plane,
    random_transverse_cubic,
    shifted_longitude_arcs,
    tangent_longitude_arcs,
)
from .simplex_geom import DeltaMorphism, barycentrics_many, simplex_grid
from .smooth_maps import SmoothSimplexMap
from .transversal import (
    LocusOptions,
    TCollection,
    intersection_locus,
    is_T_transverse,
    perturb_to_transverse,
)

__all__ = [
    "InvariantResult",
    "check_corner_extension",
    "check_perturbation_lemma",
    "check_cocycle_zero",
    "check_torus_duality",
    "check_retraction_identities",
    "check_stratum_vacuity",
    "default_battery",
    "sensitivity_entries",
]

_FACET_GRID = 40  # grid points per coordinate of the boundary displacement check

@dataclass
class InvariantResult:
    name: str
    ok: bool
    measured: float
    threshold: float
    details: dict = field(default_factory=dict)

    def describe(self) -> dict:
        return {
            "name": self.name,
            "ok": bool(self.ok),
            "measured": float(self.measured),
            "threshold": float(self.threshold),
            "details": self.details,
        }


def _random_global_poly(rng: np.random.Generator, n: int, degree: int = 3) -> PolyMap:
    terms = {}
    for e in monomial_exponents(n, degree):
        terms[e] = rng.uniform(-1.0, 1.0, size=1)
    return PolyMap(n, 1, terms)


def check_corner_extension(
    seed: int = 1, count: int = 50, tol: float = 1e-10
) -> InvariantResult:
    """Inclusion-exclusion extension restricted to each wall reproduces the
    inducing polynomial on an 11-per-free-coordinate grid."""
    rng = np.random.default_rng([int(seed), 11])
    t0 = time.perf_counter()
    worst = 0.0
    cases = []
    for idx in range(count):
        n = int(rng.integers(1, 5))
        k = int(rng.integers(1, n + 1))
        g = _random_global_poly(rng, n)
        data = CornerData.from_global(g, k)
        ext = extend_from_corner(data)
        errs = [verify_restriction_identity(data, ext, wall) for wall in range(k)]
        worst = max(worst, max(errs))
        cases.append({"n": n, "k": k, "max_error": max(errs)})
    elapsed = time.perf_counter() - t0
    return InvariantResult(
        name="corner_extension_exactness",
        ok=worst <= tol,
        measured=worst,
        threshold=tol,
        details={"count": count, "elapsed_s": elapsed, "cases": cases},
    )


def _boundary_displacement(before: SmoothSimplexMap, after: SmoothSimplexMap) -> float:
    n = before.dim
    if n == 0:
        return 0.0
    worst = 0.0
    for i in range(n + 1):
        beta = DeltaMorphism.face(i, n)
        fa = before.restrict(beta)
        fb = after.restrict(beta)
        grid = simplex_grid(n - 1, _FACET_GRID)
        worst = max(worst, float(np.max(np.abs(fa.eval_many(grid) - fb.eval_many(grid)))))
    return worst


def check_perturbation_lemma(
    seed: int = 42,
    max_trials: int = 10,
    tol_rank: float = 1e-6,
    opts: LocusOptions = LocusOptions(),
) -> InvariantResult:
    """The constructed non-transverse inputs all reach transverse position
    within the trial budget, rel boundary, with the homotopy starting at
    the input."""
    t0 = time.perf_counter()
    rows = []
    ok = True
    worst_boundary = 0.0
    worst_start = 0.0
    for case in perturbation_cases():
        try:
            result = perturb_to_transverse(
                case.sigma, case.members, seed=seed,
                max_trials=max_trials, tol_rank=tol_rank, opts=opts,
            )
        except TrialsExhausted as exc:
            ok = False
            rows.append({
                "case": case.name,
                "error": "TrialsExhausted",
                "diagnostics": exc.diagnostics,
                "ok": False,
            })
            continue
        disp = _boundary_displacement(case.sigma, result.sigma_prime)
        grid = simplex_grid(case.sigma.dim, 40)
        zero_scale = result.sigma_prime.with_last_bump_scale(0.0)
        start = float(np.max(np.abs(
            zero_scale.eval_many(grid) - case.sigma.eval_many(grid)
        )))
        worst_boundary = max(worst_boundary, disp)
        worst_start = max(worst_start, start)
        row_ok = (
            result.trials_used <= max_trials
            and disp <= 1e-12
            and start <= 1e-11
            and result.min_sv >= tol_rank
        )
        ok = ok and row_ok
        rows.append({
            "case": case.name,
            "trials": result.trials_used,
            "boundary_displacement": disp,
            "start_error": start,
            "min_sv": None if math.isinf(result.min_sv) else result.min_sv,
            "ok": row_ok,
        })
    elapsed = time.perf_counter() - t0
    return InvariantResult(
        name="perturbation_lemma",
        ok=ok,
        measured=worst_boundary,
        threshold=1e-12,
        details={
            "seed": seed,
            "max_trials": max_trials,
            "worst_start_error": worst_start,
            "elapsed_s": elapsed,
            "cases": rows,
        },
    )


def check_cocycle_zero(
    seed: int = 3,
    count: int = 50,
    tol_rank: float = 1e-6,
) -> InvariantResult:
    """iota_W of the boundary of random transverse cubic 3-simplices in the
    plane vanishes, and every face's signed count matches the winding
    oracle."""
    rng = np.random.default_rng([int(seed), 29])
    member = origin_member()
    w = CoorientedMember(member)
    fam = FiniteSingularFamily(TCollection.of(member), seed=seed)
    opts = LocusOptions(cells_per_dim=16)
    t0 = time.perf_counter()
    ok = True
    rows = []
    for idx in range(count):
        tau = random_transverse_cubic(rng, member)
        rec = fam.add(tau)
        face_rows = []
        for i, fid in enumerate(rec.faces):
            face = fam.records[fid]
            iota = iota_W(w, face, tol_rank, opts)
            wound = winding_number(face.map)
            face_rows.append({"face": i, "iota": iota, "winding": wound})
            ok = ok and iota == wound
        # the face maps keep their loci, so the boundary count solves nothing
        total = cocycle_check(w, rec, fam, tol_rank, opts)
        ok = ok and total == 0
        rows.append({"simplex": idx, "boundary_count": total, "faces": face_rows})
    elapsed = time.perf_counter() - t0
    return InvariantResult(
        name="cocycle_zero",
        ok=ok,
        measured=float(max(abs(r["boundary_count"]) for r in rows)),
        threshold=0.0,
        details={"seed": seed, "count": count, "elapsed_s": elapsed, "cases": rows},
    )


def _two_arc_chain(fam: FiniteSingularFamily, arcs) -> Chain:
    recs = [fam.add(a) for a in arcs]
    return Chain.build(1, [(1, r) for r in recs])


def check_torus_duality(
    seed: int = 7,
    tol_rank: float = 1e-6,
) -> InvariantResult:
    """Longitude meets the cooriented meridian once with positive sign, the
    meridian cycle counts zero after retraction, and the tangent longitude
    recovers the same count through pullback."""
    member = meridian_member()
    w = CoorientedMember(member)
    fam = FiniteSingularFamily(TCollection.of(member), seed=seed)
    t0 = time.perf_counter()

    # every chain must be a cycle; a failure shows as ok = False
    longitude = _two_arc_chain(fam, longitude_arcs())
    cycles = boundary(longitude, fam).is_zero
    direct = iota_W_chain(w, longitude, tol_rank)

    shifted = _two_arc_chain(fam, shifted_longitude_arcs())
    cycles &= boundary(shifted, fam).is_zero
    shifted_count = iota_W_chain(w, shifted, tol_rank)

    fixed = pullback_evaluate(w, longitude, fam, tol_rank)

    meridian_chain = _two_arc_chain(fam, meridian_arcs())
    cycles &= boundary(meridian_chain, fam).is_zero
    meridian_count = pullback_evaluate(w, meridian_chain, fam, tol_rank)

    tangent_chain = _two_arc_chain(fam, tangent_longitude_arcs())
    cycles &= boundary(tangent_chain, fam).is_zero
    tangent_rec = tangent_chain.terms[0][1]
    tangent_raw_check = is_T_transverse(
        tangent_rec.map, fam.members, tol_rank
    )
    tangent_count = pullback_evaluate(w, tangent_chain, fam, tol_rank)

    elapsed = time.perf_counter() - t0
    ok = (
        cycles
        and direct == 1
        and shifted_count == 1
        and fixed == direct
        and meridian_count == 0
        and (not tangent_raw_check.ok)
        and tangent_count == direct
    )
    return InvariantResult(
        name="torus_duality",
        ok=ok,
        measured=float(direct),
        threshold=1.0,
        details={
            "seed": seed,
            "longitude": direct,
            "longitude_shifted": shifted_count,
            "longitude_pullback": fixed,
            "meridian_cycle": meridian_count,
            "tangent_is_transverse_raw": tangent_raw_check.ok,
            "tangent_pullback": tangent_count,
            "elapsed_s": elapsed,
        },
    )


def check_retraction_identities(seed: int = 5, tol_rank: float = 1e-6) -> InvariantResult:
    """p o i = id on transverse records, endpoint and constancy contracts of
    every track, and naturality under all face and degeneracy operators in
    a family with simplices of dimension up to 3."""
    member = origin_member()
    fam = FiniteSingularFamily(TCollection.of(member), tol_rank=tol_rank, seed=seed)
    rng = np.random.default_rng([int(seed), 17])
    t0 = time.perf_counter()

    transverse_tri = SmoothSimplexMap.affine_from_vertices(
        np.array([[-1.0, -1.0], [1.5, -0.8], [0.0, 1.2]]), plane()
    )
    edge_tri = SmoothSimplexMap.affine_from_vertices(
        np.array([[-0.8, 0.0], [0.9, 0.0], [0.1, 1.1]]), plane()
    )
    cubic = random_transverse_cubic(rng, member)
    rec_tri = fam.add(transverse_tri)
    rec_edge = fam.add(edge_tri)
    rec_cubic = fam.add(cubic)
    rec_degen = fam.add(transverse_tri.restrict(DeltaMorphism.degeneracy(0, 3)))

    details: dict = {}
    ok = True

    # fixed-point identity on everything already transverse
    fixed_ids = []
    for rec in (rec_tri, rec_cubic):
        for rid in (rec.id, *rec.faces):
            r = fam.records[rid]
            p = fam.retract(r)
            fixed_ids.append({"record": rid, "retracted": p.id, "fixed": p.id == rid})
    ok = ok and all(row["fixed"] for row in fixed_ids)
    details["fixed_points"] = fixed_ids

    p_degen = fam.retract(rec_degen)
    ok = ok and p_degen.id == rec_degen.id

    # idempotence through the genuine cascade
    p_edge = fam.retract(rec_edge)
    pp_edge = fam.retract(p_edge)
    ok = ok and pp_edge.id == p_edge.id
    ok = ok and is_T_transverse(p_edge.map, fam.members, tol_rank).ok
    details["cascade"] = {"record": rec_edge.id, "retracted": p_edge.id}

    # track contracts
    contract_rows = []
    worst = {"start_error": 0.0, "end_error": 0.0,
             "constancy_error": 0.0, "boundary_error": 0.0}
    for rec in (rec_tri, rec_edge, rec_cubic, rec_degen):
        row = verify_track_contracts(fam, rec)
        contract_rows.append(row)
        for key in worst:
            worst[key] = max(worst[key], row[key])
    ok = ok and worst["start_error"] <= 1e-11
    ok = ok and worst["end_error"] <= 1e-9
    ok = ok and worst["constancy_error"] <= 1e-12
    ok = ok and worst["boundary_error"] <= 1e-9
    details["contracts"] = contract_rows
    details["worst"] = worst

    # H endpoints: alpha = 0 gives the record back, alpha = 1 gives p
    h_rows = []
    for rec in (rec_edge, rec_tri):
        n = rec.dim
        h0 = homotopy_H(fam, DeltaMorphism(n, 1, (0,) * (n + 1)), rec)
        h1 = homotopy_H(fam, DeltaMorphism(n, 1, (1,) * (n + 1)), rec)
        h_rows.append({
            "record": rec.id,
            "h0_is_input": h0.record is rec,
            "h1_is_retraction": h1.record is fam.retract(rec),
        })
    ok = ok and all(r["h0_is_input"] and r["h1_is_retraction"] for r in h_rows)
    details["h_endpoints"] = h_rows

    # naturality under every face and degeneracy operator
    nat_rows = []
    worst_nat = 0.0
    ramp2 = DeltaMorphism(2, 1, (0, 0, 1))
    ramp3 = DeltaMorphism(3, 1, (0, 0, 1, 1))
    for rec, alpha in ((rec_tri, ramp2), (rec_edge, ramp2),
                       (rec_cubic, ramp3), (rec_degen, ramp3)):
        n = rec.dim
        betas = [DeltaMorphism.face(i, n) for i in range(n + 1)]
        betas += [DeltaMorphism.degeneracy(j, n + 1) for j in range(n + 1)]
        for beta in betas:
            err = verify_naturality(fam, rec, beta, alpha=alpha)
            worst_nat = max(worst_nat, err)
            nat_rows.append({
                "record": rec.id,
                "beta": list(beta.values),
                "error": err,
            })
    ok = ok and worst_nat <= 1e-9
    details["naturality"] = nat_rows
    details["worst_naturality"] = worst_nat
    details["elapsed_s"] = time.perf_counter() - t0
    details["seed"] = seed

    return InvariantResult(
        name="retraction_identities",
        ok=ok,
        measured=worst_nat,
        threshold=1e-9,
        details=details,
    )


def check_stratum_vacuity(seed: int = 9) -> InvariantResult:
    """Complementary dimension forces empty facet loci: verified on the
    torus longitude against the meridian and on random plane 2-simplices
    against the origin."""
    rng = np.random.default_rng([int(seed), 41])
    t0 = time.perf_counter()
    rows = []
    ok = True

    pairs = []
    right, left = longitude_arcs()
    meridian = meridian_member()
    pairs.append(("longitude_right", right, meridian))
    pairs.append(("longitude_left", left, meridian))
    origin = origin_member()
    for idx in range(5):
        cubic = random_transverse_cubic(rng, origin)
        face = cubic.restrict(DeltaMorphism.face(0, 3))
        pairs.append((f"cubic_face_{idx}", face, origin))

    for name, sigma, member in pairs:
        facet_points = 0
        for k in range(1, sigma.dim + 1):
            for ell in member.depths():
                rep = intersection_locus(sigma, k, member, ell)
                facet_points += len(rep.points)
        interior = intersection_locus(sigma, 0, member, 0)
        lam = barycentrics_many(sigma.dim, np.array([p.x for p in interior.points]))
        min_bary = float(np.min(lam, initial=math.inf))
        row_ok = facet_points == 0 and (min_bary == math.inf or min_bary >= 1e-6)
        ok = ok and row_ok
        rows.append({
            "pair": name,
            "facet_points": facet_points,
            "interior_points": len(interior.points),
            "min_barycentric": None if math.isinf(min_bary) else min_bary,
            "ok": row_ok,
        })
    return InvariantResult(
        name="stratum_vacuity",
        ok=ok,
        measured=float(sum(r["facet_points"] for r in rows)),
        threshold=0.0,
        details={"seed": seed, "cases": rows, "elapsed_s": time.perf_counter() - t0},
    )


def default_battery(
    seed: int = 1,
    fast: bool = False,
    tol_rank: float = 1e-6,
    max_trials: int = 10,
) -> list[InvariantResult]:
    """The full invariant battery; `fast` trims the sample counts so the
    suite stays interactive."""
    results = [
        check_corner_extension(seed=seed, count=10 if fast else 50),
        check_perturbation_lemma(seed=42, max_trials=max_trials, tol_rank=tol_rank),
        check_cocycle_zero(seed=seed, count=5 if fast else 50, tol_rank=tol_rank),
        check_stratum_vacuity(seed=seed),
        check_retraction_identities(seed=seed, tol_rank=tol_rank),
        check_torus_duality(seed=seed, tol_rank=tol_rank),
    ]
    return results


def _collect_min_svs(obj, out: list) -> None:
    if isinstance(obj, dict):
        for key, val in obj.items():
            if key == "min_sv" and isinstance(val, (int, float)):
                out.append(float(val))
            else:
                _collect_min_svs(val, out)
    elif isinstance(obj, (list, tuple)):
        for val in obj:
            _collect_min_svs(val, out)


def sensitivity_entries(
    results: list[InvariantResult], tol_rank: float
) -> list[dict]:
    """Rank verdicts whose margin sits within a decade of tol_rank: these
    flip under a 10x change of the threshold, so the report flags them.

    The tangent-longitude scenario is re-checked at both the configured
    and the reference tolerance so a coarse tol_rank that changes its
    verdict is visible in the report."""
    flagged = []
    svs: list[float] = []
    for res in results:
        found: list[float] = []
        _collect_min_svs(res.details, found)
        svs.extend(found)
        near = [s for s in found if s > 0 and tol_rank / 10 <= s <= tol_rank * 10]
        if near:
            flagged.append({
                "invariant": res.name,
                "near_threshold_svs": sorted(near),
            })

    member = meridian_member()
    coll = TCollection.of(member)
    tangent = tangent_longitude_arcs()[0]
    at_config = is_T_transverse(tangent, coll, tol_rank)
    at_reference = is_T_transverse(tangent, coll, 1e-6)
    if at_config.ok != at_reference.ok:
        flagged.append({
            "invariant": "tangency_verdict",
            "tol_rank": tol_rank,
            "verdict_at_config": at_config.ok,
            "verdict_at_reference": at_reference.ok,
        })
    return flagged
