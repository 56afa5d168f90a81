"""End-to-end acceptance checks, one test per shipped guarantee.

Each test measures the claim at its stated tolerance and runtime cap and
records a one-line verdict that the terminal summary echoes after the run.
"""

import json
import os
import subprocess
import sys
import time

import numpy as np

import transim.cli as cli
from transim.corner_ext import CornerData, extend_from_corner, verify_restriction_identity
from transim.poly import PolyMap, monomial_exponents
from transim.scenarios import perturbation_cases
from transim.transversal import is_T_transverse
from transim.verify import (
    check_cocycle_zero,
    check_corner_extension,
    check_perturbation_lemma,
    check_retraction_identities,
    check_stratum_vacuity,
    check_torus_duality,
)


def _verdict(log, idx, ok, detail):
    line = f"ACCEPTANCE {idx}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    log.append(line)
    return line


def test_acceptance_1_corner_extension_exactness(acceptance_log):
    t0 = time.perf_counter()
    res = check_corner_extension(seed=1, count=50, tol=1e-10)
    wall = time.perf_counter() - t0
    cases = res.details["cases"]
    ok = (
        res.ok
        and len(cases) == 50
        and all(1 <= c["n"] <= 4 and 1 <= c["k"] <= c["n"] for c in cases)
        and any(c["n"] == 4 and c["k"] == 4 for c in cases)
        and res.measured <= 1e-10
        and wall <= 10.0
    )
    line = _verdict(
        acceptance_log, 1, ok,
        f"50 extensions, dims to 4, depth to 4, worst wall error "
        f"{res.measured:.2e}, {wall:.1f}s",
    )
    assert ok, line


def test_acceptance_2_restriction_telescoping(acceptance_log):
    rng = np.random.default_rng(2026)
    worst = 0.0
    walls = 0
    for _ in range(50):
        n = int(rng.integers(1, 5))
        k = int(rng.integers(1, n + 1))
        terms = {e: rng.uniform(-1, 1, 1) for e in monomial_exponents(n, 3)}
        data = CornerData.from_global(PolyMap(n, 1, terms), k)
        ext = extend_from_corner(data)
        for wall in range(k):
            worst = max(worst, verify_restriction_identity(data, ext, wall))
            walls += 1
    ok = worst <= 1e-10
    line = _verdict(
        acceptance_log, 2, ok,
        f"{walls} wall restrictions checked, worst {worst:.2e} <= 1e-10",
    )
    assert ok, line


def test_acceptance_3_perturbation_lemma(acceptance_log):
    cases = perturbation_cases()
    assert len(cases) == 20
    for case in cases:
        assert not is_T_transverse(case.sigma, case.members).ok, case.name

    t0 = time.perf_counter()
    res = check_perturbation_lemma(seed=42, max_trials=10, tol_rank=1e-6)
    wall = time.perf_counter() - t0
    rows = res.details["cases"]
    ok = (
        res.ok
        and len(rows) == 20
        and all("error" not in r for r in rows)
        and all(r["trials"] <= 10 for r in rows)
        and all(r["boundary_displacement"] <= 1e-12 for r in rows)
        and all(r["start_error"] <= 1e-11 for r in rows)
        and all(r["min_sv"] is None or r["min_sv"] >= 1e-6 for r in rows)
        and wall <= 60.0
    )
    max_trials = max(r["trials"] for r in rows)
    line = _verdict(
        acceptance_log, 3, ok,
        f"20/20 non-transverse inputs fixed at seed 42, worst trial count "
        f"{max_trials}, boundary moved {res.measured:.2e}, start error "
        f"{res.details['worst_start_error']:.2e}, {wall:.1f}s",
    )
    assert ok, line


def test_acceptance_4_cocycle_zero(acceptance_log):
    t0 = time.perf_counter()
    res = check_cocycle_zero(seed=3, count=50)
    wall = time.perf_counter() - t0
    rows = res.details["cases"]
    faces = [f for r in rows for f in r["faces"]]
    ok = (
        res.ok
        and len(rows) == 50
        and all(r["boundary_count"] == 0 for r in rows)
        and all(f["iota"] == f["winding"] for f in faces)
        and wall <= 30.0
    )
    line = _verdict(
        acceptance_log, 4, ok,
        f"50 cubic 3-simplices, boundary counts all zero, "
        f"{len(faces)} faces match the winding oracle, {wall:.1f}s",
    )
    assert ok, line


def test_acceptance_5_torus_duality(acceptance_log):
    t0 = time.perf_counter()
    res = check_torus_duality(seed=7)
    wall = time.perf_counter() - t0
    d = res.details
    ok = (
        res.ok
        and d["longitude"] == 1
        and d["longitude_shifted"] == 1
        and d["longitude_pullback"] == 1
        and d["meridian_cycle"] == 0
        and d["tangent_is_transverse_raw"] is False
        and d["tangent_pullback"] == 1
        and wall <= 60.0
    )
    line = _verdict(
        acceptance_log, 5, ok,
        f"longitude count +1, meridian cycle 0, tangent representative "
        f"+1 through pullback, {wall:.1f}s",
    )
    assert ok, line


def test_acceptance_6_retraction_identities(acceptance_log):
    res = check_retraction_identities(seed=5)
    worst = res.details["worst"]
    ok = (
        res.ok
        and all(r["fixed"] for r in res.details["fixed_points"])
        and all(r["h0_is_input"] and r["h1_is_retraction"]
                for r in res.details["h_endpoints"])
        and worst["start_error"] == 0.0
        and worst["end_error"] <= 1e-9
        and worst["constancy_error"] <= 1e-12
        and res.details["worst_naturality"] <= 1e-9
        # degeneracies out of dimension 3 were exercised
        and any(len(r["beta"]) == 5 for r in res.details["naturality"])
    )
    line = _verdict(
        acceptance_log, 6, ok,
        f"fixed points exact, H endpoints exact at t=0 and "
        f"{worst['end_error']:.1e} at t=1, constancy "
        f"{worst['constancy_error']:.1e}, naturality "
        f"{res.details['worst_naturality']:.1e} over dims to 3",
    )
    assert ok, line


def test_acceptance_7_stratum_vacuity(acceptance_log):
    res = check_stratum_vacuity(seed=9)
    rows = res.details["cases"]
    ok = (
        res.ok
        and all(r["facet_points"] == 0 for r in rows)
        and all(r["min_barycentric"] is None or r["min_barycentric"] >= 1e-6
                for r in rows)
        and any(r["interior_points"] > 0 for r in rows)
    )
    interior = sum(r["interior_points"] for r in rows)
    line = _verdict(
        acceptance_log, 7, ok,
        f"{len(rows)} complementary-dimension pairs, facet loci all empty, "
        f"interior points counted: {interior}, all above the 1e-6 "
        f"barycentric floor",
    )
    assert ok, line


def test_acceptance_8_report_determinism(acceptance_log, tmp_path):
    config = os.path.join(os.path.dirname(cli.__file__), "configs", "verify_fast.json")
    # the CLI subprocesses import the same transim sources as this process
    src_root = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src_root, os.environ.get("PYTHONPATH")) if p))
    texts = []
    codes = []
    for k in range(2):
        out = tmp_path / f"run{k}.json"
        proc = subprocess.run(
            [sys.executable, "-m", "transim.cli", "--config", config,
             "--out", str(out)],
            capture_output=True, text=True, timeout=300, env=env,
        )
        codes.append(proc.returncode)
        report = json.loads(out.read_text())
        texts.append(cli.report_to_text(cli.strip_timing_fields(report)))
    ok = (
        codes == [0, 0]
        and texts[0].encode() == texts[1].encode()
        and json.loads(texts[0])["command"] == "verify"
        and json.loads(texts[0])["ok"] is True
    )
    line = _verdict(
        acceptance_log, 8, ok,
        f"two verify runs, exit codes {codes}, "
        f"{len(texts[0])} report bytes identical after timing strip",
    )
    assert ok, line
