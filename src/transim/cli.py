"""Batch front door: scenario configs in, deterministic verdicts and reports out.

Configs and reports are JSON; dense samples go to CSV.  Reports embed every
seed and tolerance needed to reproduce them, and two runs with the same
config and seed agree byte for byte once timing fields are stripped.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time

import jsonschema
import numpy as np

from .ambient import AmbientManifold
from .cochain import (
    Chain,
    CoorientedMember,
    boundary,
    cocycle_check,
    pullback_evaluate,
)
from .errors import SchemaError, TransimError
from .poly import PolyMap
from .retraction import FiniteSingularFamily, export_track_csv
from .scenarios import random_transverse_cubic
from .simplex_geom import simplex_grid
from .smooth_maps import SmoothSimplexMap
from .transversal import (
    CornerManifold,
    LocusOptions,
    TCollection,
    is_T_transverse,
    perturb_to_transverse,
)
from .verify import default_battery, sensitivity_entries

SCHEMA_VERSION = 1

_TIMING_KEYS = {"timings", "elapsed_s"}


# -- serialization -----------------------------------------------------------


def poly_to_json(p: PolyMap) -> dict:
    terms = [
        {"exp": list(e), "coeff": [float(c) for c in p.terms[e]]}
        for e in sorted(p.terms)
    ]
    return {"nvars": p.nvars, "ncomp": p.ncomp, "terms": terms}


def poly_from_json(d: dict) -> PolyMap:
    terms = {
        tuple(int(v) for v in t["exp"]): np.asarray(t["coeff"], dtype=float)
        for t in d["terms"]
    }
    return PolyMap(int(d["nvars"]), int(d["ncomp"]), terms)


def simplex_to_json(m: SmoothSimplexMap) -> dict:
    return {
        "poly": poly_to_json(m.poly),
        "project": bool(m.project_flag),
    }


def simplex_from_json(d: dict, ambient: AmbientManifold) -> SmoothSimplexMap:
    return SmoothSimplexMap.from_poly(
        poly_from_json(d["poly"]), ambient, project=bool(d.get("project", False))
    )


def ambient_from_json(d: dict) -> AmbientManifold:
    kind = d["type"]
    if kind == "euclidean":
        return AmbientManifold.euclidean(int(d["dim"]))
    if kind == "sphere":
        return AmbientManifold.sphere(int(d.get("dim", 3)))
    if kind == "clifford_torus":
        return AmbientManifold.clifford_torus()
    raise SchemaError(f"unknown ambient type {kind!r}")


def member_from_json(d: dict, ambient: AmbientManifold) -> CornerManifold:
    kind = d["kind"]
    co = tuple(poly_from_json(v) for v in d.get("coorientation", []))
    if kind == "level_set":
        return CornerManifold.level_set_in(
            d["name"],
            ambient,
            poly_from_json(d["level"]),
            inequalities=tuple(poly_from_json(h) for h in d.get("inequalities", [])),
            coorientation=co,
        )
    if kind == "parametric":
        chart = simplex_from_json(d["chart"], ambient)
        return CornerManifold.parametric(d["name"], chart, coorientation=co)
    raise SchemaError(f"unknown member kind {kind!r}")


def member_to_json(m: CornerManifold) -> dict:
    out: dict = {"name": m.name, "kind": m.kind}
    if m.coorientation:
        out["coorientation"] = [poly_to_json(v) for v in m.coorientation]
    if m.kind == "level_set":
        out["level"] = poly_to_json(m.level)
        if m.inequalities:
            out["inequalities"] = [poly_to_json(h) for h in m.inequalities]
    else:
        out["chart"] = simplex_to_json(m.chart)
    return out


# -- config loading ----------------------------------------------------------


def _schema_path() -> str:
    return os.path.join(os.path.dirname(__file__), "configs", "scenario.schema.json")


def _read_config(path: str) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise SchemaError(f"cannot read config: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise SchemaError(f"config is not valid JSON: {exc}") from exc


def _validate_config(cfg: dict) -> dict:
    """Reject non-finite numbers (json.load accepts NaN and Infinity, and the
    schema's bounds do not catch NaN), then schema-validate."""
    try:
        json.dumps(cfg, allow_nan=False)
    except ValueError as exc:
        raise SchemaError(f"config holds NaN or Infinity: {exc}") from exc
    with open(_schema_path()) as fh:
        schema = json.load(fh)
    try:
        jsonschema.validate(cfg, schema)
    except jsonschema.ValidationError as exc:
        raise SchemaError(f"config rejected by schema at {exc.json_path}: {exc.message}") from exc
    return cfg


def load_config(path: str) -> dict:
    """Parse and validate a config file; SchemaError on any defect."""
    return _validate_config(_read_config(path))


def _tolerances(cfg: dict) -> dict:
    tols = {"tol_rank": 1e-6, "tau_root": 1e-10, "sup_tol": 0.25}
    tols.update(cfg.get("tolerances", {}))
    return tols


def strip_timing_fields(obj):
    """Recursively drop the wall-clock fields; reports must agree on the rest."""
    if isinstance(obj, dict):
        return {
            k: strip_timing_fields(v) for k, v in obj.items() if k not in _TIMING_KEYS
        }
    if isinstance(obj, list):
        return [strip_timing_fields(v) for v in obj]
    return obj


def report_to_text(report: dict) -> str:
    return json.dumps(report, indent=2, sort_keys=True) + "\n"


# -- scenario world ----------------------------------------------------------


class _World:
    """Materialized config: ambient, members, simplices, lazily built family."""

    def __init__(self, cfg: dict, seed: int, tols: dict, max_trials: int):
        self.cfg = cfg
        self.seed = seed
        self.tols = tols
        self.max_trials = max_trials
        self.opts = LocusOptions(tau_root=tols["tau_root"])
        try:
            self.ambient = ambient_from_json(cfg["ambient"])
            members = [member_from_json(m, self.ambient) for m in cfg.get("members", [])]
            self.collection = TCollection.of(*members)
            self.member_by_name = {m.name: m for m in members}
            self.simplices = self._build_simplices(cfg.get("simplices", []))
        except SchemaError:
            raise
        except (KeyError, ValueError, TypeError) as exc:
            raise SchemaError(f"inconsistent config: {exc}") from exc
        self._family: FiniteSingularFamily | None = None
        self._record_ids: list[str] | None = None

    def _build_simplices(self, specs: list) -> list[SmoothSimplexMap]:
        out = []
        for spec in specs:
            if "generator" in spec:
                if spec["generator"] != "random_transverse_cubic":
                    raise SchemaError(f"unknown generator {spec['generator']!r}")
                member = self.member_by_name[spec["member"]]
                rng = np.random.default_rng([int(spec["seed"]), 97])
                for _ in range(int(spec["count"])):
                    out.append(random_transverse_cubic(
                        rng, member, self.tols["tol_rank"], self.opts
                    ))
            else:
                out.append(simplex_from_json(spec, self.ambient))
        return out

    def family(self) -> FiniteSingularFamily:
        if self._family is None:
            self._family = FiniteSingularFamily(
                self.collection,
                tol_rank=self.tols["tol_rank"],
                seed=self.seed,
                opts=self.opts,
                smoothing_tol=self.tols["sup_tol"],
                max_trials=self.max_trials,
            )
            self._record_ids = [self._family.add(s).id for s in self.simplices]
        return self._family

    def record_ids(self) -> list[str]:
        self.family()
        return list(self._record_ids)

    def dual(self) -> CoorientedMember:
        name = self.cfg.get("dual_member")
        if name is None:
            raise SchemaError("step needs a dual_member naming a cooriented member")
        if name not in self.member_by_name:
            raise SchemaError(f"dual_member {name!r} is not in the collection")
        return CoorientedMember(self.member_by_name[name])


# -- scenario steps ----------------------------------------------------------


def _finite_or_none(x: float):
    return None if (x is None or math.isinf(x)) else float(x)


def _step_check(world: _World, expect: dict, errors: list) -> dict:
    rows = []
    for idx, sigma in enumerate(world.simplices):
        res = is_T_transverse(sigma, world.collection, world.tols["tol_rank"],
                              opts=world.opts)
        rows.append({
            "simplex": idx,
            "transverse": bool(res.ok),
            "min_sv": _finite_or_none(res.min_sv),
        })
    ok = True
    if expect.get("all_transverse"):
        ok = ok and all(r["transverse"] for r in rows)
    if "not_transverse" in expect:
        bad = {r["simplex"] for r in rows if not r["transverse"]}
        ok = ok and bad == set(expect["not_transverse"])
    return {"rows": rows, "ok": ok}


def _step_perturb(world: _World, expect: dict, errors: list) -> dict:
    rows = []
    ok = True
    for idx, sigma in enumerate(world.simplices):
        res = is_T_transverse(sigma, world.collection, world.tols["tol_rank"],
                              opts=world.opts)
        if res.ok:
            rows.append({"simplex": idx, "skipped": "already transverse"})
            continue
        try:
            out = perturb_to_transverse(
                sigma, world.collection, seed=world.seed,
                max_trials=world.max_trials,
                tol_rank=world.tols["tol_rank"], opts=world.opts,
            )
        except TransimError as exc:
            errors.append(f"perturb simplex {idx}: {exc}")
            rows.append({"simplex": idx, "error": type(exc).__name__})
            ok = False
            continue
        n = sigma.dim
        grid = simplex_grid(n, 24)
        start = float(np.max(np.abs(
            out.sigma_prime.with_last_bump_scale(0.0).eval_many(grid)
            - sigma.eval_many(grid)
        )))
        rows.append({
            "simplex": idx,
            "trials": out.trials_used,
            "min_sv": _finite_or_none(out.min_sv),
            "amplitude": out.amplitude,
            "start_error": start,
        })
    return {"rows": rows, "ok": ok}


def _step_retract(world: _World, expect: dict, errors: list,
                  csv_dir: str | None) -> dict:
    fam = world.family()
    rows = []
    ok = True
    for idx, rid in enumerate(world.record_ids()):
        rec = fam.records[rid]
        try:
            image = fam.retract(rec)
        except TransimError as exc:
            errors.append(f"retract simplex {idx}: {exc}")
            rows.append({"simplex": idx, "record": rid, "error": type(exc).__name__})
            ok = False
            continue
        after = is_T_transverse(image.map, world.collection,
                                world.tols["tol_rank"], opts=world.opts)
        rows.append({
            "simplex": idx,
            "record": rid,
            "retracted": image.id,
            "fixed": image.id == rid,
            "transverse_after": bool(after.ok),
        })
        if csv_dir is not None:
            os.makedirs(csv_dir, exist_ok=True)
            export_track_csv(
                fam.track(rec), os.path.join(csv_dir, f"track_{rid}.csv")
            )
    if expect.get("retract_fixed"):
        ok = ok and all(r.get("fixed") for r in rows)
    if expect.get("retract_transverse"):
        ok = ok and all(r.get("transverse_after") for r in rows)
    return {"rows": rows, "ok": ok}


def _step_cocycle(world: _World, expect: dict, errors: list) -> dict:
    w = world.dual()
    fam = world.family()
    rows = []
    ok = True
    for idx, rid in enumerate(world.record_ids()):
        rec = fam.records[rid]
        if rec.dim != w.codim + 1:
            rows.append({"simplex": idx, "skipped": "dimension mismatch"})
            continue
        try:
            total = cocycle_check(w, rec, fam, world.tols["tol_rank"], world.opts)
        except TransimError as exc:
            errors.append(f"cocycle simplex {idx}: {exc}")
            rows.append({"simplex": idx, "error": type(exc).__name__})
            ok = False
            continue
        rows.append({"simplex": idx, "boundary_count": total})
    if expect.get("cocycle_zero"):
        ok = ok and all(r.get("boundary_count") == 0
                        for r in rows if "boundary_count" in r)
    return {"rows": rows, "ok": ok}


def _step_duality(world: _World, expect: dict, errors: list) -> dict:
    w = world.dual()
    fam = world.family()
    ids = world.record_ids()
    rows = []
    ok = True
    for spec in world.cfg.get("chains", []):
        recs = [(int(coeff), fam.records[ids[int(idx)]])
                for coeff, idx in spec["terms"]]
        dim = recs[0][1].dim
        chain = Chain.build(dim, recs)
        try:
            closed = boundary(chain, fam).is_zero
            count = pullback_evaluate(w, chain, fam, world.tols["tol_rank"],
                                      world.opts)
        except TransimError as exc:
            errors.append(f"duality chain {spec['name']}: {exc}")
            rows.append({"chain": spec["name"], "error": type(exc).__name__})
            ok = False
            continue
        rows.append({
            "chain": spec["name"],
            "boundary_zero": bool(closed),
            "count": count,
        })
    wanted = expect.get("counts", {})
    for row in rows:
        if row.get("chain") in wanted:
            ok = ok and row.get("count") == wanted[row["chain"]]
    if expect.get("chains_closed"):
        ok = ok and all(r.get("boundary_zero") for r in rows)
    return {"rows": rows, "ok": ok}


_STEPS = {
    "check": _step_check,
    "perturb": _step_perturb,
    "retract": _step_retract,
    "cocycle": _step_cocycle,
    "duality": _step_duality,
}


def run_scenario(cfg: dict, csv_dir: str | None = None) -> tuple[dict, int]:
    """Execute the requested steps and assemble the report.

    Exit code 0 iff every step assertion passed and no stage error was
    recorded; stage errors are embedded rather than raised.
    """
    seed = int(cfg["seed"])
    tols = _tolerances(cfg)
    max_trials = int(cfg.get("max_trials", 10))
    world = _World(cfg, seed, tols, max_trials)
    expect = cfg.get("expect", {})
    errors: list[str] = []
    steps: dict = {}
    timings: dict = {}
    overall = True
    for step in cfg.get("steps", []):
        t0 = time.perf_counter()
        if step == "retract":
            result = _step_retract(world, expect, errors, csv_dir)
        else:
            result = _STEPS[step](world, expect, errors)
        timings[step] = time.perf_counter() - t0
        steps[step] = result
        overall = overall and result["ok"]
    overall = overall and not errors
    report = {
        "schema_version": SCHEMA_VERSION,
        "command": "scenario",
        "name": cfg.get("name", ""),
        "seed": seed,
        "tolerances": tols,
        "max_trials": max_trials,
        "steps": steps,
        "errors": errors,
        "ok": overall,
        "timings": timings,
    }
    return report, 0 if overall else 1


def verify_suite(cfg: dict) -> tuple[dict, int]:
    """Run the invariant battery and report pass/fail with measured errors."""
    seed = int(cfg["seed"])
    tols = _tolerances(cfg)
    max_trials = int(cfg.get("max_trials", 10))
    t0 = time.perf_counter()
    results = default_battery(
        seed=seed,
        fast=bool(cfg.get("fast", False)),
        tol_rank=tols["tol_rank"],
        max_trials=max_trials,
    )
    total = time.perf_counter() - t0
    flagged = sensitivity_entries(results, tols["tol_rank"])
    overall = all(r.ok for r in results)
    report = {
        "schema_version": SCHEMA_VERSION,
        "command": "verify",
        "name": cfg.get("name", ""),
        "seed": seed,
        "tolerances": tols,
        "max_trials": max_trials,
        "fast": bool(cfg.get("fast", False)),
        "invariants": [r.describe() for r in results],
        "sensitivity": flagged,
        "errors": [],
        "ok": overall,
        "timings": {"total": total},
    }
    return report, 0 if overall else 1


# -- entry point -------------------------------------------------------------


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="transim",
        description="Run a scenario or the invariant battery from a JSON config.",
    )
    p.add_argument("--config", required=True, help="path to a scenario config")
    p.add_argument("--seed", type=int, help="override the config seed")
    p.add_argument("--out", help="write the JSON report here instead of stdout")
    p.add_argument("--csv-dir", help="emit per-track CSV samples into this directory")
    p.add_argument("--tol-rank", type=float, help="override tolerances.tol_rank")
    p.add_argument("--max-trials", type=int, help="override the perturbation trial cap")
    return p


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        cfg = _read_config(args.config)
        if args.seed is not None:
            cfg["seed"] = args.seed
        if args.tol_rank is not None:
            cfg.setdefault("tolerances", {})["tol_rank"] = args.tol_rank
        if args.max_trials is not None:
            cfg["max_trials"] = args.max_trials
        _validate_config(cfg)
    except SchemaError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    try:
        if cfg["command"] == "verify":
            report, code = verify_suite(cfg)
        else:
            report, code = run_scenario(cfg, csv_dir=args.csv_dir)
    except SchemaError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    text = report_to_text(report)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
