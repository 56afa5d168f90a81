"""The three benchmark workloads, each driven through transim's public API.

A workload object is built in set-up (imports, config load, member and
family construction).  ``item(i)`` runs the run's i-th item, checks it
against its oracle and returns a digest of its result; it raises
``OracleFailure`` when the oracle disagrees.  Item i has input
``i % inputs``, so items with equal inputs must give equal digests.  Items
come in rounds: a round is ``round_items`` items that share state (the
growing family of ``cocycle_plane``), and ``start_round`` resets that
state.  Library functions are looked up on their modules at call time so
that the tracer's wrappers are the ones called.  Each workload imports only
the modules it drives, inside its set-up, so that set-up time covers its
own imports.
"""

from __future__ import annotations

import hashlib
import json
import os

import numpy as np

TOL_RANK = 1e-6


class OracleFailure(AssertionError):
    """An item's result disagrees with its independent check."""


def _digest(obj) -> str:
    text = json.dumps(obj, sort_keys=True, default=repr)
    return hashlib.sha256(text.encode()).hexdigest()


class CocyclePlane:
    """Acceptance-4 stream: random transverse cubic 3-simplices in the plane
    against the origin, 50 per round in one growing family.  Each item counts
    the boundary and checks every face count against the winding oracle."""

    name = "cocycle_plane"
    round_items = 50
    inputs = 50

    def __init__(self, seed: int):
        from transim import cochain, retraction, scenarios, transversal

        self.cochain, self.retraction, self.scenarios, self.transversal = (
            cochain, retraction, scenarios, transversal)
        self.seed = int(seed)
        self.member = scenarios.origin_member()
        self.w = cochain.CoorientedMember(self.member)
        self.opts = transversal.LocusOptions(cells_per_dim=16)
        self.start_round()

    def start_round(self) -> None:
        self.rng = np.random.default_rng([self.seed, 29])
        self.fam = self.retraction.FiniteSingularFamily(
            self.transversal.TCollection.of(self.member), seed=self.seed
        )

    def item(self, index: int) -> str:
        cochain = self.cochain
        tau = self.scenarios.random_transverse_cubic(self.rng, self.member)
        rec = self.fam.add(tau)
        total = cochain.cocycle_check(self.w, rec, self.fam, TOL_RANK, self.opts)
        faces = []
        for fid in rec.faces:
            face = self.fam.records[fid]
            counted = cochain.iota_W(self.w, face, TOL_RANK, self.opts)
            wound = cochain.winding_number(face.map)
            faces.append([fid, counted, wound])
        if total != 0 or any(c != w for _, c, w in faces):
            raise OracleFailure(
                f"item {index}: boundary count {total}, faces (id, iota, winding) {faces}"
            )
        coeffs = {str(e): c.tolist() for e, c in tau.poly.terms.items()}
        return _digest([rec.id, total, faces, coeffs])


class TorusDuality:
    """One run of the bundled torus_duality scenario (check, retract,
    duality) with the config seed set to the workload seed."""

    name = "torus_duality"
    round_items = 1
    inputs = 1

    def __init__(self, seed: int):
        from transim import cli

        self.cli = cli
        path = os.path.join(os.path.dirname(cli.__file__), "configs", "torus_duality.json")
        self.cfg = cli.load_config(path)
        self.cfg["seed"] = int(seed)

    def start_round(self) -> None:
        pass

    def item(self, index: int) -> str:
        cli = self.cli
        report, code = cli.run_scenario(self.cfg)
        counts = {row["chain"]: row.get("count") for row in report["steps"]["duality"]["rows"]}
        not_transverse = [row["simplex"] for row in report["steps"]["check"]["rows"]
                          if not row["transverse"]]
        expected = {"longitude": 1, "meridian_cycle": 0, "tangent_longitude": 1}
        if code != 0 or counts != expected or not_transverse != [2, 3, 4]:
            raise OracleFailure(
                f"item {index}: exit {code}, counts {counts}, "
                f"not transverse {not_transverse}, errors {report['errors']}"
            )
        return _digest([code, cli.strip_timing_fields(report)])


def _strip_elapsed(obj):
    # cli.strip_timing_fields does the same, but importing cli would put
    # jsonschema into this workload's set-up time.
    if isinstance(obj, dict):
        return {k: _strip_elapsed(v) for k, v in obj.items() if k != "elapsed_s"}
    if isinstance(obj, list):
        return [_strip_elapsed(v) for v in obj]
    return obj


class RetractionNaturality:
    """One verify.check_retraction_identities(seed): degeneracies,
    nondeg_factorize, track contracts and naturality under every face and
    degeneracy operator.

    Items cycle through three seeds derived from the workload seed.  The
    cost of one check depends on its seed by about 10%, and a run holds
    only five to eight items, so a single seed per run would make the
    seed, not the code, set the run-to-run spread."""

    name = "retraction_naturality"
    round_items = 1
    inputs = 3

    def __init__(self, seed: int):
        from transim import verify

        self.verify = verify
        self.seed = int(seed)

    def start_round(self) -> None:
        pass

    def item(self, index: int) -> str:
        seed = self.seed * self.inputs + index % self.inputs
        res = self.verify.check_retraction_identities(seed, TOL_RANK)
        if not res.ok:
            raise OracleFailure(
                f"item {index} (seed {seed}): retraction identities failed, "
                f"worst {res.details.get('worst')}, "
                f"naturality {res.details.get('worst_naturality')}"
            )
        return _digest(_strip_elapsed(res.describe()))


WORKLOADS = {w.name: w for w in (CocyclePlane, TorusDuality, RetractionNaturality)}
