import json
import os

import numpy as np
import pytest

import transim.cli as cli
from transim import transversal
from transim.errors import SchemaError
from transim.poly import PolyMap
from transim.scenarios import meridian_member, origin_member, plane
from transim.smooth_maps import SmoothSimplexMap
from transim.verify import InvariantResult, sensitivity_entries

_CONFIG_DIR = os.path.join(os.path.dirname(cli.__file__), "configs")


def _bundled(name):
    return os.path.join(_CONFIG_DIR, name)


def _poly(nvars, ncomp, terms):
    """A poly config dict: ``terms`` maps exponent tuples to coefficient lists."""
    return {"nvars": nvars, "ncomp": ncomp,
            "terms": [{"exp": list(e), "coeff": c} for e, c in terms.items()]}


def test_poly_json_roundtrip():
    rng = np.random.default_rng(81)
    p = PolyMap(2, 3, {(1, 0): rng.uniform(-1, 1, 3), (0, 2): rng.uniform(-1, 1, 3)})
    q = cli.poly_from_json(_poly(2, 3, {e: c.tolist() for e, c in p.terms.items()}))
    assert p.max_coeff_diff(q) == 0.0


def test_member_json_roundtrip():
    s = 2.0 ** 0.5
    origin = {"name": "origin", "kind": "level_set",
              "level": _poly(2, 2, {(1, 0): [1.0, 0.0], (0, 1): [0.0, 1.0]}),
              "coorientation": [_poly(2, 2, {(0, 0): [1.0, 0.0]}),
                                _poly(2, 2, {(0, 0): [0.0, 1.0]})]}
    meridian = {"name": "meridian", "kind": "level_set",
                "level": _poly(4, 1, {(0, 1, 0, 0): [1.0]}),
                "inequalities": [_poly(4, 1, {(1, 0, 0, 0): [1.0]})],
                "coorientation": [_poly(4, 4, {(1, 0, 0, 0): [0.0, s, 0.0, 0.0],
                                               (0, 1, 0, 0): [-s, 0.0, 0.0, 0.0]})]}
    for member, d in ((origin_member(), origin), (meridian_member(), meridian)):
        back = cli.member_from_json(d, member.ambient)
        assert back.name == member.name
        assert back.kind == member.kind
        assert back.codim_in_m == member.codim_in_m
        assert len(back.inequalities) == len(member.inequalities)
        assert len(back.coorientation) == len(member.coorientation)


def test_parametric_member_roundtrip():
    chart = SmoothSimplexMap.affine_from_vertices(
        np.array([[-1.0, 0.0], [1.0, 0.0]]), plane()
    )
    d = {"name": "strip", "kind": "parametric",
         "chart": {"poly": _poly(1, 2, {(0,): [-1.0, 0.0], (1,): [2.0, 0.0]}),
                   "project": False}}
    back = cli.member_from_json(d, plane())
    assert back.kind == "parametric"
    assert back.chart.poly.max_coeff_diff(chart.poly) == 0.0


def test_bundled_configs_validate():
    for name in (
        "empty_t.json",
        "plane_cocycle.json",
        "torus_duality.json",
        "verify_default.json",
        "verify_fast.json",
    ):
        cfg = cli.load_config(_bundled(name))
        assert cfg["schema_version"] == 1


def test_load_config_rejections(tmp_path):
    with pytest.raises(SchemaError):
        cli.load_config(str(tmp_path / "missing.json"))
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(SchemaError):
        cli.load_config(str(bad))
    incomplete = tmp_path / "incomplete.json"
    incomplete.write_text(json.dumps({"schema_version": 1, "command": "verify"}))
    with pytest.raises(SchemaError):
        cli.load_config(str(incomplete))
    unknown_field = tmp_path / "extra.json"
    unknown_field.write_text(json.dumps({
        "schema_version": 1, "command": "verify", "seed": 1, "surprise": True,
    }))
    with pytest.raises(SchemaError):
        cli.load_config(str(unknown_field))


def test_strip_timing_fields():
    report = {
        "ok": True,
        "timings": {"check": 1.0},
        "steps": [{"elapsed_s": 2.0, "rows": [{"timings": 3.0, "value": 7}]}],
    }
    clean = cli.strip_timing_fields(report)
    assert clean == {"ok": True, "steps": [{"rows": [{"value": 7}]}]}


def test_main_exit_codes(tmp_path, capsys):
    assert cli.main(["--config", str(tmp_path / "nope.json")]) == 2
    assert "config error" in capsys.readouterr().err
    with pytest.raises(SystemExit) as exc:
        cli.main(["--config", _bundled("empty_t.json"), "--bogus-flag"])
    assert exc.value.code == 2


def test_negative_seed_rejected(capsys):
    code = cli.main(["--config", _bundled("empty_t.json"), "--seed", "-3"])
    assert code == 2
    assert "seed" in capsys.readouterr().err


@pytest.mark.parametrize("flags, tol_rank", [
    (["--tol-rank", "-1"], None),
    (["--tol-rank", "nan"], None),
    (["--max-trials", "-3"], None),
    ([], float("nan")),
], ids=["negative-tol-rank", "nan-tol-rank", "negative-max-trials", "nan-in-file"])
def test_invalid_merged_config_is_rejected(tmp_path, capsys, flags, tol_rank):
    config = _bundled("empty_t.json")
    if tol_rank is not None:
        with open(config) as fh:
            cfg = json.load(fh)
        cfg.setdefault("tolerances", {})["tol_rank"] = tol_rank
        config = tmp_path / "config.json"
        config.write_text(json.dumps(cfg))  # writes the bare NaN token
    out = tmp_path / "report.json"
    assert cli.main(["--config", str(config), "--out", str(out)] + flags) == 2
    assert "config error" in capsys.readouterr().err
    assert not out.exists()


def test_empty_t_scenario_runs(tmp_path):
    out = tmp_path / "report.json"
    csv_dir = tmp_path / "tracks"
    code = cli.main([
        "--config", _bundled("empty_t.json"),
        "--out", str(out),
        "--csv-dir", str(csv_dir),
    ])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["ok"] is True
    assert set(report["steps"]) == {"check", "retract"}
    for row in report["steps"]["check"]["rows"]:
        assert row["transverse"]
        assert row["min_sv"] is None  # empty collection: vacuous verdict
    for row in report["steps"]["retract"]["rows"]:
        assert row["fixed"] and row["transverse_after"]
        assert os.path.exists(csv_dir / f"track_{row['record']}.csv")


def test_seed_override_lands_in_report(tmp_path):
    out = tmp_path / "report.json"
    code = cli.main([
        "--config", _bundled("empty_t.json"), "--seed", "123", "--out", str(out),
    ])
    assert code == 0
    assert json.loads(out.read_text())["seed"] == 123


def test_scenario_reports_are_deterministic(tmp_path):
    outs = []
    for k in range(2):
        out = tmp_path / f"r{k}.json"
        assert cli.main(["--config", _bundled("empty_t.json"), "--out", str(out)]) == 0
        outs.append(json.loads(out.read_text()))
    a, b = (cli.strip_timing_fields(r) for r in outs)
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def test_torus_duality_scenario(tmp_path):
    out = tmp_path / "report.json"
    code = cli.main(["--config", _bundled("torus_duality.json"), "--out", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["ok"] is True
    counts = {
        row["chain"]: row["count"] for row in report["steps"]["duality"]["rows"]
    }
    assert counts == {"longitude": 1, "meridian_cycle": 0, "tangent_longitude": 1}
    assert all(r["boundary_zero"] for r in report["steps"]["duality"]["rows"])


def test_torus_duality_report_does_not_depend_on_the_locus_memo(monkeypatch):
    cfg = cli.load_config(_bundled("torus_duality.json"))
    remembered, code = cli.run_scenario(cfg)
    locus = transversal.intersection_locus
    forgot = []

    def forgetting(sigma, *args):
        forgot.append(len(sigma.loci))
        sigma.loci.clear()
        return locus(sigma, *args)

    monkeypatch.setattr(transversal, "intersection_locus", forgetting)
    solved, solved_code = cli.run_scenario(cfg)
    assert any(forgot)  # some calls would have been answered from the memo
    assert (solved_code, cli.report_to_text(cli.strip_timing_fields(solved))) == (
        code, cli.report_to_text(cli.strip_timing_fields(remembered)))


def test_sensitivity_flags_near_threshold_margins():
    fake = InvariantResult(
        name="fabricated",
        ok=True,
        measured=0.0,
        threshold=1.0,
        details={"cases": [{"min_sv": 5e-7}, {"min_sv": 0.3}]},
    )
    flagged = sensitivity_entries([fake], tol_rank=1e-6)
    by_name = {f["invariant"]: f for f in flagged}
    assert by_name["fabricated"]["near_threshold_svs"] == [5e-7]
    # at the reference tolerance the tangency verdict agrees with itself
    assert "tangency_verdict" not in by_name


def test_report_text_is_sorted_and_terminated():
    text = cli.report_to_text({"b": 1, "a": {"d": 2, "c": 3}})
    assert text.endswith("\n")
    assert text.index('"a"') < text.index('"b"')
    assert text.index('"c"') < text.index('"d"')


def test_a_simplex_outside_the_tube_is_reported_not_raised(tmp_path):
    """A projected edge of the torus config that leaves the tube: the check
    step records its OutOfTube like every other step, writes the report and
    exits 1; ``all_transverse`` reads the error row without a KeyError."""
    with open(_bundled("torus_duality.json")) as fh:
        cfg = json.load(fh)
    edge = {"poly": {"nvars": 1, "ncomp": 4, "terms": [
        {"exp": [0], "coeff": [3.0, -0.7, 0.7, 0.0]},
        {"exp": [1], "coeff": [0.0, 1.4, 0.0, 0.0]}]}, "project": True}
    cfg.update(simplices=[edge], steps=["check", "perturb"], expect={"all_transverse": True})
    config, out = tmp_path / "config.json", tmp_path / "report.json"
    config.write_text(json.dumps(cfg))
    assert cli.main(["--config", str(config), "--out", str(out)]) == 1
    report = json.loads(out.read_text())
    assert not report["ok"]
    assert [e.split(":")[0] for e in report["errors"]] == ["check simplex 0", "perturb simplex 0"]
    for step in ("check", "perturb"):
        assert report["steps"][step] == {"rows": [{"simplex": 0, "error": "OutOfTube"}],
                                         "ok": False}
