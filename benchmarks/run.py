"""transim benchmark: one closed-loop caller runs a workload's items in-process.

    python3 benchmarks/run.py --workload cocycle_plane --seed 3 --seconds 20 --trace 0
    python3 benchmarks/run.py --workload cocycle_plane --seed 3 --seconds 20 --trace 1

Run from any directory; the library is imported from ``src/`` next to this
directory, never from an installed copy.  With ``--trace 0`` the run
measures the end-to-end metrics; with ``--trace 1`` it runs the same items
untraced and then traced, checks that both give the same per-item digests,
and reports per-layer metrics.  Times are scaled to a reference machine
speed (see speed.py); the wall-clock figures are printed beside them.  The
last line of standard output is one JSON object; the lines before it are
for a reader.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field

# One BLAS thread: the library's pinv and svd calls are tiny, and extra
# threads only contend for the machine's cores.  Must precede numpy's import.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
WORKLOAD_NAMES = ("cocycle_plane", "torus_duality", "retraction_naturality")
END_TO_END = ("items_per_s", "item_ms_p50", "item_ms_tail", "setup_s", "peak_rss_mb")
SETUP_PROBES = 4  # extra fresh-process set-ups; setup_s is the median of 1 + this
TAIL_BEYOND = 10  # the tail percentile keeps at least this many items above it


@dataclass
class Phase:
    """Per-item wall latencies, scaled latencies and digests of one
    closed-loop pass, and its failures."""

    latencies: list = field(default_factory=list)
    scaled: list = field(default_factory=list)
    digests: list = field(default_factory=list)
    failed: int = 0
    elapsed: float = 0.0

    @property
    def items(self) -> int:
        return len(self.latencies)

    @property
    def items_per_s(self) -> float:
        """Throughput at the reference speed."""
        return self.items / sum(self.scaled)


def _import_transim_sources() -> None:
    """Put the checkout's sources first on the path; refuse to fall back to
    an installed transim."""
    if not os.path.isfile(os.path.join(SRC, "transim", "__init__.py")):
        raise SystemExit(f"error: transim sources not found under {SRC}")
    sys.path.insert(0, SRC)
    sys.path.insert(0, BENCH_DIR)


def set_up(name: str, seed: int, probe):
    """Import the library and build the workload.

    Returns (workload, wall seconds, seconds at the reference speed)."""
    t0 = time.perf_counter()
    import workloads

    wl = workloads.WORKLOADS[name](seed)
    t1 = time.perf_counter()
    return wl, t1 - t0, (t1 - t0) / probe.factor(t0, t1)


def probe_setup(name: str, seed: int) -> tuple[float, float]:
    """(wall, scaled) set-up time of the workload in a fresh interpreter."""
    out = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--setup-probe",
         "--workload", name, "--seed", str(seed)],
        capture_output=True, text=True, timeout=120, check=True,
    )
    wall, scaled = out.stdout.split()[-2:]
    return float(wall), float(scaled)


def run_items(wl, probe, seconds: float | None = None, items: int | None = None,
              tracer=None, state_ready: bool = False) -> Phase:
    """Closed loop over whole rounds until ``seconds`` have passed or
    ``items`` items are done.  A failing item is recorded and the loop goes
    on, so one failure does not hide the rest of the run."""
    phase = Phase()
    spans = []
    t_start = time.perf_counter()
    while True:
        if not state_ready:
            wl.start_round()
        state_ready = False
        if tracer is not None:
            tracer.start_round()
        for _ in range(wl.round_items):
            if tracer is not None:
                tracer.item = phase.items
            t0 = time.perf_counter()
            try:
                digest = wl.item(phase.items)
            except Exception:
                traceback.print_exc(file=sys.stderr)
                digest = None
                phase.failed += 1
            t1 = time.perf_counter()
            spans.append((t0, t1))
            phase.latencies.append(t1 - t0)
            phase.digests.append(digest)
        if items is not None:
            if phase.items >= items:
                break
        elif time.perf_counter() - t_start >= seconds:
            break
    phase.elapsed = time.perf_counter() - t_start
    phase.scaled = [(t1 - t0) / probe.factor(t0, t1) for t0, t1 in spans]
    return phase


def repeat_mismatches(wl, phase: Phase) -> tuple[int, int]:
    """Digest check between items with the same input (item i has input
    i % wl.inputs).

    Returns (extra items run, mismatches).  When no input repeated within
    the run, the first item is run once more from a fresh round."""
    first: dict[int, str] = {}
    mismatches = 0
    repeated = False
    for i, digest in enumerate(phase.digests):
        pos = i % wl.inputs
        if pos in first:
            repeated = True
            if digest is not None and first[pos] is not None and digest != first[pos]:
                mismatches += 1
        else:
            first[pos] = digest
    if repeated:
        return 0, mismatches
    wl.start_round()
    try:
        again = wl.item(0)
    except Exception:
        traceback.print_exc(file=sys.stderr)
        return 1, mismatches + 1
    return 1, mismatches + int(again != phase.digests[0])


def tail(latencies: list) -> tuple[float, float]:
    """(value, percentile) of the highest order statistic with at least
    TAIL_BEYOND items above it, but never below the upper median."""
    ordered = sorted(latencies)
    n = len(ordered)
    rank = max(n - TAIL_BEYOND, n // 2 + 1)
    return ordered[rank - 1], 100.0 * rank / n


def machine_record() -> dict:
    import numpy

    try:
        deps = numpy.show_config(mode="dicts")["Build Dependencies"]
        blas = {k: deps["blas"].get(k) for k in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError):
        blas = {"name": "unknown"}
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }


def expected_names(trace: bool) -> list[str]:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def emit(correct: bool, attempted: int, failed: int, metrics: dict) -> None:
    print(json.dumps({
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))


def measure(args, probe) -> int:
    wl, wall, scaled = set_up(args.workload, args.seed, probe)
    print(f"# machine: {json.dumps(machine_record(), sort_keys=True)}")
    setups = [(wall, scaled)] + [probe_setup(args.workload, args.seed)
                                 for _ in range(SETUP_PROBES)]
    phase = run_items(wl, probe, seconds=args.seconds, state_ready=True)
    extra, mismatches = repeat_mismatches(wl, phase)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    tail_s, tail_pct = tail(phase.scaled)
    metrics = {
        "items_per_s": (phase.items_per_s, "1/s"),
        "item_ms_p50": (statistics.median(phase.scaled) * 1e3, "ms"),
        "item_ms_tail": (tail_s * 1e3, "ms"),
        "setup_s": (statistics.median(s for _, s in setups), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    attempted = phase.items + extra
    failed = phase.failed + mismatches
    print(f"# {phase.items} items in {phase.elapsed:.3f} s wall; tail is "
          f"p{tail_pct:.0f} of {phase.items} items; setup is the median of {len(setups)}")
    print(f"# wall clock: items_per_s {phase.items / phase.elapsed:.6g}, "
          f"item_ms_p50 {statistics.median(phase.latencies) * 1e3:.6g}, "
          f"item_ms_tail {tail(phase.latencies)[0] * 1e3:.6g}, "
          f"setup_s {statistics.median(w for w, _ in setups):.6g}")
    print(f"# item ms wall {[round(x * 1e3, 1) for x in phase.latencies]}")
    print(f"# item ms scaled {[round(x * 1e3, 1) for x in phase.scaled]}")
    print(f"# fail_ratio {failed}/{attempted} "
          f"({phase.failed} raised or failed the oracle, {mismatches} digest mismatches)")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    emit(failed == 0, attempted, failed, metrics)
    return 0


def measure_traced(args, probe) -> int:
    import tracer as tracing

    wl, _, _ = set_up(args.workload, args.seed, probe)
    print(f"# machine: {json.dumps(machine_record(), sort_keys=True)}")
    plain = run_items(wl, probe, seconds=args.seconds / 2, state_ready=True)
    tr = tracing.Tracer()
    tr.install()
    try:
        traced = run_items(wl, probe, items=plain.items, tracer=tr)
        tr.check_bindings()
    finally:
        tr.uninstall()
    differ = sum(1 for a, b in zip(plain.digests, traced.digests)
                 if a is None or b is None or a != b)
    extra, mismatches = repeat_mismatches(wl, plain)
    overhead = plain.items_per_s / traced.items_per_s
    metrics = tr.metrics(traced.items, overhead)
    os.makedirs(os.path.join(BENCH_DIR, "traces"), exist_ok=True)
    span_path = os.path.join(BENCH_DIR, "traces", f"{args.workload}-seed{args.seed}.npz")
    spans = tr.save_spans(span_path)
    attempted = plain.items + traced.items + extra
    failed = plain.failed + traced.failed + mismatches + differ
    print(f"# traced {traced.items} items ({spans} spans, written to "
          f"{os.path.relpath(span_path, ROOT)}); untraced {plain.items} items; "
          f"{differ} traced digests differ from untraced")
    print(f"# tracing overhead: {plain.items_per_s:.4g} / {traced.items_per_s:.4g} items/s "
          f"at the reference speed = {overhead:.3f}")
    rows = sorted(tr.names, key=lambda n: -metrics[f"{n}.self_s"][0])
    print(f"# {'function (wall clock)':58s} {'calls/item':>12s} {'incl s/item':>12s} "
          f"{'self s/item':>12s}")
    for name in rows:
        print(f"# {name:58s} {metrics[name + '.calls'][0]:12.1f} "
              f"{metrics[name + '.incl_s'][0]:12.4f} {metrics[name + '.self_s'][0]:12.4f}")
    for name in tracing.EXTRA_METRICS:
        print(f"{name} = {metrics[name][0]:.6g} {metrics[name][1]}")
    emit(failed == 0, attempted, failed, metrics)
    return 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="transim benchmark")
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    _import_transim_sources()
    import speed

    if args.setup_probe:
        with speed.SpeedProbe() as probe:
            _, wall, scaled = set_up(args.workload, args.seed, probe)
        print(repr(wall), repr(scaled))
        return 0
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    names = expected_names(bool(args.trace))
    if args.trace:
        import tracer as tracing

        produced = [m["name"] for m in tracing.per_layer_spec()]
    else:
        produced = list(END_TO_END)
    if produced != names:
        raise SystemExit("error: metrics in BENCHMARK.json do not match this script")
    print(f"# transim benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    with speed.SpeedProbe() as probe:
        return measure_traced(args, probe) if args.trace else measure(args, probe)


if __name__ == "__main__":
    sys.exit(main())
