"""Per-layer tracing from outside the library.

The tracer replaces each public function in ``LAYERS`` with a wrapper that
records a span (function, parent span, item id, start, end) and a few
counters read from the call's arguments and return value.  The library
itself is not modified: modules import names by value (``cochain`` holds
its own reference to ``is_transverse_pair``), so the wrapper is bound in
every ``transim`` module that holds the original, not only in the defining
module.  ``check_bindings`` fails if any reference to an original is left.

Spans stay in memory and are written out once, at the end of the run.
"""

from __future__ import annotations

import hashlib
import importlib
import inspect
import pkgutil
import time
from array import array
from collections import Counter

import numpy as np

# (module, qualified name) of every wrapped function, grouped by layer.  The
# metric prefix is "<module>.<qualified name>".
LAYERS = {
    "poly": ["PolyMap.eval_many", "PolyMap.jac_many", "PolyMap.compose_affine",
             "PolyMap.__mul__"],
    "smooth_maps": ["SmoothSimplexMap.eval_many", "SmoothSimplexMap.jacobian_many",
                    "SmoothSimplexMap.restrict", "maps_close"],
    "ambient": ["AmbientManifold.project_many", "AmbientManifold.project_jacobian_many",
                "AmbientManifold.tangent_basis"],
    "transversal": ["intersection_locus", "is_transverse_pair", "is_T_transverse",
                    "perturb_to_transverse"],
    "corner_ext": ["smooth_rel_boundary"],
    "retraction": ["FiniteSingularFamily.add", "FiniteSingularFamily.track",
                   "FiniteSingularFamily.retract", "nondeg_factorize",
                   "HomotopyTrack.eval"],
    "cochain": ["iota_W", "cocycle_check", "pullback_evaluate", "winding_number"],
    "scenarios": ["random_transverse_cubic"],
    "cli": ["run_scenario"],
    "verify": ["check_retraction_identities"],
}

TARGETS = [f"{mod}.{qual}" for mod, quals in LAYERS.items() for qual in quals]

# Counters beyond calls / incl_s / self_s: name -> (unit, better).
EXTRA_METRICS = {
    "poly.PolyMap.eval_many.rows": ("count/item", "lower"),
    "poly.PolyMap.jac_many.rows": ("count/item", "lower"),
    "poly.PolyMap.eval_many.single_row_ratio": ("ratio", "lower"),
    "ambient.AmbientManifold.project_many.rows": ("count/item", "lower"),
    "transversal.intersection_locus.points": ("count/item", "lower"),
    "transversal.intersection_locus.newton_failures": ("count/item", "lower"),
    "transversal.intersection_locus.repeat_ratio": ("ratio", "lower"),
    "transversal.is_transverse_pair.escalated_ratio": ("ratio", "lower"),
    "transversal.perturb_to_transverse.trials": ("count/item", "lower"),
    "retraction.FiniteSingularFamily.add.dedup_hit_ratio": ("ratio", "higher"),
    "retraction.FiniteSingularFamily.track.memo_hit_ratio": ("ratio", "higher"),
    "retraction.records": ("count", "lower"),
    "scenarios.random_transverse_cubic.accept_ratio": ("ratio", "higher"),
    "trace.overhead_ratio": ("ratio", "lower"),
}


def per_layer_spec() -> list[dict]:
    """The per-layer metric list, in the order the traced run reports it."""
    out = []
    for target in TARGETS:
        out.append({"name": f"{target}.calls", "unit": "count/item", "better": "lower"})
        out.append({"name": f"{target}.incl_s", "unit": "s/item", "better": "lower"})
        out.append({"name": f"{target}.self_s", "unit": "s/item", "better": "lower"})
    for name, (unit, better) in EXTRA_METRICS.items():
        out.append({"name": name, "unit": unit, "better": better})
    return out


class BindingError(RuntimeError):
    """A transim module still refers to an unwrapped original."""


def _ratio(num: float, den: float) -> float:
    """num / den, and 0.0 for a workload that never reaches the denominator."""
    return num / den if den else 0.0


def _key_bytes(obj, out: list) -> None:
    """Flatten coefficient data (arrays, numbers, tuples, dicts) to bytes."""
    if isinstance(obj, np.ndarray):
        out.append(obj.tobytes())
    elif isinstance(obj, dict):
        for k in sorted(obj):
            out.append(repr(k).encode())
            _key_bytes(obj[k], out)
    elif isinstance(obj, (tuple, list)):
        out.append(b"(")
        for v in obj:
            _key_bytes(v, out)
        out.append(b")")
    else:
        out.append(repr(obj).encode())


def _map_key(sigma, out: list) -> None:
    _key_bytes((sigma.ambient.kind, sigma.ambient.ambient_dim, sigma.project_flag,
                sigma.poly.nvars, sigma.poly.ncomp), out)
    _key_bytes(sigma.poly.terms, out)
    for b in sigma.bumps:
        _key_bytes((b.rho.nvars, b.rho.factors, b.s, b.amplitude, b.scale, b.rho_id), out)


def _locus_key(bound: inspect.BoundArguments) -> bytes:
    """Input identity of one intersection_locus call: flattened coefficients
    of the simplex map, both depths, the member and the cell count."""
    a = bound.arguments
    opts = a["opts"]
    cells = opts.cells_per_dim if a["cells"] is None else a["cells"]
    parts: list = []
    _map_key(a["sigma"], parts)
    member = a["member"]
    _key_bytes((a["simplex_depth"], member.name, member.kind, a["member_depth"],
                cells, repr(opts)), parts)
    return hashlib.blake2b(b"".join(parts), digest_size=16).digest()


def _transim_modules() -> list:
    import transim

    mods = [transim]
    for info in pkgutil.iter_modules(transim.__path__):
        mods.append(importlib.import_module(f"transim.{info.name}"))
    return mods


def _resolve(target: str):
    """(owner object, attribute name, original function) for a target."""
    mod_name, _, qual = target.partition(".")
    owner = importlib.import_module(f"transim.{mod_name}")
    parts = qual.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    attr = parts[-1]
    return owner, attr, owner.__dict__[attr]


class Tracer:
    """Wraps the functions in ``TARGETS`` and aggregates their spans."""

    def __init__(self):
        self.item = -1
        self.names = list(TARGETS)
        n = len(self.names)
        self.calls = [0] * n
        self.incl = [0.0] * n
        self.self_time = [0.0] * n
        self._active = [0] * n
        self.counters: Counter = Counter()
        self.child_calls: Counter = Counter()  # (parent index, child index)
        self.records_max = 0
        self._locus_keys: set = set()
        # span table, one row per call in start order
        self.span_fn = array("H")
        self.span_parent = array("q")
        self.span_item = array("q")
        self.span_t0 = array("d")
        self.span_t1 = array("d")
        self._stack: list = []  # [span id, fn index, child time]
        self._originals: dict[int, str] = {}  # id of original -> target name
        self._installed: list = []  # (owner, attr, original)

    # -- installation ---------------------------------------------------------

    def install(self) -> None:
        wrappers = {}
        for idx, target in enumerate(self.names):
            owner, attr, orig = _resolve(target)
            wrapper = self._wrap(idx, target, orig)
            self._originals[id(orig)] = target
            wrappers[id(orig)] = wrapper
            setattr(owner, attr, wrapper)
            self._installed.append((owner, attr, orig))
        # rebind names imported by value into every other transim module
        for mod in _transim_modules():
            for name, val in list(vars(mod).items()):
                if id(val) in wrappers:
                    setattr(mod, name, wrappers[id(val)])
                    self._installed.append((mod, name, val))
        self.check_bindings()

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._installed):
            setattr(owner, attr, orig)
        self._installed.clear()

    def _leftovers(self) -> list[str]:
        found = []

        def visit(where: str, val) -> None:
            if self._originals.get(id(val)):
                found.append(f"{where} -> {self._originals[id(val)]}")

        for mod in _transim_modules():
            for name, val in vars(mod).items():
                visit(f"{mod.__name__}.{name}", val)
                if isinstance(val, dict):
                    for k, v in val.items():
                        visit(f"{mod.__name__}.{name}[{k!r}]", v)
                elif isinstance(val, (list, tuple)):
                    for i, v in enumerate(val):
                        visit(f"{mod.__name__}.{name}[{i}]", v)
                elif inspect.isclass(val) and val.__module__ == mod.__name__:
                    for attr, v in vars(val).items():
                        visit(f"{mod.__name__}.{name}.{attr}", getattr(v, "__func__", v))
        return found

    def check_bindings(self) -> None:
        """Raise BindingError unless every reference in every transim module
        and class points at a wrapper."""
        left = self._leftovers()
        for target in self.names:
            _, _, current = _resolve(target)
            if not getattr(current, "_bench_traced", False):
                left.append(f"{target} is not wrapped")
        if left:
            raise BindingError("unwrapped bindings: " + "; ".join(left))

    # -- the wrapper ----------------------------------------------------------

    def _wrap(self, idx: int, target: str, orig):
        before, after = self._hooks(target, orig)
        perf = time.perf_counter
        tracer = self

        def wrapper(*args, **kwargs):
            stack = tracer._stack
            parent = stack[-1] if stack else None
            sid = len(tracer.span_fn)
            tracer.span_fn.append(idx)
            tracer.span_parent.append(parent[0] if parent else -1)
            tracer.span_item.append(tracer.item)
            tracer.span_t0.append(0.0)
            tracer.span_t1.append(0.0)
            tracer.calls[idx] += 1
            if parent is not None:
                tracer.child_calls[(parent[1], idx)] += 1
            token = before(args, kwargs) if before else None
            frame = [sid, idx, 0.0]
            stack.append(frame)
            tracer._active[idx] += 1
            t0 = perf()
            try:
                result = orig(*args, **kwargs)
            finally:
                t1 = perf()
                stack.pop()
                tracer._active[idx] -= 1
                tracer.span_t0[sid] = t0
                tracer.span_t1[sid] = t1
                dur = t1 - t0
                tracer.self_time[idx] += dur - frame[2]
                if not tracer._active[idx]:
                    tracer.incl[idx] += dur  # outermost call only, for recursion
                if parent is not None:
                    parent[2] += dur
            if after:
                after(token, args, kwargs, result)
            return result

        wrapper.__name__ = getattr(orig, "__name__", target)
        wrapper.__qualname__ = getattr(orig, "__qualname__", target)
        wrapper.__doc__ = orig.__doc__
        wrapper.__wrapped__ = orig
        wrapper._bench_traced = True
        return wrapper

    def _hooks(self, target: str, orig):
        c = self.counters

        if target == "poly.PolyMap.eval_many":
            def after(_t, _a, _k, res):
                rows = res.shape[0]
                c["poly.PolyMap.eval_many.rows"] += rows
                c["poly.PolyMap.eval_many.single"] += rows == 1
            return None, after
        if target == "poly.PolyMap.jac_many":
            def after(_t, _a, _k, res):
                c["poly.PolyMap.jac_many.rows"] += res.shape[0]
            return None, after
        if target == "ambient.AmbientManifold.project_many":
            def after(_t, _a, _k, res):
                c["ambient.AmbientManifold.project_many.rows"] += res.shape[0]
            return None, after
        if target == "transversal.intersection_locus":
            sig = inspect.signature(orig)

            def before(args, kwargs):
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                key = _locus_key(bound)
                if key in self._locus_keys:
                    c["transversal.intersection_locus.repeats"] += 1
                else:
                    self._locus_keys.add(key)

            def after(_t, _a, _k, res):
                c["transversal.intersection_locus.points"] += len(res.points)
                c["transversal.intersection_locus.newton_failures"] += res.newton_failures
            return before, after
        if target == "transversal.is_transverse_pair":
            sig = inspect.signature(orig)

            def before(args, kwargs):
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                return bound.arguments["opts"].cells_per_dim

            def after(base_cells, _a, _k, res):
                c["transversal.is_transverse_pair.escalated"] += (
                    res.report.cells_used > base_cells)
            return before, after
        if target == "transversal.perturb_to_transverse":
            def after(_t, _a, _k, res):
                c["transversal.perturb_to_transverse.trials"] += res.trials_used
            return None, after
        if target == "retraction.FiniteSingularFamily.add":
            def before(args, _k):
                return len(args[0].records)

            def after(size0, args, _k, _res):
                size = len(args[0].records)
                c["retraction.FiniteSingularFamily.add.hits"] += size == size0
                self.records_max = max(self.records_max, size)
            return before, after
        if target == "retraction.FiniteSingularFamily.track":
            def before(args, kwargs):
                fam = args[0]
                rec = args[1] if len(args) > 1 else kwargs["rec"]
                c["retraction.FiniteSingularFamily.track.hits"] += rec.id in fam.memo
            return before, None
        if target == "retraction.FiniteSingularFamily.retract":
            def after(_t, args, _k, _res):
                self.records_max = max(self.records_max, len(args[0].records))
            return None, after
        return None, None

    # -- scoping and results ----------------------------------------------------

    def start_round(self) -> None:
        """Inputs repeat only within a round: a round shares one family."""
        self._locus_keys.clear()

    def metrics(self, items: int, overhead_ratio: float) -> dict:
        """Per-item layer metrics over ``items`` traced items."""
        out = {}
        idx_of = {name: i for i, name in enumerate(self.names)}
        for i, name in enumerate(self.names):
            out[f"{name}.calls"] = (self.calls[i] / items, "count/item")
            out[f"{name}.incl_s"] = (self.incl[i] / items, "s/item")
            out[f"{name}.self_s"] = (self.self_time[i] / items, "s/item")
        c = self.counters

        def calls(name: str) -> int:
            return self.calls[idx_of[name]]

        extra = {
            "poly.PolyMap.eval_many.rows":
                c["poly.PolyMap.eval_many.rows"] / items,
            "poly.PolyMap.jac_many.rows": c["poly.PolyMap.jac_many.rows"] / items,
            "poly.PolyMap.eval_many.single_row_ratio":
                _ratio(c["poly.PolyMap.eval_many.single"], calls("poly.PolyMap.eval_many")),
            "ambient.AmbientManifold.project_many.rows":
                c["ambient.AmbientManifold.project_many.rows"] / items,
            "transversal.intersection_locus.points":
                c["transversal.intersection_locus.points"] / items,
            "transversal.intersection_locus.newton_failures":
                c["transversal.intersection_locus.newton_failures"] / items,
            "transversal.intersection_locus.repeat_ratio":
                _ratio(c["transversal.intersection_locus.repeats"],
                       calls("transversal.intersection_locus")),
            "transversal.is_transverse_pair.escalated_ratio":
                _ratio(c["transversal.is_transverse_pair.escalated"],
                       calls("transversal.is_transverse_pair")),
            "transversal.perturb_to_transverse.trials":
                c["transversal.perturb_to_transverse.trials"] / items,
            "retraction.FiniteSingularFamily.add.dedup_hit_ratio":
                _ratio(c["retraction.FiniteSingularFamily.add.hits"],
                       calls("retraction.FiniteSingularFamily.add")),
            "retraction.FiniteSingularFamily.track.memo_hit_ratio":
                _ratio(c["retraction.FiniteSingularFamily.track.hits"],
                       calls("retraction.FiniteSingularFamily.track")),
            "retraction.records": float(self.records_max),
            "scenarios.random_transverse_cubic.accept_ratio":
                _ratio(calls("scenarios.random_transverse_cubic"),
                       self.child_calls[(idx_of["scenarios.random_transverse_cubic"],
                                         idx_of["transversal.is_T_transverse"])]),
            "trace.overhead_ratio": overhead_ratio,
        }
        for name, value in extra.items():
            out[name] = (float(value), EXTRA_METRICS[name][0])
        return out

    def save_spans(self, path) -> int:
        """Write the span table as a compressed .npz; returns the span count."""
        np.savez_compressed(
            path,
            names=np.array(self.names),
            fn=np.frombuffer(self.span_fn, dtype=np.uint16),
            parent=np.frombuffer(self.span_parent, dtype=np.int64),
            item=np.frombuffer(self.span_item, dtype=np.int64),
            t0=np.frombuffer(self.span_t0, dtype=np.float64),
            t1=np.frombuffer(self.span_t1, dtype=np.float64),
        )
        return len(self.span_fn)
