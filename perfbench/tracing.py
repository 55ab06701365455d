"""Runtime spans around the public calls of each shrinktest layer.

``install`` wraps every public function and public method of the
layer modules, and rebinds each name wherever a module imported it, so
calls between layers (``decision_threshold -> weight``) are recorded as
nested spans.  The library itself is not edited.  Spans live in memory
for one job; ``LayerTotals.summarize`` turns them into per-layer numbers.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import inspect
import threading
import time

LAYERS = ("cli", "harness", "priors", "quadrature", "shrinkage", "testing", "risk", "adaptive", "rng")

# Arguments or results some spans keep, for counts that need them.
_NOTES = {
    "rng.map_replicates": lambda a, r: {"replicates": a["replicates"], "threads": a["threads"]},
    "shrinkage.ShrinkageCurve.weights": lambda a, r: {"points": len(r)},
    "risk.two_group_risk_mc": lambda a, r: {"draws": a["draws"]},
    "risk.oracle_comparison_mc": lambda a, r: {"draws": a["draws"]},
    "risk.fdr_fnr_mc": lambda a, r: {"replicates": a["replicates"]},
    "adaptive.verify_condition4": lambda a, r: {"replicates": a["replicates"]},
    "adaptive.adaptive_risk_replicates": lambda a, r: {
        "replicates": a["replicates"], "distinct_p_hat": len(set(r[1].tolist())),
    },
    "harness.ResultTable.csv_text": lambda a, r: {"bytes": len(r.encode("utf-8"))},
}
# (name, unit, better) of every per-layer metric, in report order.  Counts
# and times are per cycle, a cycle being the workload's fixed mix of jobs.
PER_LAYER = [
    ("shrinkage.weight.evals", "count/cycle", "lower"),
    ("shrinkage.weight.s", "s/cycle", "lower"),
    ("shrinkage.grid.points", "count/cycle", "lower"),
    ("shrinkage.grid.s", "s/cycle", "lower"),
    ("shrinkage.threshold.calls", "count/cycle", "lower"),
    ("shrinkage.threshold.fresh", "count/cycle", "lower"),
    ("shrinkage.threshold.evals_per_fresh", "count", "lower"),
    ("shrinkage.threshold.self_s", "s/cycle", "lower"),
    ("shrinkage.max_abs_err", "1", "lower"),
    ("shrinkage.threshold.max_roundtrip_err", "1", "lower"),
    ("quadrature.integrals", "count/cycle", "lower"),
    ("quadrature.s", "s/cycle", "lower"),
    ("priors.certify.calls", "count/cycle", "lower"),
    ("priors.certify.s", "s/cycle", "lower"),
    ("priors.warnings", "count/cycle", "lower"),
    ("priors.c2_max_rel_err", "1", "lower"),
    ("priors.c2_mismatched_priors", "count", "lower"),
    ("testing.threshold_test.self_s", "s/cycle", "lower"),
    ("risk.mc.draws", "count/cycle", "higher"),
    ("risk.mc.draws_per_s", "1/s", "higher"),
    ("risk.fdr.replicates_per_s", "1/s", "higher"),
    ("rng.substreams", "count/cycle", "lower"),
    ("rng.substream.s", "s/cycle", "lower"),
    ("rng.map.s", "s/cycle", "lower"),
    ("rng.map.utilization", "1", "higher"),
    ("adaptive.replicates_per_s", "1/s", "higher"),
    ("adaptive.distinct_p_hat", "count/cycle", "higher"),
    ("adaptive.thresholds_fresh", "count/cycle", "lower"),
    ("adaptive.threshold_useful_ratio", "1", "higher"),
    ("adaptive.threshold_share", "1", "lower"),
    ("adaptive.cond4.replicates_per_s", "1/s", "higher"),
    ("harness.self_s", "s/cycle", "lower"),
    ("harness.csv_bytes", "B/cycle", "lower"),
    ("cli.commands", "count/cycle", "lower"),
    ("cli.self_s", "s/cycle", "lower"),
] + [(f"{layer}.self_share", "1", "lower") for layer in LAYERS] + [
    (f"{layer}.failures", "count/cycle", "lower") for layer in LAYERS
] + [
    ("trace.coverage", "1", "higher"),  # lowest over the traced jobs
    ("trace.overhead_s", "s/cycle", "lower"),
    ("trace.overhead_frac", "1", "lower"),
    ("trace.jobs", "count", "higher"),
]
REPLICATE = "map_replicates.fn"  # span name of one replicate body run by map_replicates
_CERTIFY = {"certify_prior", "check_condition1", "check_condition1_lower", "check_condition2",
            "check_condition3"}


class Span:
    __slots__ = ("layer", "name", "start", "end", "parent", "failed", "note")

    def __init__(self, layer, name, parent):
        self.layer, self.name, self.parent = layer, name, parent
        self.start = self.end = 0.0
        self.failed = False
        self.note = None


class Tracer:
    """Collects spans; a thread-local stack gives each span its parent."""

    def __init__(self):
        self.spans: list[Span] = []
        self.on = False
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def run(self, layer: str, name: str, fn, args=(), kwargs=None, note=None, around=None):
        kwargs = kwargs or {}
        stack = self._stack()
        span = Span(layer, name, stack[-1] if stack else None)
        self.spans.append(span)
        stack.append(span)
        if around is not None:
            args, kwargs = around(span, args, kwargs)
        span.start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            span.failed = True
            raise
        finally:
            span.end = time.perf_counter()
            stack.pop()
        if note is not None:
            span.note = note(args, kwargs, result)
        return result

    def wrap(self, layer: str, name: str, fn):
        key = f"{layer}.{name}"
        note = _NOTES.get(key)
        if note is not None:
            sig = inspect.signature(fn)

            def bound_note(args, kwargs, result, _note=note, _sig=sig):
                bound = _sig.bind(*args, **kwargs)
                bound.apply_defaults()
                return _note(bound.arguments, result)
        else:
            bound_note = None
        around = self._map_around if key == "rng.map_replicates" else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.on:
                return fn(*args, **kwargs)
            return self.run(layer, name, fn, args, kwargs, bound_note, around)

        return traced

    def _map_around(self, span, args, kwargs):
        """Run each replicate as a span of the calling layer, child of the map span.

        Pool threads start with an empty stack, so the map span is pushed
        there first; the replicate body is the caller's code, not rng's.
        """
        args = list(args)
        fn = args[0] if args else kwargs.pop("fn")
        caller = span.parent.layer if span.parent is not None else "bench"

        def replicate(i):
            stack = self._stack()
            stack.append(span)
            try:
                return self.run(caller, REPLICATE, fn, (i,))
            finally:
                stack.pop()

        if args:
            args[0] = replicate
        else:
            kwargs["fn"] = replicate
        return tuple(args), kwargs


def _public_callables(module):
    """(qualified name, owner, attribute, function) for a module's public API."""
    out = []
    for name, obj in vars(module).items():
        if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj):
            out.append((name, module, name, obj))
        elif inspect.isclass(obj) and not issubclass(obj, BaseException):
            for attr, member in vars(obj).items():
                public = not attr.startswith("_") or (
                    attr == "__init__" and not dataclasses.is_dataclass(obj)
                )
                if public and inspect.isfunction(member):
                    out.append((f"{name}.{attr}", obj, attr, member))
    return out


def install(tracer: Tracer) -> None:
    """Wrap each layer's public callables and rebind them in every importer."""
    modules = {layer: importlib.import_module(f"shrinktest.{layer}") for layer in LAYERS}
    importers = list(modules.values()) + [importlib.import_module("shrinktest")]
    replaced = {}
    for layer, module in modules.items():
        for qualname, owner, attr, fn in _public_callables(module):
            wrapped = tracer.wrap(layer, qualname, fn)
            setattr(owner, attr, wrapped)
            if owner is module:
                replaced[id(fn)] = wrapped
    for module in importers:
        for name, obj in list(vars(module).items()):
            if id(obj) in replaced and not name.startswith("__"):
                setattr(module, name, replaced[id(obj)])


def _union(spans, lo: float, hi: float) -> list[tuple[float, float]]:
    """The union of the spans' intervals, clipped to [lo, hi], as sorted pieces."""
    pieces: list[list[float]] = []
    for s in sorted(spans, key=lambda c: c.start):
        a, b = max(s.start, lo), min(s.end, hi)
        if b <= a:
            continue
        if pieces and a <= pieces[-1][1]:
            pieces[-1][1] = max(pieces[-1][1], b)
        else:
            pieces.append([a, b])
    return [(a, b) for a, b in pieces]


def _apportion(fragments: list[tuple[float, float, str]]) -> dict[str, float]:
    """Split wall time among layers: a stretch where k self-fragments run gives each 1/k.

    Under the interpreter lock threads take turns, so summing self times
    across threads would count the same wall time more than once.
    """
    events = sorted([(a, 1, layer) for a, b, layer in fragments] +
                    [(b, -1, layer) for a, b, layer in fragments])
    active: dict[str, int] = {}
    share: dict[str, float] = {}
    running, last = 0, None
    for when, step, layer in events:
        if running and last is not None and when > last:
            gap = (when - last) / running
            for name, count in active.items():
                if count:
                    share[name] = share.get(name, 0.0) + gap * count
        last = when
        active[layer] = active.get(layer, 0) + step
        running += step
    return share


def _ancestor(span: Span, layer: str, name: str):
    cur = span.parent
    while cur is not None:
        if cur.layer == layer and cur.name == name:
            return cur
        cur = cur.parent
    return None


class LayerTotals:
    """Per-layer sums over the traced jobs of one run."""

    def __init__(self):
        self.c = {}  # counters and second totals keyed by metric name
        self.job_wall = 0.0
        self.last_wall = 0.0
        self.jobs = 0
        self.min_coverage = 1.0  # worst job: share of its wall time inside layer spans

    def add(self, key: str, value: float) -> None:
        self.c[key] = self.c.get(key, 0.0) + value

    def get(self, key: str) -> float:
        return self.c.get(key, 0.0)

    def summarize(self, root: Span, spans: list[Span]) -> None:
        """Fold one job's spans (root first) into the totals."""
        wall = root.end - root.start
        self.last_wall = wall
        self.job_wall += wall
        self.jobs += 1
        children: dict[int, list[Span]] = {}
        for s in spans:
            if s.parent is not None:
                children.setdefault(id(s.parent), []).append(s)
        fresh: set[int] = set()
        adaptive_thresholds = []
        fragments = []
        for s in spans:
            kids = children.get(id(s), [])
            dur = s.end - s.start
            pieces = _union(kids, s.start, s.end)
            cursor = s.start
            for a, b in pieces + [(s.end, s.end)]:
                if a > cursor:
                    fragments.append((cursor, a, s.layer))
                cursor = b
            self_time = dur - sum(b - a for a, b in pieces)
            self.add(f"{s.layer}.self", self_time)
            if s is root:
                continue
            outermost = s.parent is None or s.parent.layer != s.layer
            self.add(f"{s.layer}.failures", 1.0 if s.failed and outermost else 0.0)
            key = f"{s.layer}.{s.name}"
            note = s.note or {}
            if key == "shrinkage.ShrinkageCurve.weight":
                self.add("weight.evals", 1)
                self.add("weight.s", dur)
                thr = _ancestor(s, "shrinkage", "ShrinkageCurve.decision_threshold")
                if thr is not None:
                    fresh.add(id(thr))
                    self.add("threshold.fresh_evals", 1)
            elif key == "shrinkage.ShrinkageCurve.weights":
                self.add("grid.points", note.get("points", 0))
                self.add("grid.s", dur)
            elif key == "shrinkage.ShrinkageCurve.decision_threshold":
                self.add("threshold.calls", 1)
                self.add("threshold.self_s", self_time)
                if _ancestor(s, "adaptive", "adaptive_risk_replicates") is not None:
                    adaptive_thresholds.append(s)
            elif s.layer == "quadrature" and outermost:
                self.add("quadrature.integrals", 1)
                self.add("quadrature.s", dur)
            elif s.layer == "priors" and s.name in _CERTIFY:
                if s.name != "certify_prior":
                    self.add("certify.calls", 1)
                if _ancestor(s, "priors", "certify_prior") is None:
                    self.add("certify.s", dur)
            elif key == "testing.threshold_test":
                self.add("threshold_test.self_s", self_time)
            elif key in ("risk.two_group_risk_mc", "risk.oracle_comparison_mc"):
                self.add("mc.draws", note.get("draws", 0))
                self.add("mc.s", dur)
            elif key == "risk.fdr_fnr_mc":
                self.add("fdr.replicates", note.get("replicates", 0))
                self.add("fdr.s", dur)
            elif key == "rng.substream":
                self.add("substreams", 1)
                self.add("substream.s", dur)
            elif key == "rng.map_replicates" and outermost:
                reps, threads = note.get("replicates", 1), note.get("threads", 1)
                workers = 1 if threads <= 1 or reps == 1 else min(threads, reps)
                self.add("map.s", dur)
                self.add("map.busy", sum(c.end - c.start for c in kids if c.name == REPLICATE))
                self.add("map.capacity", workers * dur)
            elif key == "adaptive.adaptive_risk_replicates":
                self.add("adaptive.replicates", note.get("replicates", 0))
                self.add("adaptive.distinct_p_hat", note.get("distinct_p_hat", 0))
                self.add("adaptive.s", dur)
            elif key == "adaptive.verify_condition4":
                self.add("cond4.replicates", note.get("replicates", 0))
                self.add("cond4.s", dur)
            elif key == "harness.ResultTable.csv_text":
                self.add("csv_bytes", note.get("bytes", 0))
            elif key == "cli.main":
                self.add("cli.commands", 1)
        shares = _apportion(fragments)
        for layer, wall_share in shares.items():
            self.add(f"{layer}.wall", wall_share)
        if wall > 0.0:
            covered = sum(shares.get(layer, 0.0) for layer in LAYERS) / wall
            self.min_coverage = min(self.min_coverage, covered)
        self.add("threshold.fresh", len(fresh))
        fresh_adaptive = [t for t in adaptive_thresholds if id(t) in fresh]
        self.add("adaptive.thresholds_fresh", len(fresh_adaptive))
        self.add("adaptive.threshold_wall",
                 sum(b - a for a, b in _union(fresh_adaptive, root.start, root.end)))

    def metrics(self, cycles: int) -> dict[str, float]:
        """The per-layer metrics of PER_LAYER; counts and times are per cycle."""
        g = self.get

        def ratio(a, b):
            return a / b if b else 0.0

        def per_cycle(key):
            return g(key) / cycles

        wall = self.job_wall
        out = {
            "shrinkage.weight.evals": per_cycle("weight.evals"),
            "shrinkage.weight.s": per_cycle("weight.s"),
            "shrinkage.grid.points": per_cycle("grid.points"),
            "shrinkage.grid.s": per_cycle("grid.s"),
            "shrinkage.threshold.calls": per_cycle("threshold.calls"),
            "shrinkage.threshold.fresh": per_cycle("threshold.fresh"),
            "shrinkage.threshold.evals_per_fresh": ratio(g("threshold.fresh_evals"), g("threshold.fresh")),
            "shrinkage.threshold.self_s": per_cycle("threshold.self_s"),
            "quadrature.integrals": per_cycle("quadrature.integrals"),
            "quadrature.s": per_cycle("quadrature.s"),
            "priors.certify.calls": per_cycle("certify.calls"),
            "priors.certify.s": per_cycle("certify.s"),
            "priors.warnings": per_cycle("priors.warnings"),
            "testing.threshold_test.self_s": per_cycle("threshold_test.self_s"),
            "risk.mc.draws": per_cycle("mc.draws"),
            "risk.mc.draws_per_s": ratio(g("mc.draws"), g("mc.s")),
            "risk.fdr.replicates_per_s": ratio(g("fdr.replicates"), g("fdr.s")),
            "rng.substreams": per_cycle("substreams"),
            "rng.substream.s": per_cycle("substream.s"),
            "rng.map.s": per_cycle("map.s"),
            "rng.map.utilization": ratio(g("map.busy"), g("map.capacity")),
            "adaptive.replicates_per_s": ratio(g("adaptive.replicates"), g("adaptive.s")),
            "adaptive.distinct_p_hat": per_cycle("adaptive.distinct_p_hat"),
            "adaptive.thresholds_fresh": per_cycle("adaptive.thresholds_fresh"),
            "adaptive.threshold_useful_ratio": ratio(g("adaptive.distinct_p_hat"), g("adaptive.thresholds_fresh")),
            "adaptive.threshold_share": ratio(g("adaptive.threshold_wall"), wall),
            "adaptive.cond4.replicates_per_s": ratio(g("cond4.replicates"), g("cond4.s")),
            "harness.self_s": per_cycle("harness.self"),
            "harness.csv_bytes": per_cycle("csv_bytes"),
            "cli.commands": per_cycle("cli.commands"),
            "cli.self_s": per_cycle("cli.self"),
        }
        for layer in LAYERS:
            out[f"{layer}.self_share"] = ratio(g(f"{layer}.wall"), wall)
            out[f"{layer}.failures"] = per_cycle(f"{layer}.failures")
        out["trace.coverage"] = self.min_coverage
        return out
