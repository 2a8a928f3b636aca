"""In-memory spans around halfline's public entry points, and the
per-layer metrics computed from them.

The library is never edited: :meth:`Tracer.install` replaces each traced
function, at every name any ``halfline`` module binds it to, with a wrapper
that records a span and exact work counters; :meth:`Tracer.uninstall` puts
the originals back.  Spans and counters are recorded only while an op id is
set, so set-up and output checks stay out of the layer metrics.

A span started on a ``parallel_map`` worker thread has no parent of its own
(the per-thread span stack does not cross ``ThreadPoolExecutor``); see
:func:`attach_orphans` for how it is attributed.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import pkgutil
import threading
import time
from collections import defaultdict
from dataclasses import asdict, dataclass, replace

import numpy as np

ROOT = "op"


@dataclass(frozen=True)
class Span:
    sid: int
    name: str
    start: float
    end: float
    parent: int | None
    thread: str
    op: int


def _calls(layer):
    def count(tr, args, kwargs, out):
        tr.add(f"{layer}.calls", 1)
    return count


def _fhat(tr, args, kwargs, out):
    mu = np.asarray(args[1])
    tr.add("transforms.fhat.calls", 1)
    tr.add("transforms.fhat.mu", mu.size)
    if mu.size:
        tr.maximum("transforms.fhat.mu_max", float(np.abs(mu).max()))


def _forward(tr, args, kwargs, out):
    tr.add("transforms.forward.lam", np.size(out))


def _segment_nodes(tr, args, kwargs, out):
    tr.add("quadrature.segment_nodes.calls", 1)
    tr.add("quadrature.segment_nodes.nodes", out[0].size)


def _integrate_segment(tr, args, kwargs, out):
    tr.add("quadrature.integrate_segment.calls", 1)
    tr.add("quadrature.integrate_segment.nodes", out.nodes)
    tr.add("quadrature.integrate_segment.unconverged", 0 if out.converged else 1)


def _solve_grid(tr, args, kwargs, out):
    tr.add("evolution.solve_grid.calls", 1)
    tr.add("evolution.solve_grid.points", out.values.size)


def _jet(tr, args, kwargs, out):
    tr.add("datum.jet.points", out.shape[-1])


def _tail_scan_args(tr, args, kwargs):
    """Count the blocks of a tail scan through its ``G`` callback."""
    G = kwargs.pop("G") if "G" in kwargs else args[1]

    def counted(lam):
        if tr.op is not None:
            tr.add("transforms.tail_scan.blocks", 1)
            tr.maximum("transforms.tail_scan.radius_max",
                       float(np.abs(lam).max()))
        return G(lam)
    return (args[0], counted) + tuple(args[2:]), kwargs


# (module, attribute, span name, counter, argument hook); "Class.method"
# attributes are patched on the class, plain functions at every name a
# halfline module binds them to (re-imports included).
TARGETS = (
    ("halfline.transforms", "SupportTransform.__call__", "transforms.fhat", _fhat, None),
    ("halfline.transforms", "TransformPair.gamma0_tail_scan", "transforms.tail_scan",
     None, _tail_scan_args),
    ("halfline.transforms", "TransformPair.sector_component", "transforms.sector",
     _calls("transforms.sector"), None),
    ("halfline.transforms", "TransformPair.forward", "transforms.forward", _forward, None),
    ("halfline.charmatrix", "CharMatrix.cofactor_det", "charmatrix", _calls("charmatrix"), None),
    ("halfline.charmatrix", "CharMatrix.entry", "charmatrix", _calls("charmatrix"), None),
    ("halfline.charmatrix", "CharMatrix.guard_delta", "charmatrix", _calls("charmatrix"), None),
    ("halfline.quadrature", "segment_nodes", "quadrature.segment_nodes", _segment_nodes, None),
    ("halfline.quadrature", "integrate_segment", "quadrature.integrate_segment",
     _integrate_segment, None),
    ("halfline.quadrature", "ray_monomial_tail", "quadrature.ray_monomial_tail",
     _calls("quadrature.ray_monomial_tail"), None),
    ("halfline.evolution", "solve_grid", "evolution.solve_grid", _solve_grid, None),
    ("halfline.spectral", "remainder_report", "spectral.remainder", None, None),
    ("halfline.spectral", "remainder_polynomial", "spectral.remainder", None, None),
    ("halfline.spectral", "check_type_I", "spectral.type_I", None, None),
    ("halfline.spectral", "check_type_II", "spectral.type_II", None, None),
    ("halfline.spectral", "spectral_representation_check", "spectral.representation",
     None, None),
    ("halfline.oracles", "heat_dirichlet_solution", "oracles.heat",
     _calls("oracles.heat"), None),
    ("halfline.oracles", "heat_neumann_solution", "oracles.heat",
     _calls("oracles.heat"), None),
    ("halfline.oracles", "fd_residual", "oracles.fd_residual",
     _calls("oracles.fd_residual"), None),
    ("halfline.verify", "verify_problem", "verify", None, None),
    ("halfline.datum", "InitialDatum.jet", "datum.jet", _jet, None),
)

# layers reported as <layer>.self_s
SELF_LAYERS = (
    "transforms.fhat", "transforms.tail_scan", "transforms.sector",
    "transforms.forward", "charmatrix", "quadrature.segment_nodes",
    "quadrature.integrate_segment", "quadrature.ray_monomial_tail",
    "spectral.remainder", "spectral.type_I", "spectral.type_II",
    "spectral.representation", "oracles.heat", "oracles.fd_residual",
    "datum.jet",
)

# exact counters, reported per cycle
COUNTERS = (
    "transforms.fhat.calls", "transforms.fhat.mu", "transforms.fhat.mu_max",
    "transforms.tail_scan.blocks", "transforms.tail_scan.radius_max",
    "transforms.sector.calls", "transforms.forward.lam", "charmatrix.calls",
    "quadrature.segment_nodes.calls", "quadrature.segment_nodes.nodes",
    "quadrature.integrate_segment.calls", "quadrature.integrate_segment.nodes",
    "quadrature.integrate_segment.unconverged",
    "quadrature.ray_monomial_tail.calls", "evolution.solve_grid.calls",
    "evolution.solve_grid.points", "oracles.heat.calls",
    "oracles.fd_residual.calls", "datum.jet.points",
)

# counters that are maxima, not sums
MAXIMA = ("transforms.fhat.mu_max", "transforms.tail_scan.radius_max")


def unit(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    if metric in MAXIMA:
        return "1/x"
    return "count"


# spans inside solve_grid that build its node packs
PACK_CHILDREN = ("transforms.forward", "quadrature.segment_nodes")


def _modules():
    import halfline
    mods = [halfline]
    for info in pkgutil.iter_modules(halfline.__path__):
        mods.append(importlib.import_module(f"halfline.{info.name}"))
    return mods


class Tracer:
    """Records spans and counters for the op whose id is in ``op``."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.op: int | None = None
        self._ids = itertools.count()
        self._lock = threading.Lock()
        self._local = threading.local()
        self._patches: list[tuple] = []

    # -- recording -----------------------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def add(self, key: str, value: float) -> None:
        with self._lock:
            self.counts[key] += value

    def maximum(self, key: str, value: float) -> None:
        with self._lock:
            self.counts[key] = max(self.counts[key], value)

    def call(self, name: str, fn, args, kwargs, count=None, hook=None):
        """Run ``fn`` inside a span named ``name`` when an op is set."""
        op = self.op
        if op is None:
            return fn(*args, **kwargs)
        if hook is not None:
            args, kwargs = hook(self, args, kwargs)
        stack = self._stack()
        sid = next(self._ids)
        parent = stack[-1] if stack else None
        stack.append(sid)
        start = time.perf_counter()
        try:
            out = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            span = Span(sid, name, start, end, parent,
                        threading.current_thread().name, op)
            with self._lock:
                self.spans.append(span)
        if count is not None:
            count(self, args, kwargs, out)
        return out

    def wrap(self, name: str, fn, count=None, hook=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.call(name, fn, args, kwargs, count, hook)
        return wrapper

    # -- patching ----------------------------------------------------------
    def install(self) -> None:
        """Patch every traced function; see :data:`TARGETS`."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        mods = _modules()
        for modname, attr, name, count, hook in TARGETS:
            mod = importlib.import_module(modname)
            if "." in attr:
                cls_name, meth = attr.split(".")
                owner = getattr(mod, cls_name)
                orig = owner.__dict__[meth]
                self._patches.append((owner, meth, orig))
                setattr(owner, meth, self.wrap(name, orig, count, hook))
                continue
            orig = getattr(mod, attr)
            wrapper = self.wrap(name, orig, count, hook)
            for m in mods:
                for key, val in list(vars(m).items()):
                    if val is orig:
                        self._patches.append((m, key, orig))
                        setattr(m, key, wrapper)

    def uninstall(self) -> None:
        """Restore every function :meth:`install` replaced."""
        while self._patches:
            owner, key, orig = self._patches.pop()
            setattr(owner, key, orig)

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"spans": [asdict(s) for s in self.spans],
                       "counts": dict(self.counts)}, fh)


# -- span arithmetic ---------------------------------------------------------

def covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def _pool(thread: str) -> str:
    """Threads of one ThreadPoolExecutor are named <prefix>_<index>."""
    if thread.startswith("ThreadPoolExecutor-"):
        return thread.rsplit("_", 1)[0]
    return thread


def attach_orphans(spans: list[Span]) -> list[Span]:
    """Give each parentless span (other than an op root) a parent.

    One ``parallel_map`` call runs its items on the threads of one executor,
    all inside the span that was open in the calling thread.  So the parent
    of a worker's orphan span is the innermost span of the same op, on a
    thread outside that executor, whose interval contains every orphan span
    of the executor.  A span of a sibling worker that happens to contain
    that interval too cannot be told apart by time alone; the innermost
    candidate wins.
    """
    by_op = defaultdict(list)
    hulls: dict[tuple, tuple] = {}
    for s in spans:
        by_op[s.op].append(s)
        if s.parent is None and s.name != ROOT:
            key = (s.op, _pool(s.thread))
            lo, hi = hulls.get(key, (s.start, s.end))
            hulls[key] = (min(lo, s.start), max(hi, s.end))
    parents: dict[tuple, int | None] = {}
    for (op, pool), (lo, hi) in hulls.items():
        best = None
        for c in by_op[op]:
            if (_pool(c.thread) != pool and c.start <= lo and c.end >= hi
                    and (best is None or c.end - c.start < best.end - best.start)):
                best = c
        parents[(op, pool)] = None if best is None else best.sid
    return [replace(s, parent=parents[(s.op, _pool(s.thread))])
            if s.parent is None and s.name != ROOT else s for s in spans]


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span duration minus the union of its children's intervals."""
    kids = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            kids[s.parent].append((s.start, s.end))
    return {s.sid: (s.end - s.start) - covered(kids[s.sid], s.start, s.end)
            for s in spans}


def layer_metrics(tracer: Tracer, cycles: int) -> dict[str, float]:
    """Per-layer metrics per cycle of the workload (whole cycles only)."""
    spans = attach_orphans(tracer.spans)
    selfs = self_times(spans)
    by_id = {s.sid: s for s in spans}
    out = {f"{layer}.self_s": 0.0 for layer in SELF_LAYERS}
    for s in spans:
        if s.name in SELF_LAYERS:
            out[f"{s.name}.self_s"] += selfs[s.sid]

    kids = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            kids[s.parent].append(s)
    pack = apply = 0.0
    verify_ops = verify_solves = 0
    for s in spans:
        if s.name == "evolution.solve_grid":
            apply += selfs[s.sid]
            pack += covered([(c.start, c.end) for c in kids[s.sid]
                             if c.name in PACK_CHILDREN], s.start, s.end)
            p = s.parent
            while p is not None and by_id[p].name != "verify":
                p = by_id[p].parent
            verify_solves += p is not None
        elif s.name == "verify":
            verify_ops += 1
    out["evolution.pack_s"] = pack
    out["evolution.apply_s"] = apply
    out = {k: v / cycles for k, v in out.items()}
    for key in COUNTERS:
        v = tracer.counts.get(key, 0.0)
        out[key] = v if key in MAXIMA else v / cycles
    out["verify.solve_grid_calls"] = (verify_solves / verify_ops
                                      if verify_ops else 0.0)
    return out
