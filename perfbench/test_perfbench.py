"""Tests of the benchmark itself: span arithmetic, metric names, patching
and failure counting.  Run with ``python3 -m pytest perfbench``."""

import json
import re
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import halfline  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
from halfline.errors import ToleranceNotMet  # noqa: E402
from spans import Span  # noqa: E402

MAIN = "MainThread"
POOL0 = "ThreadPoolExecutor-0"
POOL1 = "ThreadPoolExecutor-1"


def _span(sid, name, start, end, parent=None, thread=MAIN, op=1):
    return Span(sid, name, start, end, parent, thread, op)


def test_covered_merges_overlaps_and_clips():
    assert spans.covered([(1, 4), (3, 6), (8, 12)], 0, 10) == pytest.approx(7.0)
    assert spans.covered([], 0, 10) == 0.0
    assert spans.covered([(-5, 2)], 0, 10) == pytest.approx(2.0)


def test_self_time_with_overlapping_and_cross_thread_children():
    raw = [
        _span(0, "op", 0.0, 10.0),
        _span(1, "a", 1.0, 4.0, parent=0),
        _span(2, "b", 3.0, 6.0, parent=0),          # overlaps a
        _span(3, "caller", 6.0, 9.5, parent=0),     # called parallel_map
        # worker spans: no parent of their own; w1 also contains w2 in time
        _span(4, "w1", 6.5, 9.2, thread=POOL0 + "_0"),
        _span(5, "w2", 7.0, 8.0, thread=POOL0 + "_1"),
        # a pool started from inside w1
        _span(6, "nested", 8.2, 9.0, thread=POOL1 + "_0"),
        # another op's orphan never attaches to this op
        _span(7, "x", 20.0, 21.0, thread=POOL0 + "_0", op=2),
        _span(8, "op", 19.0, 22.0, op=2),
    ]
    attached = {s.sid: s for s in spans.attach_orphans(raw)}
    assert attached[4].parent == 3
    assert attached[5].parent == 3     # not w1: same executor
    assert attached[6].parent == 4     # innermost span containing it
    assert attached[7].parent == 8
    assert attached[0].parent is None

    selfs = spans.self_times(list(attached.values()))
    assert selfs[0] == pytest.approx(10.0 - 8.5)     # [1, 9.5] covered
    assert selfs[3] == pytest.approx(3.5 - 2.7)      # [6.5, 9.2] covered
    assert selfs[4] == pytest.approx(2.7 - 0.8)
    assert selfs[5] == pytest.approx(1.0)
    assert selfs[8] == pytest.approx(2.0)


def test_metric_names_and_units_match_the_spec():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    pattern = re.compile(r"[A-Za-z0-9_.-]+")
    for m in spec["end_to_end"] + spec["per_layer"]:
        assert pattern.fullmatch(m["name"]), m["name"]

    res = {"cycle_walls": [1.0], "op_times": [[1.0]],
           "margins": {"tol": [1.0], "band": []}}
    e2e = run.end_to_end(res, [1.0])
    assert {k: u for k, (_, u) in e2e.items()} == {
        m["name"]: m["unit"] for m in spec["end_to_end"]}

    layer = spans.layer_metrics(spans.Tracer(), 1)
    layer["trace.overhead_s"] = 0.0
    assert {k: spans.unit(k) for k in layer} == {
        m["name"]: m["unit"] for m in spec["per_layer"]}


def _bindings():
    """Every attribute of every halfline module and traced class."""
    out = {}
    for mod in spans._modules():
        for key, val in vars(mod).items():
            out[(mod.__name__, key)] = val
            if isinstance(val, type) and val.__module__.startswith("halfline"):
                for attr, meth in vars(val).items():
                    out[(mod.__name__, key, attr)] = meth
    return out


def test_wrappers_patch_reimports_and_restore_originals():
    before = _bindings()
    tracer = spans.Tracer()
    tracer.install()
    try:
        import halfline.evolution as evolution
        import halfline.spectral as spectral
        import halfline.transforms as transforms
        import halfline.verify as verify
        orig = before[("halfline.evolution", "solve_grid")]
        assert verify.solve_grid is not orig
        assert evolution.solve_grid is not orig
        assert halfline.solve_grid is not orig
        for mod in (transforms, evolution, spectral):
            assert mod.segment_nodes is not before[("halfline.quadrature",
                                                    "segment_nodes")]
        assert verify.spectral.check_type_II is not before[
            ("halfline.spectral", "check_type_II")]

        # recording happens only while an op id is set
        from halfline.quadrature import PathSegment, QuadratureParams
        seg = PathSegment.ray(0.0, 0.0, 0.0, 1.0)
        transforms.segment_nodes(seg, QuadratureParams())
        assert tracer.spans == []
        tracer.op = 1
        lam, _ = transforms.segment_nodes(seg, QuadratureParams())
        tracer.op = None
        assert [s.name for s in tracer.spans] == ["quadrature.segment_nodes"]
        assert tracer.counts["quadrature.segment_nodes.nodes"] == lam.size
    finally:
        tracer.uninstall()
    after = _bindings()
    assert after.keys() == before.keys()
    changed = [k for k in before if after[k] is not before[k]]
    assert changed == []


class _FakeWorkload:
    problems = ("raises", "misses", "passes")

    def cycle(self):
        return list(self.problems)

    def run(self, item):
        if item == "raises":
            raise ToleranceNotMet("forced failure")
        return item

    def check(self, item, out):
        ok = out == "passes"
        return {"tol": [1.0 if ok else -0.5], "band": []}, ok


def test_forced_failures_are_counted_not_fatal():
    res = run.run_ops(_FakeWorkload(), _FakeWorkload().cycle(), 0.0)
    assert res["attempted"] == 3
    assert res["failed"] == 2
    assert [len(t) for t in res["op_times"]] == [0, 1, 1]
    assert min(res["margins"]["tol"]) == -0.5
