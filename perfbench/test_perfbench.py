"""Tests of the benchmark itself: span accounting, seeded generators, and that
a wrong output is counted as a failed item.

    PYTHONPATH=src python -m pytest -q perfbench
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(1, str(HERE.parent / "src"))

import gen  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from run import Runner  # noqa: E402


# --- span recorder -------------------------------------------------------------


def test_self_time_on_nested_calls(tmp_path):
    now = [0.0]
    rec = spans.SpanRecorder(own_metric=("a.outer",), transparent_modules=("laurent",),
                             clock=lambda: now[0])

    def leaf():
        now[0] += 2

    def arith():
        now[0] += 7

    def helper():  # same module as outer, no metric of its own: charged to outer
        now[0] += 10

    def inner():
        now[0] += 1
        leaf_w()
        arith_w()  # transparent: stays in inner's self time
        now[0] += 3

    def outer():
        now[0] += 5
        inner_w()
        helper_w()
        now[0] += 1
        inner_w()

    leaf_w = rec.wrap("c.leaf", leaf)
    arith_w = rec.wrap("laurent.add", arith)
    inner_w = rec.wrap("b.inner", inner)
    helper_w = rec.wrap("a.helper", helper)
    outer_w = rec.wrap("a.outer", outer)
    rec.active = True
    outer_w()

    # outer 5 + inner 13 + helper 10 + 1 + inner 13 = 42
    assert rec.module_entries("a") == (1, 42)
    assert rec.self_time("a.outer") == 5 + 10 + 1
    assert rec.self_time("a.helper") == 0
    assert rec.self_time("b.inner") == 2 * (1 + 7 + 3)
    assert rec.self_time("c.leaf") == 4
    assert rec.calls_of("b.inner") == 2
    assert rec.module_self_time("a") == 16
    assert rec.module_entries("laurent") == (2, 14)
    assert rec.calls_under("b.inner", "c.leaf") == 2

    # spans are stored in order of entry; parents point at positions in that order
    assert [rec.names[n] for n in rec.span_name] == [
        "a.outer", "b.inner", "c.leaf", "laurent.add", "a.helper",
        "b.inner", "c.leaf", "laurent.add"]
    assert list(rec.span_parent) == [-1, 0, 1, 1, 0, 0, 5, 5]
    assert list(rec.span_start) == [0, 5, 6, 8, 18, 29, 30, 32]
    assert list(rec.span_end) == [42, 18, 8, 15, 28, 42, 32, 39]
    written = rec.dump(tmp_path / "spans.json")
    payload = json.loads((tmp_path / "spans.json").read_text())
    assert written == 8 == payload["spans_total"]


def test_inactive_recorder_records_nothing():
    rec = spans.SpanRecorder()
    wrapped = rec.wrap("a.f", lambda x: x + 1)
    assert wrapped(1) == 2
    assert rec.total_spans == 0


def test_span_cap_keeps_aggregates_exact():
    now = [0.0]

    def tick():
        now[0] += 1

    rec = spans.SpanRecorder(clock=lambda: now[0], cap=3)
    f = rec.wrap("a.f", tick)
    rec.active = True
    for _ in range(10):
        f()
    assert rec.total_spans == 10 and len(rec.span_name) == 3
    assert rec.self_time("a.f") == 10


# --- generators ------------------------------------------------------------------


@pytest.mark.parametrize("workload", sorted(gen.PASSES))
def test_generators_are_deterministic_per_seed(workload):
    make = gen.PASSES[workload]
    assert make(5, 2) == make(5, 2)
    assert gen.input_digest(workload, 5, 2) == gen.input_digest(workload, 5, 2)
    if workload != "ladder":  # fixed data: the seed changes nothing
        assert make(5, 2) != make(6, 2)
        assert make(5, 2) != make(5, 3)
        assert gen.input_digest(workload, 5, 2) != gen.input_digest(workload, 6, 2)


def test_table_pass_is_a_permutation_of_the_rows():
    assert sorted(gen.table_pass(9, 0)) == list(range(gen.TABLE_ROWS))


def test_plumbing_chains_are_knots_on_non_crossing_trees():
    for chain in gen.plumbing_pass(4, 0):
        n = chain["strands"]
        edges = chain["edges"]
        assert len(edges) == n - 1
        assert not any(i < k < j < l for i, j in edges for k, l in edges)
        for letters in (chain["plain"], chain["shuffled"]):
            assert gen.permutation_cycles(n, letters) == 1
            assert {(i, j) for i, j, _ in letters} == set(edges)


# --- failed items --------------------------------------------------------------------


def _run(workload) -> Runner:
    runner = Runner(workload, wall_start=0.0)
    runner.run(seconds=1e-9)  # one pass
    return runner


class SmallNormalForms(workloads.NormalForm):
    def inputs(self, k):
        return [w for w in super().inputs(k) if len(w.letters) <= 16]


class ShiftedNormalForms(SmallNormalForms):
    def item(self, word, state):
        nf = super().item(word, state)
        return type(nf)(nf.n, nf.inf + 1, nf.factors)


class DroppedFactor(SmallNormalForms):
    def item(self, word, state):
        nf = super().item(word, state)
        return type(nf)(nf.n, nf.inf, nf.factors[:-1])


class RaisingNormalForms(SmallNormalForms):
    def item(self, word, state):
        raise ValueError("boom")


@pytest.mark.parametrize("cls, ok", [
    (SmallNormalForms, True),
    (ShiftedNormalForms, False),
    (DroppedFactor, False),
    (RaisingNormalForms, False),
])
def test_corrupted_normal_forms_count_as_failed(cls, ok):
    wl = cls(seed=3)
    wl.load()
    runner = _run(wl)
    assert runner.attempted > 0
    if ok:
        assert runner.failed == 0, runner.failures
    else:
        assert runner.failed == runner.attempted


def test_checks_reject_corrupted_outputs_of_every_workload():
    table = workloads.Table(seed=1)
    table.load()
    row = table.inputs(0)[0]
    assert table.check(row, table.item(row, None)) is None
    assert table.check(row, {"ok": False, "reason": "corrupted"}) is not None

    ladder = workloads.Ladder(seed=1)
    ladder.load()
    state = ladder.new_pass()
    base, rung = ladder.inputs(0)[:2]
    assert ladder.check(base, ladder.item(base, state)) is None
    word, poly = ladder.item(rung, state)
    assert ladder.check(rung, (word, poly)) is None
    assert ladder.check(rung, (word, poly * poly)) is not None
    flipped = type(word)(word.strands, word.letters[1:] + word.letters[:1])
    assert ladder.check(rung, (flipped, poly)) is not None

    plumbing = workloads.Plumbing(seed=1)
    plumbing.load()
    chain = plumbing.inputs(0)[1]
    words, tree, results = plumbing.item(chain, None)
    assert plumbing.check(chain, (words, tree, results)) is None
    assert results[0][0] != results[1][0]  # this chain's shuffle moves letters
    assert plumbing.check(chain, (words, tree, results[::-1])) is not None
    wrong_report = results[0][:4] + (type(results[0][4])(results[0][4].regions + 1, ()),)
    assert plumbing.check(chain, (words, tree, [wrong_report, results[1]])) is not None
