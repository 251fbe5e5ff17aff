"""Tests of the benchmark's own rules: percentiles, span arithmetic, the
correctness gate and the seeded service job mix."""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np
import pytest

from perfbench import spans as sp
from perfbench import stats
from perfbench import workloads


# -- percentile rule ---------------------------------------------------
def test_tail_percentile_is_highest_with_ten_samples_beyond():
    assert stats.samples_beyond(100, 90) == 10
    assert stats.tail_percentile(100) == 90
    assert stats.tail_percentile(999) == 90
    assert stats.tail_percentile(1000) == 99
    assert stats.tail_percentile(10000) == 99.9


def test_too_few_samples_are_refused():
    with pytest.raises(stats.TooFewSamples):
        stats.tail_percentile(99)
    with pytest.raises(stats.TooFewSamples):
        stats.tail(list(range(500)), 99)
    with pytest.raises(stats.TooFewSamples):
        stats.median([])


def test_percentile_interpolates_like_numpy():
    values = [5.0, 1.0, 4.0, 2.0, 3.0, 10.0, 7.0]
    for pct in (0, 10, 50, 90, 100):
        assert stats.percentile(values, pct) == pytest.approx(np.percentile(values, pct))
    assert stats.tail(list(range(100)), 90) == pytest.approx(89.1)


# -- span arithmetic ---------------------------------------------------
def _span(name, start, end, sid, parent=None):
    return sp.Span(name, start, end, sid, parent, run=1)


def test_self_time_subtracts_union_of_children_clipped_to_parent():
    spans = [
        _span("core.run", 0.0, 10.0, 1),
        _span("pw.a", 1.0, 3.0, 2, parent=1),
        _span("pw.b", 2.0, 5.0, 3, parent=1),  # overlaps pw.a
        _span("pw.c", 8.0, 12.0, 4, parent=1),  # runs past its parent
        _span("pw.fft", 1.5, 2.5, 5, parent=2),  # grandchild: not the root's child
    ]
    own = sp.self_times(spans)
    assert own[1] == pytest.approx(10.0 - (4.0 + 2.0))
    assert own[2] == pytest.approx(2.0 - 1.0)
    assert own[5] == pytest.approx(1.0)
    layers = sp.layer_self_times(spans)
    assert layers["core"] == pytest.approx(4.0)
    assert layers["pw"] == pytest.approx(1.0 + 3.0 + 4.0 + 1.0)
    assert sp.total_time(spans, "pw.fft") == pytest.approx(1.0)


def test_recorder_nests_spans_and_shares_run_ids():
    ticks = iter(range(100))
    rec = sp.SpanRecorder(clock=lambda: float(next(ticks)))

    class Kernel:
        def inner(self):
            return "x"

        def outer(self):
            return self.inner() + self.inner()

        @staticmethod
        def helper(v):
            return v + 1

    originals = (Kernel.__dict__["inner"], Kernel.__dict__["outer"])
    rec.patch(Kernel, "inner", "pw.inner")
    rec.patch(Kernel, "outer", "core.outer")
    rec.patch(Kernel, "helper", "pw.helper")
    k = Kernel()
    assert k.outer() == "xx"  # disabled: nothing recorded
    assert rec.spans == []
    rec.enabled = True
    assert k.outer() == "xx"
    assert Kernel.helper(1) == 2
    rec.restore()
    assert (Kernel.__dict__["inner"], Kernel.__dict__["outer"]) == originals

    by_name = {}
    for s in rec.spans:
        by_name.setdefault(s.name, []).append(s)
    (outer,) = by_name["core.outer"]
    assert [s.parent for s in by_name["pw.inner"]] == [outer.sid, outer.sid]
    assert {s.run for s in by_name["pw.inner"]} == {outer.run}
    (helper,) = by_name["pw.helper"]
    assert helper.parent is None and helper.run != outer.run
    # The fake clock ticks once per read: each inner span lasts one tick.
    assert sp.self_times(rec.spans)[outer.sid] == pytest.approx(outer.duration - 2.0)


# -- correctness gate ----------------------------------------------------
def _fake_result(energy_shift: float):
    ref = workloads.REFERENCE["zno16"]
    density = np.full((4, 4, 4), 2.0)  # integrates to 128 * dvol
    return SimpleNamespace(
        total_energy=ref["total_energy"] + energy_shift,
        density=density,
        iterations=ref["iterations"],
    )


def test_gate_admits_summation_order_changes():
    out = workloads.Outcome()
    workloads.gate_scf_results(out, [_fake_result(4.5e-7)], valence_electrons=128, dvol=1.0)
    assert (out.attempted, out.failed) == (1, 0)


def test_gate_rejects_perturbed_energy_as_failed_operation():
    out = workloads.Outcome()
    results = [_fake_result(0.0), _fake_result(1e-3), _fake_result(0.0)]
    workloads.gate_scf_results(out, results, valence_electrons=128, dvol=1.0)
    assert (out.attempted, out.failed) == (3, 1)
    assert "total energy" in out.failures[0]


def test_gate_rejects_lost_charge_and_non_finite_results():
    out = workloads.Outcome()
    bad_charge = _fake_result(0.0)
    bad_charge.density = bad_charge.density * 1.01
    non_finite = _fake_result(float("nan"))
    workloads.gate_scf_results(out, [bad_charge, non_finite], valence_electrons=128, dvol=1.0)
    assert out.failed == 2


# -- seeded service job mix ----------------------------------------------
def test_job_mix_is_reproducible_from_the_seed():
    assert workloads.job_mix(7, 150) == workloads.job_mix(7, 150)
    assert workloads.job_mix(7, 300)[:150] == workloads.job_mix(7, 150)
    assert workloads.job_mix(8, 150) != workloads.job_mix(7, 150)


def test_job_mix_resubmits_earlier_specs_exactly():
    mix = workloads.job_mix(3, 400)
    seen = []
    for spec, resubmission in mix:
        a = spec["builder_args"]["lattice_constant"]
        assert 5.5 <= a <= 5.95
        assert (spec in seen) == resubmission
        seen.append(spec)
    share = sum(r for _, r in mix) / len(mix)
    assert 0.1 < share < 0.3
