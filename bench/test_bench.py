"""Tests of the benchmark's own oracles, failure counting and tracing.

Run with ``PYTHONPATH=src python -m pytest bench``.
"""

import random

import checks
import run
import tracing
import worker
import workloads
from worker import ROOT, check_records, run_ops


def test_localization_counts_lines_on_cubic_surface_and_quintic_threefold():
    assert checks.bott_integral(2, 4, lambda x: checks.sym_power_top(x, 3)) == 27
    assert checks.bott_integral(2, 5, lambda x: checks.sym_power_top(x, 5)) == 2875


def test_localization_of_schubert_classes_gives_plucker_degrees():
    # sigma_1 is the first Chern class of U*, so its top power is the
    # sum of the roots to the dimension.
    for k, n in ((2, 4), (2, 5), (3, 6)):
        dim = k * (n - k)
        local = checks.bott_integral(k, n, lambda x: sum(x) ** dim)
        assert local == checks.plucker_degree(k, n)
    assert checks.plucker_degree(2, 5) == 5
    assert checks.schur_value((1, 1), (2, 3)) == 6
    assert checks.schur_value((2,), (2, 3)) == 4 + 6 + 9


def test_split_chern_of_tangent_bundle_of_plane():
    # T_P2 + O = O(1)^3: c = (1 + h)^3
    assert checks.split_chern([1, 1, 1], 2) == [3, 3]
    roots = checks.functor_roots([1, 2], "sym", 2)
    assert sorted(roots) == [2, 3, 4]


def test_semigroup_membership_matches_monomial_enumeration():
    oracles = workloads.load_oracles(ROOT)
    for w in ((1, 1, 2), (2, 3, 5), (3, 4, 5), (1, 2, 3, 5)):
        for m in range(0, 16):
            assert checks.generated_by_semigroups(w, m) == oracles.generated_on_smooth_locus(w, m)


def test_multiplier_root_bound_is_past_every_passing_m():
    X, H3Y, E, l = (4, -1, 24, 56), 4, 88, 2
    bound = checks.multiplier_root_bound(X, H3Y, E, l)
    assert checks.multiplier_passes(X, H3Y, E, l, 1)
    assert not any(checks.multiplier_passes(X, H3Y, E, l, m) for m in range(2, bound + 50))


def test_wrong_answer_and_exception_count_as_failed():
    def boom():
        raise ValueError("domain error")

    ops = [
        workloads.Op("right", lambda: 27, workloads.equals(27)),
        workloads.Op("wrong", lambda: 28, workloads.equals(27)),
        workloads.Op("raises", boom, workloads.equals(27)),
        workloads.Op("unreadable", lambda: None, lambda value: value.terms == {}),
    ]
    solve_s, records = run_ops(ops)
    assert solve_s > 0 and len(records) == 4
    failed, wrong, notes = check_records(records)
    assert (failed, wrong) == (3, 2)
    assert any(note.startswith("raises: ValueError") for note in notes)


def test_solve_time_sums_each_operations_median_scaled_time():
    def round_(times, setup):
        return {"latencies": [[name, 1.0, t] for name, t in zip("abc", times)],
                "setup_scaled_s": setup, "peak_rss_mb": 20.0}

    rounds = [round_((0.3, 0.1, 0.5), 0.2), round_((0.2, 0.4, 0.6), 0.4), round_((0.25, 0.2, 0.7), 0.3)]
    metrics = run.end_to_end(rounds)
    assert run.per_op(rounds) == [0.25, 0.2, 0.6]
    assert abs(metrics["solve_s"]["value"] - 1.05) < 1e-12
    assert abs(metrics["latency_p50_ms"]["value"] - 250.0) < 1e-9
    assert abs(metrics["setup_s"]["value"] - 0.3) < 1e-12


def test_scaled_times_use_the_probes_on_either_side(monkeypatch):
    assert 0 < worker.probe() < 1
    probes = iter([0.002, 0.004, 0.001, 0.003])
    monkeypatch.setattr(worker, "probe", lambda: next(probes))
    monkeypatch.setattr(worker, "PROBE_EVERY_S", 0.0)  # a probe after every operation
    ops = [workloads.Op(str(i), lambda: sum(range(20000)), bool) for i in range(3)]
    solve_s, records = run_ops(ops)
    assert [rec[0].name for rec in records] == ["0", "1", "2"]
    assert abs(solve_s - sum(rec[3] for rec in records)) < 1e-12
    sides = [(0.002, 0.004), (0.004, 0.001), (0.001, 0.003)]
    for (_, _, _, seconds, scaled), (before, after) in zip(records, sides):
        assert abs(scaled - seconds * worker.PROBE_REF_S / ((before + after) / 2)) < 1e-15


def test_same_seed_same_operations():
    for name in ("grassmann", "bundles", "cli"):
        first = [op.name for op in workloads.build(name, random.Random(5), ROOT)]
        again = [op.name for op in workloads.build(name, random.Random(5), ROOT)]
        other = [op.name for op in workloads.build(name, random.Random(6), ROOT)]
        assert first == again != other


def test_tracer_counts_calls_and_self_time():
    from fanocalc import chern, rings, schubert

    tracer = tracing.Tracer()
    tracer.install()
    try:
        ctx = schubert.GrassmannContext(2, 4)
        assert schubert.integrate(schubert.sigma(ctx, 1) ** 4) == 2
        ring = rings.line_ring(2)
        h = ring.gen()
        chern.whitney_sum(chern.line_bundle(ring, h), chern.line_bundle(ring, 2 * h))
    finally:
        tracer.uninstall()
    assert not hasattr(schubert.pieri, "__wrapped__")
    assert not hasattr(rings.PolyElement.__mul__, "__wrapped__")
    snap = tracer.snapshot()
    assert snap["calls"]["schubert.multiply"] == 4
    assert snap["calls"]["schubert.pieri"] == 4
    assert snap["calls"]["chern.whitney_sum"] == 1
    assert snap["calls"]["rings.mul"] > 0
    assert snap["callers"]["schubert.multiply>schubert.pieri"] == 4
    assert all(v >= 0 for v in snap["self_s"].values())


def test_parse_importtime():
    text = (
        "import time: self [us] | cumulative | imported package\n"
        "import time:       120 |        120 |   fanocalc.rings\n"
        "import time:       900 |       1020 | fanocalc.cli\n"
    )
    assert tracing.parse_importtime(text) == {"fanocalc.rings": (120, 120), "fanocalc.cli": (900, 1020)}
