import pytest

import spans


def rec(name, parent, start, end):
    return [name, parent, 0, start, end]


def test_self_time_subtracts_direct_children_only():
    tree = [
        rec("root", None, 0, 100),
        rec("a", 0, 10, 40),
        rec("a.inner", 1, 20, 30),
        rec("b", 0, 50, 90),
    ]
    assert spans.self_times(tree) == {0: 30, 1: 20, 2: 10, 3: 40}


def test_self_time_merges_overlapping_children():
    tree = [rec("root", None, 0, 100), rec("x", 0, 10, 50), rec("y", 0, 30, 60)]
    assert spans.self_times(tree)[0] == 50


def test_tracer_records_nesting_with_a_fake_clock():
    ticks = iter(range(0, 1000, 10))
    tracer = spans.Tracer(clock=lambda: next(ticks))
    outer = tracer.open("query")  # t = 0
    inner = tracer.spanned("groebner.buchberger", lambda: tracer.counted("leaf", lambda: 1)())
    assert inner() == 1  # t = 10 .. 20
    tracer.close(outer)  # t = 30
    assert [s[1] for s in tracer.spans] == [None, 0]
    assert spans.self_times(tracer.spans) == {0: 20, 1: 10}
    assert tracer.counts["leaf"] == 1
    metrics = tracer.layer_metrics(queries=2)
    assert metrics["query.self_ms"] == (20 / 1e6 / 2, "ms/query")
    assert metrics["groebner.buchberger.calls"] == (0.5, "1/query")


def test_install_wraps_rebound_names_and_uninstall_restores_them():
    import aperykit.affine
    import aperykit.apery
    import aperykit.cli
    import aperykit.groebner
    import aperykit.homology
    import aperykit.semigroup

    original = aperykit.groebner.buchberger
    contains = aperykit.semigroup.contains
    tracer = spans.Tracer().install()
    try:
        for module in (aperykit.groebner, aperykit.apery, aperykit.cli, aperykit.affine):
            assert module.buchberger is not original
            assert module.buchberger.__wrapped__ is original
        assert aperykit.homology.contains.__wrapped__ is contains
        S = aperykit.semigroup.NumericalSemigroup([3, 5, 7])
        assert aperykit.homology.pf_via_homology(S) == [2, 4]
    finally:
        tracer.uninstall()
    for module in (aperykit.groebner, aperykit.apery, aperykit.cli, aperykit.affine):
        assert module.buchberger is original
    assert aperykit.homology.contains is contains
    names = [s[0] for s in tracer.spans]
    assert names[0] == "semigroup.NumericalSemigroup"
    assert "homology.build_delta" in names and "semigroup.gaps" in names
    assert tracer.counts["semigroup.contains.calls"] > 0
    metrics = tracer.layer_metrics(queries=1)
    assert metrics["homology.pf_hit_ratio"][0] == pytest.approx(2 / 3)  # gaps 1, 2, 4; PF 2, 4
