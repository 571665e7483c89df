import copy

import pytest

import workloads


def small(name):
    """The named workload with its pool cut to one or two cycles."""
    w = copy.copy(workloads.WORKLOADS[name])
    if hasattr(w, "cycles"):
        w.cycles = 1
    if hasattr(w, "pool"):
        w.pool = 6
    return w


@pytest.fixture(scope="module")
def api():
    return workloads.load_api()


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_same_inputs_other_seed_other_inputs(api, name):
    w = small(name)
    first, again, other = w.build(api, 11), w.build(api, 11), w.build(api, 12)
    assert first.fingerprint == again.fingerprint
    assert first.fingerprint != other.fingerprint
    key = lambda inputs: [getattr(it, "generators", it) for it in inputs.items]
    assert key(first) == key(again) != key(other)
    assert len(first.items) % w.cycle == 0


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_every_answer_checks_out(api, name):
    w = small(name)
    if name == "corpus-cli":
        w.pool = 2  # the default Buchberger strategy can take seconds per monoid
    inputs = w.build(api, 5)
    refs = w.reference(api, inputs)
    for item, ref in zip(inputs.items, refs):
        assert w.check(api, item, ref, w.query(api, item)) is None


def test_strata_repeat_in_every_cycle(api):
    w = small("homology")
    w.cycles = 2
    ks = [len(g) for g in w.build(api, 1).items]
    assert ks == [k for k, _, _ in w.rungs] * 2


def test_affine_check_rejects_a_missing_and_a_foreign_point(api):
    w = small("affine")
    item = w.build(api, 2).items[-1]
    answer = w.query(api, item)
    assert workloads.affine_apery_mismatch(api, item, answer) is None
    assert workloads.affine_apery_mismatch(api, item, answer[:-1]) is not None
    shifted = answer + (tuple(x + 50 for x in answer[-1]),)
    assert workloads.affine_apery_mismatch(api, item, shifted) is not None
