"""Spot checks of the verification machinery itself (reduced scales; the
full-scale runs live in test_acceptance)."""

import math

import numpy as np
import pytest

from choicealloc import TabulatedChoiceModel, expected_revenue
from choicealloc.sim import _replication, hindsight_bound
from choicealloc.verify import (
    DEFAULT_SEED,
    DegradedSolver,
    _policy_batch,
    _poisson_partial_ratio,
    run_suite,
    suite_spike,
)


def test_degraded_solver_returns_qualifying_suboptimum():
    # P(1,{1}) = 0.9 vs P(2,{2}) = 0.5: optimum {1} at 0.9; with gamma 0.55
    # the worst qualifying column is {2} at 0.5.
    model = TabulatedChoiceModel({
        frozenset({1}): {1: 0.9},
        frozenset({2}): {2: 0.5},
        frozenset({1, 2}): {1: 0.45, 2: 0.25},
    })
    price = {1: 1.0, 2: 1.0}
    res = DegradedSolver(0.55)(model, price)
    assert res.assortment == {2}
    assert res.value == pytest.approx(0.5)
    assert res.guarantee == 0.55
    assert res.value >= 0.55 * 0.9

    exact = DegradedSolver(1.0)(model, price)
    assert exact.assortment == {1}
    assert exact.value == pytest.approx(0.9)


def test_degraded_solver_empty_on_nonpositive():
    model = TabulatedChoiceModel({frozenset({1}): {1: 0.9}})
    res = DegradedSolver(0.8)(model, {1: -1.0})
    assert res.assortment == frozenset()
    assert res.value == 0.0


def test_poisson_partial_ratio_identity():
    # The literal sum telescopes to P(Poisson(x) <= ceil(x) - 1).
    for x in (0.3, 1.0, 2.7, 9.4):
        direct = _poisson_partial_ratio(x)
        tail = sum(
            math.exp(-x) * x**j / math.factorial(j) for j in range(0, math.ceil(x))
        )
        assert direct == pytest.approx(tail, abs=1e-12)


def test_spike_suite_reduced_scale():
    checks = suite_spike(sharpness=(1, 8), reps=500)
    assert all(c.passed for c in checks)
    # pinned as for the scaling suite
    assert [c.detail for c in checks] == ["s=1: 0.9820±0.0117, s=8: 0.5505±0.0291"]


def test_run_suite_dispatch():
    assert run_suite("inequality")[0].passed
    with pytest.raises(ValueError):
        run_suite("nonesuch")


def _scores(model, price):
    """Every nonempty subset of the priced products, scored once by
    expected_revenue, in lexicographic order."""
    from choicealloc.cdlp import _lex_subsets

    return {frozenset(tup): expected_revenue(model, frozenset(tup), price)
            for tup in _lex_subsets(sorted(price))[1:]}


def _check_degraded_contract(gamma, model, price, scores):
    """Check DegradedSolver(gamma) on (model, price) against its contract;
    returns the result's value."""
    opt = max(scores.values(), default=0.0)
    res = DegradedSolver(gamma)(model, price)
    assert res.guarantee == gamma
    if opt <= 0.0:
        assert (res.assortment, res.value) == (frozenset(), 0.0)
        return 0.0
    assert res.value == scores[res.assortment]
    assert res.value >= gamma * opt
    assert not any(gamma * opt <= v < res.value for v in scores.values())
    # the scores keep lexicographic order, so this is the first set with the value
    assert res.assortment == next(S for S, v in scores.items() if v == res.value)
    return res.value


def _degraded_models():
    import numpy as np

    from choicealloc import AttractionChoiceModel, MixtureChoiceModel

    rng = np.random.default_rng(5)
    for _ in range(12):
        m = int(rng.integers(2, 9))
        segs = tuple((float(w), AttractionChoiceModel(
            tuple(rng.uniform(0, 0.5, m) * (rng.random(m) < 0.4)),
            tuple(rng.choice([0.0, 0.3, 0.6, rng.uniform(0.2, 1.6)], m))))
            for w in rng.dirichlet(np.ones(int(rng.integers(1, 4)))))
        model = segs[0][1] if len(segs) == 1 else MixtureChoiceModel(segs)
        price = {n: float(rng.choice([-0.1, 0.1, 0.2, 1.0, rng.uniform(-0.5, 2.0)]))
                 for n in range(1, m + 1)}
        yield model, price


def test_degraded_solver_screen_equals_full_scan():
    ties = 0
    for model, price in _degraded_models():
        # every product priced, with thresholds that equal some subset's exact value
        scores = _scores(model, price)
        opt = max(scores.values())
        gammas = [1.0, 0.95, 0.7, 0.5, 0.1]
        gammas += [v / opt for v in scores.values() if 0.0 < v < opt and (v / opt) * opt == v]
        for gamma in gammas:
            value = _check_degraded_contract(gamma, model, price, scores)
            ties += value == gamma * opt and gamma < 1.0
    assert ties >= 5


def test_degraded_solver_on_a_subset_of_the_products_equals_full_scan():
    for model, price in _degraded_models():
        for sub in ({}, dict(list(price.items())[:1]), dict(list(price.items())[1::2])):
            scores = _scores(model, sub)
            for gamma in (1.0, 0.7, 0.3):
                _check_degraded_contract(gamma, model, sub, scores)


def test_scaling_suite_details_are_pinned():
    # recorded before the scaling and spike suites shared one sweep; its
    # seeds and monotonicity comparison must not move
    checks = run_suite("scaling", reps=200)
    assert all(c.passed for c in checks)
    assert [c.detail for c in checks] == [
        "theta=1: 0.8453±0.0763, theta=4: 0.9915±0.0474, "
        "theta=16: 0.9885±0.0278, theta=64: 1.0014±0.0143",
        "ratio 1.0014±0.0143 at theta=64 vs 0.95",
    ]


def test_policy_batch_hindsight_equals_one_solve_per_path():
    # the batch solves each distinct count vector once; every path's bound
    # must equal its own solve
    [entry] = _policy_batch(1, 60, DEFAULT_SEED)
    inst, base = entry["inst"], entry["base"]
    paths = [_replication(inst, base, r)[0] for r in range(60)]
    assert len({p.counts for p in paths}) < len(paths)
    want = np.array([hindsight_bound(inst, p) for p in paths])
    assert entry["hindsight"].tobytes() == want.tobytes()
