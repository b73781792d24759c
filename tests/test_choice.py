import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from choicealloc import (
    AttractionChoiceModel,
    MixtureChoiceModel,
    TabulatedChoiceModel,
    expected_revenue,
    random_instance,
    sample_choice,
)

weights = st.lists(st.floats(min_value=0.0, max_value=5.0), min_size=1, max_size=6)


def mnl(*nu):
    return AttractionChoiceModel((0.0,) * len(nu), nu)


def probs(model, S):
    """Selection probability of each product offered in S, and of no
    purchase at 0."""
    dist = model.distribution(frozenset(S))
    return {0: 1.0 - math.fsum(p for _, p in dist), **dict(dist)}


def test_mnl_probability_formula():
    assert probs(mnl(1.0), {1})[1] == pytest.approx(0.5)
    assert probs(mnl(1.0, 3.0), {1, 2})[2] == pytest.approx(3 / 5)
    assert probs(mnl(1.0, 3.0), {1, 2})[0] == pytest.approx(1 / 5)


def test_empty_assortment_forces_no_purchase():
    assert probs(mnl(1.0), frozenset()) == {0: 1.0}
    assert sample_choice(mnl(1.0), frozenset(), 0.9) == 0


def test_gam_mu_counts_all_products_in_denominator():
    # mu enters the denominator for every product, offered or not.
    model = AttractionChoiceModel((0.5, 2.0), (1.0, 0.3))
    got = probs(model, {1})[1]
    assert got == pytest.approx((0.5 + 1.0) / (0.5 + 2.0 + 1.0 + 1.0))


def test_probability_requires_membership():
    # only products are members of an assortment; no purchase (0) is implicit
    with pytest.raises(ValueError, match="no-purchase"):
        expected_revenue(mnl(1.0), {0, 1}, {0: 0.0, 1: 1.0})


@settings(max_examples=150, deadline=None)
@given(nu=weights, mu=weights, mask=st.lists(st.booleans(), min_size=1, max_size=6))
def test_attraction_probabilities_normalize(nu, mu, mask):
    n = min(len(nu), len(mu), len(mask))
    model = AttractionChoiceModel(tuple(mu[:n]), tuple(nu[:n]))
    S = frozenset(i + 1 for i in range(n) if mask[i])
    total = math.fsum(p for _, p in sorted(probs(model, S).items()))
    assert abs(total - 1.0) <= 1e-12


@settings(max_examples=60, deadline=None)
@given(nu=weights, w=st.floats(min_value=0.05, max_value=0.95))
def test_mixture_normalizes_and_single_segment_collapses(nu, w):
    seg_a = mnl(*nu)
    seg_b = AttractionChoiceModel(tuple(v / 2 for v in nu), tuple(nu))
    mix = MixtureChoiceModel(((w, seg_a), (1.0 - w, seg_b)))
    single = MixtureChoiceModel(((1.0, seg_a),))
    S = frozenset(range(1, len(nu) + 1))
    total = math.fsum(p for _, p in sorted(probs(mix, S).items()))
    assert abs(total - 1.0) <= 1e-12
    for n in S:
        assert probs(single, S)[n] == pytest.approx(probs(seg_a, S)[n], abs=1e-15)


def test_adding_zero_weight_product_leaves_mnl_unchanged():
    base = mnl(1.0, 2.0, 0.0)
    with_it = probs(base, {1, 2, 3})[1]
    without = probs(base, {1, 2})[1]
    assert with_it == pytest.approx(without, abs=1e-15)


def test_tabulated_lookup_and_missing_assortment():
    model = TabulatedChoiceModel({
        frozenset({1}): {1: 0.7},
        frozenset({1, 2}): {1: 0.4, 2: 0.5},
    })
    assert probs(model, {1, 2})[1] == 0.4
    assert probs(model, {1, 2})[0] == pytest.approx(0.1)
    with pytest.raises(ValueError):
        model.distribution(frozenset({2}))


def test_tabulated_validation():
    with pytest.raises(ValueError):
        TabulatedChoiceModel({frozenset({1}): {1: 1.2}})
    with pytest.raises(ValueError):
        TabulatedChoiceModel({frozenset({1}): {2: 0.2}})


def test_removal_monotonicity_flag():
    ok = TabulatedChoiceModel({
        frozenset({1}): {1: 0.7},
        frozenset({1, 2}): {1: 0.5, 2: 0.3},
    })
    assert ok.is_removal_monotone
    # Dropping product 2 *lowers* product 1's selection probability.
    bad = TabulatedChoiceModel({
        frozenset({1}): {1: 0.2},
        frozenset({1, 2}): {1: 0.5, 2: 0.3},
    })
    assert not bad.is_removal_monotone


def test_sample_choice_cdf_convention():
    model = TabulatedChoiceModel({frozenset({1}): {1: 0.5}})
    assert sample_choice(model, {1}, 0.25) == 1
    assert sample_choice(model, {1}, 0.5) == 0
    assert sample_choice(model, {1}, 0.75) == 0


def test_sample_choice_matches_probabilities_empirically():
    model = AttractionChoiceModel((0.2, 0.0, 0.1), (1.0, 2.0, 0.5))
    S = frozenset({1, 2, 3})
    rng = np.random.default_rng(4)
    draws = rng.random(100_000)
    outcomes = np.array([sample_choice(model, S, u) for u in draws])
    for n in (0, 1, 2, 3):
        p = probs(model, S)[n]
        freq = float(np.mean(outcomes == n))
        se = math.sqrt(p * (1 - p) / len(draws))
        assert abs(freq - p) <= 3 * se + 1e-12


def test_expected_revenue():
    assert expected_revenue(mnl(1.0), frozenset(), {}) == 0.0
    assert expected_revenue(mnl(1.0), {1}, {1: 2.0}) == pytest.approx(1.0)
    assert expected_revenue(mnl(1.0, 1.0), {1, 2}, {1: 2.0, 2: 1.0}) == pytest.approx(1.0)


def test_pruning_never_hurts_attraction_or_mixture_revenue():
    # Positive-price pruning must not lower expected revenue for
    # random-utility models; checked on a thousand random cases.
    rng = np.random.default_rng(11)
    for _ in range(1000):
        n = int(rng.integers(1, 7))
        nu = tuple(rng.uniform(0.0, 2.0, n))
        mu = tuple(np.where(rng.random(n) < 0.5, rng.uniform(0.0, 1.0, n), 0.0))
        if rng.random() < 0.5:
            model = AttractionChoiceModel(mu, nu)
        else:
            other = AttractionChoiceModel(tuple(rng.uniform(0.0, 2.0, n)), tuple(rng.uniform(0.0, 2.0, n)))
            w = float(rng.uniform(0.1, 0.9))
            model = MixtureChoiceModel(((w, AttractionChoiceModel(mu, nu)), (1.0 - w, other)))
        members = [i + 1 for i in range(n) if rng.random() < 0.7]
        S = frozenset(members)
        price = {m: float(rng.uniform(-1.0, 2.0)) for m in S}
        pruned = frozenset(n for n in S if price[n] > 0.0)
        assert expected_revenue(model, pruned, price) >= expected_revenue(model, S, price) - 1e-12


def test_constructor_rejects_bad_weights():
    with pytest.raises(ValueError):
        AttractionChoiceModel((-0.1,), (1.0,))
    with pytest.raises(ValueError):
        AttractionChoiceModel((0.0, 0.0), (1.0,))
    with pytest.raises(ValueError):
        MixtureChoiceModel(((0.5, mnl(1.0)),))


@pytest.mark.parametrize("segment", [
    MixtureChoiceModel(((1.0, mnl(1.0)),)),
    TabulatedChoiceModel({frozenset({1}): {1: 0.5}}),
], ids=["mixture", "table"])
def test_mixture_segments_must_be_attraction_models(segment):
    # the planner reads attraction weights from every segment
    with pytest.raises(ValueError, match="mixture segments must be attraction models"):
        MixtureChoiceModel(((1.0, segment),))


# ------------------------------------------------------------ protocol


def _reference_choice_weight_on(model, n):
    """model._choice_weight_on as it was before the models answered
    ``selectable`` themselves."""
    if isinstance(model, AttractionChoiceModel):
        return n <= model.num_products and model.mu[n - 1] + model.nu[n - 1] > 0.0
    if isinstance(model, MixtureChoiceModel):
        return any(_reference_choice_weight_on(seg, n) for _, seg in model.segments)
    if isinstance(model, TabulatedChoiceModel):
        return any(entry.get(n, 0.0) > 0.0 for entry in model.table.values())
    return False


def _drawn_models(seeds=range(12)):
    for seed in seeds:
        inst = random_instance(seed, max_products=5,
                               model_kinds=("attraction", "mixture", "table"))
        for ct in inst.types:
            yield ct.choice


def test_to_doc_from_doc_roundtrip():
    models = list(_drawn_models())
    assert {m.kind for m in models} == {"attraction", "mixture", "table"}
    for model in models:
        again = type(model).from_doc(model.to_doc())
        if isinstance(model, TabulatedChoiceModel):
            assert again.table == model.table
            assert again.num_products == model.num_products
        else:
            assert again == model


def test_selectable_matches_reference():
    zeros = AttractionChoiceModel((0.0, 0.3), (0.0, 0.0))
    sparse = TabulatedChoiceModel({frozenset({1, 2}): {1: 0.4, 2: 0.0}}, num_products=3)
    models = [zeros, sparse, MixtureChoiceModel(((0.5, zeros), (0.5, mnl(0.0, 0.0))))]
    for model in models + list(_drawn_models()):
        for n in range(1, model.num_products + 2):
            assert model.selectable(n) == _reference_choice_weight_on(model, n)


def test_attraction_weights_only_for_plain_attraction_models():
    model = AttractionChoiceModel((0.5, 0.0), (1.0, 2.0))
    weight, nu, base = model.attraction()
    assert weight == (1.5, 2.0) and nu == (1.0, 2.0) and base == model.base_weight
    assert MixtureChoiceModel(((1.0, model),)).attraction() is None
    assert TabulatedChoiceModel({frozenset({1}): {1: 1.0}}).attraction() is None


# ------------------------------------------------ subset-probability tables

_table_weights = st.one_of(st.just(0.0), st.just(1.0), st.sampled_from([0.1, 0.3, 0.6, 0.7]),
                           st.floats(min_value=0.0, max_value=3.0),
                           st.floats(min_value=1e-3, max_value=1e3))


@st.composite
def _table_models(draw):
    """MNL, independent-demand or general attraction models, or mixtures of
    1-4 of them with zero segment weights allowed, over 0-12 products."""
    N = draw(st.integers(min_value=0, max_value=12))

    def attraction():
        kind = draw(st.sampled_from(["mnl", "independent", "general"]))
        mu = (0.0,) * N if kind == "mnl" else draw(st.tuples(*[_table_weights] * N))
        nu = (0.0,) * N if kind == "independent" else draw(st.tuples(*[_table_weights] * N))
        return AttractionChoiceModel(mu, nu)

    if draw(st.booleans()):
        return attraction()
    raw = draw(st.lists(st.sampled_from([0.0, 0.05, 0.3, 1.0]), min_size=1, max_size=4)
               .filter(lambda ws: sum(ws) > 0.0))
    return MixtureChoiceModel(tuple((w / sum(raw), attraction()) for w in raw))


@settings(max_examples=80, deadline=None)
@given(model=_table_models())
def test_subset_table_rows_are_the_bytes_of_distribution(model):
    N = model.num_products
    table = model._subset_table
    assert table.shape == (1 << N, N) and not table.flags.writeable
    for s in range(1 << N):
        row = [0.0] * N
        for n, p in model.distribution(frozenset(n for n in range(1, N + 1) if s >> (n - 1) & 1)):
            row[n - 1] = p
        assert table[s].tobytes() == np.array(row).tobytes()


def test_subset_table_only_for_attraction_models_up_to_the_cap():
    from choicealloc import choice

    cap = choice._ENUMERATION_CAP
    assert mnl(*([1.0] * cap))._subset_table.shape == (1 << cap, cap)
    wide = mnl(*([1.0] * (cap + 1)))
    assert wide._subset_table is None
    assert MixtureChoiceModel(((0.5, wide), (0.5, wide)))._subset_table is None
    assert TabulatedChoiceModel({frozenset({1}): {1: 1.0}})._subset_table is None


def test_validation_builds_no_subset_table():
    from choicealloc import validate_instance

    for seed in range(6):
        inst = random_instance(seed, max_products=8, model_kinds=("attraction", "mixture", "table"))
        assert validate_instance(inst).ok
        for ct in inst.types:
            assert "_subset_table" not in vars(ct.choice)


def _reference_sample(dist, u):
    """Inverse-transform draw by a linear scan of a ``distribution`` list:
    the first product whose running sum exceeds u, else no purchase."""
    cum = 0.0
    for n, p in dist:
        cum += p
        if u < cum:
            return n
    return 0


_table_probabilities = st.one_of(st.floats(min_value=-1e-12, max_value=0.0, exclude_max=True),
                                 st.just(0.0), st.floats(min_value=0.0, max_value=0.6))


@st.composite
def _tabulated_models(draw):
    """Probability tables over 1-5 products with entries down to -1e-12 and
    running sums that may decrease; every subset has an entry."""
    N = draw(st.integers(min_value=1, max_value=5))
    table = {}
    for s in range(1, 1 << N):
        S = frozenset(n for n in range(1, N + 1) if s >> (n - 1) & 1)
        probs = {n: draw(_table_probabilities) for n in sorted(S)}
        total = math.fsum(p for p in probs.values() if p > 0.0)
        if total > 1.0:
            probs = {n: p / total if p > 0.0 else p for n, p in probs.items()}
        table[S] = probs
    return TabulatedChoiceModel(table, num_products=N)


@settings(max_examples=200, deadline=None)
@given(model=st.one_of(_table_models(), _tabulated_models()), data=st.data())
def test_draw_equals_a_linear_scan_of_distribution(model, data):
    from choicealloc.choice import _draw

    N = model.num_products
    doc, text, key = model.to_doc(), repr(model), hash(model)
    fresh = type(model).from_doc(doc) if not isinstance(model, TabulatedChoiceModel) else model
    for _ in range(3):
        mask = data.draw(st.integers(min_value=0, max_value=(1 << N) - 1))
        S = frozenset(n for n in range(1, N + 1) if mask >> (n - 1) & 1)
        dist = model.distribution(S)
        sums, cum = [], 0.0
        for _, p in dist:
            cum += p
            sums.append(cum)
        us = [0.0, math.nextafter(1.0, 0.0), data.draw(st.floats(min_value=0.0, max_value=1.0,
                                                                 exclude_max=True))]
        for s in sums:
            us += [s, math.nextafter(s, -math.inf), math.nextafter(s, math.inf)]
        for u in us:
            assert _draw(model._cdf(S), u) == _reference_sample(dist, u)
            assert sample_choice(model, S, u) == _reference_sample(dist, u)
    # the memo is no field: equality, hash, repr and the document stay put
    assert model._cdfs
    assert model == fresh and hash(model) == key == hash(fresh)
    assert repr(model) == text and model.to_doc() == doc


def test_draw_of_an_empty_offer_is_no_purchase():
    from choicealloc.choice import _draw

    model = TabulatedChoiceModel({frozenset({1}): {1: 1.0}})
    for u in (0.0, 0.5, math.nextafter(1.0, 0.0)):
        assert _draw(model._cdf(frozenset()), u) == 0


def test_draw_on_a_decreasing_running_sum():
    from choicealloc.choice import _draw

    # running sums 0.3, 0.3 - 1e-12, 0.5: between the first two the linear
    # scan stops at product 1, and so must the bisection
    model = TabulatedChoiceModel({frozenset({1, 2, 3}): {1: 0.3, 2: -1e-12, 3: 0.2}})
    S = frozenset({1, 2, 3})
    dist = model.distribution(S)
    for u in (0.3 - 2e-12, 0.3 - 1e-12, 0.3 - 5e-13, 0.3, 0.4, 0.5):
        assert _draw(model._cdf(S), u) == _reference_sample(dist, u)
    assert _draw(model._cdf(S), 0.3 - 5e-13) == 1
