import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from choicealloc import (
    AttractionChoiceModel,
    CustomerType,
    Instance,
    MixtureChoiceModel,
    Product,
    RateCurve,
    Resource,
    TabulatedChoiceModel,
    products_of_resource,
    random_instance,
    scale_instance,
    solve_cdlp,
    validate_instance,
)


def unit_instance(lam=2.0, capacity=1):
    return Instance(
        (Resource(1, capacity),),
        (Product(1, 1, 1.0),),
        (CustomerType(1, RateCurve.constant(lam), AttractionChoiceModel((0.0,), (1.0,))),),
    )


def test_validate_well_formed_instance_passes():
    report = validate_instance(unit_instance())
    assert report.ok
    assert report.errors == ()


def test_validate_dangling_resource_reference():
    inst = Instance(
        (Resource(1, 1),),
        (Product(1, 2, 1.0),),
        (CustomerType(1, RateCurve.constant(1.0), AttractionChoiceModel((0.0,), (1.0,))),),
    )
    report = validate_instance(inst)
    assert not report.ok
    assert any("dangling resource" in e for e in report.errors)


def test_validate_negative_rate():
    inst = Instance(
        (Resource(1, 1),),
        (Product(1, 1, 1.0),),
        (CustomerType(1, RateCurve((0.0, 1.0), (-1.0,)), AttractionChoiceModel((0.0,), (1.0,))),),
    )
    report = validate_instance(inst)
    assert not report.ok
    assert any("negative rate" in e for e in report.errors)


def test_validate_non_monotone_breakpoints():
    inst = Instance(
        (Resource(1, 1),),
        (Product(1, 1, 1.0),),
        (CustomerType(1, RateCurve((0.0, 0.7, 0.4, 1.0), (1.0, 1.0, 1.0)),
                      AttractionChoiceModel((0.0,), (1.0,))),),
    )
    report = validate_instance(inst)
    assert not report.ok
    assert any("non-monotone breakpoints" in e for e in report.errors)


def test_validate_warns_on_reachable_expired_products():
    inst = Instance(
        (Resource(1, 1, expiry=0.5),),
        (Product(1, 1, 1.0),),
        (CustomerType(1, RateCurve.constant(1.0), AttractionChoiceModel((0.0,), (1.0,))),),
    )
    report = validate_instance(inst)
    assert report.ok
    assert any("expires" in w for w in report.warnings)


def test_validate_reports_integral_float_capacity():
    # a float capacity would reach the value surfaces' array shapes
    inst = Instance(
        (Resource(1, 2.0),),
        (Product(1, 1, 1.0),),
        (CustomerType(1, RateCurve.constant(1.0), AttractionChoiceModel((0.0,), (1.0,))),),
    )
    report = validate_instance(inst)
    assert not report.ok
    assert report.errors == ("resource 1: capacity must be a nonnegative integer",)
    assert validate_instance(unit_instance(capacity=np.int64(2))).ok


def test_validate_reports_fractional_resource_reference():
    # at 1.5 the range check passes, and the planner would index a list by it
    inst = Instance(
        (Resource(1, 2), Resource(2, 2)),
        (Product(1, 1.5, 1.0), Product(2, 2, 1.0)),
        (CustomerType(1, RateCurve.constant(1.0), AttractionChoiceModel((0.0,) * 2, (1.0,) * 2)),),
    )
    report = validate_instance(inst)
    assert report.errors == ("product 1: resource reference 1.5 is no integer",)
    with pytest.raises(ValueError, match="resource reference 1.5"):
        solve_cdlp(inst)


def test_fractional_override_key_is_kept_for_validation():
    model = AttractionChoiceModel((0.0,) * 2, (1.0,) * 2)
    ct = CustomerType(1, RateCurve.constant(1.0), model, reward_override={1.7: 2.0})
    assert ct.reward_override == {1.7: 2.0}  # not {1: 2.0}
    inst = Instance((Resource(1, 2),), (Product(1, 1, 1.0), Product(2, 1, 1.0)), (ct,))
    assert validate_instance(inst).errors == (
        "type 1: reward override for product 1.7, no integer",)
    kept = CustomerType(1, RateCurve.constant(1.0), model, reward_override={np.int64(2): 2.0})
    assert type(next(iter(kept.reward_override))) is int


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize("choice,message", [
    (AttractionChoiceModel((0.0,), (INF,)), "non-finite choice weight"),
    (AttractionChoiceModel((0.0,), (NAN,)), "non-finite choice weight"),
    (AttractionChoiceModel((NAN,), (1.0,)), "non-finite choice weight"),
    (MixtureChoiceModel(((NAN, AttractionChoiceModel((0.0,), (1.0,))),)),
     "non-finite choice weight"),
    (MixtureChoiceModel(((1.0, AttractionChoiceModel((0.0,), (NAN,))),)),
     "non-finite choice weight"),
    (TabulatedChoiceModel({(1,): {1: NAN}}), "non-finite selection probability"),
], ids=["nu-inf", "nu-nan", "mu-nan", "segment-weight-nan", "segment-nu-nan", "table-p-nan"])
def test_validate_reports_non_finite_choice_numbers(choice, message):
    # each once validated ok and planned a "certified" objective of 0.0
    inst = Instance(
        (Resource(1, 1),),
        (Product(1, 1, 1.0),),
        (CustomerType(1, RateCurve.constant(1.0), choice),),
    )
    report = validate_instance(inst)
    assert not report.ok
    assert report.errors == (f"type 1: {message}",)
    with pytest.raises(ValueError, match=message):
        solve_cdlp(inst)


@pytest.mark.parametrize("table, num_products", [
    (TabulatedChoiceModel({(1, 2): {1: 0.5}}), 3),
    (TabulatedChoiceModel({(1, 2): {1: 0.5}}), 1),
], ids=["fewer", "more"])
def test_validate_reports_a_table_of_another_product_count(table, num_products):
    # the planner reads a table's subset table by the instance's product ids
    inst = Instance(
        (Resource(1, 1),),
        tuple(Product(n, 1, 1.0) for n in range(1, num_products + 1)),
        (CustomerType(1, RateCurve.constant(1.0), table),),
    )
    assert validate_instance(inst).errors == (
        f"type 1: choice model covers 2 products, instance has {num_products}",)


def test_validate_reports_overflowing_choice_weights():
    # finite weights whose sum overflows are reported, not raised
    inst = Instance(
        (Resource(1, 1),),
        (Product(1, 1, 1.0), Product(2, 1, 1.0)),
        (CustomerType(1, RateCurve.constant(1.0),
                      AttractionChoiceModel((1e308, 1e308), (0.0, 0.0))),),
    )
    assert validate_instance(inst).errors == ("type 1: non-finite choice weight",)


def test_total_mass_rectangles():
    assert RateCurve.constant(2.0).cumulative(1.0) == pytest.approx(2.0)
    assert RateCurve((0.0, 0.25, 1.0), (4.0, 0.0)).cumulative(1.0) == pytest.approx(1.0)
    assert RateCurve.constant(0.0).cumulative(1.0) == 0.0


def test_rate_curve_cumulative():
    curve = RateCurve((0.0, 0.25, 1.0), (4.0, 0.0))
    assert curve.cumulative(0.25) == pytest.approx(1.0)
    assert curve.cumulative(0.1) == pytest.approx(0.4)
    assert curve.cumulative(0.3) - curve.cumulative(0.1) == pytest.approx(0.6)


def test_products_of_resource():
    inst = Instance(
        (Resource(1, 1), Resource(2, 1)),
        (Product(1, 1, 1.0), Product(2, 1, 1.0), Product(3, 2, 1.0)),
        (CustomerType(1, RateCurve.constant(1.0),
                      AttractionChoiceModel((0.0,) * 3, (1.0,) * 3)),),
    )
    assert products_of_resource(inst, 1) == {1, 2}
    assert products_of_resource(inst, 2) == {3}
    with pytest.raises(ValueError):
        products_of_resource(inst, 3)


def test_products_of_resource_empty_case():
    inst = Instance(
        (Resource(1, 1), Resource(2, 1)),
        (Product(1, 1, 1.0),),
        (CustomerType(1, RateCurve.constant(1.0), AttractionChoiceModel((0.0,), (1.0,))),),
    )
    assert products_of_resource(inst, 2) == frozenset()


@pytest.mark.parametrize("seed", range(8))
def test_products_of_resource_partitions_products(seed):
    inst = random_instance(seed)
    seen = []
    for l in range(1, inst.num_resources + 1):
        seen.extend(products_of_resource(inst, l))
    assert sorted(seen) == list(range(1, inst.num_products + 1))


@pytest.mark.parametrize("limits", [
    {"max_resources": 3, "max_products": 1},
    {"max_resources": 5, "max_products": 3},
    {"max_resources": 0},
    {"max_products": 0},
    {"max_types": 0},
    {"max_types": -2, "max_resources": 0.5},
    {"max_types": math.nan},
    {"max_products": math.nan},
])
def test_random_instance_refuses_limits_it_cannot_draw_from(limits):
    # refused on every seed, not only on those that draw too many resources,
    # with the limits named
    for seed in range(4):
        with pytest.raises(ValueError, match="random_instance needs limits") as err:
            random_instance(seed, **limits)
        assert all(f"{name}={value!r}" in str(err.value) for name, value in limits.items())


@pytest.mark.parametrize("limits, message", [
    ({"model_kinds": ("attraction", "mnl")}, "model_kinds must be a nonempty selection"),
    ({"model_kinds": ()}, "model_kinds must be a nonempty selection"),
    ({"model_kinds": ("table",), "max_products": 13}, '"table" needs max_products <= 12'),
    ({"model_kinds": ("attraction", "table"), "max_products": 20},
     '"table" needs max_products <= 12'),
])
def test_random_instance_refuses_model_kinds_it_cannot_draw(limits, message):
    # refused on every seed, before any draw, not only on the seeds that
    # happen to draw the kind or the products it cannot make
    for seed in range(20):
        with pytest.raises(ValueError, match=message):
            random_instance(seed, **limits)


@pytest.mark.parametrize("seed", range(20))
def test_random_instance_draws_at_the_product_floor(seed):
    # max_products = max_resources - 1 is the smallest limit it can draw from
    inst = random_instance(seed, max_resources=4, max_products=3)
    assert inst.num_products <= 3 and inst.num_resources - 1 <= inst.num_products
    assert validate_instance(inst).ok


def test_scale_identity_and_example():
    inst = unit_instance()
    assert scale_instance(inst, 1.0) == inst

    base = Instance(
        (Resource(1, 2), Resource(2, 3)),
        (Product(1, 1, 1.0), Product(2, 2, 1.0)),
        (CustomerType(1, RateCurve.constant(1.0),
                      AttractionChoiceModel((0.0, 0.0), (1.0, 1.0))),),
    )
    scaled = scale_instance(base, 4.0)
    assert [r.capacity for r in scaled.resources] == [8, 12]
    assert scaled.types[0].rate.rates == (4.0,)

    assert scale_instance(Instance((Resource(1, 3),), base.products[:1], base.types),
                          2.5).resources[0].capacity == 8  # round half up


def test_scale_rejects_nonpositive_theta():
    with pytest.raises(ValueError):
        scale_instance(unit_instance(), 0.0)
    with pytest.raises(ValueError):
        scale_instance(unit_instance(), -1.0)


@pytest.mark.parametrize("theta", [math.nan, math.inf, -math.inf])
def test_scale_rejects_non_finite_theta(theta):
    with pytest.raises(ValueError, match="positive and finite"):
        scale_instance(unit_instance(), theta)


@settings(max_examples=60, deadline=None)
@given(
    theta=st.floats(min_value=0.1, max_value=20.0, allow_nan=False),
    seed=st.integers(min_value=0, max_value=500),
)
def test_scaling_multiplies_arrival_mass_exactly(theta, seed):
    inst = random_instance(seed)
    scaled = scale_instance(inst, theta)
    for k in range(1, inst.num_types + 1):
        got = scaled.ctype(k).rate.cumulative(1.0)
        want = theta * inst.ctype(k).rate.cumulative(1.0)
        assert math.isclose(got, want, rel_tol=1e-12, abs_tol=1e-15)


@settings(max_examples=40, deadline=None)
@given(
    theta=st.floats(min_value=1.0, max_value=50.0, allow_nan=False),
    seed=st.integers(min_value=0, max_value=500),
)
def test_scaling_preserves_validity(theta, seed):
    inst = random_instance(seed)
    assert validate_instance(inst).ok
    assert validate_instance(scale_instance(inst, theta)).ok


def test_reward_override_is_operative():
    inst = Instance(
        (Resource(1, 1),),
        (Product(1, 1, 1.0),),
        (CustomerType(1, RateCurve.constant(1.0), AttractionChoiceModel((0.0,), (1.0,)),
                      reward_override={1: 0.25}),),
    )
    assert inst.reward(1, 1) == 0.25
    assert inst.product(1).reward == 1.0


def test_validate_reports_unrecognized_choice_model():
    base = unit_instance()
    inst = Instance(base.resources, base.products,
                    (CustomerType(1, RateCurve.constant(1.0), object()),))
    report = validate_instance(inst)
    assert not report.ok
    assert report.errors == ("type 1: unrecognized choice model object",)
