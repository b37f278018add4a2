import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nrpa.model import masked_softmax
from gradcheck import grad_check

finite_floats = st.floats(min_value=-100.0, max_value=100.0, allow_nan=False)


def softmax(logits):
    """Plain softmax as masked_softmax with every position unmasked."""
    logits = np.asarray(logits, dtype=np.float64)
    return masked_softmax(logits, np.ones(logits.shape, dtype=bool))


def test_softmax_constant_input():
    for c in (-7.0, 0.0, 3.5, 1e8):
        assert np.allclose(softmax(np.array([c, c, c])), [1 / 3] * 3, atol=1e-15)


def test_softmax_single_element():
    assert np.array_equal(softmax(np.array([0.0])), [1.0])


def test_softmax_closed_form():
    # e^{ln 3} = 3, so weights are 1/4 and 3/4
    out = softmax(np.array([0.0, np.log(3.0)]))
    assert np.allclose(out, [0.25, 0.75], atol=1e-15)


def test_softmax_huge_logits_do_not_overflow():
    with pytest.warns(RuntimeWarning, match="overflow"):  # the shift, to -inf
        out = softmax(np.array([1e308, 0.0, -1e308]))
    assert np.array_equal(out, [1.0, 0.0, 0.0])
    assert np.all(np.isfinite(out))


@given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1,
                max_size=200))
@settings(max_examples=200)
@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")  # spreads past float64
def test_softmax_sums_to_one_for_any_finite_input(logits):
    out = softmax(np.array(logits))
    assert np.all(out > 0) or out.sum() > 0  # positive mass somewhere
    assert abs(out.sum() - 1.0) <= 1e-9


def test_softmax_sums_to_one_at_length_10k():
    rng = np.random.default_rng(0)
    out = softmax(rng.normal(size=10_000) * 50)
    assert abs(out.sum() - 1.0) <= 1e-9


@given(st.lists(finite_floats, min_size=1, max_size=50), finite_floats)
@settings(max_examples=200)
def test_softmax_shift_invariance(logits, shift):
    v = np.array(logits)
    assert np.allclose(softmax(v + shift), softmax(v), atol=1e-12)


# spread kept under ~16 so the strict inequality stays representable in
# float64 (beyond exp(-36) the competing weights fall below one ulp of 1.0)
@given(st.lists(st.floats(min_value=-8.0, max_value=8.0, allow_nan=False),
                min_size=2, max_size=30), st.data())
@settings(max_examples=200)
def test_softmax_strictly_monotone(logits, data):
    v = np.array(logits)
    k = data.draw(st.integers(0, len(logits) - 1))
    bumped = v.copy()
    bumped[k] += 0.5
    assert softmax(bumped)[k] > softmax(v)[k]


def test_masked_softmax_masked_positions_exactly_zero():
    logits = np.array([1.0, 2.0, 3.0, 4.0])
    mask = np.array([True, False, True, False])
    out = masked_softmax(logits, mask)
    assert out[1] == 0.0 and out[3] == 0.0
    assert abs(out.sum() - 1.0) <= 1e-9


def test_masked_softmax_all_masked_returns_zeros():
    out = masked_softmax(np.array([1.0, 2.0]), np.array([False, False]))
    assert np.array_equal(out, [0.0, 0.0])


def test_masked_softmax_nan_logit_gives_nan_row():
    logits = np.array([[0.0, np.nan, 2.0], [1.0, np.nan, 3.0], [4.0, 5.0, np.nan]])
    mask = np.array([[True, True, True], [False, False, False], [True, True, False]])
    out = masked_softmax(logits, mask)
    assert np.all(np.isnan(out[0]))  # NaN at an unmasked position propagates
    assert np.array_equal(out[1], [0.0, 0.0, 0.0])  # nothing unmasked: zeros
    # a NaN behind the mask is ignored; the finite row is unchanged
    assert np.array_equal(out[2], masked_softmax(logits[2, :2], mask[2, :2]).tolist() + [0.0])


def test_masked_softmax_rows_independent():
    logits = np.array([[0.0, 1.0, 2.0], [5.0, 5.0, 5.0]])
    mask = np.array([[True, True, False], [True, False, True]])
    out = masked_softmax(logits, mask)
    assert out[0, 2] == 0.0 and out[1, 1] == 0.0
    assert np.allclose(out.sum(axis=1), 1.0, atol=1e-9)
    assert np.allclose(out[1, [0, 2]], 0.5)


def test_grad_check_quadratic():
    err = grad_check(lambda x: float(x[0] ** 2), np.array([3.0]), np.array([6.0]),
                     eps=1e-5)
    assert err < 1e-8


def test_grad_check_constant_function_is_exact():
    err = grad_check(lambda x: 1.25, np.array([0.3, -2.0]), np.zeros(2), eps=1e-5)
    assert err == 0.0


def test_grad_check_rejects_non_finite():
    with pytest.raises(FloatingPointError):
        grad_check(lambda x: float("nan"), np.array([0.0]), np.array([0.0]))


def test_grad_check_rejects_bad_eps():
    with pytest.raises(ValueError):
        grad_check(lambda x: 0.0, np.array([0.0]), np.array([0.0]), eps=0.0)


@pytest.mark.parametrize("seed", range(5))
def test_grad_check_on_module_operations(seed):
    """masked_softmax passes the finite-difference contract at random points."""
    rng = np.random.default_rng(seed)
    n = 6
    c = rng.normal(size=n)
    x = rng.normal(size=n)
    s = softmax(x)
    grad_s = s * c - s * float(s @ c)
    err = grad_check(lambda v: float(c @ softmax(v)), x, grad_s)
    assert err < 1e-6
