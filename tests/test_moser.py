"""Iteration ladder arithmetic and the pointwise inequality."""

import math

import numpy as np
import pytest

from fracneumann import (
    L_closed_form,
    M_sequence,
    MoserParams,
    c_star,
    elementary_inequality_margin,
    gamma_majorant,
    lambda_term,
    moser_bound_constant,
)


@pytest.fixture(scope="module")
def mp():
    return MoserParams()


# ---------------------------------------------------------------------------
# parameters


def test_params_validation():
    with pytest.raises(ValueError):
        MoserParams(s=1.2)
    with pytest.raises(ValueError):
        MoserParams(n=0)
    with pytest.raises(ValueError, match="positive integer, got True"):
        MoserParams(n=True)
    with pytest.raises(ValueError):
        MoserParams(A=0.0)
    with pytest.raises(ValueError):
        MoserParams(C0=-1.0)
    # p must stay below 2* - 1 = 3 at the default order
    with pytest.raises(ValueError):
        MoserParams(p=3.0)
    with pytest.raises(ValueError):
        MoserParams(p=1.0)


def test_critical_exponent_value(mp):
    assert mp.two_star == pytest.approx(4.0, rel=1e-15)


# ---------------------------------------------------------------------------
# exponent levels


def test_first_levels_and_the_level_identity(mp):
    assert L_closed_form(0, mp) == pytest.approx(1.75, rel=1e-15)
    assert L_closed_form(1, mp) == pytest.approx(3.25, rel=1e-15)
    # the ladder starts where testing with u^(2L-1) reproduces 2*:
    # p - 1 + 2 L_0 = 2*
    assert mp.p - 1.0 + 2.0 * L_closed_form(0, mp) == pytest.approx(
        mp.two_star, rel=1e-15
    )


def test_levels_increase_and_exceed_one(mp):
    prev = 0.0
    for j in range(60):
        level = L_closed_form(j, mp)
        assert level >= 1.0
        assert level > prev
        prev = level


def test_overflowing_level_is_an_error_naming_j(mp):
    with pytest.raises(ValueError, match="j = 1023"):
        L_closed_form(1023, mp)


def test_closed_form_matches_the_recurrence(mp):
    # L_{j+1} = (2* L_j - (p - 1)) / 2, the step the iteration performs
    ts = mp.two_star
    level = L_closed_form(0, mp)
    for j in range(50):
        level = (ts * level - (mp.p - 1.0)) / 2.0
        assert abs(level - L_closed_form(j + 1, mp)) <= 1e-12 * level


def test_closed_form_matches_recurrence_off_defaults():
    other = MoserParams(n=2, s=0.7, p=2.1, A=3.0, C0=0.4)
    ts = other.two_star
    level = L_closed_form(0, other)
    for j in range(50):
        level = (ts * level - (other.p - 1.0)) / 2.0
        assert abs(level - L_closed_form(j + 1, other)) <= 1e-12 * level


# ---------------------------------------------------------------------------
# norm bound sequence


def test_eta_starts_at_zero_for_unit_constants(mp):
    assert M_sequence(0, mp) == 0.0
    assert M_sequence(1, mp) == pytest.approx(2.0 * math.log(1.75), rel=1e-15)


def test_eta_recurrence_definition(mp):
    half = mp.two_star / 2.0
    for j in range(25):
        want = half * M_sequence(j, mp) + lambda_term(j, mp)
        assert M_sequence(j + 1, mp) == pytest.approx(want, rel=1e-14)


def test_majorant_dominates_eta(mp):
    for j in range(31):
        assert M_sequence(j, mp) <= gamma_majorant(j, mp) + 1e-12


def test_majorant_ratio_reaches_the_closed_form_limit(mp):
    bound = moser_bound_constant(mp, 30)
    ratio = gamma_majorant(30, mp) / (mp.two_star * L_closed_form(29, mp))
    assert abs(ratio - bound.limit) / bound.limit <= 1e-2


def test_bound_constant_covers_the_whole_range(mp):
    bound = moser_bound_constant(mp, 30)
    for j in range(1, 31):
        assert M_sequence(j, mp) <= bound.m * L_closed_form(j - 1, mp) + 1e-12
    # smallest such constant: some level must touch it
    touched = max(
        M_sequence(j, mp) / L_closed_form(j - 1, mp) for j in range(1, 31)
    )
    assert touched == pytest.approx(bound.m, rel=1e-14)


def test_bound_constant_requires_two_steps(mp):
    with pytest.raises(ValueError):
        moser_bound_constant(mp, 1)


def test_eta_grows_with_the_bootstrap_constant():
    lo = MoserParams(A=1.0)
    hi = MoserParams(A=5.0)
    for j in range(1, 10):
        assert M_sequence(j, hi) > M_sequence(j, lo)


def test_huge_constants_stay_finite_in_log_space():
    big = MoserParams(A=1e200, C0=1e200)
    assert M_sequence(0, big) == gamma_majorant(0, big) == 2.0 * (
        math.log(1e200) + math.log(1e200)
    )
    level = L_closed_form(1000, MoserParams(A=1e10))
    assert level * 1e10 == math.inf
    assert lambda_term(1000, MoserParams(A=1e10)) == 2.0 * (
        math.log(1e10) + math.log(level)
    )


def test_overflowing_log_norm_is_an_error_naming_j():
    mp = MoserParams(A=1e10)
    with pytest.raises(ValueError, match="eta_j .* j = 1022"):
        M_sequence(1022, mp)
    with pytest.raises(ValueError, match="gamma_j .* j = 1022"):
        gamma_majorant(1022, mp)


def test_growth_constant_bounds_every_lambda(mp):
    cs = c_star(mp)
    for j in range(31):
        assert lambda_term(j, mp) <= cs * (j + 1) + 1e-14


# ---------------------------------------------------------------------------
# pointwise inequality


def test_margin_examples():
    assert elementary_inequality_margin(5.0, 5.0, 3.0) == 0.0
    assert elementary_inequality_margin(3.7, 1.2, 1.0) == 0.0
    assert elementary_inequality_margin(2.0, 1.0, 2.0) == pytest.approx(
        2.5, rel=1e-15
    )


def test_margin_rejects_bad_arguments():
    with pytest.raises(ValueError):
        elementary_inequality_margin(-1.0, 2.0, 2.0)
    with pytest.raises(ValueError):
        elementary_inequality_margin(1.0, 2.0, 0.5)


def test_margin_fuzz_is_nonnegative():
    rng = np.random.default_rng(42)
    x = rng.uniform(0.0, 100.0, 100_000)
    y = rng.uniform(0.0, 100.0, 100_000)
    k = rng.uniform(1.0, 20.0, 100_000)
    assert float(np.min(elementary_inequality_margin(x, y, k))) >= -1e-12
