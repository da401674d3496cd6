"""Tests for the variability curve and the fitted transition coefficient."""

import math

import pytest

from caprog.coefficient import (
    CoefficientResult,
    DegenerateFitError,
    FitResult,
    RunParams,
    VariabilityCurve,
    default_stride,
    default_t_min,
    fit_line,
    measure,
    sample_times,
    transition_coefficient,
    variability_curve,
)
from caprog.complexity import COMPRESSOR_ID
from caprog.engine import rule_from_number
from caprog.enumeration import CUSTOM, InputFamily, gray_initials

from reference import ref_coefficient, ref_ols


def curve_from(points) -> VariabilityCurve:
    return VariabilityCurve(
        points=tuple(points), n=4, family_descriptor="gray(n=4,W9)", rule_id="eca:0"
    )


class TestSampleTimes:
    def test_grid_is_anchored_at_t_max(self):
        times = sample_times(25, 200, 11)
        assert times[-1] == 200
        assert times[0] == 35
        assert len(times) == 16
        assert all(b - a == 11 for a, b in zip(times, times[1:]))

    def test_short_grid(self):
        assert sample_times(4, 10, 3) == (4, 7, 10)
        assert sample_times(5, 10, 3) == (7, 10)

    def test_stride_one_covers_every_step(self):
        assert sample_times(3, 7, 1) == (3, 4, 5, 6, 7)

    def test_validation(self):
        with pytest.raises(ValueError, match="t_min"):
            sample_times(10, 10, 1)
        with pytest.raises(ValueError, match="t_min"):
            sample_times(0, 10, 1)
        with pytest.raises(ValueError, match="stride"):
            sample_times(2, 10, 0)

    def test_defaults_at_standard_depth(self):
        assert default_t_min(200) == 25
        assert default_stride(25, 200) == 11
        # shallow runs keep a floor of four transitions
        assert default_t_min(16) == 4
        assert default_stride(4, 16) == 1


class TestFitLine:
    def test_flat_zero_curve(self):
        fit = fit_line(curve_from([(1, 0.0), (2, 0.0), (3, 0.0)]))
        assert fit.slope == 0.0
        assert fit.intercept == 0.0
        assert fit.rmse == 0.0
        assert fit.point_count == 3

    def test_exact_diagonal(self):
        fit = fit_line(curve_from([(1, 1.0), (2, 2.0), (3, 3.0)]))
        assert fit.slope == 1.0
        assert fit.intercept == 0.0
        assert fit.rmse == 0.0

    def test_least_squares_compromise(self):
        fit = fit_line(curve_from([(1, 1.0), (2, 2.0), (3, 2.0)]))
        assert fit.slope == 0.5
        assert fit.intercept == pytest.approx(2 / 3)
        assert fit.rmse == pytest.approx(math.sqrt(1 / 18))

    def test_single_point_is_degenerate(self):
        with pytest.raises(DegenerateFitError):
            fit_line(curve_from([(5, 1.0)]))

    def test_degenerate_fit_is_a_value_error(self):
        assert issubclass(DegenerateFitError, ValueError)

    def test_matches_reference_ols(self):
        points = [(10, 0.31), (20, 0.27), (30, 0.22), (40, 0.25)]
        slope, intercept = ref_ols(points)
        fit = fit_line(curve_from(points))
        assert fit.slope == slope
        assert fit.intercept == intercept


class TestResultTypes:
    def params(self, **overrides) -> RunParams:
        base = dict(
            rule_id="eca:110",
            t_max=200,
            t_min=25,
            stride=11,
            n=40,
            width=61,
            boundary="cyclic",
            compressor_id=COMPRESSOR_ID,
            scheme="gray",
            include_input=True,
        )
        base.update(overrides)
        return RunParams(**base)

    def test_grid_key_ignores_the_rule(self):
        a = self.params(rule_id="eca:110")
        b = self.params(rule_id="eca:30")
        assert a.grid_key() == b.grid_key()

    def test_grid_key_tracks_every_grid_field(self):
        base = self.params()
        for field, value in [
            ("t_max", 100),
            ("t_min", 20),
            ("stride", 7),
            ("n", 8),
            ("width", 41),
            ("boundary", "fixed"),
            ("scheme", "random"),
            ("include_input", False),
            ("height", 32),
        ]:
            assert self.params(**{field: value}).grid_key() != base.grid_key()

    def test_incomplete_params_rejected(self):
        with pytest.raises(ValueError):
            self.params(rule_id="")
        with pytest.raises(ValueError):
            self.params(n=0)
        with pytest.raises(ValueError):
            self.params(stride=0)

    def test_point_count_below_two_rejected(self):
        with pytest.raises(ValueError, match="two points"):
            FitResult(slope=0.0, intercept=0.0, rmse=0.0, point_count=1)

    def test_negative_rmse_rejected(self):
        with pytest.raises(ValueError, match="rmse"):
            FitResult(slope=0.0, intercept=0.0, rmse=-1e-9, point_count=3)

    def test_curve_rejects_unsorted_times(self):
        with pytest.raises(ValueError, match="increasing"):
            curve_from([(3, 0.1), (2, 0.2)])

    def test_curve_rejects_negative_sums(self):
        with pytest.raises(ValueError, match="non-negative"):
            curve_from([(1, 0.1), (2, -0.2)])

    def test_coefficient_must_carry_its_own_slope(self):
        fit = fit_line(curve_from([(1, 1.0), (2, 2.0), (3, 2.0)]))
        with pytest.raises(ValueError, match="slope"):
            CoefficientResult(c_value=fit.slope + 1e-9, fit=fit, params=self.params())


class TestDifferenceSum:
    """S(t) read off variability curves; a one-time curve is a single S(t)."""

    def test_blank_rule_with_input_hidden_is_exactly_zero(self):
        # rule 0 maps every input to the same blank evolution
        fam = gray_initials(2, 8)
        curve = variability_curve(rule_from_number(0), fam, 1, 4, 1, include_input=False)
        assert curve.values == (0.0, 0.0, 0.0, 0.0)

    def test_reversing_the_family_changes_nothing(self):
        fam = gray_initials(6, 15)
        flipped = InputFamily(members=tuple(reversed(fam.members)), scheme=CUSTOM)
        rule = rule_from_number(110)
        forward = variability_curve(rule, fam, 3, 9, 6)
        backward = variability_curve(rule, flipped, 3, 9, 6)
        assert forward.times == (3, 9)
        assert forward.values == backward.values

    def test_saturating_rule_is_bounded_by_first_row_variation(self):
        # rule 255 fills the lattice after one step, so consecutive-input
        # gaps come from the input row alone (64 bits at this family size,
        # measured once and pinned)
        fam = gray_initials(40, 61)
        curve = variability_curve(rule_from_number(255), fam, 8, 200, 8)
        assert curve.times[0] == 8 and curve.times[-1] == 200
        for t, value in curve.points:
            assert value <= 64 / (t * 39)

    def test_needs_two_members_and_one_transition(self):
        fam = gray_initials(4, 9)
        lone = InputFamily(members=fam.members[:1], scheme=CUSTOM)
        with pytest.raises(ValueError, match="n >= 2"):
            variability_curve(rule_from_number(30), lone, 1, 5, 5)
        with pytest.raises(ValueError, match="1 <= t_min"):
            variability_curve(rule_from_number(30), fam, 0, 5, 5)
        # a single sampled time gives a one-point curve
        assert variability_curve(rule_from_number(30), fam, 1, 5, 5).times == (5,)


class TestVariabilityCurve:
    def test_blank_rule_curve_is_deterministic_and_tame(self):
        fam = gray_initials(8, 21)
        rule = rule_from_number(0)
        a = variability_curve(rule, fam, 4, 40, 4)
        b = variability_curve(rule, fam, 4, 40, 4)
        assert a.points == b.points
        values = a.values
        # a handful of framing bits divided by a growing t(n-1): small and
        # strictly shrinking
        assert all(v <= 0.3 for v in values)
        assert all(x >= y for x, y in zip(values, values[1:]))
        assert values[-1] < 0.05

    def test_metadata_travels_with_the_curve(self):
        fam = gray_initials(8, 21)
        curve = variability_curve(rule_from_number(90), fam, 4, 24, 5)
        assert curve.n == 8
        assert curve.rule_id == "eca:90"
        assert curve.family_descriptor == "gray(n=8,W21)"
        assert curve.times == (4, 9, 14, 19, 24)


class TestCoefficient:
    def test_structured_rule_dominates_blank_rule_pointwise(self):
        fam = gray_initials(40, 61)
        lively = variability_curve(rule_from_number(110), fam, 25, 200, 11)
        blank = variability_curve(rule_from_number(0), fam, 25, 200, 11)
        assert all(a > b for a, b in zip(lively.values, blank.values))

    def test_measure_and_shortcut_agree(self):
        fam = gray_initials(6, 15)
        res, curve = measure(rule_from_number(54), fam, 32)
        short = transition_coefficient(rule_from_number(54), fam, 32)
        assert short.c_value == res.c_value
        assert short.params == res.params
        assert res.c_value == res.fit.slope
        assert curve.times[-1] == 32

    def test_params_record_the_run(self):
        fam = gray_initials(6, 15)
        res = transition_coefficient(rule_from_number(54), fam, 32)
        p = res.params
        assert p.rule_id == "eca:54"
        assert p.t_max == 32
        assert p.t_min == default_t_min(32)
        assert p.stride == default_stride(p.t_min, 32)
        assert p.n == 6
        assert p.width == 15
        assert p.height is None
        assert p.boundary == "cyclic"
        assert p.compressor_id == COMPRESSOR_ID
        assert p.scheme == "gray"
        assert p.include_input is True

    def test_matches_independent_reference(self):
        # one full instance against the naive reimplementation; the
        # acceptance suite widens this to twenty randomized instances
        value = transition_coefficient(
            rule_from_number(90), gray_initials(6, 15), 48
        ).c_value
        assert value == ref_coefficient(90, 6, 15, 48)
