"""Tests for the variability curve and the fitted transition coefficient."""

import builtins
import math
import random
import threading

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from caprog import cli, coefficient, complexity, engine
from caprog.classify import INERT_LIFE
from caprog.coefficient import (
    CoefficientResult,
    DegenerateFitError,
    FitResult,
    RunParams,
    VariabilityCurve,
    fit_line,
    measure,
    runtime_grid,
    sample_times,
)
from caprog.complexity import COMPRESSOR_ID, compressed_size, pack_cells
from caprog.engine import (
    CYCLIC,
    FIXED,
    GAME_OF_LIFE,
    evolve,
    evolve_batch,
    rule_from_number,
)
from caprog.enumeration import CUSTOM, InputFamily, gray_initials, gray_patches, random_initials
from caprog.reportio import coefficient_from_obj, coefficient_json_obj

from conftest import run_bytes, traced
from reference import compensated_sum, ref_coefficient, ref_complexity, ref_evolve, ref_ols


def no_evolution(*args):
    raise AssertionError("a refused request must not evolve anything")


def curve_from(points) -> VariabilityCurve:
    return VariabilityCurve(points=tuple(points))


def times_of(curve: VariabilityCurve) -> tuple[int, ...]:
    return tuple(t for t, _ in curve.points)


def values_of(curve: VariabilityCurve) -> tuple[float, ...]:
    return tuple(value for _, value in curve.points)


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
        fam = gray_initials(4, 9)
        assert runtime_grid(fam, 200)[:2] == (25, 11)
        # shallow runs keep a floor of four transitions
        assert runtime_grid(fam, 16)[:2] == (4, 1)


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

    def test_fit_does_not_follow_a_compensated_sum(self, monkeypatch):
        # Python 3.12's sum() compensates float rounding. On this curve
        # that changes the total of S, so a fit taken with sum() would
        # change its bits with the interpreter.
        curve = curve_from((t, 0.1 * t / 7) for t in range(4, 20))
        plain = 0
        for value in values_of(curve):
            plain += value
        assert compensated_sum(values_of(curve)) != plain
        expected = fit_line(curve)
        monkeypatch.setattr(builtins, "sum", compensated_sum)
        assert fit_line(curve) == expected

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

    def test_grid_ignores_the_rule(self):
        a = self.params(rule_id="eca:110")
        b = self.params(rule_id="eca:30")
        assert a.grid() == b.grid()

    def test_grid_tracks_every_grid_field(self):
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
            assert self.params(**{field: value}).grid() != base.grid()

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
        res = CoefficientResult(fit=fit, params=self.params(), family="gray(n=40,W61)")
        assert res.c_value == fit.slope
        # c_value is the slope itself, so no result can hold a second copy.
        with pytest.raises(TypeError, match="c_value"):
            CoefficientResult(c_value=fit.slope, fit=fit, params=self.params(),
                              family="gray(n=40,W61)")
        # A stored result comes from outside the program: a tampered copy is refused.
        stored = coefficient_json_obj(res, curve_from([(1, 1.0), (2, 2.0)]))
        stored["c_value"] = fit.slope + 1e-9
        with pytest.raises(ValueError, match="slope"):
            coefficient_from_obj(stored)


class TestDifferenceSum:
    """S(t) read off the variability curves that measure returns."""

    def test_blank_rule_with_input_hidden_is_exactly_zero(self):
        # rule 0 maps every input to the same blank evolution
        fam = gray_initials(2, 8)
        curve = measure(rule_from_number(0), fam, 4, 1, 1, include_input=False)[1]
        assert values_of(curve) == (0.0, 0.0, 0.0, 0.0)

    def test_reversing_the_family_changes_nothing(self):
        fam = gray_initials(6, 15)
        flipped = InputFamily(members=fam.cells[::-1], scheme=CUSTOM)
        rule = rule_from_number(110)
        forward = measure(rule, fam, 9, 3, 6)[1]
        backward = measure(rule, flipped, 9, 3, 6)[1]
        assert times_of(forward) == (3, 9)
        assert values_of(forward) == values_of(backward)

    def test_saturating_rule_is_bounded_by_first_row_variation(self):
        # rule 255 fills the lattice after one step, so consecutive-input
        # gaps come from the input row alone (64 bits at this family size,
        # measured once and pinned)
        fam = gray_initials(40, 61)
        curve = measure(rule_from_number(255), fam, 200, 8, 8)[1]
        assert times_of(curve)[0] == 8 and times_of(curve)[-1] == 200
        for t, value in curve.points:
            assert value <= 64 / (t * 39)

    def test_needs_two_members_and_one_transition(self, monkeypatch):
        monkeypatch.setattr(coefficient, "run_system", no_evolution)
        fam = gray_initials(4, 9)
        lone = InputFamily(members=fam.cells[:1], scheme=CUSTOM)
        with pytest.raises(ValueError, match="n >= 2"):
            measure(rule_from_number(30), lone, 5, 1, 5)
        with pytest.raises(ValueError, match="1 <= t_min"):
            measure(rule_from_number(30), fam, 5, 0, 5)
        # a single sampled time leaves no line to fit
        with pytest.raises(DegenerateFitError, match="two points"):
            measure(rule_from_number(30), fam, 5, 1, 5)

    @pytest.mark.parametrize("width, t, budget", [
        pytest.param(21, 30, engine.MEMORY_BUDGET, id="21-30"),
        pytest.param(1200, 300, 1, id="1200-300"),
    ])
    def test_refuses_mixed_kinds_before_evolving(self, monkeypatch, width, t, budget):
        # At 21 cells and t=30 one chunk holds every run. At 1,200 cells
        # and t=300 the budget is below one run, so each chunk holds one
        # run and no single batch would see two kinds, or the last
        # member's colour 2.
        monkeypatch.setattr(engine, "MEMORY_BUDGET", budget)
        monkeypatch.setattr(coefficient, "run_system", no_evolution)
        family = gray_initials(3, width)
        for systems in ([rule_from_number(30), rule_from_number(5, k=3)],
                        [rule_from_number(30), rule_from_number(30, r=2)],
                        [rule_from_number(30), GAME_OF_LIFE]):
            with pytest.raises(ValueError, match="one kind"):
                coefficient.measure_all(systems, family, t)
        last = family.cells[-1].copy()
        last[0] = 2
        coloured = InputFamily(members=(*family.cells[:-1], last), scheme=CUSTOM)
        grids = gray_patches(3, 8, width)
        fixed_grids = InputFamily(members=grids.cells, scheme=CUSTOM, boundary=FIXED)
        for system, refused, match in ((rule_from_number(110), coloured, "colours"),
                                       (GAME_OF_LIFE, family, "2-D grids"),
                                       (rule_from_number(30), grids, "1-D rows"),
                                       (GAME_OF_LIFE, fixed_grids, "cyclic")):
            with pytest.raises(ValueError, match=match):
                measure(system, refused, t)


class TestVariabilityCurve:
    def test_blank_rule_curve_is_deterministic_and_tame(self):
        fam = gray_initials(8, 21)
        rule = rule_from_number(0)
        a = measure(rule, fam, 40, 4, 4)[1]
        b = measure(rule, fam, 40, 4, 4)[1]
        assert a.points == b.points
        values = values_of(a)
        # a handful of framing bits divided by a growing t(n-1): small and
        # strictly shrinking
        assert all(v <= 0.3 for v in values)
        assert all(x >= y for x, y in zip(values, values[1:]))
        assert values[-1] < 0.05

    def test_metadata_travels_with_the_curve(self):
        fam = gray_initials(8, 21)
        res, curve = measure(rule_from_number(90), fam, 24, 4, 5)
        assert res.family == "gray(n=8,W21)"
        assert times_of(curve) == (4, 9, 14, 19, 24)


class TestCoefficient:
    def test_structured_rule_dominates_blank_rule_pointwise(self):
        fam = gray_initials(40, 61)
        lively = measure(rule_from_number(110), fam, 200, 25, 11)[1]
        blank = measure(rule_from_number(0), fam, 200, 25, 11)[1]
        assert all(a > b for a, b in zip(values_of(lively), values_of(blank)))

    def test_c_value_is_the_slope_of_the_curve(self):
        fam = gray_initials(6, 15)
        res, curve = measure(rule_from_number(54), fam, 32)
        assert res.c_value == res.fit.slope == fit_line(curve).slope
        assert times_of(curve)[-1] == 32

    def test_params_record_the_run(self):
        fam = gray_initials(6, 15)
        res = measure(rule_from_number(54), fam, 32)[0]
        p = res.params
        assert p.rule_id == "eca:54"
        assert p.t_max == 32
        assert (p.t_min, p.stride) == runtime_grid(fam, 32)[:2]
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
        value = measure(rule_from_number(90), gray_initials(6, 15), 48)[0].c_value
        assert value == ref_coefficient(90, 6, 15, 48)


def _k3_r2_case():
    rng = np.random.default_rng(3)
    digits = random.Random(3)
    rules = [rule_from_number(digits.randrange(3 ** 243), k=3, r=2) for _ in range(2)]
    members = [rng.integers(0, 3, size=300, dtype=np.uint8) for _ in range(6)]
    return rules, InputFamily(members=members, scheme=CUSTOM), True


def _eca_case(boundary, include_input):
    # Rules 0 and 2 differ only on neighbourhood 001, so their runs from
    # the all-zero first Gray member coincide.
    rules = [rule_from_number(number) for number in (0, 2, 30, 110, 255)]
    return rules, gray_initials(8, 61, boundary=boundary), include_input


def _eca_wide_case():
    # Runs of 120 rows of 509 cells: payloads above STREAM_BYTES whose
    # prefixes mostly end inside a byte.
    rules = [rule_from_number(number) for number in (0, 2, 30, 110)]
    return rules, gray_initials(4, 509), False


BATCH_CASES = {
    "eca": lambda: _eca_case(CYCLIC, True),
    "eca-fixed-no-input": lambda: _eca_case(FIXED, False),
    "eca-wide-no-input": _eca_wide_case,
    "k3-r2": _k3_r2_case,
    "life": lambda: ((*INERT_LIFE, GAME_OF_LIFE), gray_patches(20, 16, 16), True),
}


@pytest.mark.parametrize("case", BATCH_CASES)
def test_batched_matrix_is_bit_exact(monkeypatch, case):
    """The chunked, memoised matrix equals a per-member evolution and one
    compression per runtime, and for ECA the naive reference as well, at
    every chunking and with 1 and 2 workers. Without the input row, each
    chunk takes one step, and its runs go on from there."""
    systems, family, include_input = BATCH_CASES[case]()
    times = runtime_grid(family, 120, stride=11)[2]
    runs = len(systems) * family.n
    calls = []

    def recording(chunk_systems, cells, boundary, t):
        batch = evolve_batch(chunk_systems, cells, boundary, t)
        calls.append((chunk_systems, cells, t, batch))
        return batch

    monkeypatch.setattr(coefficient, "run_system", recording)
    # One run per chunk; a first chunk that ends inside member 1's
    # systems; the whole case in one chunk.
    run = run_bytes(family, times[-1], systems[0].k)
    split = len(systems) + 1
    full, rest = divmod(runs, split)
    chunkings = {1: [1] * runs, split * run: [split] * full + [rest] * (rest > 0), runs * run: [runs]}
    matrices = []
    for budget, chunks in chunkings.items():
        monkeypatch.setattr(engine, "MEMORY_BUDGET", budget)
        for workers in (1, 2):
            calls.clear()
            matrices.append(coefficient.complexity_matrices(systems, family, times,
                                                            include_input, workers))
            if include_input:
                assert [(len(s), t) for s, _, t, _ in calls] == [(n, times[-1]) for n in chunks]
                continue
            assert [(len(s), t) for s, _, t, _ in calls] == [
                (n, t) for n in chunks for t in (1, times[-1] - 1)]
            for (first, _, _, step), (then, cells, _, _) in zip(calls[::2], calls[1::2]):
                assert then == first
                assert np.array_equal(cells, step.rows[:, 1])
    matrix = matrices[0]
    assert all(other.tolist() == matrix.tolist() for other in matrices[1:])
    start = 0 if include_input else 1
    repeats = 0
    longest = 0
    for j, cells in enumerate(family.cells):
        payloads = set()
        for system, sizes in zip(systems, matrix[:, j]):
            rows = evolve(system, cells, times[-1], family.boundary)
            payload = pack_cells(rows[start:].ravel(), system.k)
            payloads.add(payload)
            longest = max(longest, len(payload))
            assert sizes.tolist() == [
                compressed_size(pack_cells(rows[start : t + 1].ravel(), system.k))
                for t in times
            ]
            if system.rule_id.startswith("eca:"):
                ref = ref_evolve(system.number, cells.tolist(), times[-1],
                                 boundary=family.boundary)
                assert sizes.tolist() == [ref_complexity(ref[start : t + 1]) for t in times]
        repeats += len(systems) - len(payloads)
    # Which cases take their sizes from one compression stream per run.
    assert (longest >= complexity.STREAM_BYTES) == (case in ("eca-wide-no-input", "k3-r2"))
    if case != "k3-r2":
        assert repeats > 0, "no two systems share a run on a member, so the memo is not hit"


@pytest.mark.parametrize("workers", [1, 2])
def test_the_memo_reaches_across_chunks(monkeypatch, workers):
    """With one run per chunk, each member's six runs span six chunks, and
    a run that repeats an earlier chunk's run on its member is still not
    compressed again: one compression per distinct (member, payload)."""
    systems = [rule_from_number(number) for number in (0, 8, 32, 128, 204, 110)]
    family = gray_initials(5, 13)
    times = runtime_grid(family, 20)[2]
    distinct = [{pack_cells(evolve(system, cells, times[-1]).ravel(), 2) for system in systems}
                for cells in family.cells]
    assert [len(payloads) for payloads in distinct[1:]] == [3, 4, 3, 4]
    compressed = []
    prefix_sizes = coefficient.prefix_sizes

    def recording(payload, *args):
        compressed.append(bytes(payload))
        return prefix_sizes(payload, *args)

    expected = coefficient.complexity_matrices(systems, family, times, True, workers)
    monkeypatch.setattr(coefficient, "prefix_sizes", recording)
    monkeypatch.setattr(engine, "MEMORY_BUDGET", 1)
    assert len(engine.run_chunks(len(systems) * family.n, times[-1], family.width, 2)) == 30
    matrix = coefficient.complexity_matrices(systems, family, times, True, workers)
    assert len(compressed) == sum(map(len, distinct))
    assert sorted(compressed) == sorted(payload for payloads in distinct for payload in payloads)
    assert matrix.tolist() == expected.tolist()


SMALL_CASES = {
    "eca": lambda: ([rule_from_number(number) for number in (0, 2, 30, 110)],
                    gray_initials(5, 13)),
    "life": lambda: ((*INERT_LIFE, GAME_OF_LIFE), gray_patches(4, 6, 6)),
}


@settings(max_examples=30, deadline=None)
@given(case=st.sampled_from(sorted(SMALL_CASES)), workers=st.integers(1, 2), data=st.data())
def test_matrix_is_the_same_at_any_budget(case, workers, data):
    """From one run per chunk up to every run in one chunk, the budget
    leaves no trace in the sizes."""
    systems, family = SMALL_CASES[case]()
    times = runtime_grid(family, 16, 4, 3)[2]
    budget = data.draw(st.integers(0, len(systems) * family.n * run_bytes(family, times[-1])))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(engine, "MEMORY_BUDGET", budget)
        matrix = coefficient.complexity_matrices(systems, family, times, True, workers)
    for j, cells in enumerate(family.cells):
        for system, sizes in zip(systems, matrix[:, j]):
            rows = evolve(system, cells, times[-1], family.boundary)
            assert sizes.tolist() == [compressed_size(pack_cells(rows[: t + 1].ravel(), 2))
                                      for t in times]


# Runs on rows of 1,024 cells are streamed when the largest time is 31 or
# more (32 without the input row), and compressed one-shot below it.
SUPERSET_CASES = {**SMALL_CASES, "eca-wide": lambda: (
    [rule_from_number(number) for number in (0, 204, 30, 110)], gray_initials(3, 1024))}


@pytest.mark.parametrize("include_input", [True, False])
@pytest.mark.parametrize("workers", [1, 2])
@settings(max_examples=10, deadline=None)
@given(case=st.sampled_from(sorted(SUPERSET_CASES)), data=st.data())
def test_a_pass_over_more_times_holds_each_grid_it_covers(include_input, workers, case, data):
    """The columns of a pass over any superset of sample times are, bit for
    bit, the pass over the subset: one pass serves every grid it covers."""
    systems, family = SUPERSET_CASES[case]()
    superset = sorted(data.draw(st.sets(st.integers(1, 40), min_size=1, max_size=12)))
    subset = sorted(data.draw(st.sets(st.sampled_from(superset), min_size=1)))
    assume(include_input or subset[-1] > 1)
    whole = coefficient.complexity_matrices(systems, family, tuple(superset), include_input,
                                            workers)
    part = coefficient.complexity_matrices(systems, family, tuple(subset), include_input,
                                           workers)
    assert part.shape == (len(systems), family.n, len(subset)) and part.dtype == np.int64
    assert whole[:, :, [superset.index(t) for t in subset]].tolist() == part.tolist()


@pytest.mark.parametrize("include_input", [True, False])
@pytest.mark.parametrize("systems, family, t", [
    ([rule_from_number(number) for number in range(256)], gray_initials(3, 13), 16),
    ((GAME_OF_LIFE, *INERT_LIFE), gray_patches(6, 6, 6), 20),
], ids=["sweep", "life"])
def test_each_curve_is_a_view_of_the_matrix(systems, family, t, include_input):
    """Every S(t) that a measurement fits is the matrix's gap sum at t,
    sum_j |M[j+1, t] - M[j, t]|, over t * (n - 1)."""
    times = runtime_grid(family, t)[2]
    matrix = coefficient.complexity_matrices(systems, family, times, include_input)
    measured = coefficient.measure_all(systems, family, t, include_input=include_input)
    for sizes, (_, curve) in zip(matrix, measured, strict=True):
        assert curve.points == tuple(
            (t_prime, sum(abs(int(sizes[j + 1, i]) - int(sizes[j, i]))
                          for j in range(family.n - 1)) / (t_prime * (family.n - 1)))
            for i, t_prime in enumerate(times))


@pytest.mark.parametrize("times, include_input", [
    ((), True), ((0, 5), True), ((3, 3, 5), True), ((6, 4), True), ((1,), False),
], ids=str)
def test_matrices_refuse_times_that_are_not_increasing_runtimes(monkeypatch, times,
                                                                include_input):
    # Without the input row, the runs start at row 1, so the last time must pass it.
    monkeypatch.setattr(coefficient, "run_system", no_evolution)
    with pytest.raises(ValueError, match="strictly increasing"):
        coefficient.complexity_matrices([rule_from_number(30)], gray_initials(4, 9), times,
                                        include_input)


def traced_matrix(systems, family, times, include_input=True, workers=1):
    """The matrix, and the peak of its traced allocations in bytes."""
    return traced(lambda: coefficient.complexity_matrices(systems, family, times,
                                                          include_input, workers))


def test_one_chunk_tensor_is_alive_at_a_time():
    """The peak of the traced allocations stays within the budget: the
    packed runs of a chunk are freed before the next chunk evolves."""
    systems, family = (*INERT_LIFE, GAME_OF_LIFE), gray_patches(64, 32, 32)
    times = runtime_grid(family, 120)[2]
    per_chunk = engine.MEMORY_BUDGET // run_bytes(family, times[-1])
    assert len(systems) * family.n > 3 * per_chunk, "the case must take many chunks"
    # The budget holds one chunk's packed runs, slab and step; the memo
    # holds one digest per distinct run of the current member, and no
    # view of a chunk's payloads outlives it; 64 KiB cover the small
    # arrays and lists of the loop.
    bound = engine.MEMORY_BUDGET + 64 * 1024
    expected = coefficient.complexity_matrices(systems, family, times, True, 1)
    matrix, peak = traced_matrix(systems, family, times)
    assert matrix.tolist() == expected.tolist()
    assert peak <= bound, f"peak {peak} B above {bound} B"


@pytest.mark.parametrize("systems, family", [
    ((*INERT_LIFE, GAME_OF_LIFE), gray_patches(64, 32, 32)),
    ([rule_from_number(number) for number in range(256)], gray_initials(8, 61)),
], ids=["life", "eca"])
def test_a_measurement_without_the_input_row_holds_one_chunk(systems, family):
    """Without the input row, no chunk's one-step batch outlives its chunk:
    the peak stays within the bound that holds with the input row."""
    times = runtime_grid(family, 120)[2]
    per_chunk = engine.MEMORY_BUDGET // run_bytes(family, times[-1] - 1)
    assert len(systems) * family.n > 3 * per_chunk, "the case must take many chunks"
    bound = engine.MEMORY_BUDGET + 64 * 1024
    peak = traced_matrix(systems, family, times, include_input=False)[1]
    assert peak <= bound, f"peak {peak} B above {bound} B"


@pytest.mark.parametrize("workers", [1, 2])
def test_a_run_beyond_the_budget_is_held_packed(workers):
    """A run whose space-time array alone would be over the budget (2.3 MiB
    here) costs its packed payload, a slab and a step: all three runs fit
    in the budget at once, and each size is that of its run's prefix. Rule
    110 never settles here, so with two workers a helper thread compresses
    beside the calling thread, within the same bound."""
    rule, family = rule_from_number(110), random_initials(3, 4096, seed=0)
    times = runtime_grid(family, 600)[2]
    assert (times[-1] + 1) * 4096 > engine.MEMORY_BUDGET
    matrix, peak = traced_matrix([rule], family, times, workers=workers)
    bound = engine.MEMORY_BUDGET + 64 * 1024
    assert peak <= bound, f"peak {peak} B above {bound} B"
    for cells, sizes in zip(family.cells, matrix[0]):
        rows = evolve(rule, cells, times[-1])
        assert sizes.tolist() == [compressed_size(pack_cells(rows[: t + 1].ravel(), 2))
                                  for t in times]


def test_payloads_count_against_the_budget(monkeypatch):
    """At k = 3 a payload holds one byte per cell, as many bytes as its
    run's tensor: a chunk that left them out of the budget would hold
    about twice the budget."""
    # These payloads hardly compress, and compressing their prefixes takes
    # about 20 s; the sizes play no part in the peak, so a stand-in gives them.
    monkeypatch.setattr(coefficient, "prefix_sizes", lambda payload, counts, k: counts)
    rng = np.random.default_rng(5)
    digits = random.Random(5)
    systems = [rule_from_number(digits.randrange(3 ** 27), k=3) for _ in range(4)]
    members = [rng.integers(0, 3, size=2000, dtype=np.uint8) for _ in range(8)]
    family = InputFamily(members=members, scheme=CUSTOM)
    times = runtime_grid(family, 300)[2]
    bound = engine.MEMORY_BUDGET + 64 * 1024
    peak = traced_matrix(systems, family, times)[1]
    assert peak <= bound, f"peak {peak} B above {bound} B"


def test_a_measurement_holds_the_family_once():
    """A measurement evolves from ``family.cells`` as it is: no second copy
    of the family's cells, 512 KiB here, comes on top of the budget."""
    systems, family = (*INERT_LIFE, GAME_OF_LIFE), gray_patches(512, 32, 32)
    assert family.cells.nbytes == 512 * 1024
    measured, peak = traced(lambda: coefficient.measure_all(systems, family, 8))
    bound = engine.MEMORY_BUDGET + 64 * 1024
    assert peak <= bound, f"peak {peak} B above {bound} B"
    expected = [coefficient.measure(system, family, 8)[0].c_value for system in systems]
    assert [result.c_value for result, _ in measured] == expected


def test_each_run_of_a_merged_chunk_stops_at_its_own_settle_step(step_calls):
    """On the Life `coeff` shape of the benchmark, B3/S23 measured beside
    the inert rules, every run stops stepping at the step it settles: the
    engine steps 315,648 cells (it stepped 525,312 when runs retired only
    at slab boundaries), and the c-values stay those written before."""
    measured = coefficient.measure_all((GAME_OF_LIFE, *INERT_LIFE), gray_patches(20, 48, 48), 120)
    assert step_calls.cells == 315_648
    if COMPRESSOR_ID == "deflate/zlib-1.2.13/level9":
        assert [result.c_value for result, _ in measured] == [
            -0.015663157900667607, -0.005302768468592468, -0.006649486263797172]


def test_the_default_life_measurement_stops_each_run_at_its_settle_step(step_calls):
    """`caprog coeff --model life` at its defaults, B3/S23 beside the inert
    rules, steps 10,978,304 cells (25,636,864 when runs retired only at
    slab boundaries)."""
    family = gray_patches(cli.LIFE_N, cli.LIFE_SIDE, cli.LIFE_SIDE)
    coefficient.measure_all((GAME_OF_LIFE, *INERT_LIFE), family, cli.LIFE_T)
    assert step_calls.cells == 10_978_304


@pytest.mark.parametrize("systems, family, t, distinct, payload_bytes, prefixes, copies, cells", [
    ([rule_from_number(number) for number in range(256)], gray_initials(3, 61), 64,
     298, 496, 5_662, 0, 1_464_244),
    ([rule_from_number(110)], random_initials(6, 4096, seed=0), 300,
     6, 154_112, 96, 90, 7_372_800),
    ((GAME_OF_LIFE, *INERT_LIFE), gray_patches(20, 48, 48), 120,
     46, 34_848, 736, 690, 315_648),
], ids=["eca_sweep", "coeff_wide", "life_coeff"])
def test_the_benchmark_shapes_do_pinned_work(monkeypatch, step_calls, systems, family, t,
                                             distinct, payload_bytes, prefixes, copies, cells):
    """The pass of each benchmark workload's shape (perfbench/workloads.py)
    compresses ``distinct`` payloads of ``payload_bytes`` once each, at
    every sample time, and steps ``cells`` cells: each run steps to its
    settle step, the first s >= 1 whose row equals the row two steps
    before (at s = 1, the input row), or to t. None of it depends on the
    zlib build."""
    compressed = []
    prefix_sizes = coefficient.prefix_sizes

    def recording(payload, counts, k):
        compressed.append((len(payload), len(counts)))
        return prefix_sizes(payload, counts, k)

    monkeypatch.setattr(coefficient, "prefix_sizes", recording)
    coefficient.measure_all(systems, family, t, workers=1)
    stepped = step_calls.cells
    times = len(runtime_grid(family, t)[2])
    assert compressed == [(payload_bytes, times)] * distinct
    assert distinct * times == prefixes
    # A streamed payload's stream is copied at every sample time but the last.
    assert distinct * (times - 1) * (payload_bytes >= complexity.STREAM_BYTES) == copies
    settle_steps = []
    for member in family.cells:
        for system in systems:
            rows = evolve(system, member, t, family.boundary)
            settle_steps.append(next(
                (s for s in range(1, t + 1) if np.array_equal(rows[s], rows[max(s - 2, 0)])), t))
    assert stepped == family.cells[0].size * sum(settle_steps) == cells


@pytest.fixture
def events(monkeypatch):
    """What complexity_matrices does, in order: "evolve" for each chunk it
    evolves and "helper" for each thread it starts."""
    log = []

    class Counted(threading.Thread):
        def start(self):
            log.append("helper")
            super().start()

    def recording(*args):
        log.append("evolve")
        return evolve_batch(*args)

    monkeypatch.setattr(threading, "Thread", Counted)
    monkeypatch.setattr(coefficient, "run_system", recording)
    return log


def test_runs_that_all_settle_start_no_helper(events):
    """On the Life `coeff` shape of the benchmark every run settles by step
    4, and settled runs stay on the calling thread: two workers start no
    thread."""
    systems, family = (GAME_OF_LIFE, *INERT_LIFE), gray_patches(20, 48, 48)
    times = runtime_grid(family, 120)[2]
    coefficient.complexity_matrices(systems, family, times, True, 2)
    assert events and set(events) == {"evolve"}


@pytest.mark.parametrize("per_chunk", [6, 2])
def test_runs_that_never_settle_start_one_helper_per_chunk(events, monkeypatch, per_chunk):
    """Rule 110 never settles on wide random rows: with two workers, each
    chunk starts one helper, which shares the chunk's runs with the
    calling thread."""
    rule, family = rule_from_number(110), random_initials(6, 4096, seed=0)
    times = runtime_grid(family, 300)[2]
    monkeypatch.setattr(engine, "MEMORY_BUDGET", per_chunk * run_bytes(family, times[-1]))
    coefficient.complexity_matrices([rule], family, times, True, 2)
    assert events == ["evolve", "helper"] * (6 // per_chunk)


def test_matrix_is_the_same_for_any_worker_count(monkeypatch):
    """Chunks that mix settled runs, which the calling thread compresses,
    with runs that step to t, which helpers share, give the matrix of one
    thread for 2 and 3 workers and by default."""
    systems = [rule_from_number(number) for number in (0, 30, 128, 110, 204, 4)]
    family = random_initials(5, 600, seed=1)
    times = runtime_grid(family, 80)[2]
    steps = []

    def recording(*args):
        batch = evolve_batch(*args)
        steps.append(batch.steps.tolist())
        return batch

    monkeypatch.setattr(coefficient, "run_system", recording)
    # Four runs a chunk, so chunks end inside a member's systems.
    monkeypatch.setattr(engine, "MEMORY_BUDGET", 4 * run_bytes(family, times[-1]))
    matrices = [coefficient.complexity_matrices(systems, family, times, True, workers)
                for workers in (1, 2, 3, None)]
    assert any(min(chunk) < times[-1] == max(chunk) for chunk in steps), "no chunk mixes"
    assert all(matrix.tolist() == matrices[0].tolist() for matrix in matrices[1:])


@pytest.mark.parametrize("system, member", [(0, 0), (0, 5), (1, 2)], ids=str)
def test_an_error_in_any_thread_comes_out_of_the_measurement(monkeypatch, system, member):
    """A run that fails to compress, whether a helper or the calling thread
    took it, fails the measurement with its own error, and every helper has
    stopped when it does. Rule 110's runs go to helpers, rule 204's settle
    at step 1 and stay on the calling thread."""
    systems, family = [rule_from_number(110), rule_from_number(204)], random_initials(6, 1024, seed=0)
    failing = pack_cells(evolve(systems[system], family.cells[member], 100).ravel(), 2)
    error = RuntimeError("the compressor failed")
    prefix_sizes = coefficient.prefix_sizes

    def sizes(payload, counts, k):
        if bytes(payload) == failing:
            raise error
        return prefix_sizes(payload, counts, k)

    monkeypatch.setattr(coefficient, "prefix_sizes", sizes)
    threads = threading.active_count()
    with pytest.raises(RuntimeError) as raised:
        coefficient.measure_all(systems, family, 100, workers=2)
    assert raised.value is error
    assert threading.active_count() == threads
