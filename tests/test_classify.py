"""Tests for zero-band calibration, the computes predicate, equivalence
checks, clustering, and the whole-family sweep."""

import os

import pytest

from caprog.classify import (
    EPSILON_FLOOR,
    INERT_ECA,
    INERT_LIFE,
    IncomparableError,
    SweepReport,
    behaviourally_equivalent,
    c_equivalent,
    calibrate_epsilon,
    computes,
    is_zero_computer,
    kmeans_clusters,
    r30_grouping,
    resolve_workers,
    sweep_eca,
)
from caprog.coefficient import measure
from caprog.engine import rule_from_number
from caprog.enumeration import gray_initials

# Reduced grid shared by the sweep tests; small enough to run twice.
SWEEP_KW = dict(t_max=40, n=8, width=21, workers=1)


@pytest.fixture(scope="module")
def small_sweep():
    return sweep_eca(**SWEEP_KW)


@pytest.fixture(scope="module")
def small_family():
    return gray_initials(8, 21)


def coeff(number: int, family, t_max: int = 40):
    return measure(rule_from_number(number), family, t_max)[0]


class TestKMeans:
    def test_known_partition(self):
        values = (0.0, 0.1, 5.0, 5.2, 10.0, 10.1, 20.0)
        assert kmeans_clusters(values) == (1, 1, 2, 2, 3, 3, 4)

    def test_labels_ascend_with_centres(self):
        labels = kmeans_clusters((9.0, 1.0, 5.0, 13.0))
        assert labels == (3, 1, 2, 4)

    def test_deterministic(self):
        values = tuple(((i * 37) % 101) / 10 for i in range(40))
        assert kmeans_clusters(values) == kmeans_clusters(values)

    def test_permutation_invariant(self):
        values = [0.0, 0.2, 4.9, 5.1, 9.8, 10.3, 19.5, 20.1]
        labels = kmeans_clusters(tuple(values))
        perm = [5, 2, 7, 0, 3, 6, 1, 4]
        shuffled = tuple(values[i] for i in perm)
        shuffled_labels = kmeans_clusters(shuffled)
        assert shuffled_labels == tuple(labels[i] for i in perm)

    def test_needs_k_distinct_values(self):
        with pytest.raises(ValueError, match="distinct"):
            kmeans_clusters((1.0, 1.0, 2.0, 3.0))

    def test_k_override(self):
        assert kmeans_clusters((0.0, 10.0), k=2) == (1, 2)


class TestZeroBand:
    def test_calibration_matches_formula(self, small_family):
        systems = [rule_from_number(r) for r in INERT_ECA]
        eps = calibrate_epsilon(systems, small_family, 40)
        worst = max(abs(coeff(r, small_family).c_value) for r in INERT_ECA)
        assert eps == max(2.0 * worst, EPSILON_FLOOR)
        assert eps > 0

    def test_floor_applies_to_perfectly_flat_systems(self):
        # a single-rule calibration can in principle give zero; the floor
        # keeps epsilon usable as a strict threshold
        assert EPSILON_FLOOR > 0

    def test_zero_and_computes_are_strict(self, small_family):
        res = coeff(204, small_family)
        eps = abs(res.c_value)
        if eps > 0:
            # |c| == epsilon sits outside the open band and below computes
            assert not is_zero_computer(res, eps)
            assert not computes(res, eps)
        assert is_zero_computer(res, abs(res.c_value) + 1e-9)

    def test_negative_coefficient_never_computes(self, small_family):
        res = coeff(0, small_family)
        assert res.c_value < 0
        assert not computes(res, 1e-9)

    def test_computing_excludes_the_zero_band(self, small_family):
        res = coeff(110, small_family)
        for eps in (1e-9, 1e-3, 0.1):
            assert not (computes(res, eps) and is_zero_computer(res, eps))

    def test_epsilon_must_be_positive(self, small_family):
        res = coeff(204, small_family)
        with pytest.raises(ValueError, match="epsilon"):
            is_zero_computer(res, 0.0)
        with pytest.raises(ValueError, match="epsilon"):
            computes(res, -1.0)

    def test_inert_life_rules_are_defined(self):
        a, b = INERT_LIFE
        assert a.rule_id == "life:B/S"
        assert b.rule_id == "life:B/S012345678"


class TestEquivalence:
    def test_reflexive(self, small_family):
        res = coeff(90, small_family)
        assert behaviourally_equivalent(res, res)
        assert c_equivalent(res, res, 1e-12)

    def test_exact_equality_required(self, small_family):
        a = coeff(110, small_family)
        b = coeff(124, small_family)
        if a.c_value != b.c_value:
            assert not behaviourally_equivalent(a, b)
        assert c_equivalent(a, b, abs(a.c_value - b.c_value) + 1e-9)

    def test_symmetry(self, small_family):
        a = coeff(30, small_family)
        b = coeff(45, small_family)
        gap = abs(a.c_value - b.c_value)
        for tol in (gap / 2 if gap > 0 else 1e-9, gap + 1e-9):
            assert c_equivalent(a, b, tol) == c_equivalent(b, a, tol)

    def test_differing_grids_are_incomparable(self, small_family):
        a = coeff(90, small_family, t_max=40)
        b = coeff(90, small_family, t_max=32)
        with pytest.raises(IncomparableError):
            behaviourally_equivalent(a, b)
        with pytest.raises(IncomparableError):
            c_equivalent(a, b, 1.0)

    def test_incomparable_is_a_value_error(self):
        assert issubclass(IncomparableError, ValueError)

    def test_collections_pair_by_grid_not_by_order(self, small_family):
        a32 = coeff(90, small_family, t_max=32)
        a40 = coeff(90, small_family, t_max=40)
        b32 = coeff(90, small_family, t_max=32)
        b40 = coeff(90, small_family, t_max=40)
        assert behaviourally_equivalent([a32, a40], [b40, b32])

    def test_mismatched_collection_sizes(self, small_family):
        a = coeff(90, small_family)
        with pytest.raises(IncomparableError):
            behaviourally_equivalent([a], [a, a])

    @pytest.mark.parametrize("c", [0.0, float("nan"), float("inf")])
    def test_tolerance_must_be_positive(self, small_family, c):
        res = coeff(90, small_family)
        with pytest.raises(ValueError, match="c must be > 0"):
            c_equivalent(res, res, c)


class TestWorkers:
    def test_explicit_count_wins(self):
        assert resolve_workers(3) == 3

    def test_defaults_to_cpu_count(self):
        assert resolve_workers(None) >= 1

    def test_defaults_to_the_cpus_this_process_may_use(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        assert resolve_workers(None) == 1

    def test_invalid_count(self):
        with pytest.raises(ValueError, match="worker"):
            resolve_workers(0)


class TestSweep:
    def test_covers_every_rule_once(self, small_sweep):
        ids = [e.params.rule_id for e in small_sweep.entries]
        assert ids == [f"eca:{r}" for r in range(256)]
        assert sorted(small_sweep.ranking) == sorted(ids)
        assert set(small_sweep.clusters) == set(ids)

    def test_ranking_sorted_by_coefficient(self, small_sweep):
        values = [small_sweep.c_value(rid) for rid in small_sweep.ranking]
        assert all(a >= b for a, b in zip(values, values[1:]))
        assert small_sweep.rank(small_sweep.ranking[0]) == 0

    def test_epsilon_from_inert_entries(self, small_sweep):
        worst = max(abs(small_sweep.c_value(f"eca:{r}")) for r in INERT_ECA)
        assert small_sweep.epsilon == max(2.0 * worst, EPSILON_FLOOR)

    def test_every_cluster_label_in_use(self, small_sweep):
        assert sorted(set(small_sweep.clusters.values())) == [1, 2, 3, 4]

    def test_blank_and_saturating_rules_cluster_together(self, small_sweep):
        assert small_sweep.clusters["eca:0"] == small_sweep.clusters["eca:255"]

    def test_deterministic_end_to_end(self, small_sweep):
        again = sweep_eca(**SWEEP_KW)
        assert again.ranking == small_sweep.ranking
        assert again.epsilon == small_sweep.epsilon
        assert [e.c_value for e in again.entries] == [e.c_value for e in small_sweep.entries]
        assert again.clusters == small_sweep.clusters

    def test_entry_lookup(self, small_sweep):
        assert small_sweep.entry("eca:110").params.rule_id == "eca:110"
        with pytest.raises(KeyError):
            small_sweep.entry("eca:256")
        with pytest.raises(KeyError):
            small_sweep.rank("eca:256")
        # The rule-id index agrees with a scan of the entries and the ranking.
        for e in small_sweep.entries:
            rid = e.params.rule_id
            assert small_sweep.entry(rid) is e
            assert small_sweep.rank(rid) == small_sweep.ranking.index(rid)

    def test_report_validation(self, small_sweep):
        with pytest.raises(ValueError, match="exactly once"):
            SweepReport(entries=small_sweep.entries + small_sweep.entries[:1])
        # Ranking, clusters and zero band are derived from the entries alone.
        rebuilt = SweepReport(entries=small_sweep.entries)
        entries = list(enumerate(small_sweep.entries))
        ranked = sorted(entries, key=lambda pair: (-pair[1].c_value, pair[0]))
        assert rebuilt.ranking == tuple(e.params.rule_id for _, e in ranked)
        labels = kmeans_clusters([e.c_value for e in small_sweep.entries])
        assert rebuilt.clusters == {
            e.params.rule_id: label for e, label in zip(small_sweep.entries, labels)
        }
        assert rebuilt.epsilon == small_sweep.epsilon > 0

    def test_r30_grouping_is_consistent(self, small_sweep):
        verdict = r30_grouping(small_sweep)
        assert verdict["c_value"] == small_sweep.c_value("eca:30")
        assert verdict["epsilon"] == small_sweep.epsilon
        shares, within = verdict["shares_inert_cluster"], verdict["within_2_epsilon"]
        expected = {
            (True, True): "both",
            (True, False): "cluster",
            (False, True): "zero-band",
            (False, False): "neither",
        }[(shares, within)]
        assert verdict["held"] == expected
