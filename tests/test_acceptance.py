"""Acceptance suite: one test per headline claim, with a one-line verdict
per criterion printed at the end of the run.

One known-red test is kept at full strength deliberately: the rank
clauses for rules 122 and 89 in criterion 2. Both coefficients come out
slightly negative (about -0.0067 and -0.0065) and the rules rank near the
bottom. For rule 122 the gap sums keep growing with runtime, but S(t)
falls steeply over the first samples, just after the light cone wraps the
61-cell ring, and then stays flat; the early fall sets the slope. For
rule 89 the gap sums level off for a stretch of runtimes, so S(t) sinks
to a minimum and only partly recovers. The test states the stronger
expectation rather than bending the measurement to meet it; the measured
curves are in the README.
"""

import random
import time

import numpy as np
import pytest

from caprog.classify import (
    EPSILON_FLOOR,
    INERT_ECA,
    INERT_LIFE,
    c_equivalent,
    calibrate_epsilon,
    computes,
    is_zero_computer,
    r30_grouping,
    sweep_eca,
)
from caprog.coefficient import measure
from caprog.complexity import pack_cells
from caprog.engine import (
    FIXED,
    GAME_OF_LIFE,
    evolve,
    rule_from_number,
)
from caprog.enumeration import gray_code, gray_initials, gray_patches
from caprog.cli import main
from caprog.reportio import MANIFEST_NAME, sweep_csv_bytes

from conftest import record_criterion
from reference import ref_coefficient, ref_unpack

DEFAULT_T = 200


@pytest.fixture(scope="module")
def default_sweep():
    """Full 256-rule sweep at the pinned defaults, with its wall time."""
    start = time.monotonic()
    report = sweep_eca(t_max=DEFAULT_T, n=40, width=61, workers=1)
    return report, time.monotonic() - start


def test_criterion_1_inert_rules_sit_in_the_zero_band(default_family):
    start = time.monotonic()
    systems = [rule_from_number(r) for r in INERT_ECA]
    epsilon = calibrate_epsilon(systems, default_family, DEFAULT_T)
    results = {
        r: measure(rule_from_number(r), default_family, DEFAULT_T)[0]
        for r in INERT_ECA
    }
    elapsed = time.monotonic() - start
    all_inside = all(is_zero_computer(res, epsilon) for res in results.values())
    ok = all_inside and epsilon >= EPSILON_FLOOR and elapsed < 10.0
    record_criterion(
        1,
        ok,
        f"inert rules {INERT_ECA} inside epsilon={epsilon:.3e} "
        f"in {elapsed:.1f}s (limit 10s)",
    )
    assert ok, f"epsilon={epsilon}, elapsed={elapsed:.1f}s"


def test_criterion_2_programmable_rules_rank_high(default_sweep):
    report, elapsed = default_sweep
    c110 = report.c_value("eca:110")
    above_baselines = all(
        c110 > report.c_value(f"eca:{r}") for r in (0, 255, 30)
    )
    rank110 = report.rank("eca:110")
    rank122 = report.rank("eca:122")
    rank89 = report.rank("eca:89")
    top_quartile = 256 // 4

    values = [e.c_value for e in report.entries]
    iqr = float(np.percentile(values, 75) - np.percentile(values, 25))
    close_pair = c_equivalent(report.entry("eca:122"), report.entry("eca:89"), iqr)

    checks = {
        "c(110) beats 0/255/30": above_baselines,
        f"rank(110)={rank110} in top quartile": rank110 < top_quartile,
        f"rank(122)={rank122} in top quartile": rank122 < top_quartile,
        f"rank(89)={rank89} in top quartile": rank89 < top_quartile,
        "122 ~ 89 within IQR": close_pair,
        f"sweep {elapsed:.0f}s under 300s": elapsed < 300.0,
    }
    ok = all(checks.values())
    failed = [name for name, passed in checks.items() if not passed]
    record_criterion(
        2, ok, "all clauses hold" if ok else "failed: " + "; ".join(failed)
    )
    assert ok, f"failed clauses: {failed}"


def test_criterion_3_chaotic_rule_groups_with_inert_rules(default_sweep):
    report, _ = default_sweep
    verdict = r30_grouping(report)
    ok = verdict["held"] != "neither"
    record_criterion(
        3,
        ok,
        f"rule 30 vs inert rules: held={verdict['held']!r} "
        f"(cluster={verdict['shares_inert_cluster']}, "
        f"band={verdict['within_2_epsilon']})",
    )
    assert ok, verdict


def test_criterion_4_parity_blocks_reduce_exactly():
    rule = rule_from_number(132)
    outcomes = {}
    for size in range(2, 10):
        cells = np.zeros(32, dtype=np.uint8)
        start = (32 - size) // 2
        cells[start : start + size] = 1
        rows = evolve(rule, cells, 12)
        outcomes[size] = int(rows[-1].sum())
    ok = all(survivors == size % 2 for size, survivors in outcomes.items())
    record_criterion(
        4, ok, f"rule 132 block parity exact for sizes 2..9: {outcomes}"
    )
    assert ok, outcomes


def test_criterion_5_life_computes_on_gray_patches():
    # Under B3/S23 no 2x2 seed does more than die or become a block, so a
    # 2x2 patch (a family of 16) cannot show Life reacting to its input.
    # The blinker, the glider and the R-pentomino all fit in 3x3; driving
    # every cell of a 3x3 patch takes 9 pattern bits, the full Gray cycle
    # of 2**9 = 512 members.
    side = 3
    n = 2 ** (side * side)
    start = time.monotonic()
    family = gray_patches(n, 32, 32)
    res = measure(GAME_OF_LIFE, family, 100)[0]
    epsilon = calibrate_epsilon(INERT_LIFE, family, 100)
    elapsed = time.monotonic() - start
    says_computes = computes(res, epsilon)
    ok = says_computes and elapsed < 60.0
    record_criterion(
        5,
        ok,
        f"life on {n} Gray {side}x{side} patches: "
        f"c_value={res.c_value:.4f} vs epsilon={epsilon:.4f}, "
        f"computes={says_computes}, {elapsed:.1f}s (limit 60s)",
    )
    assert ok, f"c_value={res.c_value}, epsilon={epsilon}, elapsed={elapsed:.1f}s"


def test_criterion_6_optimized_pipeline_matches_naive_reference():
    rng = random.Random(991)
    exact = 0
    trials = 20
    for _ in range(trials):
        number = rng.randrange(256)
        n = rng.randint(4, 16)
        core = (n - 1).bit_length()
        width = rng.randint(max(5, core), 40)
        t_max = rng.randint(16, 80)
        include = rng.random() < 0.5
        fast = measure(
            rule_from_number(number),
            gray_initials(n, width),
            t_max,
            include_input=include,
        )[0].c_value
        slow = ref_coefficient(number, n, width, t_max, include)
        exact += fast == slow
    ok = exact == trials
    record_criterion(6, ok, f"{exact}/{trials} randomized instances bit-exact")
    assert ok, f"only {exact}/{trials} matched"


def test_criterion_7_invariants(tmp_path):
    ok_parts = {}

    # Every consecutive pair of Gray codes differs in exactly one bit.
    codes = [gray_code(j) for j in range(1024)]
    ok_parts["gray codes to 1024"] = all(
        bin(a ^ b).count("1") == 1 for a, b in zip(codes, codes[1:])
    )
    fam = gray_initials(1024, 12)
    ok_parts["gray family n=1024"] = bool(
        (np.abs(np.diff(fam.cells.astype(np.int8), axis=0)).sum(axis=1) == 1).all()
    )

    # Perturbations propagate at most one cell per step.
    rng = np.random.default_rng(77)
    cone_ok = True
    for _ in range(200):
        number = int(rng.integers(0, 128)) * 2  # quiescent background
        width = int(rng.integers(24, 65))
        t = int(rng.integers(4, 21))
        sw = int(rng.integers(1, 5))
        pos = int(rng.integers(0, width - sw + 1))
        seg = rng.integers(0, 2, size=sw, dtype=np.uint8)
        seg[rng.integers(0, sw)] = 1
        cells = np.zeros(width, dtype=np.uint8)
        cells[pos : pos + sw] = seg
        rows = evolve(rule_from_number(number), cells, t, FIXED)
        for s, row in enumerate(rows):
            lo, hi = max(0, pos - s), min(width, pos + sw + s)
            if row[:lo].any() or row[hi:].any():
                cone_ok = False
    ok_parts["light cone, 200 cases"] = cone_ok

    # A run's packed payload is lossless.
    round_ok = True
    for _ in range(200):
        number = int(rng.integers(0, 256))
        width = int(rng.integers(3, 40))
        t = int(rng.integers(1, 16))
        init = rng.integers(0, 2, size=width, dtype=np.uint8)
        rows = evolve(rule_from_number(number), init, t)
        if ref_unpack(pack_cells(rows.ravel(), 2), rows.size) != rows.ravel().tolist():
            round_ok = False
    ok_parts["serialization roundtrip, 200 cases"] = round_ok

    # A manifest replays to identical bytes.
    first = tmp_path / "first"
    args = ["coeff", "--rule", "110", "--gray-inputs", "6", "--width", "15",
            "--t", "24", "--out", str(first)]
    replay_code = main(args)
    rerun_code = main(["rerun", "--manifest", str(first / MANIFEST_NAME),
                       "--out", str(tmp_path / "second")])
    ok_parts["manifest replay"] = replay_code == 0 and rerun_code == 0

    # Worker scheduling never changes the report.
    serial = sweep_eca(t_max=24, n=6, width=17, workers=1)
    pooled = sweep_eca(t_max=24, n=6, width=17, workers=3)
    ok_parts["1 vs 3 workers"] = sweep_csv_bytes(serial) == sweep_csv_bytes(pooled)

    ok = all(ok_parts.values())
    failed = [name for name, passed in ok_parts.items() if not passed]
    record_criterion(
        7, ok, "all invariants hold" if ok else "failed: " + "; ".join(failed)
    )
    assert ok, f"failed invariants: {failed}"
