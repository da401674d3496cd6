import itertools

import numpy as np
import pytest

from caprog.classify import INERT_LIFE
from caprog.engine import (
    FIXED,
    GAME_OF_LIFE,
    Configuration,
    LifeRule,
    default_width,
    evolve,
    evolve_batch,
    rule_from_number,
)

from reference import ref_conjugate, ref_evolve, ref_life_evolve, ref_rule_table


def row(bits: str) -> Configuration:
    return Configuration([int(ch) for ch in bits])


def step(config: Configuration, system) -> Configuration:
    return Configuration(evolve(system, config, 1).rows[1], boundary=config.boundary)


def test_rule_digit_convention():
    # Digit v of the rule number is the output for neighbourhood value v.
    r30 = rule_from_number(30)
    assert list(r30.outputs) == [0, 1, 1, 1, 1, 0, 0, 0]


def test_rule_110_full_table():
    expected = {
        (1, 1, 1): 0, (1, 1, 0): 1, (1, 0, 1): 1, (1, 0, 0): 0,
        (0, 1, 1): 1, (0, 1, 0): 1, (0, 0, 1): 1, (0, 0, 0): 0,
    }
    # Neighbourhood value v, read as three MSB-first digits, maps to outputs[v].
    outputs = rule_from_number(110).outputs
    table = {tuple((v >> s) & 1 for s in (2, 1, 0)): int(out) for v, out in enumerate(outputs)}
    assert table == expected


def test_rule_decoding_matches_reference_all_eca():
    for number in range(256):
        outputs = rule_from_number(number).outputs
        table = {tuple((v >> s) & 1 for s in (2, 1, 0)): int(out) for v, out in enumerate(outputs)}
        assert table == ref_rule_table(number)


def test_rule_decoding_three_colours():
    rule = rule_from_number(123456789, k=3, r=1)
    assert sum(int(out) * 3 ** v for v, out in enumerate(rule.outputs)) == 123456789
    assert rule.rule_id == "ca:k3:r1:123456789"


def test_rule_number_bounds():
    with pytest.raises(ValueError, match=r"\[0, 256\)"):
        rule_from_number(256)
    with pytest.raises(ValueError):
        rule_from_number(-1)
    with pytest.raises(ValueError):
        rule_from_number(0, k=1)


def test_rule_ids():
    assert rule_from_number(110).rule_id == "eca:110"
    assert rule_from_number(0).number == 0


def test_conjugate_semantics():
    # Evolving the conjugate on complemented input complements the evolution.
    rng = np.random.default_rng(7)
    for _ in range(25):
        number = int(rng.integers(256))
        cells = rng.integers(0, 2, size=17, dtype=np.uint8)
        direct = evolve(rule_from_number(number), Configuration(cells), 9).rows
        flipped = evolve(rule_from_number(ref_conjugate(number)), Configuration(1 - cells), 9).rows
        assert np.array_equal(flipped, 1 - direct)


def test_step_rule110_cyclic():
    out = step(row("00100"), rule_from_number(110))
    assert list(out.cells) == [0, 1, 1, 0, 0]


def test_step_boundaries_differ():
    r110 = rule_from_number(110)
    cyclic = step(row("11111"), r110)
    fixed = step(Configuration([1] * 5, boundary=FIXED), r110)
    assert list(cyclic.cells) == [0, 0, 0, 0, 0]
    assert list(fixed.cells) == [1, 0, 0, 0, 1]


def test_step_rejects_out_of_range_colours():
    with pytest.raises(ValueError, match="colours"):
        step(Configuration([0, 2, 0]), rule_from_number(110))


def test_evolve_shape_and_replay():
    evo = evolve(rule_from_number(90), row("0001000"), 7)
    assert evo.rows.shape == (8, 7)
    assert evo.width == 7
    assert evo.rows.tolist() == ref_evolve(90, [0, 0, 0, 1, 0, 0, 0], 7)


def test_evolve_requires_a_transition():
    with pytest.raises(ValueError, match="at least one transition"):
        evolve(rule_from_number(110), row("010"), 0)


def test_identity_rule_freezes():
    evo = evolve(rule_from_number(204), row("011010"), 5)
    assert np.array_equal(evo.rows, np.tile(evo.rows[0], (6, 1)))


def test_complement_rule_alternates():
    evo = evolve(rule_from_number(51), row("011010"), 4)
    assert np.array_equal(evo.rows[1], 1 - evo.rows[0])
    assert np.array_equal(evo.rows[2], evo.rows[0])


def test_clear_rule_blanks():
    evo = evolve(rule_from_number(0), row("111"), 3)
    assert evo.rows[1:].sum() == 0


def test_isolated_bit_filter():
    # Rule 4 keeps exactly the cells with no live neighbour.
    out = step(row("0110010"), rule_from_number(4))
    assert list(out.cells) == [0, 0, 0, 0, 0, 1, 0]


def test_default_width():
    assert default_width(5, 1, 10) == 25
    assert default_width(1, 2, 3) == 13


def test_life_blinker_oscillates():
    # 5x5 so the wrap-around neighbourhoods stay empty
    cells = np.zeros((5, 5), dtype=np.uint8)
    cells[2, 1:4] = 1
    grid = Configuration(cells)
    once = step(grid, GAME_OF_LIFE)
    vertical = np.zeros((5, 5), dtype=np.uint8)
    vertical[1:4, 2] = 1
    assert np.array_equal(once.cells, vertical)
    assert np.array_equal(step(once, GAME_OF_LIFE).cells, grid.cells)


def test_life_block_is_still():
    cells = np.zeros((4, 4), dtype=np.uint8)
    cells[1:3, 1:3] = 1
    assert np.array_equal(step(Configuration(cells), GAME_OF_LIFE).cells, cells)


def glider(side: int) -> np.ndarray:
    cells = np.zeros((side, side), dtype=np.uint8)
    for (i, j) in ((0, 1), (1, 2), (2, 0), (2, 1), (2, 2)):
        cells[i, j] = 1
    return cells


def test_life_glider_translates():
    evo = evolve(GAME_OF_LIFE, Configuration(glider(8)), 4)
    assert evo.rows.shape == (5, 8, 8) and evo.width == 8
    assert np.array_equal(evo.rows[4], np.roll(np.roll(evo.rows[0], 1, 0), 1, 1))
    assert evo.rows.tolist() == ref_life_evolve(glider(8).tolist(), 4, born={3}, survives={2, 3})


def test_life_rule_validation():
    with pytest.raises(ValueError, match="0..8"):
        LifeRule(born=frozenset({9}), survives=frozenset())


def test_inert_life_rules():
    rng = np.random.default_rng(3)
    grid = Configuration(rng.integers(0, 2, size=(9, 9), dtype=np.uint8))
    clear = LifeRule(born=frozenset(), survives=frozenset())
    freeze = LifeRule(born=frozenset(), survives=frozenset(range(9)))
    assert step(grid, clear).cells.sum() == 0
    assert np.array_equal(step(grid, freeze).cells, grid.cells)
    assert freeze.rule_id == "life:B/S012345678"


def test_life_lookup_table():
    # Entry 9 * cell + live neighbours; B3/S23 births at 3, keeps at 2 and 3.
    assert np.flatnonzero(GAME_OF_LIFE.outputs).tolist() == [3, 11, 12]


def test_evolve_accepts_both_system_types():
    evo = evolve(rule_from_number(110), row("010"), 2)
    assert evo.rows.shape == (3, 3)
    grid = Configuration(np.zeros((4, 4), dtype=np.uint8))
    levo = evolve(GAME_OF_LIFE, grid, 2)
    assert levo.rows.shape == (3, 4, 4)
    assert levo.k == 2
    with pytest.raises(TypeError):
        evolve(42, grid, 2)


def test_systems_reject_the_other_shape():
    grid = Configuration(np.zeros((4, 4), dtype=np.uint8))
    fixed_grid = Configuration(np.zeros((4, 4), dtype=np.uint8), boundary=FIXED)
    for run in (lambda c, s: evolve(s, c, 2), step):
        with pytest.raises(ValueError, match="2-D grids"):
            run(row("0110"), GAME_OF_LIFE)
        with pytest.raises(ValueError, match="cyclic"):
            run(fixed_grid, GAME_OF_LIFE)
        with pytest.raises(ValueError, match="1-D rows"):
            run(grid, rule_from_number(110))
    with pytest.raises(ValueError, match="colours"):
        evolve(GAME_OF_LIFE, Configuration(np.full((3, 3), 2, dtype=np.uint8)), 1)


def test_eca_enumeration_is_complete():
    # range(256) decodes to every two-colour radius-1 table exactly once.
    tables = {tuple(rule_from_number(number).outputs) for number in range(256)}
    assert tables == set(itertools.product((0, 1), repeat=8))


def test_life_matches_naive_reference_on_random_grids():
    rng = np.random.default_rng(11)
    for _ in range(12):
        # Sides from 1 up, so degenerate tori (a cell its own neighbour) count too.
        height, width = (int(x) for x in rng.integers(1, 14, size=2))
        cells = (rng.random((height, width)) < 0.4).astype(np.uint8)
        evo = evolve(GAME_OF_LIFE, Configuration(cells), 15)
        ref = ref_life_evolve(cells.tolist(), 15, born={3}, survives={2, 3})
        assert evo.rows.tolist() == ref


def test_life_matches_naive_reference_on_the_glider():
    evo = evolve(GAME_OF_LIFE, Configuration(glider(7)), 40)
    assert evo.rows.tolist() == ref_life_evolve(glider(7).tolist(), 40, born={3}, survives={2, 3})


def test_inert_life_rules_match_naive_reference():
    rng = np.random.default_rng(5)
    cells = rng.integers(0, 2, size=(8, 11), dtype=np.uint8)
    for rule in INERT_LIFE:
        evo = evolve(rule, Configuration(cells), 6)
        ref = ref_life_evolve(cells.tolist(), 6, born=rule.born, survives=rule.survives)
        assert evo.rows.tolist() == ref


def test_fixed_boundary_matches_naive_reference():
    rng = np.random.default_rng(13)
    for _ in range(40):
        number = int(rng.integers(256))
        cells = rng.integers(0, 2, size=int(rng.integers(1, 30)), dtype=np.uint8)
        evo = evolve(rule_from_number(number), Configuration(cells, boundary=FIXED), 20)
        assert evo.rows.tolist() == ref_evolve(number, cells.tolist(), 20, boundary="fixed")


def test_batch_rows_are_the_members_runs():
    rng = np.random.default_rng(17)
    rules = [rule_from_number(int(n)) for n in rng.integers(256, size=5)]
    inits = [Configuration(rng.integers(0, 2, size=23, dtype=np.uint8)) for _ in rules]
    batch = evolve_batch(rules, inits, 12)
    assert batch.rows.shape == (5, 13, 23)
    for rule, init, rows in zip(rules, inits, batch.rows):
        assert rows.tolist() == evolve(rule, init, 12).rows.tolist()


def test_batch_rejects_mixed_kinds_and_shapes():
    row, grid = Configuration(np.zeros(9, dtype=np.uint8)), Configuration(np.zeros((3, 3), np.uint8))
    with pytest.raises(ValueError, match="one kind"):
        evolve_batch([rule_from_number(30), rule_from_number(5, k=3, r=1)], [row, row], 2)
    with pytest.raises(ValueError, match="one kind"):
        evolve_batch([rule_from_number(30), rule_from_number(30, r=2)], [row, row], 2)
    with pytest.raises(ValueError, match="one shape"):
        evolve_batch([rule_from_number(30)] * 2, [row, Configuration(np.zeros(8, np.uint8))], 2)
    with pytest.raises(ValueError, match="one shape"):
        evolve_batch([rule_from_number(30)] * 2, [row, Configuration(row.cells, boundary=FIXED)], 2)
    with pytest.raises(ValueError, match="1-D rows only"):
        evolve_batch([rule_from_number(30), rule_from_number(30)], [row, grid], 2)
    with pytest.raises(ValueError, match="pairs one system"):
        evolve_batch([GAME_OF_LIFE], [grid, grid], 2)
