import itertools
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from caprog import engine
from caprog.classify import INERT_ECA, INERT_LIFE
from caprog.complexity import packed_size
from caprog.engine import (
    CYCLIC,
    FIXED,
    GAME_OF_LIFE,
    Configuration,
    LifeRule,
    RuleTable,
    default_width,
    evolve,
    evolve_batch,
    rule_from_number,
)

from reference import (
    ref_ca_evolve,
    ref_conjugate,
    ref_evolve,
    ref_life_evolve,
    ref_mirror,
    ref_rule_table,
)


def row(bits: str) -> Configuration:
    return Configuration([int(ch) for ch in bits])


def step(config: Configuration, system) -> Configuration:
    return Configuration(evolve(system, config, 1)[1], boundary=config.boundary)


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


@pytest.mark.parametrize("k, r", [(2, 1), (2, 3), (2, 6), (3, 1), (3, 3), (4, 2), (5, 2), (7, 1)])
def test_rule_decoding_matches_digit_by_digit(k, r):
    # The table is decoded many digits per division; the definition takes
    # one digit per division.
    size = k ** (2 * r + 1)
    rng = np.random.default_rng(k * 10 + r)
    draws = [int.from_bytes(rng.bytes(size), "big") % k ** part for part in (size, size // 2)]
    for number in (0, 1, k ** size - 1, *draws):
        value, digits = number, []
        for _ in range(size):
            digits.append(value % k)
            value //= k
        assert rule_from_number(number, k=k, r=r).outputs.tolist() == digits


@pytest.mark.parametrize("k, r", [(2, 1), (2, 6), (4, 1), (4, 2), (8, 1), (16, 1), (32, 1)])
def test_power_of_two_tables_read_bit_fields(k, r):
    # For k = 2**b the table is read from the number's bytes, b bits a
    # digit: 3- and 5-bit digits straddle bytes, and the numbers' bit
    # lengths end anywhere in a byte.
    size = k ** (2 * r + 1)
    bits = size * (k.bit_length() - 1)
    assert rule_from_number(k ** size - 1, k=k, r=r).outputs.tolist() == [k - 1] * size
    rng = np.random.default_rng(k * 10 + r)
    for length in sorted({min(bits, n) for n in (1, 5, 7, 13, 4099, bits - 3, bits)
                          if n <= 20000}):
        number = int.from_bytes(rng.bytes(-(-length // 8)), "big") >> (-length % 8)
        number |= 1 << (length - 1)
        value, digits = number, []
        while value:
            digits.append(value % k)
            value //= k
        digits += [0] * (size - len(digits))
        assert rule_from_number(number, k=k, r=r).outputs.tolist() == digits


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


def test_a_rule_is_its_number():
    # The table is decoded from the number, so no rule holds a second copy
    # that could disagree with its id.
    with pytest.raises(TypeError, match="outputs"):
        RuleTable(k=2, r=1, outputs=rule_from_number(0).outputs, number=110)
    rule = RuleTable(k=2, r=1, number=110)
    assert rule == rule_from_number(110)
    with pytest.raises(ValueError, match="read-only"):
        rule.outputs[0] = 1


def test_conjugate_semantics():
    # Evolving the conjugate on complemented input complements the evolution.
    rng = np.random.default_rng(7)
    for _ in range(25):
        number = int(rng.integers(256))
        cells = rng.integers(0, 2, size=17, dtype=np.uint8)
        direct = evolve(rule_from_number(number), Configuration(cells), 9)
        flipped = evolve(rule_from_number(ref_conjugate(number)), Configuration(1 - cells), 9)
        assert np.array_equal(flipped, 1 - direct)


def test_mirror_numbers():
    # Rule 110 mirrored is 124, 30 is 86 and 89 is 75; 122 is its own
    # mirror image, and mirroring twice gives the rule back.
    assert [ref_mirror(number, 2, 1) for number in (110, 30, 89, 122)] == [124, 86, 75, 122]
    assert all(ref_mirror(ref_mirror(number, 2, 1), 2, 1) == number for number in range(256))


@pytest.mark.parametrize("boundary", [CYCLIC, FIXED])
def test_mirror_semantics(boundary):
    # Evolving the mirror image on the mirrored input mirrors the
    # evolution, bit for bit: for every ECA, and for a k = 3, r = 2 rule
    # checked against the reference as well.
    rng = np.random.default_rng(11)
    cells = rng.integers(0, 2, size=17, dtype=np.uint8)
    for number in range(256):
        direct = evolve(rule_from_number(number), Configuration(cells, boundary=boundary), 9)
        mirrored = evolve(rule_from_number(ref_mirror(number, 2, 1)),
                          Configuration(cells[::-1], boundary=boundary), 9)
        assert np.array_equal(mirrored, direct[:, ::-1])
    number = random.Random(11).randrange(3 ** 3 ** 5)
    cells = rng.integers(0, 3, size=19, dtype=np.uint8)
    mirrored = evolve(rule_from_number(ref_mirror(number, 3, 2), k=3, r=2),
                      Configuration(cells[::-1], boundary=boundary), 12)
    ref = ref_ca_evolve(number, 3, 2, cells.tolist(), 12, boundary=boundary)
    assert mirrored.tolist() == [line[::-1] for line in ref]


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


@pytest.mark.parametrize("cells, match", [
    (np.array([0, 256, 1, 0, 0]), "0..255"),
    (np.array([0, -255, 1, 0, 0]), "0..255"),
    (np.array([0.5, 1.7, 1]), "integers"),
    ([0, 1.0, 0], "integers"),
])
def test_configuration_refuses_cells_it_cannot_hold(cells, match):
    # A cast to uint8 would wrap 256 to 0 and -255 to 1, and truncate 1.7.
    with pytest.raises(ValueError, match=match):
        Configuration(cells)


def test_configuration_keeps_every_cell_it_can_hold():
    for cells in (np.array([0, 255, 1]), np.array([True, False, True]), [0, 1, 2]):
        assert Configuration(cells).cells.tolist() == np.asarray(cells, dtype=int).tolist()


def test_evolve_shape_and_replay():
    rows = evolve(rule_from_number(90), row("0001000"), 7)
    assert rows.shape == (8, 7) and rows.dtype == np.uint8
    assert rows.shape[-1] == 7
    assert rows.tolist() == ref_evolve(90, [0, 0, 0, 1, 0, 0, 0], 7)
    assert not rows.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        rows[0, 0] = 1


def test_evolve_requires_a_transition():
    with pytest.raises(ValueError, match="at least one transition"):
        evolve(rule_from_number(110), row("010"), 0)


def test_identity_rule_freezes():
    rows = evolve(rule_from_number(204), row("011010"), 5)
    assert np.array_equal(rows, np.tile(rows[0], (6, 1)))


def test_complement_rule_alternates():
    rows = evolve(rule_from_number(51), row("011010"), 4)
    assert np.array_equal(rows[1], 1 - rows[0])
    assert np.array_equal(rows[2], rows[0])


def test_clear_rule_blanks():
    rows = evolve(rule_from_number(0), row("111"), 3)
    assert rows[1:].sum() == 0


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
    rows = evolve(GAME_OF_LIFE, Configuration(glider(8)), 4)
    assert rows.shape == (5, 8, 8) and rows.shape[-1] == 8
    assert np.array_equal(rows[4], np.roll(np.roll(rows[0], 1, 0), 1, 1))
    assert rows.tolist() == ref_life_evolve(glider(8).tolist(), 4, born={3}, survives={2, 3})


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
    rows = evolve(rule_from_number(110), row("010"), 2)
    assert rows.shape == (3, 3)
    grid = Configuration(np.zeros((4, 4), dtype=np.uint8))
    grids = evolve(GAME_OF_LIFE, grid, 2)
    assert grids.shape == (3, 4, 4)
    assert grids.dtype == np.uint8 and GAME_OF_LIFE.k == 2
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
        rows = evolve(GAME_OF_LIFE, Configuration(cells), 15)
        ref = ref_life_evolve(cells.tolist(), 15, born={3}, survives={2, 3})
        assert rows.tolist() == ref


def test_life_matches_naive_reference_on_the_glider():
    rows = evolve(GAME_OF_LIFE, Configuration(glider(7)), 40)
    assert rows.tolist() == ref_life_evolve(glider(7).tolist(), 40, born={3}, survives={2, 3})


def test_inert_life_rules_match_naive_reference():
    rng = np.random.default_rng(5)
    cells = rng.integers(0, 2, size=(8, 11), dtype=np.uint8)
    for rule in INERT_LIFE:
        rows = evolve(rule, Configuration(cells), 6)
        ref = ref_life_evolve(cells.tolist(), 6, born=rule.born, survives=rule.survives)
        assert rows.tolist() == ref


def test_fixed_boundary_matches_naive_reference():
    rng = np.random.default_rng(13)
    for _ in range(40):
        number = int(rng.integers(256))
        cells = rng.integers(0, 2, size=int(rng.integers(1, 30)), dtype=np.uint8)
        rows = evolve(rule_from_number(number), Configuration(cells, boundary=FIXED), 20)
        assert rows.tolist() == ref_evolve(number, cells.tolist(), 20, boundary="fixed")


def test_batch_rows_are_the_members_runs():
    rng = np.random.default_rng(17)
    rules = [rule_from_number(int(n)) for n in rng.integers(256, size=5)]
    cells = rng.integers(0, 2, size=(5, 23), dtype=np.uint8)
    batch = evolve_batch(rules, cells, CYCLIC, 12)
    assert batch.rows.shape == (5, 13, 23)
    for rule, init, rows in zip(rules, cells, batch.rows):
        assert rows.tolist() == evolve(rule, Configuration(init), 12).tolist()


def test_batch_rejects_mixed_kinds_and_shapes():
    rows, grids = np.zeros((2, 9), dtype=np.uint8), np.zeros((2, 3, 3), np.uint8)
    with pytest.raises(ValueError, match="one kind"):
        evolve_batch([rule_from_number(30), rule_from_number(5, k=3, r=1)], rows, CYCLIC, 2)
    with pytest.raises(ValueError, match="one kind"):
        evolve_batch([rule_from_number(30), rule_from_number(30, r=2)], rows, CYCLIC, 2)
    with pytest.raises(ValueError, match="1-D rows only"):
        evolve_batch([rule_from_number(30), rule_from_number(30)], grids, CYCLIC, 2)
    with pytest.raises(ValueError, match="pairs one system"):
        evolve_batch([GAME_OF_LIFE], grids, CYCLIC, 2)
    with pytest.raises(ValueError, match="pairs one system"):
        evolve_batch([rule_from_number(30)] * 3, rows, CYCLIC, 2)
    with pytest.raises(ValueError, match=">= 1 system"):
        evolve_batch([], rows[:0], CYCLIC, 2)
    with pytest.raises(ValueError, match="unknown boundary"):
        evolve_batch([rule_from_number(30)] * 2, rows, "wrapped", 2)
    coloured = rows.copy()
    coloured[1, 4] = 2
    with pytest.raises(ValueError, match="colours"):
        evolve_batch([rule_from_number(30)] * 2, coloured, CYCLIC, 2)


@pytest.mark.parametrize("dtype", [np.float16, np.float64, object])
def test_batch_refuses_cells_that_are_not_integers(dtype):
    # The cast to uint8 would truncate 0.5 to 0 and 1.7 to 1. Whole
    # values are refused too: the dtype decides, not the values.
    for values in ([[0.5, 1.7, 1.0]], [[0.0, 1.0, 1.0]]):
        with pytest.raises(ValueError, match="integer colours"):
            evolve_batch([rule_from_number(204)], np.array(values).astype(dtype), CYCLIC, 1)


def test_batch_takes_bool_cells():
    cells = np.array([[False, True, True]])
    rows = evolve_batch([rule_from_number(204)], cells, CYCLIC, 1).rows[0]
    assert rows.tolist() == [[0, 1, 1], [0, 1, 1]]


def ref_run(system, config: Configuration, t: int) -> list:
    """The naive reference's space-time array of one Life or ECA run."""
    cells = config.cells.tolist()
    if isinstance(system, LifeRule):
        return ref_life_evolve(cells, t, born=system.born, survives=system.survives)
    return ref_evolve(system.number, cells, t, boundary=config.boundary)


def random_rows(count: int, width: int, seed: int, boundary: str = CYCLIC) -> list:
    rng = np.random.default_rng(seed)
    return [Configuration(rng.integers(0, 2, size=width, dtype=np.uint8), boundary=boundary)
            for _ in range(count)]


def life_grids(*patterns) -> list:
    """Each pattern's (row, column) cells live in a 6x6 torus."""
    grids = []
    for pattern in patterns:
        cells = np.zeros((6, 6), dtype=np.uint8)
        for i, j in pattern:
            cells[i, j] = 1
        grids.append(Configuration(cells))
    return grids


BLINKER = ((2, 1), (2, 2), (2, 3))
BLOCK = ((1, 1), (1, 2), (2, 1), (2, 2))


def eca(*numbers) -> list:
    return [rule_from_number(number) for number in numbers]


# (systems, initial configurations, t, steps the engine takes). A step
# count below t means the chunk settled: every run back at its state of
# two steps before.
SETTLING_CASES = {
    # 204 copies every cell, so the run is still from the start.
    "rule-204": lambda: (eca(204), random_rows(1, 13, 9), 9, 1),
    # 0 blanks the row at once, and a blank row repeats from step 1 on.
    "rule-0": lambda: (eca(0), random_rows(1, 13, 10), 9, 3),
    # 51 complements every cell, so the run alternates from the start.
    "rule-51": lambda: (eca(51), random_rows(1, 13, 1), 9, 2),
    # 204 is still at once; 0 and 255 reach their fixed point after one step.
    "inert-eca": lambda: (eca(*INERT_ECA), random_rows(4, 13, 2), 200, 3),
    "inert-life": lambda: (INERT_LIFE, [Configuration(glider(9))] * 2, 200, 3),
    "blinker-and-block": lambda: ([GAME_OF_LIFE] * 2, life_grids(BLINKER, BLOCK), 9, 2),
    # 110 never repeats on this row, so neither does the chunk, whatever 0 does.
    "110-beside-0": lambda: (eca(110, 0), random_rows(2, 31, 4), 200, 200),
    "110-alone": lambda: (eca(110), random_rows(1, 31, 4), 200, 200),
    # Rule 0 is back at its state of two steps before at step 3.
    "settles-at-the-final-step": lambda: (eca(0, 204), random_rows(2, 13, 5), 3, 3),
    "t-1": lambda: (eca(*INERT_ECA), random_rows(4, 13, 6), 1, 1),
    "t-2": lambda: (eca(*INERT_ECA), random_rows(4, 13, 7), 2, 2),
    "fixed": lambda: (eca(*INERT_ECA), random_rows(4, 13, 8, FIXED), 9, 3),
}


def stacked(inits: list) -> tuple:
    """The cells and the boundary of a batch of configurations."""
    return np.stack([init.cells for init in inits]), inits[0].boundary


@pytest.mark.parametrize("case", SETTLING_CASES)
def test_settled_batch_stops_stepping_and_stays_exact(step_calls, case):
    systems, inits, t, steps = SETTLING_CASES[case]()
    batch = evolve_batch(systems, *stacked(inits), t)
    assert len(step_calls) == steps
    for system, init, rows in zip(systems, inits, batch.rows):
        assert rows.tolist() == ref_run(system, init, t)


def test_a_run_settles_at_every_row_of_a_slab(step_calls):
    # Rule 128 keeps only the middle cells of 111, so a block of L ones
    # dies after ceil(L / 2) steps and the run settles two steps later:
    # as L grows, at every row of a slab.
    t = 3 * engine.SLAB_ROWS
    ends = set()
    for length in range(1, 2 * engine.SLAB_ROWS + 4):
        step_calls.clear()
        cells = [1] * length + [0] * 3
        rows = evolve(rule_from_number(128), Configuration(cells), t)
        assert rows.tolist() == ref_evolve(128, cells, t)
        assert len(step_calls) == -(-length // 2) + 2
        ends.add(len(step_calls) % engine.SLAB_ROWS)
    assert ends == set(range(engine.SLAB_ROWS))


def test_a_settled_run_stops_stepping_at_its_settle_step(step_calls):
    # 204 is still from step 1 on and 0 is back at its state of two steps
    # before at step 3; 110 never repeats on this row. Each of the two
    # retires at the step it settles, whatever the slab, and 110 steps
    # all the way.
    systems, inits, t = eca(110, 0, 204), random_rows(3, 31, 4), 64
    batch = evolve_batch(systems, *stacked(inits), t)
    assert step_calls == [3, 2, 2] + [1] * (t - 3)
    for system, init, rows in zip(systems, inits, batch.rows):
        assert rows.tolist() == ref_run(system, init, t)


def test_packing_does_not_grow_with_retirements(step_calls, monkeypatch):
    # Rule 128 kills a block of L ones in ceil(L / 2) steps and the run
    # settles two steps later: here at steps 3, 17 and 33, in three slabs,
    # while 110 steps to t. Every slab is packed once, for every run.
    packs = []
    pack_rows = engine.pack_rows

    def counting(*args):
        packs.append(len(args[0]))
        return pack_rows(*args)

    monkeypatch.setattr(engine, "pack_rows", counting)
    width, t = 70, 4 * engine.SLAB_ROWS + 6
    inits = [Configuration([1] * length + [0] * (width - length)) for length in (2, 30, 62)]
    inits += random_rows(1, width, 4)
    systems = eca(128, 128, 128, 110)
    batch = evolve_batch(systems, *stacked(inits), t)
    assert step_calls == [4] * 3 + [3] * 14 + [2] * 16 + [1] * (t - 33)
    assert packs == [len(systems)] * -(-(t + 1) // engine.SLAB_ROWS)
    for system, init, rows in zip(systems, inits, batch.rows):
        assert rows.tolist() == ref_run(system, init, t)
    # Without 110 the last run retires at step 33, in the third slab: the
    # 9 whole slabs after it take one pack of the cycles, and the short
    # last slab one more.
    packs.clear()
    batch = evolve_batch(systems[:3], *stacked(inits[:3]), 12 * engine.SLAB_ROWS)
    assert packs == [3] * 5
    for system, init, rows in zip(systems, inits, batch.rows):
        assert rows.tolist() == ref_run(system, init, 12 * engine.SLAB_ROWS)


def test_retired_runs_are_written_without_a_second_slab(step_calls):
    # 204, 51 and 0 retire at steps 1, 2 and 3, and 110 steps to t. The
    # retired runs' rows of the slab stay in place, filled with their
    # cycle, and each of the 63 slabs is packed once for all four runs:
    # no second slab (64 KiB here) and no tiled copy of the later slabs
    # (366 KiB) is allocated on the way.
    runs, width, t = 4, 1024, 1000
    systems = eca(110, 0, 204, 51)
    cells = np.random.default_rng(0).integers(0, 2, size=(runs, width), dtype=np.uint8)
    evolve_batch(systems, cells, CYCLIC, 2)
    tracemalloc.start()
    try:
        batch = evolve_batch(systems, cells, CYCLIC, t)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert step_calls[-1] == 1
    packed = runs * packed_size((t + 1) * width, 2)
    # The states, the settle check and one step's temporaries take about
    # 11 bytes per cell of a batch state.
    assert peak < packed + runs * engine.SLAB_ROWS * width + 16 * runs * width
    for system, init, rows in zip(systems, cells, batch.rows):
        assert rows.tolist() == ref_run(system, Configuration(init), t)


def test_runs_that_retire_together_are_written_in_place(step_calls):
    # No run settles, so all four retire at step t together: their last
    # slab and their rows are written from the slab itself, with no copy of
    # it (16 KiB per run here).
    runs, width, t = 4, 1024, 1000
    systems = eca(110, 30, 45, 110)
    cells = np.random.default_rng(0).integers(0, 2, size=(runs, width), dtype=np.uint8)
    evolve_batch(systems, cells, CYCLIC, 2)
    step_calls.clear()
    tracemalloc.start()
    try:
        batch = evolve_batch(systems, cells, CYCLIC, t)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert step_calls == [runs] * t
    packed = runs * packed_size((t + 1) * width, 2)
    assert peak < packed + runs * engine.SLAB_ROWS * width + 16 * runs * width
    for system, init, rows in zip(systems, cells, batch.rows):
        assert rows.tolist() == ref_run(system, Configuration(init), t)


# Rules whose runs settle, after a transient or at once, next to rules
# whose runs mostly never do.
SETTLING_ECA = (*INERT_ECA, 4, 8, 128, 136, 160, 232)


# step_calls is cleared at the start of every example.
@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data(), life=st.booleans(), t=st.integers(1, 3 * engine.SLAB_ROWS + 5),
       boundary=st.sampled_from([CYCLIC, FIXED]))
def test_batch_matches_reference_whether_or_not_it_settles(step_calls, data, life, t, boundary):
    if life:
        systems = data.draw(st.lists(st.sampled_from((GAME_OF_LIFE, *INERT_LIFE)),
                                     min_size=1, max_size=4))
        shape = (data.draw(st.integers(1, 7)), data.draw(st.integers(1, 7)))
        boundary = CYCLIC
    else:
        systems = eca(*data.draw(st.lists(
            st.one_of(st.sampled_from(SETTLING_ECA), st.integers(0, 255)), min_size=1, max_size=6)))
        shape = (data.draw(st.integers(1, 16)),)
    size = int(np.prod(shape))
    inits = []
    for _ in systems:
        bits = data.draw(st.lists(st.integers(0, 1), min_size=size, max_size=size))
        inits.append(Configuration(np.array(bits, dtype=np.uint8).reshape(shape), boundary=boundary))
    step_calls.clear()
    batch = evolve_batch(systems, *stacked(inits), t)
    # Run b steps until the first s >= 1 whose state equals its state of
    # two steps before (at s = 1, the initial state), and at most t times:
    # step s steps every run whose count is at least s, and the batch
    # reports that count as the run's step.
    settle_steps = []
    for system, init, rows in zip(systems, inits, batch.rows):
        ref = ref_run(system, init, t)
        assert rows.tolist() == ref
        settle_steps.append(next((s for s in range(1, t + 1) if ref[s] == ref[max(s - 2, 0)]), t))
    assert step_calls == [sum(s <= steps for steps in settle_steps)
                          for s in range(1, max(settle_steps) + 1)]
    assert batch.steps.tolist() == settle_steps


@pytest.mark.parametrize("boundary", [CYCLIC, FIXED])
@pytest.mark.parametrize("width", [1, 2, 7])
def test_halo_wider_than_the_row(boundary, width):
    # At r = 3 the neighbourhood of a cell on a row of 1 or 2 cells wraps
    # several times round a cyclic row.
    rng = np.random.default_rng(width)
    systems = [rule_from_number(int.from_bytes(rng.bytes(16), "big"), k=2, r=3) for _ in range(4)]
    inits = [Configuration(rng.integers(0, 2, size=width, dtype=np.uint8), boundary=boundary)
             for _ in systems]
    batch = evolve_batch(systems, *stacked(inits), 10)
    for system, init, rows in zip(systems, inits, batch.rows):
        assert rows.tolist() == ref_ca_evolve(system.number, 2, 3, init.cells.tolist(), 10,
                                              boundary=boundary)


@pytest.mark.parametrize("layout", ["int64", "strided"])
def test_batch_takes_any_integer_layout(step_calls, layout):
    # A batch of int64 cells, or a strided view, runs exactly like its
    # C-contiguous uint8 copy, with as many steps. Rule 0 settles; 110 does not.
    rng = np.random.default_rng(23)
    wide = rng.integers(0, 2, size=(3, 34), dtype=np.int64)
    cells = wide if layout == "int64" else wide.astype(np.uint8)[:, ::2]
    assert cells.dtype != np.uint8 or not cells.flags.c_contiguous
    copy = np.ascontiguousarray(cells, dtype=np.uint8)
    for systems in (eca(0, 0, 0), eca(110, 0, 30)):
        step_calls.clear()
        rows = evolve_batch(systems, cells, CYCLIC, 16).rows
        steps = len(step_calls)
        step_calls.clear()
        assert rows.tolist() == evolve_batch(systems, copy, CYCLIC, 16).rows.tolist()
        assert steps == len(step_calls)


# k = 3, r = 1 rules that settle: 0 blanks the row, and the identity
# keeps the middle digit of every neighbourhood.
SETTLING_K3 = (0, sum((v // 3) % 3 * 3 ** v for v in range(27)))


@settings(max_examples=60, deadline=None)
@given(data=st.data(), kind=st.sampled_from(["eca", "k3", "life"]), settles=st.booleans(),
       t=st.integers(2, 24))
def test_a_run_continues_from_its_last_state(data, kind, settles, t):
    """Evolving t steps equals evolving t1 steps, then t - t1 more from
    the last state with the first row of that second part dropped. When
    the batch settles, it does so inside the first part, so the early stop
    lies between the parts."""
    if settles:
        t = max(t, 5)
    t1 = data.draw(st.integers(4 if settles else 1, t - 1))
    k, boundary = 2, data.draw(st.sampled_from([CYCLIC, FIXED]))
    if kind == "life":
        pool = INERT_LIFE if settles else (GAME_OF_LIFE, *INERT_LIFE)
        systems = data.draw(st.lists(st.sampled_from(pool), min_size=1, max_size=4))
        shape = (data.draw(st.integers(1, 7)), data.draw(st.integers(1, 7)))
        boundary = CYCLIC
    elif kind == "eca":
        numbers = st.sampled_from(INERT_ECA) if settles else st.integers(0, 255)
        systems = eca(*data.draw(st.lists(numbers, min_size=1, max_size=6)))
        shape = (data.draw(st.integers(1, 16)),)
    else:
        k = 3
        numbers = st.sampled_from(SETTLING_K3) if settles else st.integers(0, 3 ** 27 - 1)
        systems = [rule_from_number(number, k=3) for number in
                   data.draw(st.lists(numbers, min_size=1, max_size=4))]
        shape = (data.draw(st.integers(1, 16)),)
    size = len(systems) * int(np.prod(shape))
    digits = data.draw(st.lists(st.integers(0, k - 1), min_size=size, max_size=size))
    cells = np.array(digits, dtype=np.uint8).reshape(len(systems), *shape)
    whole = evolve_batch(systems, cells, boundary, t).rows
    first = evolve_batch(systems, cells, boundary, t1).rows
    if settles:
        assert first[:, 3].tolist() == first[:, 1].tolist()
    rest = evolve_batch(systems, first[:, -1], boundary, t - t1).rows
    assert np.concatenate([first, rest[:, 1:]], axis=1).tolist() == whole.tolist()


@settings(max_examples=80, deadline=None)
@given(data=st.data(), kind=st.sampled_from(["r1", "r2", "k3", "life"]), t=st.integers(1, 40),
       boundary=st.sampled_from([CYCLIC, FIXED]))
def test_table_lookup_matches_reference(data, kind, t, boundary):
    """Binary rules and Life look their tables up by bitmask, k = 3 by
    gather; either way the runs equal the naive reference, across slabs."""
    count = data.draw(st.integers(1, 4))
    if kind == "life":
        counts = st.frozensets(st.integers(0, 8))
        systems = [LifeRule(born=data.draw(counts), survives=data.draw(counts))
                   for _ in range(count)]
        shape, boundary = (data.draw(st.integers(1, 6)), data.draw(st.integers(1, 6))), CYCLIC
    else:
        k, r = (3, 1) if kind == "k3" else (2, int(kind[1]))
        numbers = st.integers(0, k ** k ** (2 * r + 1) - 1)
        systems = [rule_from_number(data.draw(numbers), k=k, r=r) for _ in range(count)]
        shape = (data.draw(st.integers(1, 16)),)
    size = count * int(np.prod(shape))
    digits = data.draw(st.lists(st.integers(0, systems[0].k - 1), min_size=size, max_size=size))
    cells = np.array(digits, dtype=np.uint8).reshape(count, *shape)
    for system, init, rows in zip(systems, cells, evolve_batch(systems, cells, boundary, t).rows):
        if kind == "life":
            ref = ref_life_evolve(init.tolist(), t, born=system.born, survives=system.survives)
        else:
            ref = ref_ca_evolve(system.number, system.k, system.r, init.tolist(), t,
                                boundary=boundary)
        assert rows.tolist() == ref
