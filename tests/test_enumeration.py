import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from caprog import engine
from caprog.cli import main
from caprog.engine import FIXED, Configuration
from caprog.enumeration import (
    CUSTOM,
    InputFamily,
    gray_code,
    gray_initials,
    gray_patches,
    random_initials,
)

from reference import ref_gray_members, ref_gray_patches


def patterns(family) -> list[str]:
    return ["".join(str(c) for c in cells) for cells in family.cells]


def test_gray_code_sequence():
    assert [gray_code(j) for j in range(8)] == [0, 1, 3, 2, 6, 7, 5, 4]


def test_small_families_match_hand_enumeration():
    assert patterns(gray_initials(4, 2)) == ["00", "01", "11", "10"]
    assert patterns(gray_initials(2, 1)) == ["0", "1"]
    assert patterns(gray_initials(8, 3)) == [
        "000", "001", "011", "010", "110", "111", "101", "100",
    ]


def test_centring_is_left_biased():
    # Core width 1 inside width 4: margins split 1 left, 2 right.
    assert patterns(gray_initials(2, 4)) == ["0000", "0100"]


def test_first_member_blank_and_all_distinct():
    fam = gray_initials(33, 12)
    assert fam.cells[0].sum() == 0
    assert len({cells.tobytes() for cells in fam.cells}) == fam.n


def test_consecutive_hamming_distance_is_one():
    for n in (2, 3, 17, 64):
        fam = gray_initials(n, 11)
        assert (np.abs(np.diff(fam.cells.astype(int), axis=0)).sum(axis=1) == 1).all()


def test_width_validation():
    with pytest.raises(ValueError, match="width"):
        gray_initials(40, 5)  # 40 members need 6 pattern bits
    with pytest.raises(ValueError):
        gray_initials(1, 8)


def test_random_families_are_seed_deterministic():
    a = random_initials(12, 40, seed=5)
    b = random_initials(12, 40, seed=5)
    assert patterns(a) == patterns(b)
    assert patterns(a) != patterns(random_initials(12, 40, seed=6))
    assert a.width == 40


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 12), width=st.integers(1, 300),
       density=st.floats(0.01, 0.99))
def test_random_family_is_n_sequential_row_draws(seed, n, width, density):
    # One (n, width) draw from the stream equals n draws of one row each,
    # so a seed names one family however its rows are drawn.
    rng = np.random.default_rng(seed)
    rows = [(rng.random(width) < density).astype(np.uint8) for _ in range(n)]
    if len({row.tobytes() for row in rows}) < n:
        with pytest.raises(ValueError, match="distinct"):
            random_initials(n, width, seed=seed, density=density)
        return
    family = random_initials(n, width, seed=seed, density=density)
    assert np.array_equal(family.cells, np.stack(rows))


def test_random_density_band():
    fam = random_initials(250, 40, seed=41)
    mean = np.mean([cells.mean() for cells in fam.cells])
    assert 0.47 <= mean <= 0.53


def test_random_density_validation():
    with pytest.raises(ValueError, match="density"):
        random_initials(4, 10, seed=1, density=0.0)
    with pytest.raises(ValueError):
        random_initials(4, 10, seed=1, density=1.0)


def test_descriptors():
    assert gray_initials(40, 61).descriptor == "gray(n=40,W61)"
    r = random_initials(12, 40, seed=7).descriptor
    assert r.startswith("random(n=12,W40") and "seed=7" in r
    assert gray_patches(16, 32, 32).descriptor == "gray(n=16,32x32)"


def test_family_shape_properties():
    fam = gray_initials(6, 9)
    assert (fam.n, fam.width, fam.height) == (6, 9, None)
    fam2 = gray_patches(8, 20, 24)
    assert (fam2.n, fam2.width, fam2.height) == (8, 24, 20)
    # patches are 2-D grids on the torus
    assert fam2.cells.ndim == 3 and fam2.boundary == "cyclic"
    # The family holds its cells once, as one read-only uint8 stack.
    for family, shape in ((fam, (9,)), (fam2, (20, 24)), (random_initials(5, 12, seed=2), (12,))):
        assert family.cells.shape == (family.n, *shape)
        assert family.cells.dtype == np.uint8 and not family.cells.flags.writeable


def test_patches_are_centred_and_minimal_change():
    fam = gray_patches(16, 32, 32)
    stacked = fam.cells.astype(int)
    assert (np.abs(np.diff(stacked, axis=0)).sum(axis=(1, 2)) == 1).all()
    # 4 pattern bits fill a 2x2 patch at the centre of the grid
    outside = stacked.copy()
    outside[:, 15:17, 15:17] = 0
    assert outside.sum() == 0
    second = np.zeros((32, 32), dtype=int)
    second[16, 16] = 1  # gray_code(1) = 0001, row-major
    assert np.array_equal(stacked[1], second)


@pytest.mark.parametrize("n, shape", [
    # rows: odd and even margins, and exact fits (width == pattern bits)
    (2, (4,)), (3, (6,)), (5, (3,)), (20, (12,)), (40, (61,)), (40, (6,)), (512, (61,)),
    # grids: a 5-bit pattern in a 3x3 patch with odd and even margins on
    # non-square grids, and exact fits (height == patch side)
    (2, (2, 3)), (5, (2, 5)), (20, (9, 14)), (20, (20, 24)), (40, (3, 4)), (512, (3, 8)),
    (512, (32, 32)),
])
def test_gray_writer_matches_reference(n, shape):
    if len(shape) == 1:
        family, expected = gray_initials(n, *shape), ref_gray_members(n, *shape)
    else:
        family, expected = gray_patches(n, *shape), ref_gray_patches(n, *shape)
    assert family.cells.tolist() == expected


def test_custom_family_validation():
    a = Configuration([0, 1, 0])
    b = Configuration([0, 1, 1])
    assert InputFamily(members=(a, b), scheme=CUSTOM).boundary == "cyclic"
    with pytest.raises(ValueError, match="distinct"):
        InputFamily(members=(a, a), scheme=CUSTOM)
    with pytest.raises(ValueError, match="needs members"):
        InputFamily(members=(), scheme=CUSTOM)
    with pytest.raises(ValueError, match="shape"):
        InputFamily(members=(a, Configuration([0, 1])), scheme=CUSTOM)
    # A member whose cells do not fit a byte is refused for that, before
    # the cast could wrap it into a duplicate of another member.
    with pytest.raises(ValueError, match="0..255"):
        InputFamily(members=(a, Configuration(np.array([0, 257, 0]))), scheme=CUSTOM)
    with pytest.raises(ValueError, match="unknown boundary"):
        InputFamily(members=(a, b), scheme=CUSTOM, boundary="wrapped")


def test_a_family_holds_its_boundary_once():
    # The builders hand the boundary to the family, which every
    # measurement of it runs under; its members are cells only.
    for family in (gray_initials(4, 9, boundary=FIXED),
                   random_initials(3, 9, seed=1, boundary=FIXED),
                   InputFamily(members=(Configuration([0, 1]),), scheme=CUSTOM, boundary=FIXED)):
        assert family.boundary == FIXED


def test_gray_scheme_enforces_minimal_change():
    jump = (Configuration([0, 0]), Configuration([1, 1]))
    with pytest.raises(ValueError, match="exactly one"):
        InputFamily(members=jump, scheme="gray")


FORMS = ("array", "lists", "configurations")


def members_as(rows: np.ndarray, form: str):
    """The members ``rows`` as one (n, *shape) array, as lists or as rows
    passed through ``Configuration``, as the benchmark builds them."""
    if form == "array":
        return rows
    return rows.tolist() if form == "lists" else [Configuration(row) for row in rows]


@pytest.mark.parametrize("form", FORMS)
@pytest.mark.parametrize("rows, match", [
    # A cast to uint8 would wrap 256 to 0 and -255 to 1, and truncate 1.7.
    (np.array([[0, 1, 0, 0, 0], [0, 256, 1, 0, 0]]), "0..255"),
    (np.array([[0, 1, 0, 0, 0], [0, -255, 1, 0, 0]]), "0..255"),
    (np.array([[0, 1, 0], [0.5, 1.7, 1]]), "integers"),
    (np.array([[0, 1, 0], [0, 1.0, 0]]), "integers"),
    (np.array([0, 1]), "non-empty 1-D row or 2-D grid"),
    (np.zeros((2, 2, 2, 2), dtype=np.uint8), "non-empty 1-D row or 2-D grid"),
    (np.zeros((2, 0), dtype=np.uint8), "non-empty 1-D row or 2-D grid"),
])
def test_a_family_refuses_cells_it_cannot_hold(rows, match, form):
    with pytest.raises(ValueError, match=match):
        InputFamily(members=members_as(rows, form), scheme=CUSTOM)


@pytest.mark.parametrize("form", FORMS)
@pytest.mark.parametrize("rows", [
    np.array([[0, 255, 1], [0, 0, 1]]),
    np.array([[True, False, True], [False, False, True]]),
    np.array([[0, 1, 2], [2, 1, 0]], dtype=np.int64),
    np.array([[[0, 1], [2, 3]], [[3, 2], [1, 0]]], dtype=np.uint16),
])
def test_a_family_keeps_every_cell_it_can_hold(rows, form):
    family = InputFamily(members=members_as(rows, form), scheme=CUSTOM)
    assert family.cells.tolist() == rows.astype(int).tolist()
    assert family.cells.dtype == np.uint8 and not family.cells.flags.writeable
    # The family holds a copy: the caller's array stays writable and its own.
    assert rows.flags.writeable and not np.shares_memory(family.cells, rows)


def test_every_member_form_gives_one_family():
    rows = random_initials(6, 17, seed=3).cells
    families = [InputFamily(members=members_as(rows, form), scheme=CUSTOM) for form in FORMS]
    assert all(np.array_equal(family.cells, rows) for family in families)
    assert not any(hasattr(family, "members") for family in families)


def test_builders_build_no_configuration(tmp_path, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a family builder built a Configuration")

    monkeypatch.setattr(engine, "Configuration", refuse)
    assert gray_initials(40, 61).n == 40
    assert gray_patches(16, 8, 8).n == 16
    assert random_initials(5, 12, seed=2).n == 5
    assert main(["evolve", "--rule", "30", "--input", "0110", "--t", "8",
                 "--out", str(tmp_path / "out")]) == 0
