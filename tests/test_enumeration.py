import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    return ["".join(str(c) for c in m.cells) for m in family.members]


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
    assert fam.members[0].cells.sum() == 0
    assert len({m.cells.tobytes() for m in fam.members}) == fam.n


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
    mean = np.mean([m.cells.mean() for m in fam.members])
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
    # patches are 2-D configurations on the torus
    assert all(isinstance(m, Configuration) and m.boundary == "cyclic" for m in fam2.members)
    # The family holds its cells once: one read-only stack, of which each
    # member's cells are a row.
    for family in (fam, fam2, random_initials(5, 12, seed=2)):
        assert family.cells.shape == (family.n, *family.members[0].cells.shape)
        assert family.cells.dtype == np.uint8 and not family.cells.flags.writeable
        assert all(np.shares_memory(m.cells, family.cells) for m in family.members)
        assert [m.cells.tolist() for m in family.members] == family.cells.tolist()


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
    assert [m.cells.tolist() for m in family.members] == expected


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
    # A family has one boundary, so every measurement of it runs under it.
    with pytest.raises(ValueError, match="boundary"):
        InputFamily(members=(a, Configuration([0, 1, 1], boundary=FIXED)), scheme=CUSTOM)


def test_gray_scheme_enforces_minimal_change():
    jump = (Configuration([0, 0]), Configuration([1, 1]))
    with pytest.raises(ValueError, match="exactly one"):
        InputFamily(members=jump, scheme="gray")
