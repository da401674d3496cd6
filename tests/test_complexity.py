"""Tests for cell packing and compressed-size measurement."""

import zlib

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from caprog.complexity import (
    COMPRESSOR_ID,
    STREAM_BYTES,
    compressed_size,
    pack_cells,
    packed_size,
    prefix_sizes,
)
from caprog.engine import evolve, rule_from_number
from caprog.enumeration import gray_initials

from reference import ref_unpack


def cells(bits: str) -> np.ndarray:
    return np.array([int(b) for b in bits], dtype=np.uint8)


def run_payload(number: int, init: np.ndarray, t: int, include_input: bool = True) -> bytes:
    """Packed cells of one run: every row, or rows 1..t without the input."""
    rows = evolve(rule_from_number(number), init, t)
    return pack_cells((rows if include_input else rows[1:]).ravel(), 2)


def run_bits(number: int, init: np.ndarray, t: int, include_input: bool = True) -> int:
    return compressed_size(run_payload(number, init, t, include_input))


class TestPacking:
    def test_zero_row_packs_to_zero_byte(self):
        assert pack_cells(cells("00000000"), 2) == b"\x00"

    def test_msb_first_bit_order(self):
        assert pack_cells(cells("10000000"), 2) == b"\x80"

    def test_partial_byte_padded_on_the_right(self):
        # 4 ones in the high nibble, low nibble is padding
        assert pack_cells(cells("1111"), 2) == b"\xf0"

    def test_k3_uses_a_byte_per_cell(self):
        arr = np.array([0, 1, 2, 1], dtype=np.uint8)
        assert pack_cells(arr, 3) == b"\x00\x01\x02\x01"

    def test_stream_packing_crosses_row_boundaries(self):
        # Two 4-cell rows share one byte: 1010 0101 -> 0xA5.  A per-row
        # layout would pad each row to its own byte instead.
        rows = np.array([[1, 0, 1, 0], [0, 1, 0, 1]], dtype=np.uint8)
        assert pack_cells(rows.ravel(), 2) == b"\xa5"

    @given(
        height=st.integers(min_value=1, max_value=6),
        width=st.integers(min_value=1, max_value=40),
        k=st.sampled_from([2, 3, 5]),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    @settings(max_examples=60, deadline=None)
    def test_pack_unpack_roundtrip(self, height, width, k, seed):
        rng = np.random.default_rng(seed)
        arr = rng.integers(0, k, size=(height, width), dtype=np.uint8)
        flat = arr.ravel()
        payload = pack_cells(flat, k)
        back = ref_unpack(payload, flat.size) if k == 2 else list(payload)
        assert back == flat.tolist()
        assert len(payload) == packed_size(flat.size, k)

    @given(
        size=st.integers(min_value=1, max_value=60),
        k=st.sampled_from([2, 3]),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    @settings(max_examples=60, deadline=None)
    def test_prefix_of_a_payload_packs_the_prefix(self, size, k, seed):
        rng = np.random.default_rng(seed)
        flat = rng.integers(0, k, size=size, dtype=np.uint8)
        counts = tuple(range(size + 1))
        assert prefix_sizes(pack_cells(flat, k), counts, k) == tuple(
            compressed_size(pack_cells(flat[:count], k)) for count in counts
        )

    @given(
        row=st.one_of(st.integers(1, 5).map(lambda m: 8 * m), st.integers(1, 40)),
        rows=st.integers(1, 6),
        k=st.sampled_from([2, 3]),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    @settings(max_examples=60, deadline=None)
    def test_cells_of_a_payload_pack_those_cells(self, row, rows, k, seed):
        # Every prefix of a run, as bytes or as a view of a packed array.
        rng = np.random.default_rng(seed)
        flat = rng.integers(0, k, size=row * rows, dtype=np.uint8)
        payload = pack_cells(flat, k)
        counts = tuple(range(flat.size + 1))
        expected = tuple(compressed_size(pack_cells(flat[:count], k)) for count in counts)
        for given in (payload, memoryview(np.frombuffer(payload, dtype=np.uint8))):
            assert prefix_sizes(given, counts, k) == expected

    def test_bits_per_cell(self):
        # One bit per cell for k=2, one byte per cell for any k > 2.
        flat = np.zeros(17, dtype=np.uint8)
        assert len(pack_cells(flat, 2)) == 3
        for k in (3, 4, 5):
            assert len(pack_cells(flat, k)) == 17


class TestCompressedSize:
    def test_compressor_id_pins_algorithm_and_level(self):
        assert COMPRESSOR_ID.startswith("deflate/zlib-")
        assert COMPRESSOR_ID.endswith("/level9")

    def test_empty_payload_size(self):
        assert compressed_size(b"") == 64

    def test_all_zero_payload_size(self):
        assert compressed_size(b"\x00" * 4096) == 208

    def test_incompressible_payload_size(self):
        rng = np.random.default_rng(20260822)
        payload = rng.integers(0, 256, size=4096, dtype=np.uint8).tobytes()
        size = compressed_size(payload)
        assert size == 32856
        # random bytes must not compress below raw size minus 1%
        assert size >= 8 * 4096 - 327

    def test_deterministic(self):
        payload = b"abcdef" * 100
        assert compressed_size(payload) == compressed_size(payload)

    def test_matches_zlib_level_9_directly(self):
        payload = bytes(range(256)) * 3
        assert compressed_size(payload) == len(zlib.compress(payload, 9)) * 8

    @given(
        size=st.integers(min_value=1, max_value=3 * STREAM_BYTES),
        loose=st.integers(min_value=0, max_value=7),
        k=st.sampled_from([2, 3]),
        density=st.sampled_from([0.02, 0.5]),
        seed=st.integers(min_value=0, max_value=2**31),
        picks=st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=16),
    )
    # Payloads one byte short of STREAM_BYTES compress each prefix
    # afresh, and those of STREAM_BYTES stream.
    @example(size=STREAM_BYTES - 1, loose=3, k=2, density=0.5, seed=1, picks=[0.5])
    @example(size=STREAM_BYTES, loose=3, k=2, density=0.5, seed=1, picks=[0.5])
    @example(size=STREAM_BYTES - 1, loose=0, k=3, density=0.02, seed=2, picks=[0.3])
    @example(size=STREAM_BYTES, loose=0, k=3, density=0.02, seed=2, picks=[0.3])
    @settings(max_examples=60, deadline=None)
    def test_streamed_prefix_sizes_match_one_shot(self, size, loose, k, density, seed, picks):
        # Payloads of up to 3 * STREAM_BYTES bytes, so on both sides of the
        # size at which prefix_sizes switches to streaming; sparse cells
        # give long matches, dense ones few. Each size is checked against
        # its definition: the prefix's cells packed afresh and compressed.
        rng = np.random.default_rng(seed)
        cells = max(1, 8 * size - loose) if k == 2 else size
        live = rng.random(cells) < density
        flat = live * rng.integers(1, k, size=cells, dtype=np.uint8)
        counts = tuple(sorted({max(1, round(p * cells)) for p in picks} | {cells}))
        assert prefix_sizes(pack_cells(flat, k), counts, k) == tuple(
            compressed_size(pack_cells(flat[:count], k)) for count in counts
        )

    @pytest.mark.parametrize("counts", [
        (1,),
        (8 * STREAM_BYTES - 3,),
        tuple(range(3, 20)),  # several prefixes end inside one byte
        (5, 13, 8 * STREAM_BYTES + 1, 16 * STREAM_BYTES - 1),
    ])
    def test_streamed_prefix_sizes_end_mid_byte(self, counts):
        # A payload of 2 * STREAM_BYTES streams, however short its prefixes.
        rng = np.random.default_rng(11)
        payload = rng.integers(0, 256, size=2 * STREAM_BYTES, dtype=np.uint8).tobytes()
        flat = np.unpackbits(np.frombuffer(payload, dtype=np.uint8))
        assert prefix_sizes(payload, counts, 2) == tuple(
            compressed_size(pack_cells(flat[:count], 2)) for count in counts
        )

    # A run of 0xAA bytes, one 0xAB, then 50 more 0xAA: 951 B compress
    # each prefix afresh, 9,051 B stream.
    @pytest.mark.parametrize("lead", [900, 9000], ids=["one-shot", "streamed"])
    def test_prefix_masks_cells_past_the_prefix(self, lead):
        # The prefix ends one cell short of the single 0xAB byte. Masked,
        # that byte continues the run of 0xAA; unmasked, it would be a new
        # literal and compress larger.
        payload = b"\xaa" * lead + b"\xab" + b"\xaa" * 50
        (size,) = prefix_sizes(payload, (8 * (lead + 1) - 1,), 2)
        assert size == compressed_size(b"\xaa" * (lead + 1)) < compressed_size(payload[:lead + 1])

    def test_zero_grid_strictly_below_random_grid(self):
        rng = np.random.default_rng(7)
        zeros = np.zeros((64, 64), dtype=np.uint8)
        noise = rng.integers(0, 2, size=(64, 64), dtype=np.uint8)
        c_zero = compressed_size(pack_cells(zeros.ravel(), 2))
        c_rand = compressed_size(pack_cells(noise.ravel(), 2))
        assert c_zero < c_rand


class TestRunPayload:
    def test_run_payload_streams_rows_together(self):
        rows = evolve(rule_from_number(204), cells("1010"), 1)
        # rows are [1010],[1010]; streamed they fill one byte 0xAA
        assert pack_cells(rows.ravel(), 2) == b"\xaa"

    def test_roundtrip_through_unpacking(self):
        rule = rule_from_number(110)
        rows = evolve(rule, gray_initials(8, 21).cells[5], 13)
        payload = pack_cells(rows.ravel(), rule.k)
        assert ref_unpack(payload, rows.size) == rows.ravel().tolist()

    @given(
        number=st.integers(min_value=0, max_value=255),
        t=st.integers(min_value=1, max_value=12),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=40, deadline=None)
    def test_roundtrip_property(self, number, t, seed):
        rng = np.random.default_rng(seed)
        init = rng.integers(0, 2, size=17, dtype=np.uint8)
        rows = evolve(rule_from_number(number), init, t)
        assert ref_unpack(pack_cells(rows.ravel(), 2), rows.size) == rows.ravel().tolist()


class TestEvolutionComplexity:
    def test_raw_bits_counts_every_cell(self):
        init = gray_initials(8, 21).cells[3]
        # 11 rows of 21 cells, 8 cells per byte, last byte padded
        assert len(run_payload(110, init, 10)) == -(-11 * 21 // 8)

    def test_include_input_toggles_first_row(self):
        init = gray_initials(8, 21).cells[3]
        with_input = run_payload(110, init, 10)
        without = run_payload(110, init, 10, include_input=False)
        # Switching the input off drops exactly the first 21 cells.
        all_cells = ref_unpack(with_input, 11 * 21)
        assert ref_unpack(without, 10 * 21) == all_cells[21:]

    def test_overhead_bound_holds_on_small_grids(self):
        # Framing plus block headers stay under 512 bits for payloads up to
        # one DEFLATE stored-block span (64 KiB).
        for number in (0, 30, 110, 255):
            init = gray_initials(8, 21).cells[2]
            assert run_bits(number, init, 8) <= 9 * 21 + 512

    def test_blank_evolution_compresses_sublinearly(self):
        # rule 0 wipes everything after one step, so doubling the depth
        # should barely move the compressed size
        init = gray_initials(40, 61).cells[9]
        short = run_bits(0, init, 8)
        deep = run_bits(0, init, 64)
        assert short == 128
        assert deep == 144
        assert deep < 2 * short

    def test_all_ones_rows_differ_by_bounded_framing(self):
        # rule 255 saturates after the first step; adjacent gray inputs then
        # produce evolutions whose compressed sizes differ only through the
        # first row plus a small container margin
        fam = gray_initials(40, 61)
        for t in (8, 50, 200):
            for j in (0, 17, 38):
                a, b = fam.cells[j], fam.cells[j + 1]
                d_full = abs(run_bits(255, a, t) - run_bits(255, b, t))
                d_row = abs(
                    compressed_size(pack_cells(a, 2))
                    - compressed_size(pack_cells(b, 2))
                )
                assert d_full <= d_row + 16
