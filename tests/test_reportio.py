"""Tests for bitmap, CSV, JSON, and manifest I/O."""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import caprog
from caprog.classify import sweep_eca
from caprog.coefficient import measure
from caprog.engine import rule_from_number
from caprog.enumeration import gray_initials
from caprog.reportio import (
    MANIFEST_NAME,
    SCHEMA_COEFFICIENT,
    SCHEMA_CURVE,
    SCHEMA_MANIFEST,
    SCHEMA_SWEEP,
    coefficient_from_obj,
    coefficient_json_obj,
    curve_csv_bytes,
    json_bytes,
    load_manifest,
    pbm_bytes,
    sha256_hex,
    sweep_csv_bytes,
    sweep_json_obj,
    verify_outputs,
    write_outputs,
)

from reference import ref_read_pbm


@pytest.fixture(scope="module")
def one_measurement():
    return measure(rule_from_number(110), gray_initials(6, 15), 32)


@pytest.fixture(scope="module")
def tiny_sweep():
    return sweep_eca(t_max=16, n=4, width=9, workers=1)


class TestPbm:
    def test_header_and_raster_bytes(self):
        arr = np.array([[1, 0, 1, 0], [0, 1, 0, 1]], dtype=np.uint8)
        data = pbm_bytes(arr)
        # per-row padding: each 4-cell row gets its own byte
        assert data == b"P4\n4 2\n\xa0\x50"

    def test_roundtrip_whole_byte_width(self):
        arr = np.eye(8, dtype=np.uint8)
        assert ref_read_pbm(pbm_bytes(arr)) == arr.tolist()

    @given(
        height=st.integers(min_value=1, max_value=9),
        width=st.integers(min_value=1, max_value=20),
        seed=st.integers(min_value=0, max_value=9999),
    )
    @settings(max_examples=50, deadline=None)
    def test_roundtrip_any_width(self, height, width, seed):
        rng = np.random.default_rng(seed)
        arr = rng.integers(0, 2, size=(height, width), dtype=np.uint8)
        assert ref_read_pbm(pbm_bytes(arr)) == arr.tolist()

    def test_rejects_non_binary_cells(self):
        with pytest.raises(ValueError, match="binary"):
            pbm_bytes(np.array([[0, 2]], dtype=np.uint8))

    def test_rejects_wrong_rank(self):
        with pytest.raises(ValueError, match="2-D"):
            pbm_bytes(np.zeros(8, dtype=np.uint8))


class TestJsonAndCsv:
    def test_json_bytes_canonical(self):
        obj = {"b": 1, "a": [1, 2]}
        data = json_bytes(obj)
        assert data == b'{\n  "a": [\n    1,\n    2\n  ],\n  "b": 1\n}\n'
        assert json_bytes(obj) == data

    def test_curve_csv_schema_and_float_fidelity(self, one_measurement):
        _, curve = one_measurement
        text = curve_csv_bytes(curve).decode("utf-8")
        lines = text.strip().split("\n")
        assert lines[0] == f"# schema={SCHEMA_CURVE}"
        assert lines[1] == "t_prime,S"
        assert len(lines) == 2 + len(curve.points)
        for line, (t, value) in zip(lines[2:], curve.points):
            t_text, v_text = line.split(",")
            assert int(t_text) == t
            # repr round-trips the float exactly
            assert float(v_text) == value

    def test_coefficient_json_roundtrip(self, one_measurement):
        res, curve = one_measurement
        obj = json.loads(json_bytes(coefficient_json_obj(res, curve)))
        assert obj["schema"] == SCHEMA_COEFFICIENT
        back = coefficient_from_obj(obj)
        assert back == res
        assert back.c_value == res.c_value
        assert back.params.grid_key() == res.params.grid_key()

    def test_from_obj_rejects_foreign_payloads(self):
        with pytest.raises(ValueError, match="coefficient"):
            coefficient_from_obj({"schema": "something.else.v1"})


class TestSweepSerialization:
    def test_csv_covers_every_rule(self, tiny_sweep):
        lines = sweep_csv_bytes(tiny_sweep).decode("utf-8").strip().split("\n")
        assert lines[0] == f"# schema={SCHEMA_SWEEP}"
        assert lines[1] == "rule,c_value,rmse,rank,cluster"
        assert len(lines) == 2 + 256
        first = lines[2].split(",")
        assert first[0] == "eca:0"
        assert int(first[4]) in {1, 2, 3, 4}

    def test_json_object_shape(self, tiny_sweep):
        obj = sweep_json_obj(tiny_sweep, notes={"extra": True})
        assert len(obj["entries"]) == 256
        assert obj["epsilon"] == tiny_sweep.epsilon
        assert "rule_id" not in obj["params"]
        assert obj["params"]["t_max"] == 16
        assert obj["notes"] == {"extra": True}
        ranked = obj["ranking"]
        assert sorted(ranked) == sorted(e["rule"] for e in obj["entries"])


class TestManifest:
    def files(self):
        return {"a.txt": b"alpha\n", "b.bin": bytes(range(16))}

    def test_write_then_verify(self, tmp_path):
        manifest = write_outputs(tmp_path, self.files(), ["caprog", "coeff"], {"t": 1})
        assert (tmp_path / MANIFEST_NAME).is_file()
        assert verify_outputs(tmp_path, manifest) == {"a.txt": True, "b.bin": True}

    def test_hashes_are_sha256_of_bytes(self, tmp_path):
        manifest = write_outputs(tmp_path, self.files(), ["caprog"], {})
        assert manifest.outputs["a.txt"] == hashlib.sha256(b"alpha\n").hexdigest()
        assert sha256_hex(b"alpha\n") == manifest.outputs["a.txt"]

    def test_load_roundtrip(self, tmp_path):
        written = write_outputs(tmp_path, self.files(), ["caprog", "x"], {"n": 4})
        loaded = load_manifest(tmp_path / MANIFEST_NAME)
        assert loaded.argv == ["caprog", "x"]
        assert loaded.params == {"n": 4}
        assert loaded.outputs == written.outputs
        assert loaded.schema == SCHEMA_MANIFEST
        assert loaded.version == caprog.__version__

    def test_version_is_the_package_version(self):
        tomllib = pytest.importorskip("tomllib")
        pyproject = Path(__file__).parents[1] / "pyproject.toml"
        project = tomllib.loads(pyproject.read_text(encoding="utf-8"))["project"]
        assert project["version"] == caprog.__version__

    def test_corruption_is_detected(self, tmp_path):
        manifest = write_outputs(tmp_path, self.files(), ["caprog"], {})
        (tmp_path / "a.txt").write_bytes(b"tampered\n")
        verdict = verify_outputs(tmp_path, manifest)
        assert verdict == {"a.txt": False, "b.bin": True}

    def test_missing_file_is_detected(self, tmp_path):
        manifest = write_outputs(tmp_path, self.files(), ["caprog"], {})
        (tmp_path / "b.bin").unlink()
        assert verify_outputs(tmp_path, manifest)["b.bin"] is False

    def test_rewrite_replaces_the_earlier_run(self, tmp_path):
        out = tmp_path / "out"
        write_outputs(out, self.files(), ["caprog"], {})
        manifest = write_outputs(out, {"c.txt": b"gamma\n"}, ["caprog"], {})
        assert sorted(p.name for p in out.iterdir()) == ["c.txt", MANIFEST_NAME]
        assert verify_outputs(out, manifest) == {"c.txt": True}
        assert [p.name for p in tmp_path.iterdir()] == ["out"]

    def test_directory_without_a_run_is_left_alone(self, tmp_path):
        (tmp_path / "notes.txt").write_bytes(b"keep me\n")
        with pytest.raises(FileExistsError):
            write_outputs(tmp_path, self.files(), ["caprog"], {})
        assert [p.name for p in tmp_path.iterdir()] == ["notes.txt"]

    def test_foreign_manifest_is_left_alone(self, tmp_path):
        foreign = b'{"name": "web-app", "start_url": "/"}\n'
        (tmp_path / MANIFEST_NAME).write_bytes(foreign)
        (tmp_path / "index.html").write_bytes(b"<html></html>\n")
        with pytest.raises(FileExistsError):
            write_outputs(tmp_path, self.files(), ["caprog"], {})
        assert sorted(p.name for p in tmp_path.iterdir()) == ["index.html", MANIFEST_NAME]
        assert (tmp_path / MANIFEST_NAME).read_bytes() == foreign

    def test_earlier_run_with_a_user_file_is_left_alone(self, tmp_path):
        out = tmp_path / "out"
        first = write_outputs(out, self.files(), ["caprog"], {})
        (out / "notes.txt").write_bytes(b"keep me\n")
        with pytest.raises(FileExistsError):
            write_outputs(out, {"c.txt": b"gamma\n"}, ["caprog"], {})
        assert sorted(p.name for p in out.iterdir()) == [
            "a.txt", "b.bin", MANIFEST_NAME, "notes.txt"]
        assert all(verify_outputs(out, first).values())

    def test_working_directory_is_never_replaced(self, tmp_path, monkeypatch):
        out = tmp_path / "out"
        write_outputs(out, self.files(), ["caprog"], {})
        monkeypatch.chdir(out)
        with pytest.raises(FileExistsError, match="working directory"):
            write_outputs(".", {"c.txt": b"gamma\n"}, ["caprog"], {})
        assert sorted(p.name for p in out.iterdir()) == ["a.txt", "b.bin", MANIFEST_NAME]

    def test_load_rejects_foreign_json(self, tmp_path):
        path = tmp_path / "other.json"
        path.write_bytes(json_bytes({"schema": "not.a.manifest"}))
        with pytest.raises(ValueError, match="manifest"):
            load_manifest(path)
