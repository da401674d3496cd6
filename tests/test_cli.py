"""End-to-end tests of the command line interface, run in process."""

import json

import numpy as np
import pytest

from caprog.classify import calibrate_epsilon
from caprog.cli import main
from caprog.coefficient import measure
from caprog.engine import rule_from_number
from caprog.enumeration import gray_initials
from caprog.reportio import (
    MANIFEST_NAME,
    coefficient_json_obj,
    json_bytes,
    load_manifest,
    parse_pbm,
    verify_outputs,
)

# Small measurement grid reused across tests to keep runs quick.
SMALL = ["--gray-inputs", "6", "--width", "15", "--t", "24"]


def read_json(path):
    return json.loads(path.read_text(encoding="utf-8"))


class TestEvolve:
    def test_saturating_rule_fills_every_later_row(self, tmp_path):
        out = tmp_path / "runs"
        code = main(["evolve", "--rule", "255", "--random-inputs", "12",
                     "--seed", "7", "--t", "60", "--out", str(out)])
        assert code == 0
        images = sorted(out.glob("evolution_*.pbm"))
        assert len(images) == 12
        for path in images:
            rows = parse_pbm(path.read_bytes())
            assert rows.shape == (61, 121)
            assert rows[1:].all()

    def test_explicit_input_with_identity_rule(self, tmp_path):
        out = tmp_path / "identity"
        code = main(["evolve", "--rule", "204", "--input", "010",
                     "--t", "5", "--out", str(out)])
        assert code == 0
        rows = parse_pbm((out / "evolution_000.pbm").read_bytes())
        assert rows.shape == (6, 3)
        assert np.array_equal(rows, np.tile([0, 1, 0], (6, 1)))

    def test_gray_family_members_are_all_distinct(self, tmp_path):
        out = tmp_path / "gray"
        code = main(["evolve", "--rule", "110", "--gray-inputs", "8",
                     "--t", "100", "--out", str(out)])
        assert code == 0
        images = [parse_pbm(p.read_bytes()) for p in sorted(out.glob("*.pbm"))]
        assert len(images) == 8
        for a, b in zip(images, images[1:]):
            assert not np.array_equal(a, b)

    def test_raw_payloads_on_request(self, tmp_path):
        out = tmp_path / "raw"
        code = main(["evolve", "--rule", "90", "--gray-inputs", "2",
                     "--t", "8", "--raw", "--out", str(out)])
        assert code == 0
        assert (out / "evolution_000.bin").is_file()
        assert (out / "evolution_001.bin").is_file()

    def test_manifest_lists_every_artifact(self, tmp_path):
        out = tmp_path / "mani"
        main(["evolve", "--rule", "30", "--gray-inputs", "4", "--t", "12",
              "--out", str(out)])
        manifest = load_manifest(out / MANIFEST_NAME)
        assert set(manifest.outputs) == {f"evolution_{j:03d}.pbm" for j in range(4)}
        assert all(verify_outputs(out, manifest).values())
        assert manifest.params["system"] == "eca:30"

    def test_life_defaults_to_the_full_3x3_gray_cycle(self, tmp_path):
        out = tmp_path / "life"
        assert main(["evolve", "--model", "life", "--height", "3", "--width", "3",
                     "--t", "1", "--out", str(out)]) == 0
        manifest = load_manifest(out / MANIFEST_NAME)
        assert manifest.params["n"] == 512 and len(manifest.outputs) == 512
        # the grids of a run are stacked top to bottom; the last member,
        # gray_code(511) = 100000000 written row-major, has one live cell
        rows = parse_pbm((out / "evolution_511.pbm").read_bytes())
        assert rows.shape == (6, 3)
        assert rows[:3].tolist() == [[1, 0, 0], [0, 0, 0], [0, 0, 0]]


class TestUsageErrors:
    def test_missing_family(self, tmp_path, capsys):
        assert main(["evolve", "--rule", "110", "--t", "5",
                     "--out", str(tmp_path / "x")]) == 2
        assert "choose --input" in capsys.readouterr().err

    def test_nonpositive_depth(self, tmp_path):
        assert main(["evolve", "--rule", "110", "--gray-inputs", "4",
                     "--t", "0", "--out", str(tmp_path / "x")]) == 2

    def test_life_with_random_inputs(self, tmp_path):
        assert main(["coeff", "--model", "life", "--random-inputs", "4",
                     "--t", "12", "--out", str(tmp_path / "x")]) == 2

    def test_rule_out_of_range(self, tmp_path):
        assert main(["coeff", "--rule", "300", *SMALL,
                     "--out", str(tmp_path / "x")]) == 2

    def test_unknown_command(self):
        assert main(["frobnicate"]) == 2

    def test_nonpositive_tolerance(self):
        assert main(["compare", "--a", "5", "--b", "5", "--c", "0"]) == 2

    @pytest.mark.parametrize("command", ["evolve", "coeff"])
    def test_life_with_fixed_boundary(self, tmp_path, command, capsys):
        out = tmp_path / "x"
        assert main([command, "--model", "life", "--boundary", "fixed", "--gray-inputs", "4",
                     "--height", "8", "--width", "8", "--t", "6", "--out", str(out)]) == 2
        assert "cyclic" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("value", ["0", "-3", "x"])
    @pytest.mark.parametrize("argv", [
        *(["coeff", "--rule", "30", "--no-calibrate", flag] for flag in (
            "--t", "--t-min", "--stride", "--gray-inputs", "--random-inputs",
            "--width", "--height")),
        *(["sweep", flag] for flag in ("--t", "--n", "--width", "--workers")),
        ["evolve", "--rule", "30", "--gray-inputs", "4", "--t"],
    ], ids=" ".join)
    def test_sizes_must_be_positive_integers(self, tmp_path, argv, value, capsys):
        assert main([*argv, value, "--out", str(tmp_path / "x")]) == 2
        assert "positive integer" in capsys.readouterr().err


class TestCoeff:
    def test_inert_rule_lands_in_the_zero_band(self, tmp_path, capsys):
        out = tmp_path / "c0"
        code = main(["coeff", "--rule", "0", *SMALL, "--out", str(out)])
        assert code == 0
        obj = read_json(out / "coefficient.json")
        assert obj["zero_band"]["is_zero_computer"] is True
        assert obj["zero_band"]["computes"] is False
        assert obj["params"]["rule_id"] == "eca:0"
        assert "zero band" in capsys.readouterr().out

    def test_runs_are_byte_identical(self, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        for out in (out_a, out_b):
            assert main(["coeff", "--rule", "118", *SMALL, "--out", str(out)]) == 0
        for name in ("coefficient.json", "curve.csv"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()

    def test_curve_rides_along(self, tmp_path):
        out = tmp_path / "curve"
        main(["coeff", "--rule", "110", *SMALL, "--out", str(out)])
        obj = read_json(out / "coefficient.json")
        assert obj["curve"]["family"] == "gray(n=6,W15)"
        assert len(obj["curve"]["points"]) >= 2
        assert (out / "curve.csv").read_text().startswith("# schema=")

    def test_no_calibrate_skips_the_band(self, tmp_path):
        out = tmp_path / "nb"
        main(["coeff", "--rule", "110", *SMALL, "--no-calibrate", "--out", str(out)])
        assert "zero_band" not in read_json(out / "coefficient.json")

    def test_two_dimensional_model(self, tmp_path):
        out = tmp_path / "life"
        code = main(["coeff", "--model", "life", "--gray-inputs", "4",
                     "--height", "12", "--width", "12", "--t", "12",
                     "--out", str(out)])
        assert code == 0
        obj = read_json(out / "coefficient.json")
        assert obj["params"]["rule_id"] == "life:B3/S23"
        assert obj["params"]["height"] == 12
        assert "zero_band" in obj


class TestSweepCommand:
    def test_tiny_sweep_outputs(self, tmp_path):
        out = tmp_path / "sweep"
        code = main(["sweep", "--t", "16", "--n", "4", "--width", "9",
                     "--workers", "1", "--out", str(out)])
        assert code == 0
        lines = (out / "sweep.csv").read_text().strip().split("\n")
        assert len(lines) == 258
        obj = read_json(out / "sweep.json")
        assert obj["notes"]["r30"]["held"] in {"both", "cluster", "zero-band", "neither"}
        assert len(obj["entries"]) == 256
        manifest = load_manifest(out / MANIFEST_NAME)
        assert all(verify_outputs(out, manifest).values())
        assert manifest.params["epsilon"] == obj["epsilon"]


class TestCompare:
    def test_same_rule_is_equivalent_at_any_tolerance(self, capsys):
        code = main(["compare", "--a", "5", "--b", "5", "--c", "1e-9", *SMALL])
        assert code == 0
        verdict = json.loads(capsys.readouterr().out)
        assert verdict["equivalent"] is True
        assert verdict["incomparable"] is False
        assert verdict["mode"] == "within-c"

    def test_blank_and_saturating_rules_close_at_loose_tolerance(self, capsys):
        code = main(["compare", "--a", "0", "--b", "255", "--c", "0.001"])
        assert code == 0
        verdict = json.loads(capsys.readouterr().out)
        assert verdict["equivalent"] is True

    def test_programmable_rule_separates_from_blank_inside_the_band(self, capsys):
        family = gray_initials(40, 61)
        inert = [rule_from_number(r) for r in (0, 255, 204, 51)]
        eps = calibrate_epsilon(inert, family, 200)
        code = main(["compare", "--a", "110", "--b", "0", "--c", repr(eps / 10)])
        assert code == 0
        verdict = json.loads(capsys.readouterr().out)
        assert verdict["equivalent"] is False

    def test_stored_results_from_different_grids_are_incomparable(
        self, tmp_path, capsys
    ):
        fam = gray_initials(6, 15)
        for name, t_max in (("a.json", 24), ("b.json", 32)):
            res, curve = measure(rule_from_number(90), fam, t_max)
            (tmp_path / name).write_bytes(json_bytes(coefficient_json_obj(res, curve)))
        code = main(["compare", "--a-json", str(tmp_path / "a.json"),
                     "--b-json", str(tmp_path / "b.json")])
        assert code == 3
        verdict = json.loads(capsys.readouterr().out)
        assert verdict["incomparable"] is True
        assert verdict["equivalent"] is None
        assert "grids" in verdict["reason"] or "grid" in verdict["reason"]

    def test_verdict_can_be_written_out(self, tmp_path, capsys):
        out = tmp_path / "verdict"
        code = main(["compare", "--a", "3", "--b", "3", "--c", "1e-9", *SMALL,
                     "--out", str(out)])
        assert code == 0
        capsys.readouterr()
        obj = read_json(out / "compare.json")
        assert obj["equivalent"] is True


class TestRerun:
    def test_replay_matches_original_hashes(self, tmp_path, capsys):
        first = tmp_path / "first"
        assert main(["coeff", "--rule", "54", *SMALL, "--out", str(first)]) == 0
        capsys.readouterr()
        second = tmp_path / "second"
        code = main(["rerun", "--manifest", str(first / MANIFEST_NAME),
                     "--out", str(second)])
        assert code == 0
        out = capsys.readouterr().out
        # the replayed command prints its own status line first
        verdict = json.loads(out[out.index("{"):])
        assert verdict["match"] is True
        assert all(verdict["files"].values())

    def test_doctored_manifest_fails_verification(self, tmp_path, capsys):
        first = tmp_path / "first"
        main(["coeff", "--rule", "54", *SMALL, "--out", str(first)])
        manifest_path = first / MANIFEST_NAME
        obj = read_json(manifest_path)
        name = "coefficient.json"
        obj["outputs"][name] = "0" * 64
        manifest_path.write_bytes(json_bytes(obj))
        code = main(["rerun", "--manifest", str(manifest_path),
                     "--out", str(tmp_path / "second")])
        assert code == 4
