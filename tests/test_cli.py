"""End-to-end tests of the command line interface, run in process."""

import argparse
import builtins
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import caprog
from caprog import coefficient, engine
from caprog.classify import INERT_ECA, INERT_LIFE, calibrate_epsilon, computes, is_zero_computer
from caprog.cli import DEFAULT_T, LIFE_T, build_parser, main
from caprog.coefficient import measure
from caprog.complexity import COMPRESSOR_ID, pack_cells
from caprog.engine import FIXED, GAME_OF_LIFE, evolve, rule_from_number
from caprog.enumeration import gray_initials, gray_patches, random_initials
from caprog.reportio import (
    MANIFEST_NAME,
    SCHEMA_MANIFEST,
    coefficient_from_obj,
    coefficient_json_obj,
    curve_csv_bytes,
    json_bytes,
    load_manifest,
    sha256_hex,
    verify_outputs,
)

from reference import compensated_sum, ref_read_pbm, ref_unpack

# Small measurement grid reused across tests to keep runs quick.
SMALL = ["--gray-inputs", "6", "--width", "15", "--t", "24"]
# A small Life family: 2x2 seeds, each of which dies, stands still or
# becomes a block.
LIFE_SMALL = ["--model", "life", "--gray-inputs", "12", "--height", "6", "--width", "7",
              "--t", "20"]
INERT_RULES = tuple(rule_from_number(number) for number in INERT_ECA)
# The smallest `coeff` run a manifest is kept of.
TINY = ["--rule", "110", "--gray-inputs", "4", "--width", "9", "--t", "8", "--no-calibrate"]
FIXTURES = Path(__file__).parent / "fixtures"


def read_json(path):
    return json.loads(path.read_text(encoding="utf-8"))


def run_from_checkout(*args):
    """``python *args`` in a fresh interpreter that imports this caprog."""
    src = str(Path(caprog.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True)


class TestEvolve:
    def test_saturating_rule_fills_every_later_row(self, tmp_path):
        out = tmp_path / "runs"
        code = main(["evolve", "--rule", "255", "--random-inputs", "12",
                     "--seed", "7", "--t", "60", "--out", str(out)])
        assert code == 0
        images = sorted(out.glob("evolution_*.pbm"))
        assert len(images) == 12
        for path in images:
            rows = np.array(ref_read_pbm(path.read_bytes()))
            assert rows.shape == (61, 121)
            assert rows[1:].all()

    def test_explicit_input_with_identity_rule(self, tmp_path):
        out = tmp_path / "identity"
        code = main(["evolve", "--rule", "204", "--input", "010",
                     "--t", "5", "--out", str(out)])
        assert code == 0
        rows = ref_read_pbm((out / "evolution_000.pbm").read_bytes())
        assert rows == [[0, 1, 0]] * 6

    def test_gray_family_members_are_all_distinct(self, tmp_path):
        out = tmp_path / "gray"
        code = main(["evolve", "--rule", "110", "--gray-inputs", "8",
                     "--t", "100", "--out", str(out)])
        assert code == 0
        images = [ref_read_pbm(p.read_bytes()) for p in sorted(out.glob("*.pbm"))]
        assert len(images) == 8
        for a, b in zip(images, images[1:]):
            assert a != b

    @staticmethod
    def assert_raw_matches_images(out, n):
        # Each payload holds the cells of its bitmap, row-major, 8 to a byte.
        for j in range(n):
            cells = sum(ref_read_pbm((out / f"evolution_{j:03d}.pbm").read_bytes()), [])
            data = (out / f"evolution_{j:03d}.bin").read_bytes()
            assert len(data) == -(-len(cells) // 8)
            assert ref_unpack(data, len(cells)) == cells

    def test_raw_payloads_on_request(self, tmp_path):
        out = tmp_path / "raw"
        code = main(["evolve", "--rule", "90", "--gray-inputs", "2",
                     "--t", "8", "--raw", "--out", str(out)])
        assert code == 0
        self.assert_raw_matches_images(out, 2)

    def test_raw_payloads_of_life_grids(self, tmp_path):
        out = tmp_path / "raw"
        code = main(["evolve", "--model", "life", "--gray-inputs", "5", "--height", "5",
                     "--width", "7", "--t", "6", "--raw", "--out", str(out)])
        assert code == 0
        self.assert_raw_matches_images(out, 5)

    @pytest.mark.parametrize("argv, system, family", [
        (["--rule", "110", "--random-inputs", "7", "--width", "29", "--seed", "3"],
         rule_from_number(110), random_initials(7, 29, seed=3)),
        (["--model", "life", "--gray-inputs", "9", "--height", "5", "--width", "13"],
         GAME_OF_LIFE, gray_patches(9, 5, 13)),
    ], ids=["eca", "life"])
    def test_members_evolve_in_chunks_and_are_written_one_run_each(self, tmp_path, monkeypatch,
                                                                   argv, system, family):
        # The members evolve in chunks that fit MEMORY_BUDGET. Chunks of one
        # run and a single chunk write the same files, and each run's files
        # are those of evolving its member alone.
        t = 37
        written = []
        for budget in (1, engine.MEMORY_BUDGET):
            monkeypatch.setattr(engine, "MEMORY_BUDGET", budget)
            out = tmp_path / str(budget)
            assert main(["evolve", *argv, "--t", str(t), "--raw", "--out", str(out)]) == 0
            written.append({path.name: path.read_bytes() for path in out.glob("evolution_*")})
        assert written[0] == written[1]
        for j, cells in enumerate(family.cells):
            rows = evolve(system, cells, t, family.boundary)
            assert written[0][f"evolution_{j:03d}.bin"] == pack_cells(rows.ravel(), 2)
            assert ref_read_pbm(written[0][f"evolution_{j:03d}.pbm"]) == rows.reshape(
                -1, rows.shape[-1]).tolist()

    def test_manifest_lists_every_artifact(self, tmp_path):
        out = tmp_path / "mani"
        main(["evolve", "--rule", "30", "--gray-inputs", "4", "--t", "12",
              "--out", str(out)])
        manifest = load_manifest(out / MANIFEST_NAME)
        assert set(manifest["outputs"]) == {f"evolution_{j:03d}.pbm" for j in range(4)}
        assert all(verify_outputs(out, manifest).values())
        assert manifest["params"]["system"] == "eca:30"

    def test_life_defaults_to_the_full_3x3_gray_cycle(self, tmp_path):
        out = tmp_path / "life"
        assert main(["evolve", "--model", "life", "--height", "3", "--width", "3",
                     "--t", "1", "--out", str(out)]) == 0
        manifest = load_manifest(out / MANIFEST_NAME)
        assert manifest["params"]["n"] == 512 and len(manifest["outputs"]) == 512
        # the grids of a run are stacked top to bottom; the last member,
        # gray_code(511) = 100000000 written row-major, has one live cell
        rows = ref_read_pbm((out / "evolution_511.pbm").read_bytes())
        assert len(rows) == 6 and len(rows[0]) == 3
        assert rows[:3] == [[1, 0, 0], [0, 0, 0], [0, 0, 0]]


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

    @pytest.mark.parametrize("value", ["0", "nan", "inf"])
    def test_nonpositive_tolerance(self, value):
        assert main(["compare", "--a", "5", "--b", "5", "--c", value]) == 2

    @pytest.mark.parametrize("flags", [
        "--a 999 --b 5", "--a 3", "--b 3",
        # the stored results fix the family and the runtime grid
        "--t 5", "--gray-inputs 1", "--skip-input-row", "--width 15 --boundary fixed",
        # a family flag given at the value a random family would resolve it to
        "--seed 0",
    ])
    def test_rules_exclude_stored_results(self, tmp_path, flags, capsys):
        stored = tmp_path / "a.json"
        res, curve = measure(rule_from_number(90), gray_initials(6, 15), 24)
        stored.write_bytes(json_bytes(coefficient_json_obj(res, curve)))
        assert main(["compare", *flags.split(),
                     "--a-json", str(stored), "--b-json", str(stored)]) == 2
        assert "--a-json" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["evolve", "coeff"])
    def test_life_with_fixed_boundary(self, tmp_path, command, capsys):
        out = tmp_path / "x"
        assert main([command, "--model", "life", "--boundary", "fixed", "--gray-inputs", "4",
                     "--height", "8", "--width", "8", "--t", "6", "--out", str(out)]) == 2
        assert "cyclic" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["evolve", "coeff"])
    @pytest.mark.parametrize("rule", ["110", "999"])
    def test_life_with_rule(self, tmp_path, command, rule, capsys):
        out = tmp_path / "x"
        assert main([command, "--model", "life", "--rule", rule, "--gray-inputs", "4",
                     "--height", "8", "--width", "8", "--t", "6", "--out", str(out)]) == 2
        assert "--model life" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("value", ["0", "-3", "x"])
    @pytest.mark.parametrize("argv", [
        *(["coeff", "--rule", "30", "--no-calibrate", flag] for flag in (
            "--t", "--t-min", "--stride", "--gray-inputs", "--random-inputs",
            "--width", "--height", "--workers")),
        *(["sweep", flag] for flag in ("--t", "--n", "--width", "--workers")),
        ["compare", "--a", "30", "--b", "90", "--workers"],
        ["evolve", "--rule", "30", "--gray-inputs", "4", "--t"],
    ], ids=" ".join)
    def test_sizes_must_be_positive_integers(self, tmp_path, argv, value, capsys):
        assert main([*argv, value, "--out", str(tmp_path / "x")]) == 2
        assert "positive integer" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        "coeff --rule 30 --gray-inputs 1",
        "coeff --rule 30 --random-inputs 1",
        "coeff --rule 30 --random-inputs 4 --density 1.5",
        "coeff --rule 30 --gray-inputs 40 --width 3",
        "coeff --rule 30 --t 5 --t-min 10",
        "coeff --rule 30 --t 5 --t-min 1 --stride 10",
        "evolve --rule 30 --gray-inputs 1 --t 5",
        "evolve --rule 30 --input= --t 5",
        "coeff --model life --gray-inputs 20 --height 2 --width 2 --t 5",
        "compare --a 30 --b 90 --gray-inputs 1",
        "sweep --n 1 --t 8 --width 5",
        "sweep --t 5 --t-min 1 --stride 10 --n 3 --width 5",
        "coeff --rule 110 --height 5",
        "evolve --rule 30 --gray-inputs 4 --height 5 --t 5",
        "evolve --rule 30 --input 0110 --width 40 --t 5",
        "evolve --rule 30 --input 0110 --gray-inputs 4 --t 5",
        # --seed and --density steer a random family only
        "coeff --rule 110 --gray-inputs 6 --width 15 --t 24 --seed 5",
        "coeff --rule 110 --gray-inputs 6 --width 15 --t 24 --density 0.9",
        "evolve --rule 30 --input 0110 --seed 3 --t 4",
        "coeff --model life --gray-inputs 4 --height 8 --width 8 --t 6 --seed 1",
        "evolve --input 01 --t 3",
        "evolve --rule 30 --input 012 --t 3",
        # compare needs two rule numbers or two stored results
        "compare --a-json a.json",
        "compare --a 30",
    ])
    def test_bad_family_or_runtime_grid(self, tmp_path, argv, capsys):
        # rejected while parsing the flags, before anything is evolved
        out = tmp_path / "x"
        assert main([*argv.split(), "--out", str(out)]) == 2
        assert "usage:" in capsys.readouterr().err
        assert not out.exists()


def subcommands() -> dict[str, argparse.ArgumentParser]:
    (sub,) = [action for action in build_parser()._actions
              if isinstance(action, argparse._SubParsersAction)]
    return sub.choices


class TestHelp:
    def test_every_option_has_help(self):
        missing = [f"{name} {action.option_strings[0]}"
                   for name, p in subcommands().items() for action in p._actions
                   if not action.help]
        assert missing == []

    @pytest.mark.parametrize("command", ["coeff", "sweep", "compare"])
    def test_runtime_help_names_each_default(self, command):
        # coeff resolves an absent --t to LIFE_T under --model life
        defaults = (DEFAULT_T, LIFE_T) if command == "coeff" else (DEFAULT_T,)
        (t,) = [action for action in subcommands()[command]._actions
                if action.option_strings == ["--t"]]
        assert all(str(default) in t.help for default in defaults)


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

    def test_second_run_leaves_no_stale_file(self, tmp_path):
        out = tmp_path / "runs"
        argv = ["evolve", "--rule", "30", "--gray-inputs", "4", "--t", "8"]
        assert main([*argv, "--raw", "--out", str(out)]) == 0
        assert (out / "evolution_000.bin").is_file()
        assert main([*argv, "--out", str(out)]) == 0
        manifest = load_manifest(out / MANIFEST_NAME)
        names = {path.name for path in out.iterdir()}
        assert names == {*manifest["outputs"], MANIFEST_NAME}
        assert not any(name.endswith(".bin") for name in names)
        assert all(verify_outputs(out, manifest).values())
        assert [path.name for path in tmp_path.iterdir()] == ["runs"]

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

    @pytest.mark.parametrize("flags, system, family, inert", [
        (["--rule", "110", *SMALL], rule_from_number(110), gray_initials(6, 15), INERT_RULES),
        (["--rule", "54", *SMALL, "--boundary", "fixed"], rule_from_number(54),
         gray_initials(6, 15, FIXED), INERT_RULES),
        (["--rule", "30", *SMALL, "--skip-input-row"], rule_from_number(30),
         gray_initials(6, 15), INERT_RULES),
        (["--rule", "204", *SMALL, "--boundary", "fixed", "--skip-input-row"],
         rule_from_number(204), gray_initials(6, 15, FIXED), INERT_RULES),
        (LIFE_SMALL, GAME_OF_LIFE, gray_patches(12, 6, 7), INERT_LIFE),
        (["--rule", "110", *SMALL, "--no-calibrate"], rule_from_number(110),
         gray_initials(6, 15), ()),
        ([*LIFE_SMALL, "--no-calibrate"], GAME_OF_LIFE, gray_patches(12, 6, 7), ()),
    ])
    def test_one_pass_writes_what_two_passes_wrote(self, tmp_path, flags, system, family,
                                                    inert):
        # coeff measures the rule and the inert rules in one pass; its files
        # are those of measuring the rule, then calibrating the band apart.
        assert main(["coeff", *flags, "--out", str(tmp_path)]) == 0
        t, include_input = int(flags[flags.index("--t") + 1]), "--skip-input-row" not in flags
        res, curve = measure(system, family, t, include_input=include_input)
        obj = coefficient_json_obj(res, curve)
        if inert:
            epsilon = calibrate_epsilon(inert, family, t, include_input=include_input)
            obj["zero_band"] = {"epsilon": epsilon, "is_zero_computer": is_zero_computer(
                res, epsilon), "computes": computes(res, epsilon)}
        assert (tmp_path / "coefficient.json").read_bytes() == json_bytes(obj)
        assert (tmp_path / "curve.csv").read_bytes() == curve_csv_bytes(curve)

    def test_one_pass_compresses_each_distinct_run_once(self, tmp_path, monkeypatch):
        # Life runs that die or stand still are the inert rules' runs on the
        # same member; the pass compresses every distinct run once.
        compressed = []
        prefix_sizes = coefficient.prefix_sizes

        def recording(payload, *args):
            compressed.append(bytes(payload))
            return prefix_sizes(payload, *args)

        monkeypatch.setattr(coefficient, "prefix_sizes", recording)
        assert main(["coeff", *LIFE_SMALL, "--out", str(tmp_path)]) == 0
        family = gray_patches(12, 6, 7)
        # The first row is the member, so runs of two members never coincide.
        runs = {pack_cells(evolve(system, cells, 20).ravel(), 2)
                for cells in family.cells for system in (GAME_OF_LIFE, *INERT_LIFE)}
        assert sorted(compressed) == sorted(runs)
        assert len(runs) < 3 * family.n

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

    def test_runs_as_a_module(self, tmp_path):
        # `python -m caprog` works without an installed `caprog` script.
        out = tmp_path / "d"
        done = run_from_checkout("-m", "caprog", "coeff", "--rule", "30", "--t", "10",
                                 "--no-calibrate", "--out", str(out))
        assert done.returncode == 0, done.stderr
        assert read_json(out / "coefficient.json")["params"]["rule_id"] == "eca:30"
        assert read_json(out / MANIFEST_NAME)["version"] == caprog.__version__

    def test_commands_leave_distribution_metadata_unloaded(self):
        # the manifest's version is caprog.__version__, so no command needs
        # importlib.metadata; numpy is loaded first, as every command loads it
        done = run_from_checkout("-c", "import sys, numpy; before = set(sys.modules); "
                                 "import caprog.cli; print(*set(sys.modules) - before)")
        assert done.returncode == 0, done.stderr
        added = done.stdout.split()
        assert "caprog.cli" in added
        assert "importlib.metadata" not in added

    def test_commands_leave_the_thread_pool_unloaded(self):
        # compression runs on plain threading.Thread helpers, with no pool,
        # so the CLI loads neither concurrent.futures nor the logging it imports
        done = run_from_checkout("-c", "import sys, caprog.cli; "
                                 "print('concurrent.futures' in sys.modules)")
        assert done.returncode == 0, done.stderr
        assert done.stdout.split() == ["False"]


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
        assert manifest["params"]["epsilon"] == obj["epsilon"]

    @pytest.mark.parametrize("grid", [
        "--t 5 --n 2 --width 1",
        "--t 8 --n 2 --width 3 --stride 4",
    ])
    def test_grid_too_small_to_cluster_is_a_usage_error(self, tmp_path, capsys, grid):
        # found only after measuring: every coefficient comes out the same
        out = tmp_path / "sweep"
        assert main(["sweep", *grid.split(), "--workers", "1", "--out", str(out)]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert [line for line in err if "error:" in line] == err[-1:]
        assert err[-1].startswith("caprog sweep: error:")
        assert not out.exists()


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

    def test_stored_results_from_different_families_are_incomparable(self, tmp_path, capsys):
        # One grid, two random families.
        argv = ["coeff", "--rule", "30", "--random-inputs", "4", "--width", "16", "--t", "20",
                "--no-calibrate"]
        for name, family in (("a", ["--seed", "0"]), ("b", ["--seed", "1", "--density", "0.3"])):
            assert main([*argv, *family, "--out", str(tmp_path / name)]) == 0
        stored = [coefficient_from_obj(read_json(tmp_path / name / "coefficient.json"))
                  for name in "ab"]
        assert stored[0].params.grid() == stored[1].params.grid()
        capsys.readouterr()
        code = main(["compare", "--a-json", str(tmp_path / "a" / "coefficient.json"),
                     "--b-json", str(tmp_path / "b" / "coefficient.json"), "--c", "1"])
        assert code == 3
        verdict = json.loads(capsys.readouterr().out)
        assert verdict["incomparable"] is True and verdict["equivalent"] is None
        for res in stored:
            assert f"{res.params.grid()} on {res.family}" in verdict["reason"]

    def test_stored_result_refits_under_a_compensated_sum(self, tmp_path, capsys, monkeypatch):
        # Written here, then read where sum() compensates float rounding,
        # as it does from Python 3.12 on: the load-time refit must agree.
        assert main(["coeff", "--rule", "110", "--t", "60", "--no-calibrate",
                     "--out", str(tmp_path)]) == 0
        stored = str(tmp_path / "coefficient.json")
        capsys.readouterr()
        monkeypatch.setattr(builtins, "sum", compensated_sum)
        assert main(["compare", "--a-json", stored, "--b-json", stored]) == 0
        assert json.loads(capsys.readouterr().out)["equivalent"] is True

    @pytest.mark.parametrize("stored", ["tampered", "missing", "not JSON", "a JSON list",
                                        "no family descriptor", "no points", "a changed S",
                                        "a changed t", "a changed stride", "a changed n",
                                        "a changed width", "a changed scheme"])
    def test_unreadable_stored_result_is_a_usage_error(self, tmp_path, capsys, stored):
        good, bad = tmp_path / "good.json", tmp_path / "bad.json"
        res, curve = measure(rule_from_number(90), gray_initials(6, 15), 24)
        obj = coefficient_json_obj(res, curve)
        good.write_bytes(json_bytes(obj))
        if stored == "tampered":
            bad.write_bytes(json_bytes({**obj, "c_value": obj["c_value"] + 1e-9}))
        elif stored == "not JSON":
            bad.write_text("c_value,0.5\n")
        elif stored == "a JSON list":
            bad.write_text("[]\n")
        elif stored == "no family descriptor":
            curve = {**obj["curve"], "family": [obj["curve"]["family"]]}
            bad.write_bytes(json_bytes({**obj, "curve": curve}))
        elif stored == "a changed stride":
            # The points still fit, but not at the runtimes of the grid.
            params = {**obj["params"], "stride": obj["params"]["stride"] + 1}
            bad.write_bytes(json_bytes({**obj, "params": params}))
        elif stored in ("a changed n", "a changed width"):
            # The curve still refits on its grid, but the family is not the
            # one of params. Width 1 leaves "gray(n=6,W1" a prefix of
            # "gray(n=6,W15)", which is still not its family.
            key, value = ("n", 7) if stored == "a changed n" else ("width", 1)
            bad.write_bytes(json_bytes({**obj, "params": {**obj["params"], key: value}}))
        elif stored == "a changed scheme":
            curve = {**obj["curve"], "family": "random(n=6,W15,seed=1,density=0.5)"}
            bad.write_bytes(json_bytes({**obj, "curve": curve}))
        elif stored != "missing":
            # The curve no longer refits to the stored fit, or has no points.
            points = [list(point) for point in obj["curve"]["points"]]
            if stored == "a changed S":
                points[3][1] += 1e-12
            elif stored == "a changed t":
                points[-1][0] += 1
            curve = {**obj["curve"], "points": [] if stored == "no points" else points}
            bad.write_bytes(json_bytes({**obj, "curve": curve}))
        assert main(["compare", "--a-json", str(bad), "--b-json", str(good)]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert err[-1].startswith("caprog compare: error:")

    @pytest.mark.parametrize("a, b, family", [
        ("110", "124", SMALL),
        ("30", "90", ["--random-inputs", "5", "--seed", "2", "--width", "21", "--t", "30"]),
        # both runs of every member coincide, so the memo serves each one
        ("3", "3", SMALL),
    ])
    def test_one_pass_equals_two_coeff_runs(self, tmp_path, capsys, a, b, family):
        assert main(["compare", "--a", a, "--b", b, *family]) == 0
        verdict = json.loads(capsys.readouterr().out)
        for side, rule in (("a", a), ("b", b)):
            out = tmp_path / side
            assert main(["coeff", "--rule", rule, *family, "--no-calibrate",
                         "--out", str(out)]) == 0
            assert verdict[side]["c_value"] == read_json(out / "coefficient.json")["c_value"]

    def test_verdict_can_be_written_out(self, tmp_path, capsys):
        out = tmp_path / "verdict"
        code = main(["compare", "--a", "3", "--b", "3", "--c", "1e-9", *SMALL,
                     "--out", str(out)])
        assert code == 0
        # the verdict printed is the file written, byte for byte
        assert capsys.readouterr().out.encode() == (out / "compare.json").read_bytes()
        obj = read_json(out / "compare.json")
        assert obj["equivalent"] is True


class TestRerun:
    @pytest.mark.parametrize("out_flag", ["--out {}", "--out={}"])
    def test_replay_matches_original_hashes(self, tmp_path, capsys, out_flag):
        first = tmp_path / "first"
        assert main(["coeff", "--rule", "54", *SMALL, *out_flag.format(first).split()]) == 0
        recorded = (first / MANIFEST_NAME).read_bytes()
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
        # the replay wrote to --out of rerun, not to the recorded directory
        assert (first / MANIFEST_NAME).read_bytes() == recorded

    def test_helper_threads_write_what_one_thread_writes_and_replay(self, tmp_path, capsys):
        # rule 110 never settles on these rows, so --workers 2 starts a helper
        argv = ["coeff", "--rule", "110", "--random-inputs", "4", "--width", "300", "--t", "60"]
        for workers in ("1", "2"):
            assert main([*argv, "--workers", workers, "--out", str(tmp_path / workers)]) == 0
        for name in ("coefficient.json", "curve.csv"):
            assert (tmp_path / "1" / name).read_bytes() == (tmp_path / "2" / name).read_bytes()
        capsys.readouterr()
        code = main(["rerun", "--manifest", str(tmp_path / "2" / MANIFEST_NAME),
                     "--out", str(tmp_path / "replay")])
        assert code == 0
        out = capsys.readouterr().out
        assert json.loads(out[out.index("{"):])["match"] is True

    @pytest.mark.parametrize("name", ["../secret.txt", "sub/secret.txt", "", ".", ".."])
    def test_manifest_naming_a_file_outside_the_replay_is_refused(self, tmp_path, capsys, name):
        # A replay checks only what it writes into its own directory, so it
        # must not vouch for a file beside it whose hash the manifest holds.
        secret = tmp_path / "secret.txt"
        secret.write_bytes(b"not written by caprog\n")
        first = tmp_path / "first"
        assert main(["evolve", "--rule", "30", "--input", "0110", "--t", "4",
                     "--out", str(first)]) == 0
        manifest_path = first / MANIFEST_NAME
        obj = read_json(manifest_path)
        obj["outputs"][name] = sha256_hex(secret.read_bytes())
        manifest_path.write_bytes(json_bytes(obj))
        capsys.readouterr()
        replay = tmp_path / "replay"
        code = main(["rerun", "--manifest", str(manifest_path), "--out", str(replay)])
        assert code == 4
        assert "file name" in capsys.readouterr().err
        assert not replay.exists()

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

    @pytest.mark.parametrize("tamper", ["drop coefficient.json", "empty outputs"])
    def test_replay_must_write_only_the_listed_artifacts(self, tmp_path, capsys, tamper):
        first = tmp_path / "first"
        assert main(["coeff", *TINY, "--out", str(first)]) == 0
        manifest_path = first / MANIFEST_NAME
        obj = read_json(manifest_path)
        if tamper == "empty outputs":
            obj["outputs"] = {}
        else:
            del obj["outputs"]["coefficient.json"]
        manifest_path.write_bytes(json_bytes(obj))
        capsys.readouterr()
        code = main(["rerun", "--manifest", str(manifest_path),
                     "--out", str(tmp_path / "second")])
        assert code == 4
        out = capsys.readouterr().out
        verdict = json.loads(out[out.index("{"):])
        assert verdict["match"] is False
        assert verdict["files"]["coefficient.json"] is False

    def test_extra_manifest_keys_replay_to_a_match(self, tmp_path, capsys):
        first = tmp_path / "first"
        assert main(["coeff", *TINY, "--out", str(first)]) == 0
        manifest_path = first / MANIFEST_NAME
        obj = read_json(manifest_path)
        obj["telemetry"] = {"wall_s": 0.5}
        manifest_path.write_bytes(json_bytes(obj))
        capsys.readouterr()
        code = main(["rerun", "--manifest", str(manifest_path),
                     "--out", str(tmp_path / "second")])
        assert code == 0
        out = capsys.readouterr().out
        assert json.loads(out[out.index("{"):])["match"] is True

    @pytest.mark.parametrize("fixture, flags", [
        ("coeff_110_tiny_manifest.json", TINY),
        ("coeff_30_random_manifest.json", ["--rule", "30", "--random-inputs", "6", "--seed", "3",
                                           "--width", "33", "--t", "40", "--no-calibrate"]),
        # 509-cell rows end inside a byte, and the 5,090 B payloads stream.
        ("coeff_110_skip_input_row_manifest.json",
         ["--rule", "110", "--gray-inputs", "4", "--width", "509", "--t", "80", "--no-calibrate",
          "--skip-input-row"]),
    ], ids=["gray", "random", "skip-input-row"])
    def test_checked_in_manifest_replays_to_a_match(self, tmp_path, capsys, fixture, flags):
        # written by an earlier caprog for `coeff` with these flags
        manifest_path = FIXTURES / fixture
        obj = read_json(manifest_path)
        if obj["params"]["compressor_id"] != COMPRESSOR_ID:
            pytest.skip(f"the fixture was written under {obj['params']['compressor_id']}")
        assert obj["argv"][1:-2] == flags
        code = main(["rerun", "--manifest", str(manifest_path),
                     "--out", str(tmp_path / "replay")])
        assert code == 0
        out = capsys.readouterr().out
        verdict = json.loads(out[out.index("{"):])
        assert verdict["files"] == {"coefficient.json": True, "curve.csv": True}

    def test_other_compressor_is_incomparable(self, tmp_path, capsys):
        first = tmp_path / "first"
        main(["coeff", "--rule", "54", *SMALL, "--out", str(first)])
        manifest_path = first / MANIFEST_NAME
        obj = read_json(manifest_path)
        obj["params"]["compressor_id"] = "deflate/zlib-0.0.0/level9"
        manifest_path.write_bytes(json_bytes(obj))
        capsys.readouterr()
        second = tmp_path / "second"
        code = main(["rerun", "--manifest", str(manifest_path), "--out", str(second)])
        assert code == 3
        assert "deflate/zlib-0.0.0/level9" in capsys.readouterr().err
        assert not second.exists()

    def test_failed_replay_returns_its_exit_code(self, tmp_path, capsys):
        manifest_path = tmp_path / MANIFEST_NAME
        obj = {"schema": SCHEMA_MANIFEST, "argv": ["coeff", "--rule", "300"],
               "params": {}, "outputs": {}, "timestamp": "2020-01-01T00:00:00+00:00"}
        manifest_path.write_bytes(json_bytes(obj))
        second = tmp_path / "second"
        code = main(["rerun", "--manifest", str(manifest_path), "--out", str(second)])
        assert code == 2
        assert capsys.readouterr().err.splitlines()[-1] == "replay exited with 2"
        assert not second.exists()

    @pytest.mark.parametrize("command", ["rerun --manifest {manifest}", "frobnicate", ""])
    def test_manifest_of_no_run_is_refused(self, tmp_path, command, capsys):
        # A manifest that records `rerun` of itself would replay forever.
        manifest_path = tmp_path / MANIFEST_NAME
        argv = [word.format(manifest=manifest_path) for word in command.split()]
        obj = {"schema": SCHEMA_MANIFEST, "argv": argv,
               "params": {}, "outputs": {}, "timestamp": "2020-01-01T00:00:00+00:00"}
        manifest_path.write_bytes(json_bytes(obj))
        second = tmp_path / "second"
        code = main(["rerun", "--manifest", str(manifest_path), "--out", str(second)])
        assert code == 4
        assert len(capsys.readouterr().err.splitlines()) == 1
        assert not second.exists()
