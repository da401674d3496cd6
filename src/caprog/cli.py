"""Command-line front end.

Subcommands: evolve (space-time bitmaps), coeff (transition coefficient of
one system), sweep (all 256 elementary rules), compare (equivalence
verdicts), rerun (replay a manifest and verify hashes).

Exit codes are a stable contract: 0 success, 2 usage error, 3 results not
comparable, 4 internal failure (including a failed rerun verification).
Every output directory gets a manifest; all artifacts are computed in
memory first and written together, so no partial result sets appear.
"""
from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict
from pathlib import Path

from . import reportio
from .classify import (
    INERT_ECA,
    INERT_LIFE,
    IncomparableError,
    behaviourally_equivalent,
    c_equivalent,
    calibrate_epsilon,
    computes,
    is_zero_computer,
    r30_grouping,
    sweep_eca,
)
from .coefficient import default_stride, default_t_min, measure
from .complexity import serialize
from .engine import (
    CYCLIC,
    FIXED,
    GAME_OF_LIFE,
    Configuration,
    default_width,
    evolve,
    rule_from_number,
)
from .enumeration import gray_initials, gray_patches, random_initials

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_INCOMPARABLE = 3
EXIT_INTERNAL = 4

# Measurement defaults: modest cyclic width so wrapped interaction is part
# of the measured dynamics, runtimes deep enough for slopes to settle.
DEFAULT_T = 200
DEFAULT_N = 40
DEFAULT_W = 61
LIFE_T = 100
# The full Gray cycle over a 3x3 patch: 9 pattern bits, 2**9 members. A
# smaller family fills at most a 2x2 patch, where under B3/S23 every seed
# dies or becomes a block, so Life cannot react to its input; 3x3 holds the
# blinker, the glider and the R-pentomino.
LIFE_N = 2 ** 9
LIFE_SIDE = 32


def _size(text: str) -> int:
    """argparse type of every size flag: anything but a positive integer
    is a usage error."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return value


def _core_width(n: int) -> int:
    return max(1, (n - 1).bit_length())


def _add_family_args(p: argparse.ArgumentParser, with_model: bool) -> None:
    group = p.add_mutually_exclusive_group()
    group.add_argument("--gray-inputs", type=_size, metavar="N",
                       help="first N rows of the Gray ordering")
    group.add_argument("--random-inputs", type=_size, metavar="N",
                       help="N seeded uniform random rows")
    p.add_argument("--seed", type=int, default=0, help="PRNG seed for --random-inputs")
    p.add_argument("--density", type=float, default=0.5,
                   help="live-cell probability for --random-inputs")
    p.add_argument("--width", type=_size, help="row width (defaults depend on the family)")
    p.add_argument("--boundary", choices=[CYCLIC, FIXED], default=CYCLIC)
    if with_model:
        p.add_argument("--model", choices=["eca", "life"], default="eca",
                       help="1-D elementary rule (default) or 2-D Game of Life")
        p.add_argument("--height", type=_size, help="grid height for --model life")


def _life_family(args, parser):
    """The Gray patch family of ``--model life``, for evolve and coeff."""
    if args.random_inputs or getattr(args, "input", None) is not None:
        parser.error("--model life supports --gray-inputs only")
    if args.boundary != CYCLIC:
        parser.error("--model life runs on cyclic grids only")
    return gray_patches(args.gray_inputs or LIFE_N, args.height or LIFE_SIDE,
                        args.width or LIFE_SIDE)


def _measure_args(args, parser) -> tuple:
    """Resolve (system, family, t_max, inert_systems) for coeff/compare."""
    if args.model == "life":
        return GAME_OF_LIFE, _life_family(args, parser), args.t or LIFE_T, INERT_LIFE
    if args.rule is None:
        parser.error("--rule is required for the elementary model")
    try:
        system = rule_from_number(args.rule)
    except ValueError as err:
        parser.error(str(err))
    t_max = args.t or DEFAULT_T
    if args.random_inputs:
        width = args.width or DEFAULT_W
        family = random_initials(args.random_inputs, width, seed=args.seed,
                                 density=args.density, boundary=args.boundary)
    else:
        n = args.gray_inputs or DEFAULT_N
        width = args.width or DEFAULT_W
        family = gray_initials(n, width, boundary=args.boundary)
    inert = tuple(rule_from_number(number) for number in INERT_ECA)
    return system, family, t_max, inert


def cmd_evolve(args, argv) -> int:
    parser = _PARSERS["evolve"]
    t = args.t
    if args.input is not None and (args.gray_inputs or args.random_inputs):
        parser.error("--input excludes --gray-inputs/--random-inputs")
    family_desc: dict = {"boundary": args.boundary}
    if args.model == "life":
        system = GAME_OF_LIFE
        family = _life_family(args, parser)
        members = family.members
        family_desc.update(scheme=family.scheme, n=family.n, height=family.height,
                           width=family.width)
    else:
        if args.rule is None:
            parser.error("--rule is required for the elementary model")
        try:
            system = rule_from_number(args.rule)
        except ValueError as err:
            parser.error(str(err))
        if args.input is not None:
            if set(args.input) - {"0", "1"}:
                parser.error("--input is a string of 0s and 1s")
            members = [Configuration([int(ch) for ch in args.input],
                                     boundary=args.boundary)]
            family_desc.update(scheme="explicit", n=1, width=len(args.input))
        elif args.gray_inputs:
            core = _core_width(args.gray_inputs)
            width = args.width or default_width(core, system.r, t)
            members = gray_initials(args.gray_inputs, width, boundary=args.boundary).members
            family_desc.update(scheme="gray", n=args.gray_inputs, width=width)
        elif args.random_inputs:
            width = args.width or default_width(1, system.r, t)
            members = random_initials(args.random_inputs, width, seed=args.seed,
                                      density=args.density, boundary=args.boundary).members
            family_desc.update(scheme="random", n=args.random_inputs, width=width,
                               seed=args.seed, density=args.density)
        else:
            parser.error("choose --input BITS, --gray-inputs N, or --random-inputs N")

    files = {}
    for j, member in enumerate(members):
        evo = evolve(system, member, t)
        # A 2-D run renders as its grids stacked top to bottom.
        files[f"evolution_{j:03d}.pbm"] = reportio.pbm_bytes(evo.rows.reshape(-1, evo.width))
        if args.raw:
            files[f"evolution_{j:03d}.bin"] = serialize(evo)
    params = {"system": system.rule_id, "t": t, "raw": bool(args.raw), **family_desc}
    reportio.write_outputs(args.out, files, argv, params)
    print(f"{system.rule_id}: wrote {len(files)} files to {args.out}")
    return EXIT_OK


def _measure_with_band(args, parser):
    """One full measurement: result, curve, and (optionally) the band."""
    system, family, t_max, inert = _measure_args(args, parser)
    t_min = args.t_min or default_t_min(t_max)
    stride = args.stride or default_stride(t_min, t_max)
    include_input = not args.skip_input_row
    res, curve = measure(system, family, t_max, t_min=t_min, stride=stride,
                         include_input=include_input)
    epsilon = None
    if not args.no_calibrate:
        epsilon = calibrate_epsilon(inert, family, t_max, t_min=t_min, stride=stride,
                                    include_input=include_input)
    return res, curve, epsilon


def cmd_coeff(args, argv) -> int:
    res, curve, epsilon = _measure_with_band(args, parser=_PARSERS["coeff"])
    obj = reportio.coefficient_json_obj(res, curve)
    if epsilon is not None:
        obj["zero_band"] = {
            "epsilon": epsilon,
            "is_zero_computer": is_zero_computer(res, epsilon),
            "computes": computes(res, epsilon),
        }
    files = {
        "coefficient.json": reportio.json_bytes(obj),
        "curve.csv": reportio.curve_csv_bytes(curve),
    }
    reportio.write_outputs(args.out, files, argv, asdict(res.params))
    verdict = ""
    if epsilon is not None:
        verdict = ", computes" if obj["zero_band"]["computes"] else (
            ", zero band" if obj["zero_band"]["is_zero_computer"] else "")
    print(f"{res.params.rule_id}: c_value={res.c_value!r}{verdict}; wrote {args.out}")
    return EXIT_OK


def cmd_sweep(args, argv) -> int:
    report = sweep_eca(t_max=args.t, n=args.n, width=args.width,
                       t_min=args.t_min, stride=args.stride,
                       include_input=not args.skip_input_row, workers=args.workers)
    notes = {"r30": r30_grouping(report)}
    files = {
        "sweep.csv": reportio.sweep_csv_bytes(report),
        "sweep.json": reportio.json_bytes(reportio.sweep_json_obj(report, notes)),
    }
    params = asdict(report.entries[0].params)
    del params["rule_id"]
    params["epsilon"] = report.epsilon
    reportio.write_outputs(args.out, files, argv, params)
    top = ", ".join(report.ranking[:3])
    print(f"swept 256 rules: epsilon={report.epsilon!r}, top {top}; wrote {args.out}")
    return EXIT_OK


def cmd_compare(args, argv) -> int:
    if (args.a_json is None) != (args.b_json is None):
        _PARSERS["compare"].error("--a-json and --b-json go together")
    if args.c is not None and args.c <= 0:
        _PARSERS["compare"].error("--c must be > 0")
    if args.a_json:
        res_a = reportio.coefficient_from_obj(json.loads(Path(args.a_json).read_text()))
        res_b = reportio.coefficient_from_obj(json.loads(Path(args.b_json).read_text()))
    else:
        if args.a is None or args.b is None:
            _PARSERS["compare"].error("need --a and --b rule numbers, or --a-json/--b-json")
        ns = argparse.Namespace(**vars(args))
        ns.model = "eca"
        ns.rule = args.a
        res_a, _, _ = _measure_with_band(ns, parser=_PARSERS["compare"])
        ns.rule = args.b
        res_b, _, _ = _measure_with_band(ns, parser=_PARSERS["compare"])

    try:
        if args.c is not None:
            equivalent = c_equivalent(res_a, res_b, args.c)
            mode = "within-c"
        else:
            equivalent = behaviourally_equivalent(res_a, res_b)
            mode = "exact"
    except IncomparableError as err:
        obj = {
            "schema": reportio.SCHEMA_COMPARE,
            "equivalent": None,
            "incomparable": True,
            "reason": str(err),
            "a": {"rule": res_a.params.rule_id, "c_value": res_a.c_value},
            "b": {"rule": res_b.params.rule_id, "c_value": res_b.c_value},
        }
        print(json.dumps(obj, sort_keys=True, indent=2))
        return EXIT_INCOMPARABLE

    grid = asdict(res_a.params)
    del grid["rule_id"]
    obj = {
        "schema": reportio.SCHEMA_COMPARE,
        "equivalent": equivalent,
        "incomparable": False,
        "mode": mode,
        "c": args.c,
        "a": {"rule": res_a.params.rule_id, "c_value": res_a.c_value},
        "b": {"rule": res_b.params.rule_id, "c_value": res_b.c_value},
        "grid": grid,
    }
    print(json.dumps(obj, sort_keys=True, indent=2))
    if args.out:
        reportio.write_outputs(args.out, {"compare.json": reportio.json_bytes(obj)},
                               argv, grid)
    return EXIT_OK


def _strip_out_flag(argv: list[str]) -> list[str]:
    kept, skip = [], False
    for token in argv:
        if skip:
            skip = False
            continue
        if token == "--out":
            skip = True
            continue
        if token.startswith("--out="):
            continue
        kept.append(token)
    return kept


def cmd_rerun(args, argv) -> int:
    manifest = reportio.load_manifest(args.manifest)
    replay = _strip_out_flag(list(manifest.argv))
    replay += ["--out", args.out]
    code = main(replay)
    if code != EXIT_OK:
        print(f"replay exited with {code}", file=sys.stderr)
        return code
    checks = reportio.verify_outputs(args.out, manifest)
    obj = {"match": all(checks.values()), "files": checks,
           "manifest": str(args.manifest), "out": str(args.out)}
    print(json.dumps(obj, sort_keys=True, indent=2))
    return EXIT_OK if obj["match"] else EXIT_INTERNAL


_PARSERS: dict[str, argparse.ArgumentParser] = {}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="caprog",
        description="Behavioural programmability measurements on cellular automata.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("evolve", help="render space-time diagrams as PBM bitmaps")
    p.add_argument("--rule", type=int, help="elementary rule number 0..255")
    p.add_argument("--input", help="explicit initial row, e.g. 0110")
    p.add_argument("--t", type=_size, required=True, help="number of steps")
    p.add_argument("--raw", action="store_true", help="also dump serialized payloads")
    p.add_argument("--out", default="caprog-evolve", help="output directory")
    _add_family_args(p, with_model=True)
    p.set_defaults(func=cmd_evolve)
    _PARSERS["evolve"] = p

    p = sub.add_parser("coeff", help="measure the transition coefficient of one system")
    p.add_argument("--rule", type=int, help="elementary rule number 0..255")
    p.add_argument("--t", type=_size, help=f"deepest runtime (default {DEFAULT_T})")
    p.add_argument("--t-min", type=_size, help="shallowest sampled runtime")
    p.add_argument("--stride", type=_size, help="runtime sampling stride")
    p.add_argument("--skip-input-row", action="store_true",
                   help="exclude the input row from compressed payloads")
    p.add_argument("--no-calibrate", action="store_true",
                   help="skip the inert-rule zero-band calibration")
    p.add_argument("--out", default="caprog-coeff", help="output directory")
    _add_family_args(p, with_model=True)
    p.set_defaults(func=cmd_coeff)
    _PARSERS["coeff"] = p

    p = sub.add_parser("sweep", help="measure all 256 elementary rules")
    p.add_argument("--t", type=_size, default=DEFAULT_T)
    p.add_argument("--n", type=_size, default=DEFAULT_N, help="Gray family size")
    p.add_argument("--width", type=_size, default=DEFAULT_W)
    p.add_argument("--t-min", type=_size)
    p.add_argument("--stride", type=_size)
    p.add_argument("--skip-input-row", action="store_true")
    p.add_argument("--workers", type=_size,
                   help="process count (default: CAPROG_WORKERS or all cores)")
    p.add_argument("--out", default="caprog-sweep", help="output directory")
    p.set_defaults(func=cmd_sweep)
    _PARSERS["sweep"] = p

    p = sub.add_parser("compare", help="equivalence verdict for two systems")
    p.add_argument("--a", type=int, help="first rule number")
    p.add_argument("--b", type=int, help="second rule number")
    p.add_argument("--a-json", help="stored coefficient.json for the first system")
    p.add_argument("--b-json", help="stored coefficient.json for the second system")
    p.add_argument("--c", type=float,
                   help="closeness tolerance; omitted means exact equality")
    p.add_argument("--t", type=_size, help=f"deepest runtime (default {DEFAULT_T})")
    p.add_argument("--t-min", type=_size)
    p.add_argument("--stride", type=_size)
    p.add_argument("--skip-input-row", action="store_true")
    p.add_argument("--no-calibrate", action="store_true", help=argparse.SUPPRESS)
    p.add_argument("--out", help="also write the verdict to this directory")
    _add_family_args(p, with_model=False)
    p.set_defaults(func=cmd_compare, model="eca", no_calibrate=True)
    _PARSERS["compare"] = p

    p = sub.add_parser("rerun", help="replay a manifest and verify output hashes")
    p.add_argument("--manifest", required=True, help="path to a manifest.json")
    p.add_argument("--out", required=True, help="fresh output directory")
    p.set_defaults(func=cmd_rerun)
    _PARSERS["rerun"] = p

    return parser


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args, list(argv))
    except SystemExit as err:  # argparse usage errors and --help
        return int(err.code or 0)
    except IncomparableError as err:
        print(f"incomparable: {err}", file=sys.stderr)
        return EXIT_INCOMPARABLE
    except Exception as err:  # noqa: BLE001 - the CLI boundary reports, never raises
        print(f"error: {err}", file=sys.stderr)
        return EXIT_INTERNAL


def entry() -> None:
    raise SystemExit(main())
