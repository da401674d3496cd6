"""Command-line front end.

Subcommands: evolve (space-time bitmaps), coeff (transition coefficient of
one system), sweep (all 256 elementary rules), compare (equivalence
verdicts), rerun (replay a manifest and verify hashes).

Exit codes are a stable contract: 0 success, 2 usage error, 3 results not
comparable, 4 internal failure (including a failed rerun verification).
Every output directory gets a manifest; all artifacts are computed in
memory first and written to a fresh directory that then replaces the
output directory, so no partial or stale result sets appear.
"""
from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import asdict
from pathlib import Path

from . import reportio
# No command calls calibrate_epsilon or measure, but both stay importable
# here because the benchmark's tracer (perfbench/tracer.py) times those
# layers by wrapping these module attributes.
from .classify import (
    DEFAULT_N,
    DEFAULT_T,
    DEFAULT_W,
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
    zero_band,
)
from .coefficient import measure, measure_all, runtime_grid
from .complexity import COMPRESSOR_ID, unpack_rows
from .engine import (
    CYCLIC,
    FIXED,
    GAME_OF_LIFE,
    default_width,
    evolve_batch,
    rule_from_number,
    run_chunks,
)
from .enumeration import CUSTOM, InputFamily, gray_initials, gray_patches, random_initials

EXIT_OK = 0
EXIT_INCOMPARABLE = 3
EXIT_INTERNAL = 4

LIFE_T = 100
# The full Gray cycle over a 3x3 patch: 9 pattern bits, 2**9 members. A
# smaller family fills at most a 2x2 patch, where under B3/S23 every seed
# dies or becomes a block, so Life cannot react to its input; 3x3 holds the
# blinker, the glider and the R-pentomino.
LIFE_N = 2 ** 9
LIFE_SIDE = 32

# The commands whose manifests `rerun` replays.
REPLAYABLE = ("evolve", "coeff", "sweep", "compare")


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


def _add_family_args(p: argparse.ArgumentParser, with_model: bool,
                     with_input: bool = False) -> list[argparse.Action]:
    """Declare the input-family flags; returns their actions."""
    group = p.add_mutually_exclusive_group()
    actions = [
        group.add_argument("--gray-inputs", type=_size, metavar="N",
                           help="first N rows of the Gray ordering"),
        group.add_argument("--random-inputs", type=_size, metavar="N",
                           help="N seeded uniform random rows"),
        p.add_argument("--seed", type=int, help="PRNG seed for --random-inputs (default 0)"),
        p.add_argument("--density", type=float,
                       help="live-cell probability for --random-inputs (default 0.5)"),
        p.add_argument("--width", type=_size, help="row width (defaults depend on the family)"),
        p.add_argument("--boundary", choices=[CYCLIC, FIXED], default=CYCLIC,
                       help="cyclic (default) wraps; fixed reads cells beyond the edges as 0"),
    ]
    if with_input:
        actions.append(group.add_argument("--input", help="explicit initial row, e.g. 0110"))
    if with_model:
        actions += [
            p.add_argument("--model", choices=["eca", "life"], default="eca",
                           help="1-D elementary rule (default) or 2-D Game of Life"),
            p.add_argument("--height", type=_size, help="grid height for --model life"),
        ]
    return actions


def _add_grid_args(p: argparse.ArgumentParser, t_default: str) -> list[argparse.Action]:
    """Declare the runtime-grid flags and --workers; returns the grid flags' actions."""
    p.add_argument("--workers", type=_size,
                   help="threads compressing distinct runs "
                        "(default: every CPU this process may run on)")
    return [
        p.add_argument("--t", type=_size, help=f"deepest runtime (default {t_default})"),
        p.add_argument("--t-min", type=_size, help="shallowest sampled runtime"),
        p.add_argument("--stride", type=_size, help="runtime sampling stride"),
        p.add_argument("--skip-input-row", action="store_true",
                       help="exclude the input row from compressed payloads"),
    ]


def _rule(parser, number: int | None, model: str = "eca"):
    """The system selected by ``model`` and an elementary rule number."""
    if model == "life":
        if number is not None:
            parser.error("--rule selects an elementary rule; --model life takes none")
        return GAME_OF_LIFE
    if number is None:
        parser.error("--rule is required for the elementary model")
    try:
        return rule_from_number(number)
    except ValueError as err:
        parser.error(str(err))


def _family(args, parser, width_for) -> InputFamily:
    """The input family the flags select; ``width_for(core)`` is the row
    width, when --width is absent, for a pattern of ``core`` cells."""
    bits = getattr(args, "input", None)
    if not args.random_inputs and (args.seed is not None or args.density is not None):
        parser.error("--seed and --density steer --random-inputs only")
    try:
        if args.model == "life":
            if args.random_inputs or bits is not None:
                parser.error("--model life supports --gray-inputs only")
            if args.boundary != CYCLIC:
                parser.error("--model life runs on cyclic grids only")
            return gray_patches(args.gray_inputs or LIFE_N, args.height or LIFE_SIDE,
                                args.width or LIFE_SIDE)
        if getattr(args, "height", None):
            parser.error("--height is the grid height of --model life")
        if bits is not None:
            if args.width:
                parser.error("--input is the whole row; it takes no --width")
            if set(bits) - {"0", "1"}:
                parser.error("--input is a string of 0s and 1s")
            return InputFamily(members=[[*map(int, bits)]], scheme=CUSTOM, boundary=args.boundary)
        if args.random_inputs:
            return random_initials(args.random_inputs, args.width or width_for(1),
                                   seed=args.seed or 0,
                                   density=0.5 if args.density is None else args.density,
                                   boundary=args.boundary)
        n = args.gray_inputs or DEFAULT_N
        return gray_initials(n, args.width or width_for((n - 1).bit_length()),
                             boundary=args.boundary)
    except ValueError as err:
        parser.error(str(err))


def _grid(args, parser, family: InputFamily, t_default: int) -> tuple[int, int, int]:
    """(t_max, t_min, stride) of a measurement on ``family``. A family or
    grid the line fit cannot use is a usage error, found before anything is
    evolved."""
    t_max = args.t or t_default
    try:
        t_min, stride, _ = runtime_grid(family, t_max, args.t_min, args.stride)
    except ValueError as err:
        parser.error(str(err))
    return t_max, t_min, stride


def cmd_evolve(args, argv) -> int:
    parser = args.parser
    t = args.t
    system = _rule(parser, args.rule, args.model)
    chosen = args.input is not None or args.gray_inputs or args.random_inputs
    if args.model == "eca" and not chosen:
        parser.error("choose --input BITS, --gray-inputs N, or --random-inputs N")
    family = _family(args, parser, lambda core: default_width(core, system.r, t))
    files = {}
    def render_chunk(chunk) -> None:
        batch = evolve_batch([system] * len(chunk), family.cells[chunk], family.boundary, t)
        for j, payload in zip(chunk, batch.packed):
            rows = unpack_rows(payload, math.prod(batch.shape), system.k)
            # A 2-D run renders as its grids stacked top to bottom.
            files[f"evolution_{j:03d}.pbm"] = reportio.pbm_bytes(rows.reshape(-1, batch.shape[-1]))
            if args.raw:
                files[f"evolution_{j:03d}.bin"] = payload.tobytes()
    for chunk in run_chunks(family.n, t, family.cells[0].size, system.k):
        render_chunk(chunk)
    described = {"scheme": family.scheme, "n": family.n, "width": family.width,
                 "height": family.height, "seed": family.seed, "density": family.density}
    params = {"system": system.rule_id, "t": t, "raw": bool(args.raw),
              "boundary": family.boundary,
              **{key: value for key, value in described.items() if value is not None}}
    reportio.write_outputs(args.out, files, argv, params)
    print(f"{system.rule_id}: wrote {len(files)} files to {args.out}")
    return EXIT_OK


def cmd_coeff(args, argv) -> int:
    parser = args.parser
    system = _rule(parser, args.rule, args.model)
    life = args.model == "life"
    family = _family(args, parser, lambda core: DEFAULT_W)
    t_max, t_min, stride = _grid(args, parser, family, LIFE_T if life else DEFAULT_T)
    inert = ()
    if not args.no_calibrate:
        inert = INERT_LIFE if life else tuple(rule_from_number(number) for number in INERT_ECA)
    # One pass measures the rule and its zero band's inert rules, so a run
    # the rule shares with an inert rule on a member is compressed once.
    (res, curve), *calibration = measure_all((system, *inert), family, t_max, t_min, stride,
                                             not args.skip_input_row, args.workers)
    obj = reportio.coefficient_json_obj(res, curve)
    verdict = ""
    if calibration:
        epsilon = zero_band(inert_res for inert_res, _ in calibration)
        obj["zero_band"] = {
            "epsilon": epsilon,
            "is_zero_computer": is_zero_computer(res, epsilon),
            "computes": computes(res, epsilon),
        }
        verdict = ", computes" if obj["zero_band"]["computes"] else (
            ", zero band" if obj["zero_band"]["is_zero_computer"] else "")
    files = {
        "coefficient.json": reportio.json_bytes(obj),
        "curve.csv": reportio.curve_csv_bytes(curve),
    }
    reportio.write_outputs(args.out, files, argv, asdict(res.params))
    print(f"{res.params.rule_id}: c_value={res.c_value!r}{verdict}; wrote {args.out}")
    return EXIT_OK


def cmd_sweep(args, argv) -> int:
    parser = args.parser
    try:
        family = gray_initials(args.n, args.width)  # sweep_eca's family; checked here
    except ValueError as err:
        parser.error(str(err))
    t_max, t_min, stride = _grid(args, parser, family, DEFAULT_T)
    report = sweep_eca(t_max=t_max, n=args.n, width=args.width, t_min=t_min, stride=stride,
                       include_input=not args.skip_input_row, workers=args.workers)
    try:
        notes = {"r30": r30_grouping(report)}
    except ValueError as err:  # fewer distinct coefficients than clusters
        parser.error(f"the grid is too small to cluster the rules: {err}")
    files = {
        "sweep.csv": reportio.sweep_csv_bytes(report),
        "sweep.json": reportio.json_bytes(reportio.sweep_json_obj(report, notes)),
    }
    params = {**report.entries[0].params.grid(), "epsilon": report.epsilon}
    reportio.write_outputs(args.out, files, argv, params)
    top = ", ".join(report.ranking[:3])
    print(f"swept 256 rules: epsilon={report.epsilon!r}, top {top}; wrote {args.out}")
    return EXIT_OK


def cmd_compare(args, argv) -> int:
    parser = args.parser
    if (args.a_json is None) != (args.b_json is None):
        parser.error("--a-json and --b-json go together")
    if args.c is not None and not (args.c > 0 and math.isfinite(args.c)):
        parser.error("--c must be > 0 and finite")
    if args.a_json:
        given = [action.option_strings[0] for action in args.measured
                 if getattr(args, action.dest) != parser.get_default(action.dest)]
        if given:
            parser.error(f"--a-json/--b-json compare stored results; {', '.join(given)} "
                         "would select a measurement")
        try:
            res_a, res_b = [reportio.coefficient_from_obj(json.loads(Path(path).read_text()))
                            for path in (args.a_json, args.b_json)]
        except (OSError, ValueError, KeyError, TypeError, AttributeError) as err:
            parser.error(f"not a readable stored coefficient: {err}")
    else:
        if args.a is None or args.b is None:
            parser.error("need --a and --b rule numbers, or --a-json/--b-json")
        rules = [_rule(parser, number) for number in (args.a, args.b)]
        family = _family(args, parser, lambda core: DEFAULT_W)
        t_max, t_min, stride = _grid(args, parser, family, DEFAULT_T)
        (res_a, _), (res_b, _) = measure_all(rules, family, t_max, t_min, stride,
                                             not args.skip_input_row, args.workers)

    obj = {
        "schema": reportio.SCHEMA_COMPARE,
        "a": {"rule": res_a.params.rule_id, "c_value": res_a.c_value},
        "b": {"rule": res_b.params.rule_id, "c_value": res_b.c_value},
    }
    try:
        if args.c is not None:
            obj.update(equivalent=c_equivalent(res_a, res_b, args.c), mode="within-c")
        else:
            obj.update(equivalent=behaviourally_equivalent(res_a, res_b), mode="exact")
    except IncomparableError as err:
        obj.update(equivalent=None, incomparable=True, reason=str(err))
    else:
        obj.update(incomparable=False, c=args.c, grid=res_a.params.grid())
    data = reportio.json_bytes(obj)
    print(data.decode(), end="")
    if obj["incomparable"]:
        return EXIT_INCOMPARABLE
    if args.out:
        reportio.write_outputs(args.out, {"compare.json": data}, argv, obj["grid"])
    return EXIT_OK


def cmd_rerun(args, argv) -> int:
    manifest = reportio.load_manifest(args.manifest)
    command = manifest["argv"]
    if not command or command[0] not in REPLAYABLE:
        raise ValueError(f"{args.manifest} records no {'/'.join(REPLAYABLE)} command to replay")
    recorded = manifest["params"].get("compressor_id", COMPRESSOR_ID)
    if recorded != COMPRESSOR_ID:
        # Sizes under another compressor differ for a known reason; that is
        # not a corrupted result, so it is not reported as a hash mismatch.
        raise IncomparableError(f"the manifest was written under {recorded}, "
                                f"this environment runs {COMPRESSOR_ID}")
    # argparse keeps the last --out, so the recorded one is overridden.
    code = main([*command, "--out", args.out])
    if code != EXIT_OK:
        print(f"replay exited with {code}", file=sys.stderr)
        return code
    checks = reportio.verify_outputs(args.out, manifest)
    obj = {"match": all(checks.values()), "files": checks,
           "manifest": str(args.manifest), "out": str(args.out)}
    print(reportio.json_bytes(obj).decode(), end="")
    return EXIT_OK if obj["match"] else EXIT_INTERNAL


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="caprog",
        description="Behavioural programmability measurements on cellular automata.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("evolve", help="render space-time diagrams as PBM bitmaps")
    p.add_argument("--rule", type=int, help="elementary rule number 0..255")
    p.add_argument("--t", type=_size, required=True, help="number of steps")
    p.add_argument("--raw", action="store_true", help="also dump packed payloads")
    p.add_argument("--out", default="caprog-evolve", help="output directory")
    _add_family_args(p, with_model=True, with_input=True)
    p.set_defaults(func=cmd_evolve, parser=p)

    p = sub.add_parser("coeff", help="measure the transition coefficient of one system")
    p.add_argument("--rule", type=int, help="elementary rule number 0..255")
    _add_grid_args(p, f"{DEFAULT_T}, or {LIFE_T} under --model life")
    p.add_argument("--no-calibrate", action="store_true",
                   help="skip the inert-rule zero-band calibration")
    p.add_argument("--out", default="caprog-coeff", help="output directory")
    _add_family_args(p, with_model=True)
    p.set_defaults(func=cmd_coeff, parser=p)

    p = sub.add_parser("sweep", help="measure all 256 elementary rules")
    _add_grid_args(p, str(DEFAULT_T))
    p.add_argument("--n", type=_size, default=DEFAULT_N, help="Gray family size")
    p.add_argument("--width", type=_size, default=DEFAULT_W, help="row width")
    p.add_argument("--out", default="caprog-sweep", help="output directory")
    p.set_defaults(func=cmd_sweep, parser=p)

    p = sub.add_parser("compare", help="equivalence verdict for two systems")
    # The flags that select a measurement; stored results refuse them all.
    measured = [
        p.add_argument("--a", type=int, help="first rule number"),
        p.add_argument("--b", type=int, help="second rule number"),
    ]
    p.add_argument("--a-json", help="stored coefficient.json for the first system")
    p.add_argument("--b-json", help="stored coefficient.json for the second system")
    p.add_argument("--c", type=float,
                   help="closeness tolerance; omitted means exact equality")
    measured += _add_grid_args(p, str(DEFAULT_T))
    p.add_argument("--out", help="also write the verdict to this directory")
    measured += _add_family_args(p, with_model=False)
    p.set_defaults(func=cmd_compare, parser=p, model="eca", measured=measured)

    p = sub.add_parser("rerun", help="replay a manifest and verify output hashes")
    p.add_argument("--manifest", required=True, help="path to a manifest.json")
    p.add_argument("--out", required=True, help="fresh output directory")
    p.set_defaults(func=cmd_rerun)

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
