"""Persistence: portable bitmaps, versioned CSV/JSON, and run manifests.

Every emitted file is deterministic given the run parameters, and every
output directory carries a manifest recording the command line, the
parameters, and a content hash per artifact, so a run can be replayed and
verified bit for bit. Timestamps live only in the manifest.
"""
from __future__ import annotations

import hashlib
import json
import os
import shutil
from dataclasses import asdict, dataclass
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .classify import SweepReport
from .coefficient import CoefficientResult, FitResult, RunParams, VariabilityCurve

SCHEMA_CURVE = "caprog.curve.v1"
SCHEMA_COEFFICIENT = "caprog.coefficient.v1"
SCHEMA_SWEEP_CSV = "caprog.sweep.v1"
SCHEMA_SWEEP_JSON = "caprog.sweep.v1"
SCHEMA_COMPARE = "caprog.compare.v1"
SCHEMA_MANIFEST = "caprog.manifest.v1"

MANIFEST_NAME = "manifest.json"


def sha256_hex(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def json_bytes(obj) -> bytes:
    """Canonical JSON: sorted keys, two-space indent, trailing newline."""
    return (json.dumps(obj, sort_keys=True, indent=2) + "\n").encode("utf-8")


# ---------------------------------------------------------------------------
# Portable bitmap (P4). Cell value 1 renders black, which in P4 is bit 1;
# each row is padded to a whole byte, per the format.

def pbm_bytes(rows: np.ndarray) -> bytes:
    arr = np.ascontiguousarray(rows, dtype=np.uint8)
    if arr.ndim != 2:
        raise ValueError("a bitmap needs a 2-D array of 0/1 cells")
    if arr.max(initial=0) > 1:
        raise ValueError("bitmaps are binary; higher colours need a different format")
    height, width = arr.shape
    header = f"P4\n{width} {height}\n".encode("ascii")
    return header + np.packbits(arr, axis=1).tobytes()


# ---------------------------------------------------------------------------
# Tabular and structured result formats.

def curve_csv_bytes(curve: VariabilityCurve) -> bytes:
    lines = [f"# schema={SCHEMA_CURVE}", "t_prime,S"]
    lines += [f"{t},{value!r}" for t, value in curve.points]
    return ("\n".join(lines) + "\n").encode("utf-8")


def coefficient_json_obj(res: CoefficientResult, curve: VariabilityCurve | None = None) -> dict:
    obj = {
        "schema": SCHEMA_COEFFICIENT,
        "c_value": res.c_value,
        "fit": asdict(res.fit),
        "params": asdict(res.params),
    }
    if curve is not None:
        obj["curve"] = {
            "family": curve.family_descriptor,
            "points": [[t, value] for t, value in curve.points],
        }
    return obj


def coefficient_from_obj(obj: dict) -> CoefficientResult:
    """Rebuild a stored coefficient result, e.g. for later comparison."""
    if obj.get("schema") != SCHEMA_COEFFICIENT:
        raise ValueError("not a stored coefficient result")
    fit = FitResult(**obj["fit"])
    if obj["c_value"] != fit.slope:
        raise ValueError("c_value must equal the fitted slope exactly")
    return CoefficientResult(fit=fit, params=RunParams(**obj["params"]))


_SWEEP_COLUMNS = ("rule", "c_value", "rmse", "rank", "cluster")


def _sweep_rows(report: SweepReport):
    """The _SWEEP_COLUMNS of each entry, in entry order."""
    for entry in report.entries:
        rid = entry.params.rule_id
        yield rid, entry.c_value, entry.fit.rmse, report.rank(rid), report.clusters[rid]


def sweep_csv_bytes(report: SweepReport) -> bytes:
    lines = [f"# schema={SCHEMA_SWEEP_CSV}", ",".join(_SWEEP_COLUMNS)]
    lines += [f"{rule},{c_value!r},{rmse!r},{rank},{cluster}"
              for rule, c_value, rmse, rank, cluster in _sweep_rows(report)]
    return ("\n".join(lines) + "\n").encode("utf-8")


def sweep_json_obj(report: SweepReport, notes: dict | None = None) -> dict:
    obj = {
        "schema": SCHEMA_SWEEP_JSON,
        "epsilon": report.epsilon,
        "ranking": list(report.ranking),
        "entries": [dict(zip(_SWEEP_COLUMNS, row)) for row in _sweep_rows(report)],
        "params": report.entries[0].params.grid(),
    }
    if notes:
        obj["notes"] = notes
    return obj


# ---------------------------------------------------------------------------
# Manifests.

@dataclass(frozen=True)
class RunManifest:
    argv: list[str]
    params: dict
    outputs: dict[str, str]  # artifact name -> sha256 of its bytes
    timestamp: str
    version: str

    schema = SCHEMA_MANIFEST  # a class constant, not a field

    def to_obj(self) -> dict:
        return {
            "schema": self.schema,
            "tool": "caprog",
            "version": self.version,
            "argv": list(self.argv),
            "params": self.params,
            "outputs": dict(sorted(self.outputs.items())),
            "timestamp": self.timestamp,
        }


def load_manifest(path: str | Path) -> RunManifest:
    obj = json.loads(Path(path).read_text(encoding="utf-8"))
    if obj.get("schema") != SCHEMA_MANIFEST:
        raise ValueError(f"not a run manifest: {path}")
    return RunManifest(
        argv=list(obj["argv"]),
        params=obj["params"],
        outputs=dict(obj["outputs"]),
        timestamp=obj["timestamp"],
        version=obj.get("version", "0+unknown"),
    )


def _holds_only_a_run(out: Path) -> bool:
    """True when ``out`` is empty, or holds exactly one earlier run: a valid
    manifest and no entry that is not one of its artifacts."""
    entries = list(out.iterdir())
    if not entries:
        return True
    try:
        manifest = load_manifest(out / MANIFEST_NAME)
    except (OSError, ValueError, KeyError, TypeError, AttributeError):
        return False
    known = {*manifest.outputs, MANIFEST_NAME}
    return all(entry.name in known and entry.is_file() for entry in entries)


def write_outputs(out_dir: str | Path, files: dict[str, bytes], argv, params: dict) -> RunManifest:
    """Write a fully materialised artifact set plus its manifest.

    The set is written to a fresh sibling directory that then takes the
    place of ``out_dir``, so ``out_dir`` never holds a partial set or a
    file left by an earlier run. An existing ``out_dir`` is replaced only
    when it is empty or holds nothing but an earlier run (a valid caprog
    manifest and the artifacts it lists), and never when it is or contains
    the working directory; anything else raises FileExistsError and is
    left untouched.
    """
    out = Path(out_dir).resolve()
    if out.exists():
        if not out.is_dir() or not _holds_only_a_run(out):
            raise FileExistsError(
                f"{out} exists and holds more than an earlier caprog run; not replacing it")
        if out == Path.cwd() or out in Path.cwd().parents:
            raise FileExistsError(f"{out} holds the working directory; not replacing it")
    manifest = RunManifest(
        argv=list(argv),
        params=params,
        outputs={name: sha256_hex(data) for name, data in files.items()},
        timestamp=datetime.now(timezone.utc).isoformat(),
        version=__version__,
    )
    out.parent.mkdir(parents=True, exist_ok=True)
    fresh = out.with_name(f".{out.name}.{os.urandom(6).hex()}")
    fresh.mkdir()
    try:
        for name, data in files.items():
            (fresh / name).write_bytes(data)
        (fresh / MANIFEST_NAME).write_bytes(json_bytes(manifest.to_obj()))
        if out.exists():
            # A directory can only be renamed onto an empty one, so the
            # earlier run moves aside first and is deleted after the swap.
            old = fresh.with_name(fresh.name + ".old")
            os.replace(out, old)
            os.replace(fresh, out)
            shutil.rmtree(old)
        else:
            os.replace(fresh, out)
    finally:
        shutil.rmtree(fresh, ignore_errors=True)
    return manifest


def verify_outputs(out_dir: str | Path, manifest: RunManifest) -> dict[str, bool]:
    """Per-artifact hash check of a directory against a manifest."""
    out = Path(out_dir)
    return {
        name: out.joinpath(name).is_file()
        and sha256_hex(out.joinpath(name).read_bytes()) == digest
        for name, digest in manifest.outputs.items()
    }
