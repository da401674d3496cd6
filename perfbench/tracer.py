"""Per-layer spans taken from outside the program.

The tracer replaces public functions of caprog's modules with timing
wrappers at the names the pipeline looks them up by (a module attribute,
or a name one module imported from another), so nothing under ``src/``
changes. Spans nest on a stack: a layer's self time is its span's
duration minus the time its child spans took, and the wrappers' own
bookkeeping is charged to no layer, so it shows up as unattributed time.
"""
from __future__ import annotations

import hashlib
from collections import Counter, defaultdict
from time import perf_counter

# Layers whose self time is reported, and the metric each one feeds.
SELF_TIME_METRICS = {
    "engine": "engine.evolve_s",
    "complexity.compress": "complexity.compress_s",
    "complexity.pack": "complexity.pack_s",
    "coefficient": "coefficient.curve_self_s",
    "coefficient.fit": "coefficient.fit_s",
    "classify": "classify.self_s",
    "classify.kmeans": "classify.kmeans_s",
    "enumeration": "enumeration.family_s",
    "reportio.encode": "reportio.encode_s",
    "reportio.write": "reportio.write_s",
    "cli": "cli.self_s",
}

COUNT_METRICS = (
    "engine.evolve_calls",
    "engine.cells",
    "complexity.compress_calls",
    "complexity.bytes_in",
    "complexity.bytes_out",
    "complexity.distinct_payloads",
    "enumeration.family_calls",
    "reportio.bytes_written",
)


def _count_evolve(tracer, args, evo) -> None:
    tracer.counts["engine.evolve_calls"] += 1
    tracer.counts["engine.cells"] += int(evo.rows.size)


def _count_compress(tracer, args, bits) -> None:
    payload = args[0]
    tracer.counts["complexity.compress_calls"] += 1
    tracer.counts["complexity.bytes_in"] += len(payload)
    tracer.counts["complexity.bytes_out"] += bits // 8
    tracer.payloads.add(hashlib.blake2b(payload, digest_size=16).digest())


def _count_family(tracer, args, family) -> None:
    tracer.counts["enumeration.family_calls"] += 1


def _count_write(tracer, args, manifest) -> None:
    tracer.counts["reportio.bytes_written"] += sum(len(data) for data in args[1].values())


def patch_table():
    """(module, attribute, layer, counter) for every name the workloads reach."""
    from caprog import classify, cli, coefficient, reportio

    return [
        (cli, "main", "cli", None),
        (cli, "sweep_eca", "classify", None),
        (cli, "calibrate_epsilon", "classify", None),
        (cli, "r30_grouping", "classify", None),
        (cli, "is_zero_computer", "classify", None),
        (cli, "computes", "classify", None),
        (classify, "kmeans_clusters", "classify.kmeans", None),
        (classify, "gray_initials", "enumeration", _count_family),
        (cli, "gray_patches", "enumeration", _count_family),
        (cli, "measure", "coefficient", None),
        (coefficient, "measure", "coefficient", None),
        (coefficient, "fit_line", "coefficient.fit", None),
        (coefficient, "run_system", "engine", _count_evolve),
        (coefficient, "pack_cells", "complexity.pack", None),
        (coefficient, "compressed_size", "complexity.compress", _count_compress),
        (reportio, "json_bytes", "reportio.encode", None),
        (reportio, "sweep_csv_bytes", "reportio.encode", None),
        (reportio, "sweep_json_obj", "reportio.encode", None),
        (reportio, "coefficient_json_obj", "reportio.encode", None),
        (reportio, "curve_csv_bytes", "reportio.encode", None),
        (reportio, "write_outputs", "reportio.write", _count_write),
    ]


class Tracer:
    """Self time and counts per layer for one traced call."""

    def __init__(self):
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.counts: Counter[str] = Counter()
        self.payloads: set[bytes] = set()
        # One entry per open span: time taken so far by its child spans.
        self._children = [0.0]
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, layer, fn, count):
        children = self._children
        self_s = self.self_s

        def traced(*args, **kwargs):
            enter = perf_counter()
            children.append(0.0)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                self_s[layer] += end - start - children.pop()
            if count is not None:
                count(self, args, result)
            children[-1] += perf_counter() - enter
            return result

        return traced

    def __enter__(self):
        for module, attr, layer, count in patch_table():
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(layer, original, count))
        return self

    def __exit__(self, *exc):
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)
        return False

    def metrics(self, wall_s: float) -> dict[str, float]:
        """Per-layer values of the call that took ``wall_s`` seconds."""
        out = {metric: self.self_s[layer] for layer, metric in SELF_TIME_METRICS.items()}
        self.counts["complexity.distinct_payloads"] = len(self.payloads)
        out.update({name: self.counts[name] for name in COUNT_METRICS})
        calls = self.counts["complexity.compress_calls"]
        out["complexity.distinct_payload_frac"] = len(self.payloads) / calls if calls else 0.0
        out["trace.unattributed_s"] = wall_s - sum(self.self_s.values())
        return out
