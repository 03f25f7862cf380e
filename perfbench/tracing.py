"""Spans and per-layer numbers of a traced benchmark run.

Everything here observes the library from outside.  Spans are opened by
the benchmark around its own calls into public stage functions; call
counts and per-module self time come from a `cProfile` profile of the
same calls.  Layer names are the module names of `src/eqbundles`.
"""

from __future__ import annotations

import json
import pstats
import re
import time
from contextlib import contextmanager
from pathlib import Path

# Modules whose self time the profile attributes to each layer.
# `fractions` is the rational arithmetic inside every CycNum coefficient.
MODULE_LAYER = {
    "cyclotomic": "cyclotomic", "fractions": "cyclotomic",
    "laurent": "laurent", "linalg": "linalg", "bundle": "bundle",
    "equivariant": "equivariant", "classify": "classify",
    "serialize": "serialize",
}

# per-layer metric -> (module, function) whose profiled call count it is
CALL_COUNTS = {
    "cyclotomic.mul_calls": ("cyclotomic", "__mul__"),
    "cyclotomic.inverse_calls": ("cyclotomic", "inverse"),
    "cyclotomic.fraction_new_calls": ("fractions", "__new__"),
    "laurent.poly_mul_calls": ("laurent", "__mul__"),
    "laurent.matmul_calls": ("laurent", "__matmul__"),
    "laurent.inverse_calls": ("laurent", "inverse"),
    "linalg.sparse_reduce_calls": ("linalg", "_sparse_reduce"),
    "bundle.h0_calls": ("bundle", "h0"),
    "equivariant.cocycle_checks": ("equivariant", "product_name"),
    "equivariant.invertibility_tests": ("equivariant", "invertible"),
}

# per-layer metric -> (module, function) whose profiled cumulative time it is
CUMULATIVE = {
    "laurent.inverse_s": ("laurent", "inverse"),
    "bundle.splitting_type_s": ("bundle", "splitting_type"),
}

# per-layer metric -> span name whose self time it is
SPAN_TIMES = {
    "bundle.model_isomorphism_s": "model_isomorphism",
    "equivariant.validate_s": "validate",
    "equivariant.equivalent_s": "equivalent",
    "classify.pullback_s": "pullback",
    "classify.averaging_s": "averaging",
    "classify.residual_s": "residual",
    "classify.verify_s": "verify",
    "serialize.parse_s": "parse",
    "serialize.render_s": "render",
}


class Recorder:
    """Spans of one run, held in memory until `write`.

    A span is (case id, name, start, end, index of the parent span)."""

    def __init__(self):
        self.spans = []
        self.case = None
        self._open = []

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._open[-1] if self._open else None
        self.spans.append([self.case, name, time.perf_counter(), None, parent])
        self._open.append(index)
        try:
            yield
        finally:
            self._open.pop()
            self.spans[index][3] = time.perf_counter()

    def self_times(self) -> dict:
        """Total self time per span name: each span minus its children."""
        covered = [0.0] * len(self.spans)
        for _, _, start, end, parent in self.spans:
            if parent is not None:
                covered[parent] += end - start
        totals = {}
        for (_, name, start, end, _), child in zip(self.spans, covered):
            totals[name] = totals.get(name, 0.0) + (end - start) - child
        return totals

    def write(self, path: Path):
        path.parent.mkdir(parents=True, exist_ok=True)
        rows = [{"case": case, "name": name, "start": start, "end": end,
                 "parent": parent}
                for case, name, start, end, parent in self.spans]
        path.write_text(json.dumps(rows) + "\n", encoding="utf-8")


def _layer_of(filename: str):
    path = Path(filename)
    if path.parent.name == "eqbundles" or path.name == "fractions.py":
        return path.stem
    return None


def profile_metrics(profile, cases: int) -> dict:
    """Call counts, cumulative times and per-module self time, each per
    case, and the model-isomorphism attempts per call."""
    calls, cumulative, self_s = {}, {}, {}
    for (filename, _, func), (_, ncalls, tottime, cumtime, _) in \
            pstats.Stats(profile).stats.items():
        module = _layer_of(filename)
        if module is None:
            continue
        key = (module, func)
        calls[key] = calls.get(key, 0) + ncalls
        cumulative[key] = cumulative.get(key, 0.0) + cumtime
        layer = MODULE_LAYER.get(module)
        if layer is not None:
            self_s[layer] = self_s.get(layer, 0.0) + tottime
    out = {name: calls.get(key, 0) / cases for name, key in CALL_COUNTS.items()}
    out.update({name: cumulative.get(key, 0.0) / cases
                for name, key in CUMULATIVE.items()})
    out.update({f"{layer}.self_s": self_s.get(layer, 0.0) / cases
                for layer in sorted(set(MODULE_LAYER.values()))})
    certify = calls.get(("bundle", "_certify"), 0)
    isos = calls.get(("bundle", "model_isomorphism"), 0)
    out["bundle.iso_attempts"] = certify / isos if isos else 0.0
    return out


_NOT_COEFFICIENT = re.compile(r"z\d+|\^-?\d+")


def frame_bits(answer: str) -> int:
    """Largest numerator or denominator bit-height in a certificate's
    change of frame, read from its canonical text: root symbols like
    `z12` and exponents like `^-3` are not coefficients.  Answers that
    are not certificate documents have no frame and give 0."""
    try:
        frame = json.loads(answer).get("change_of_frame", [])
    except (json.JSONDecodeError, AttributeError):
        return 0
    bits = 0
    for row in frame:
        for entry in row:
            for digits in re.findall(r"\d+", _NOT_COEFFICIENT.sub("", entry)):
                bits = max(bits, int(digits).bit_length())
    return bits
