"""Document serialization: bundles, structures, certificates, reports.

Documents are canonical JSON (sorted keys, two-space indent) whose
scalar leaves use the canonical text forms of the exact arithmetic
layer ("3/4", "z^-2", "(1+z4)·z^3" where z4 denotes the primitive
4th root of unity).  Conductors are always declared explicitly; there
is no implicit field extension.  parse(render(x)) returns x on every
canonical document.
"""

from __future__ import annotations

import json
from itertools import chain, repeat
from dataclasses import dataclass
from math import lcm

from .bundle import VectorBundle, make_bundle, model_bundle
from .classify import DecompositionCertificate
from .cyclotomic import MAX_CONDUCTOR
from .equivariant import EquivariantStructure
from .errors import DimensionMismatch, EqBundlesError, ParseError, ValidationError
from .group import Character, GroupSpec, cyclic, elements, klein, klein_lift
from .laurent import MAX_EXPONENT, LaurentMatrix, _matrix, parse_laurent, render_laurent


# Largest rank that matrix documents, O(d) shortcuts and `fuzz --rank`
# may set; elimination is cubic in the rank (README gives a timing).
MAX_RANK = 64


@dataclass(frozen=True)
class Report:
    """Deterministic command output; the only write-only document kind."""
    command: str
    lines: tuple
    exit_code: int


def _is_int(x) -> bool:
    """A JSON integer: bool is an int subclass in Python, true is not 1 here."""
    return isinstance(x, int) and not isinstance(x, bool)


_JSON_TYPES = {dict: "an object", list: "a list", str: "a string", int: "an integer"}


def _field(doc: dict, key: str, kind, default=None):
    """doc[key], or default when absent; a present value must be of the
    JSON type `kind`."""
    if key not in doc:
        return default
    value = doc[key]
    if not (_is_int(value) if kind is int else isinstance(value, kind)):
        raise ValidationError(f"{key} must be {_JSON_TYPES[kind]}, "
                              f"got {type(value).__name__}")
    return value


def _conductor(m, what: str) -> int:
    """A conductor set by input: an integer from 1 to MAX_CONDUCTOR."""
    if not _is_int(m) or not 1 <= m <= MAX_CONDUCTOR:
        raise ValidationError(f"bad {what} {m!r}: expected an integer from 1 "
                              f"to {MAX_CONDUCTOR}")
    return m


def _dump(doc) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _matrix_to_doc(M: LaurentMatrix):
    return [[render_laurent(p) for p in row] for row in M.entries]


def _grid(doc) -> list:
    """A matrix document's grid of strings, shape checked before parsing."""
    if not isinstance(doc, list) or not doc or not all(isinstance(r, list) for r in doc):
        raise ValidationError("matrix must be a non-empty list of rows")
    if not all(map(isinstance, chain.from_iterable(doc), repeat(str))):
        raise ValidationError("matrix entries must be strings")
    if not doc[0]:
        raise DimensionMismatch("matrix must have positive dimensions")
    if any(len(row) != len(doc[0]) for row in doc):
        raise DimensionMismatch("ragged matrix rows")
    if max(len(doc), len(doc[0])) > MAX_RANK:
        raise ValidationError(f"matrix size exceeds the rank cap {MAX_RANK}")
    return doc


def _matrix_from_doc(doc, conductor: int, name: str, parsed=None) -> LaurentMatrix:
    """The matrix `name` of a document.  Each distinct entry text is parsed
    once per document: `parsed`, shared by the matrices of one document,
    all at one conductor, maps each text read so far to its (immutable)
    LaurentPoly.  A bad entry fails at its first occurrence in row-major
    order, named by matrix, row and column."""
    grid = _grid(doc)
    parsed = {} if parsed is None else parsed
    for i, row in enumerate(grid, 1):
        for j, s in enumerate(row, 1):
            if s not in parsed:
                try:
                    parsed[s] = parse_laurent(s, conductor)
                except ParseError as err:
                    raise ParseError(f"{name} entry ({i}, {j}): {err.message}",
                                     err.line, err.column) from None
    return _matrix(conductor, [[parsed[s] for s in row] for row in grid])


def _group_to_doc(G: GroupSpec):
    if G.kind == "cyclic":
        return {"kind": "cyclic", "n": G.n}
    return {"kind": G.kind}


def _group_from_doc(doc) -> GroupSpec:
    kind = doc.get("kind")
    if kind == "cyclic":
        return cyclic(_conductor(doc.get("n"), "cyclic order"))
    if kind == "klein":
        return klein()
    if kind == "klein_lift":
        return klein_lift()
    raise ValidationError(f"unknown group kind {kind!r}")


def _character_to_doc(chi: Character):
    if chi.group.kind == "cyclic":
        return {"index": chi.index}
    return {"a1": chi.signs[0], "a2": chi.signs[1]}


def _character_from_doc(doc, G: GroupSpec) -> Character:
    if G.kind == "cyclic":
        k = doc.get("index")
        if not _is_int(k):
            raise ValidationError(f"bad character index {k!r}")
        return Character(G, index=k % G.n)
    s1, s2 = doc.get("a1"), doc.get("a2")
    if not all(_is_int(s) and s in (1, -1) for s in (s1, s2)):
        raise ValidationError(f"bad Klein character signs {doc!r}")
    return Character(G, signs=(s1, s2))


# -- bundle ------------------------------------------------------------------

def bundle_to_doc(E: VectorBundle):
    return {"kind": "bundle",
            "conductor": E.conductor,
            "rank": E.rank,
            "transition": _matrix_to_doc(E.transition)}


def bundle_from_doc(doc, parsed=None) -> VectorBundle:
    """The bundle of a document."""
    conductor = _conductor(doc.get("conductor"), "conductor")
    grid = _grid(doc.get("transition"))
    if len(grid) != len(grid[0]):
        raise ValidationError("invalid transition matrix: determinant of a "
                              "non-square matrix")
    rank = _field(doc, "rank", int)
    if rank is not None and rank != len(grid):
        raise ValidationError(f"declared rank {rank} != matrix size {len(grid)}")
    T = _matrix_from_doc(grid, conductor, "transition", parsed)
    try:
        return make_bundle(T)
    except EqBundlesError as err:
        raise ValidationError(f"invalid transition matrix: {err}") from err


# -- structure ----------------------------------------------------------------

def structure_to_doc(S: EquivariantStructure):
    return {"kind": "structure",
            "group": _group_to_doc(S.group),
            "bundle": bundle_to_doc(S.bundle),
            "maps": {name: _matrix_to_doc(M) for name, M in sorted(S.maps.items())}}


def structure_from_doc(doc) -> EquivariantStructure:
    G = _group_from_doc(_field(doc, "group", dict, {}))
    parsed = {}
    E = bundle_from_doc(_field(doc, "bundle", dict, {}), parsed)
    _conductor(lcm(E.conductor, G.conductor), "lcm of bundle and group conductors")
    maps_doc = doc.get("maps")
    if not isinstance(maps_doc, dict):
        raise ValidationError("structure needs a maps table")
    names = {g.name for g in elements(G)}
    for name, m in maps_doc.items():
        if name not in names:
            raise ValidationError(f"invalid structure: map key {name!r} is not "
                                  f"an element of {G}")
        rows, cols = len(_grid(m)), len(m[0])
        if rows != E.rank or cols != E.rank:
            raise ValidationError(f"invalid structure: map for {name!r} is "
                                  f"{rows}x{cols}, rank is {E.rank}")
    maps = {name: _matrix_from_doc(m, E.conductor, f"maps.{name}", parsed)
            for name, m in maps_doc.items()}
    try:
        return EquivariantStructure(E, G, maps)
    except EqBundlesError as err:
        raise ValidationError(f"invalid structure: {err}") from err


# -- certificate --------------------------------------------------------------

def certificate_to_doc(cert: DecompositionCertificate):
    return {"kind": "certificate",
            "group": _group_to_doc(cert.group),
            "conductor": cert.conductor,
            "even_blocks": [{"degree": d, "character": _character_to_doc(chi)}
                            for d, chi in cert.even_blocks],
            "odd_blocks": list(cert.odd_blocks),
            "change_of_frame": _matrix_to_doc(cert.change_of_frame)}


def _block_degree(d) -> int:
    """A block degree: an integer within the exponent cap, which the
    canonical maps of `build` and the replay must be able to write."""
    if not _is_int(d):
        raise ValidationError(f"bad block degree {d!r}")
    if abs(d) > MAX_EXPONENT:
        raise ValidationError(f"block degree {d} exceeds {MAX_EXPONENT} "
                              "in absolute value")
    return d


def certificate_from_doc(doc) -> DecompositionCertificate:
    G = _group_from_doc(_field(doc, "group", dict, {}))
    if G.kind == "klein_lift":
        raise ValidationError("certificates describe genuine structures")
    conductor = _conductor(doc.get("conductor"), "conductor")
    even = []
    for item in _field(doc, "even_blocks", list, []):
        if not isinstance(item, dict):
            raise ValidationError("even blocks must be objects")
        d = _block_degree(item.get("degree"))
        even.append((d, _character_from_doc(_field(item, "character", dict, {}), G)))
    odd = [_block_degree(d) for d in _field(doc, "odd_blocks", list, [])]
    frame = _matrix_from_doc(doc.get("change_of_frame"), conductor,
                             "change_of_frame")
    try:
        return DecompositionCertificate(group=G, even_blocks=tuple(even),
                                        odd_blocks=tuple(odd),
                                        change_of_frame=frame,
                                        conductor=conductor)
    except ValueError as err:
        raise ValidationError(f"inconsistent certificate: {err}") from err


# -- report --------------------------------------------------------------------

def report_to_doc(rep: Report):
    return {"kind": "report",
            "command": rep.command,
            "lines": list(rep.lines),
            "exit": rep.exit_code}


def report_from_doc(doc) -> Report:
    lines = _field(doc, "lines", list, [])
    if not all(isinstance(line, str) for line in lines):
        raise ValidationError("report lines must be strings")
    return Report(command=_field(doc, "command", str, ""), lines=tuple(lines),
                  exit_code=_field(doc, "exit", int, 0))


# -- document front door --------------------------------------------------------

_RENDERERS = {
    VectorBundle: bundle_to_doc,
    EquivariantStructure: structure_to_doc,
    DecompositionCertificate: certificate_to_doc,
    Report: report_to_doc,
}

_PARSERS = {
    "bundle": bundle_from_doc,
    "structure": structure_from_doc,
    "certificate": certificate_from_doc,
    "report": report_from_doc,
}


def render_document(obj) -> str:
    for cls, fn in _RENDERERS.items():
        if isinstance(obj, cls):
            return _dump(fn(obj))
    raise TypeError(f"no document form for {type(obj).__name__}")


def parse_document(text: str):
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as err:
        raise ParseError(err.msg, line=err.lineno, column=err.colno) from None
    except RecursionError:
        raise ParseError("document is nested too deeply") from None
    if not isinstance(doc, dict):
        raise ValidationError("document must be a JSON object")
    kind = _field(doc, "kind", str)
    parser = _PARSERS.get(kind)
    if parser is None:
        raise ValidationError(f"unknown document kind {kind!r}")
    return parser(doc)


# -- CLI shortcuts ----------------------------------------------------------------

def parse_degrees(text: str) -> list:
    """The splitting degrees of a shortcut O(d), O(d)+O(e)+..., or tangent,
    in the order written."""
    text = text.strip()
    if text == "tangent":
        return [2]
    parts = text.split("+")
    if len(parts) > MAX_RANK:
        raise ValidationError(f"{len(parts)} summands exceed the rank cap {MAX_RANK}")
    degrees = []
    for part in parts:
        part = part.strip()
        if not (part.startswith("O(") and part.endswith(")")):
            raise ParseError(f"bad bundle shortcut {part!r}")
        try:
            degrees.append(int(part[2:-1]))
        except ValueError:
            raise ParseError(f"bad degree in {part!r}") from None
        if abs(degrees[-1]) > MAX_EXPONENT:
            raise ParseError(f"degree in {part!r} exceeds {MAX_EXPONENT} "
                             "in absolute value")
    return degrees


def parse_bundle_shortcut(text: str, conductor: int) -> VectorBundle:
    """The model bundle diag(z^d) of a shortcut (`parse_degrees`)."""
    _conductor(conductor, "conductor")
    return model_bundle(conductor, parse_degrees(text))


def parse_group_shortcut(text: str) -> GroupSpec:
    """cyclic:N or klein."""
    text = text.strip().lower()
    if text == "klein":
        return klein()
    if text.startswith("cyclic:"):
        try:
            n = int(text.split(":", 1)[1])
        except ValueError:
            raise ParseError(f"bad cyclic order in {text!r}") from None
        return cyclic(_conductor(n, "cyclic order"))
    raise ParseError(f"bad group {text!r}; expected cyclic:N or klein")


def parse_character_shortcut(text: str, G: GroupSpec) -> Character:
    """Cyclic: the index k; Klein: two signs like '+-'."""
    text = text.strip()
    if G.kind == "cyclic":
        try:
            return Character(G, index=int(text) % G.n)
        except ValueError:
            raise ParseError(f"bad character index {text!r}") from None
    if len(text) == 2 and set(text) <= {"+", "-"}:
        signs = tuple(1 if c == "+" else -1 for c in text)
        return Character(G, signs=signs)
    raise ParseError(f"bad Klein character {text!r}; expected e.g. '+-'")
