"""The CLI contract is total: any input text or document gives exit 0, 1
or 2, and no exception escapes `cli.main`.

The documents are valid documents with one or two parts replaced or
deleted, JSON built out of the keys and values the document kinds use,
and arbitrary text, so that they reach the typed checks, the
mathematical checks and the JSON parser."""

import contextlib
import copy
import io
import json
import tempfile
from pathlib import Path
from random import Random

import pytest
from hypothesis import example, given, settings, strategies as st

from eqbundles.classify import decompose
from eqbundles.cyclotomic import MAX_CONDUCTOR
from eqbundles.cli import main
from eqbundles.equivariant import canonical_structure
from eqbundles.group import cyclic, klein
from eqbundles.randgen import planted_bundle
from eqbundles.serialize import render_document

_KEYS = ("kind", "rank", "conductor", "transition", "group", "n", "bundle",
         "maps", "even_blocks", "odd_blocks", "change_of_frame", "degree",
         "character", "index", "signs", "command", "lines", "exit", "e", "g",
         "a1", "a2", "a1a2", "I", "-I", "A1", "-A1", "A2", "-A2", "A1A2",
         "-A1A2", "multiplicity", "rep")
_WORDS = ("bundle", "structure", "certificate", "report", "cyclic", "klein",
          "klein_lift", "fuzz", "0", "1", "-1", "z", "z^-1", "1+z", "z^2-z^-2",
          "2*z^3", "i", "zeta", "1/2", "1/0", "z^201", "(z", "", "+-")
_SCALARS = st.one_of(st.none(), st.booleans(), st.integers(-3, 12),
                     st.sampled_from([1001, -10 ** 6, 2 ** 70]),
                     st.sampled_from(_WORDS), st.text(max_size=6))
_JSON = st.recursive(
    _SCALARS,
    lambda inner: st.one_of(st.lists(inner, max_size=3),
                            st.dictionaries(st.sampled_from(_KEYS), inner,
                                            max_size=5)),
    max_leaves=20)

_PAIR = canonical_structure(klein(), [-1, -1])
_VALID = [json.loads(render_document(x)) for x in (
    planted_bundle(Random(7), 3, 2, -2, 2)[0], _PAIR, decompose(_PAIR),
    canonical_structure(cyclic(3), [1, 0]), canonical_structure(klein(), [3], lift=True))]


def _paths(doc, prefix=()):
    yield prefix
    items = doc.items() if isinstance(doc, dict) else (
        enumerate(doc) if isinstance(doc, list) else ())
    for key, value in items:
        yield from _paths(value, prefix + (key,))


@st.composite
def _mutated(draw):
    doc = copy.deepcopy(draw(st.sampled_from(_VALID)))
    for _ in range(draw(st.integers(1, 2))):
        *path, key = draw(st.sampled_from(list(_paths(doc))[1:]))
        parent = doc
        for step in path:
            parent = parent[step]
        if isinstance(parent, dict) and draw(st.booleans()):
            del parent[key]
        else:
            parent[key] = draw(_JSON)
    return json.dumps(doc)


_DOCUMENTS = st.one_of(_mutated(), _JSON.map(json.dumps), st.text(max_size=80))
_FILE_COMMANDS = (["validate", "{f}"], ["equiv-check", "{f}"],
                  ["decompose", "{f}"], ["degree", "--bundle", "{f}"],
                  ["split-type", "--bundle", "{f}"], ["hn", "--bundle", "{f}"],
                  ["sections", "--bundle", "{f}"],
                  ["verify-cert", "--cert", "{f}", "--structure", "{s}"],
                  ["verify-cert", "--cert", "{c}", "--structure", "{f}"],
                  ["build", "--cert", "{f}"], ["build", "--cert", "{c}", "--target", "{f}"],
                  ["equivalent", "{s}", "{f}"], ["twist-char", "{f}", "--char", "1"])


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2), (argv, code)
    if code == 2:
        assert err.getvalue().startswith("error: "), err.getvalue()
    return code, err.getvalue()


@settings(max_examples=100, deadline=None)
@given(doc=_DOCUMENTS, command=st.sampled_from(_FILE_COMMANDS))
@example(doc='{"kind": []}', command=["validate", "{f}"])  # was a TypeError
def test_any_document_exits_0_1_or_2(doc, command):
    with tempfile.TemporaryDirectory() as tmp:
        paths = {}
        for key, text in (("f", doc), ("s", json.dumps(_VALID[1])),
                          ("c", json.dumps(_VALID[2]))):
            paths[key] = Path(tmp) / f"{key}.json"
            paths[key].write_text(text, encoding="utf-8")
        _run([arg.format(**paths) for arg in command])


@settings(max_examples=60, deadline=None)
@given(text=st.text(max_size=40),
       command=st.sampled_from(["degree", "split-type", "hn", "obstruction"]))
def test_any_bundle_shortcut_exits_0_1_or_2(text, command):
    argv = [command, f"--bundle={text}"]
    _run(argv + ["--group", "klein"] if command == "obstruction" else argv)


# Bytes that are not UTF-8 and nesting deeper than the interpreter's
# recursion limit, which the text strategy above cannot produce.
@pytest.mark.parametrize("data, message", [
    (b"\xff\xfe", "cannot read"),
    (b"[" * 100000 + b"]" * 100000, "document is nested too deeply")],
    ids=["undecodable", "over-nested"])
def test_undecodable_and_over_nested_documents_exit_2(tmp_path, data, message):
    path = tmp_path / "doc.json"
    path.write_bytes(data)
    code, err = _run(["validate", str(path)])
    assert code == 2 and message in err


@pytest.mark.parametrize("argv", [["canonical", "--group", "cyclic:3", "--target", "O(1)"],
                                  ["fuzz", "--count", "1"]],
                         ids=["canonical", "fuzz"])
def test_unwritable_output_exits_2(tmp_path, argv):
    out = tmp_path / "missing" / "out.json"
    code, err = _run(argv + ["--out", str(out)])
    assert code == 2 and err.startswith(f"error: cannot write {out}: ")


@pytest.mark.parametrize("group", ["cyclic:251", f"cyclic:{MAX_CONDUCTOR}"])
def test_every_written_document_reads_back(tmp_path, group):
    """Each command that writes a document is read by the commands that
    read its kind, at conductors where root powers pass the exponent cap;
    a written document is never an input error."""
    s, t, c, b = (str(tmp_path / f"{name}.json") for name in "stcb")
    for argv in (["canonical", "--group", group, "--target", "O(1)", "--out", s],
                 ["twist-char", s, "--char", "1", "--out", t],
                 ["decompose", t, "--out", c],
                 ["build", "--cert", c, "--out", b]):
        code, err = _run(argv)
        assert code == 0, (argv, err)
    for argv in ([["validate", f] for f in (s, t, c, b)]
                 + [["decompose", f] for f in (s, t, b)]
                 + [["verify-cert", "--cert", c, "--structure", f] for f in (s, t, b)]
                 + [["build", "--cert", c, "--target", "O(1)"]]):
        code, err = _run(argv)
        assert code in (0, 1), (argv, err)
