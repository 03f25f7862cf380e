import json
import os
import subprocess
import sys
from pathlib import Path
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

import eqbundles
from eqbundles.bundle import make_bundle
from eqbundles.cli import main
from eqbundles.cyclotomic import MAX_CONDUCTOR
from eqbundles.equivariant import (EquivariantStructure, canonical_structure,
                                   direct_sum_structures, twist_by_character,
                                   validate_structure, validation_report)
from eqbundles.errors import ParseError, ValidationError
from eqbundles.group import characters, cyclic, klein
from eqbundles.laurent import MAX_EXPONENT, parse_laurent
from eqbundles.randgen import planted_bundle, random_certificate
from eqbundles.serialize import (MAX_RANK, _matrix_from_doc, bundle_from_doc,
                                 parse_bundle_shortcut,
                                 parse_character_shortcut, parse_document,
                                 parse_group_shortcut, render_document)

from conftest import M


# -- documents -------------------------------------------------------------------

def test_bundle_document_example():
    text = json.dumps({"kind": "bundle", "rank": 1, "conductor": 4,
                       "transition": [["z^-1"]]})
    E = parse_document(text)
    assert E.rank == 1 and E.degree() == -1 and E.conductor == 4


def test_bundle_document_roundtrip():
    rng = Random(51)
    for _ in range(8):
        E, _ = planted_bundle(rng, rng.choice([1, 3, 4]), rng.randint(1, 3), -3, 3)
        text = render_document(E)
        assert parse_document(text) == E
        assert render_document(parse_document(text)) == text


def test_structure_document_roundtrip():
    for S in (canonical_structure(klein(), [2]), canonical_structure(klein(), [-1, -1]),
              canonical_structure(cyclic(3), [1, -1]),
              canonical_structure(klein(), [-1], lift=True)):
        text = render_document(S)
        back = parse_document(text)
        assert back == S
        assert back.lift == S.lift
        assert validate_structure(back)
        assert render_document(back) == text


def test_certificate_document_roundtrip():
    rng = Random(52)
    for _ in range(5):
        G = klein() if rng.random() < 0.5 else cyclic(rng.randint(1, 3))
        cert = random_certificate(rng, G, 3, -2, 2)
        text = render_document(cert)
        back = parse_document(text)
        assert back.block_data() == cert.block_data()
        assert back.change_of_frame == cert.change_of_frame
        assert render_document(back) == text


def test_parse_error_has_position():
    with pytest.raises(ParseError) as err:
        parse_document("{ not json")
    assert err.value.line == 1 and err.value.column is not None


@pytest.mark.parametrize("doc, where, column", [
    ({"kind": "bundle", "conductor": 1, "transition": [["1", "0"], ["z^201", "1"]]},
     "transition entry (2, 1)", 3),
    ({"kind": "structure", "group": {"kind": "cyclic", "n": 2},
      "bundle": {"kind": "bundle", "conductor": 1, "transition": [["z"]]},
      "maps": {"e": [["1"]], "g": [["-1+)"]]}}, "maps.g entry (1, 1)", 4),
    ({"kind": "certificate", "group": {"kind": "cyclic", "n": 2}, "conductor": 2,
      "even_blocks": [{"degree": 0, "character": {"index": 1}}] * 2,
      "change_of_frame": [["1", "0"], ["0", "z3"]]}, "change_of_frame entry (2, 2)", 1),
], ids=["transition", "map", "change-of-frame"])
def test_parse_error_names_the_matrix_entry(doc, where, column):
    with pytest.raises(ParseError) as err:
        parse_document(json.dumps(doc))
    assert str(err.value).startswith(f"{where}: ")
    assert err.value.line == 1 and err.value.column == column


_ENTRY_POOL = ["0", "1", "z", "-z^-2", "(1+z4)·z^3", "2/3·z4^3", "1-z^200",
               "z^201", "1+", "z^150·z^100", "z3", "()"]


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 4).flatmap(lambda cols: st.lists(
    st.lists(st.sampled_from(_ENTRY_POOL), min_size=cols, max_size=cols),
    min_size=1, max_size=4)))
def test_matrix_parses_each_distinct_text_once_with_the_same_outcome(grid):
    expected = None
    for i, row in enumerate(grid, 1):
        for j, s in enumerate(row, 1):
            try:
                parse_laurent(s, 4)
            except ParseError as err:
                expected = expected or (f"x entry ({i}, {j}): {err}", err.column)
    try:
        A = _matrix_from_doc(grid, 4, "x")
    except ParseError as err:
        assert (str(err), err.column) == expected
        return
    assert expected is None
    assert A.entries == tuple(tuple(parse_laurent(s, 4) for s in row) for row in grid)
    # repeats of a text share one polynomial
    texts = {s for row in grid for s in row}
    assert len({id(p) for row in A.entries for p in row}) == len(texts)


def test_validation_errors():
    with pytest.raises(ValidationError):
        parse_document(json.dumps({"kind": "mystery"}))
    with pytest.raises(ValidationError):
        bundle_from_doc({"kind": "bundle", "conductor": 1, "rank": 2,
                         "transition": [["z"]]})
    with pytest.raises(ValidationError):
        bundle_from_doc({"kind": "bundle", "conductor": 1,
                         "transition": [["z+1"]]})


def test_shortcuts():
    E = parse_bundle_shortcut("O(-1)+O(3)", 1)
    assert E.rank == 2 and E.degree() == 2
    assert parse_bundle_shortcut("tangent", 4).degree() == 2
    assert parse_group_shortcut("cyclic:5").n == 5
    assert parse_group_shortcut("klein").kind == "klein"
    with pytest.raises(ParseError):
        parse_bundle_shortcut("O(x)", 1)
    chi = parse_character_shortcut("+-", klein())
    assert chi.signs == (1, -1)
    assert parse_character_shortcut("3", cyclic(4)).index == 3


# -- CLI ----------------------------------------------------------------------------

def test_cli_obstruction_exit_codes(capsys):
    assert main(["obstruction", "--bundle", "O(-1)", "--group", "klein"]) == 1
    out = capsys.readouterr().out
    assert "odd degree" in out
    assert main(["obstruction", "--bundle", "O(-1)+O(-1)", "--group", "klein"]) == 0
    assert main(["obstruction", "--bundle", "O(-1)", "--group", "cyclic:3"]) == 0


def test_cli_obstruction_computes_the_splitting_type_once(capsys, monkeypatch):
    """One splitting type per Klein query and none for a cyclic group, with
    the unpaired odd degrees printed off it."""
    import eqbundles.cli as cli
    import eqbundles.equivariant as equivariant
    calls = []
    real = cli.splitting_type

    def counted(E):
        calls.append(E.rank)
        return real(E)

    for module in (cli, equivariant):
        monkeypatch.setattr(module, "splitting_type", counted)
    for bundle, group, code, out, n in (
            ("O(3)+O(1)+O(1)+O(-1)", "klein", 1,
             "obstruction: odd degree [3, -1] with odd multiplicity", 1),
            ("O(1)+O(1)+O(2)", "klein", 0, "equivariant structure exists", 1),
            ("O(-1)", "cyclic:3", 0, "equivariant structure exists", 0)):
        calls.clear()
        assert main(["obstruction", "--bundle", bundle, "--group", group]) == code
        assert capsys.readouterr().out == out + "\n"
        assert len(calls) == n


def test_cli_certificate_conductor_must_be_a_multiple_of_the_groups(tmp_path, capsys):
    """A cyclic(6) certificate at conductor 3, or a Klein one at 6, is an
    input error, exit 2 with the same message, for validate, build and
    verify-cert alike; exit 1 stays for mathematical falsity."""
    s_path = tmp_path / "s.json"
    assert main(["canonical", "--group", "cyclic:6", "--target", "O(1)+O(0)",
                 "--out", str(s_path)]) == 0
    index = {"index": 0}
    for group, conductor, blocks, bad in (
            ({"kind": "cyclic", "n": 6}, 3, [(1, index), (0, index)],
             "3 is no multiple of cyclic(6)'s 6"),
            ({"kind": "klein"}, 6, [(0, {"a1": 1, "a2": 1})],
             "6 is no multiple of klein's 4")):
        c_path = tmp_path / "c.json"
        c_path.write_text(json.dumps({
            "kind": "certificate", "group": group, "conductor": conductor,
            "even_blocks": [{"degree": d, "character": chi} for d, chi in blocks],
            "odd_blocks": [], "change_of_frame": [["1" if i == j else "0" for j in blocks]
                                                  for i in blocks]}))
        capsys.readouterr()
        for argv in (["validate", str(c_path)],
                     ["build", "--cert", str(c_path), "--target", "O(1)+O(0)"],
                     ["verify-cert", "--cert", str(c_path), "--structure", str(s_path)]):
            assert main(argv) == 2
            out, err = capsys.readouterr()
            assert out == "" and err == f"error: inconsistent certificate: conductor {bad}\n"


def test_cli_split_type(capsys):
    assert main(["split-type", "--bundle", "O(3)+O(-1)"]) == 0
    assert capsys.readouterr().out.strip() == "{3, -1}"


def test_cli_split_type_from_document(tmp_path, capsys):
    E = make_bundle(M([["z", "1"], ["0", "z"]]))
    path = tmp_path / "jordan.json"
    path.write_text(render_document(E))
    assert main(["split-type", "--bundle", str(path)]) == 0
    assert capsys.readouterr().out.strip() == "{1, 1}"


def test_cli_degree_and_hn(capsys):
    assert main(["degree", "--bundle", "O(2)+O(2)"]) == 0
    assert capsys.readouterr().out.strip() == "4"
    assert main(["hn", "--bundle", "O(2)+O(2)+O(0)"]) == 0
    assert capsys.readouterr().out.strip() == "slope 2 rank 2; slope 0 rank 1"


def test_cli_sections(capsys):
    assert main(["sections", "--bundle", "O(1)", "--twist", "1"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("dimension 3")
    assert main(["sections", "--bundle", "O(1)+O(2)"]) == 0
    assert capsys.readouterr().out == (
        "dimension 5\n"
        "section 0: s0 = (z, 0); sinf = (1, 0)\n"
        "section 1: s0 = (1, 0); sinf = (z, 0)\n"
        "section 2: s0 = (0, z^2); sinf = (0, 1)\n"
        "section 3: s0 = (0, z); sinf = (0, z)\n"
        "section 4: s0 = (0, 1); sinf = (0, z^2)\n")


def _exponent_cap_doc(n):
    """Rank-n block-diagonal bundle document of [[z^200, 1], [0, z^-200]]
    blocks, the exponent cap's worst case."""
    grid = [["0"] * n for _ in range(n)]
    for b in range(0, n, 2):
        grid[b][b], grid[b][b + 1], grid[b + 1][b + 1] = "z^200", "1", "z^-200"
    return {"kind": "bundle", "rank": n, "conductor": 1, "transition": grid}


def test_cli_closed_output_exits_2_without_traceback(tmp_path):
    # the rank-8 exponent-cap document at --twist 200 prints about 131 KB,
    # more than a pipe buffer holds; the reader closes at once
    doc = tmp_path / "cap.json"
    doc.write_text(json.dumps(_exponent_cap_doc(8)))
    read, write = os.pipe()
    os.close(read)
    env = dict(os.environ, PYTHONPATH=str(Path(eqbundles.__file__).parents[1]))
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "eqbundles.cli", "sections", "--bundle",
             str(doc), "--twist", "200"],
            stdout=write, stderr=subprocess.PIPE, env=env, timeout=60)
    finally:
        os.close(write)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr.decode()
    assert "error: output closed" in proc.stderr.decode()


def test_cli_document_flow(tmp_path, capsys):
    s_path = tmp_path / "s.json"
    c_path = tmp_path / "c.json"
    assert main(["canonical", "--group", "klein", "--target", "O(-1)+O(-1)",
                 "--out", str(s_path)]) == 0
    assert main(["validate", str(s_path)]) == 0
    assert main(["equiv-check", str(s_path)]) == 0
    assert main(["decompose", str(s_path), "--out", str(c_path)]) == 0
    assert main(["verify-cert", "--cert", str(c_path),
                 "--structure", str(s_path)]) == 0
    s2_path = tmp_path / "s2.json"
    assert main(["build", "--cert", str(c_path), "--out", str(s2_path)]) == 0
    assert main(["equivalent", str(s_path), str(s2_path)]) == 0
    capsys.readouterr()


def test_cli_embeds_a_bundle_into_the_group_field(tmp_path, capsys):
    """A conductor-1 bundle under cyclic(3) is embedded at conductor 3 when
    the structure is built; it is O(1) + O(-1) by the identity frame."""
    ident = [["1", "0"], ["0", "1"]]
    s_path, c_path = tmp_path / "s.json", tmp_path / "c.json"
    s_path.write_text(json.dumps({
        "kind": "structure", "group": {"kind": "cyclic", "n": 3},
        "bundle": {"kind": "bundle", "conductor": 1, "rank": 2,
                   "transition": [["z", "1"], ["0", "z^-1"]]},
        "maps": {"e": ident, "g": ident, "g^2": ident}}))
    assert main(["validate", str(s_path)]) == 0
    assert capsys.readouterr().out == "valid structure\n"
    assert main(["decompose", str(s_path), "--out", str(c_path)]) == 0
    cert = json.loads(c_path.read_text())
    assert cert["conductor"] == 3 and cert["change_of_frame"] == ident
    assert [(b["degree"], b["character"]) for b in cert["even_blocks"]] == \
        [(1, {"index": 0}), (-1, {"index": 0})]
    assert main(["verify-cert", "--cert", str(c_path), "--structure", str(s_path)]) == 0
    capsys.readouterr()


def test_cli_build_writes_the_bytes_of_canonical(tmp_path, capsys):
    """`canonical` and `build` assemble the canonical blocks through one
    function: decomposing a canonical structure and building from its
    certificate, with no target or onto the same shortcut, writes the
    same document; `tangent` and `O(2)` are one bundle."""
    rng = Random(59)
    cases = [(f"cyclic:{n}", sorted((rng.randint(-5, 5) for _ in range(rng.randint(1, 4))),
                                    reverse=True)) for n in range(1, 13)]
    cases += [("klein", [2, 1, 1, 0, -3, -3]), ("klein", [-1, -1]), ("klein", [4, 0, 0]),
              ("klein", [5, 5, 5, 5, -2])]
    cases += [(group, "tangent") for group in ("klein", "cyclic:1", "cyclic:4", "cyclic:12")]
    s_path, c_path, b_path = (tmp_path / name for name in ("s.json", "c.json", "b.json"))
    for group, degrees in cases:
        target = degrees if degrees == "tangent" else "+".join(f"O({d})" for d in degrees)
        assert main(["canonical", "--group", group, "--target", target,
                     "--out", str(s_path)]) == 0
        expected = s_path.read_text()
        assert main(["decompose", str(s_path), "--out", str(c_path)]) == 0
        builds = [[], ["--target", target]]
        if degrees == "tangent":
            builds.append(["--target", "O(2)"])
            assert main(["canonical", "--group", group, "--target", "O(2)",
                         "--out", str(s_path)]) == 0
            assert s_path.read_text() == expected
        for extra in builds:
            assert main(["build", "--cert", str(c_path), "--out", str(b_path)] + extra) == 0
            assert b_path.read_text() == expected, (group, target, extra)
    capsys.readouterr()


def test_cli_build_onto_target(tmp_path, capsys):
    from eqbundles.equivariant import transport_structure
    from eqbundles.randgen import random_unimodular
    rng = Random(53)
    S0 = canonical_structure(klein(), [-1, -1])
    P = random_unimodular(rng, 4, 2, var_sign=1, ops=2)
    Q = random_unimodular(rng, 4, 2, var_sign=-1, ops=2)
    E = make_bundle(P @ S0.bundle.transition @ Q)
    S = transport_structure(S0, P, E)
    s_path = tmp_path / "s.json"
    s_path.write_text(render_document(S))
    c_path = tmp_path / "c.json"
    assert main(["decompose", str(s_path), "--out", str(c_path)]) == 0
    t_path = tmp_path / "target.json"
    t_path.write_text(render_document(E))
    r_path = tmp_path / "rebuilt.json"
    assert main(["build", "--cert", str(c_path), "--target", str(t_path),
                 "--out", str(r_path)]) == 0
    rebuilt = parse_document(r_path.read_text())
    assert rebuilt == S
    capsys.readouterr()


def test_cli_canonical_rejects_odd_klein(capsys):
    assert main(["canonical", "--group", "klein", "--target", "O(-1)"]) == 1
    assert "no such structure" in capsys.readouterr().out


def test_cli_canonical_lift(tmp_path, capsys):
    out = tmp_path / "lift.json"
    assert main(["canonical", "--group", "klein", "--target", "O(-1)",
                 "--lift", "--out", str(out)]) == 0
    assert main(["validate", str(out)]) == 0
    capsys.readouterr()


def test_cli_verify_cert_rejects_a_lift_structure(tmp_path, capsys):
    # a lift structure is input of the wrong kind, as for decompose: exit 2
    s_path, c_path, lift_path = (tmp_path / f for f in ("s.json", "c.json", "lift.json"))
    assert main(["canonical", "--group", "klein", "--target", "O(-1)+O(-1)",
                 "--out", str(s_path)]) == 0
    assert main(["decompose", str(s_path), "--out", str(c_path)]) == 0
    assert main(["canonical", "--group", "klein", "--target", "O(3)", "--lift",
                 "--out", str(lift_path)]) == 0
    capsys.readouterr()
    assert main(["decompose", str(lift_path)]) == 2
    assert main(["verify-cert", "--cert", str(c_path),
                 "--structure", str(lift_path)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.splitlines()[-1] == ("error: InvalidStructure: certificates "
                                    "describe genuine structures")


def test_cli_invalid_structure_names_the_failed_check(tmp_path, capsys):
    S = canonical_structure(klein(), [2])
    maps = dict(S.maps)
    maps["a2"] = maps["a2"].scale(2)
    bad = EquivariantStructure(S.bundle, S.group, maps)
    first = validation_report(bad)[0]
    assert first.startswith("cocycle fails on (") and "'a2'" in first
    s_path, bad_path, c_path = (tmp_path / f for f in ("s.json", "bad.json", "c.json"))
    s_path.write_text(render_document(S))
    bad_path.write_text(render_document(bad))
    assert main(["decompose", str(s_path), "--out", str(c_path)]) == 0
    capsys.readouterr()
    for argv in (["decompose", str(bad_path)],
                 ["equivalent", str(bad_path), str(s_path)],
                 ["equivalent", str(s_path), str(bad_path)]):
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == "" and err == f"error: InvalidStructure: {first}\n"
    # a certificate that does not replay is a mathematical falsity
    assert main(["verify-cert", "--cert", str(c_path),
                 "--structure", str(bad_path)]) == 1
    out = capsys.readouterr().out
    assert out.startswith("fail: conjugated built structure differs at 'a2'")


def test_cli_rejects_a_certificate_of_the_wrong_degree(tmp_path, capsys):
    # F = 1 - z^2 is regular and invertible at 0, and T^-1 F = z^-2 - 1 at
    # infinity, but F maps O(0) into the tangent bundle O(2)
    t_path, c_path = tmp_path / "t.json", tmp_path / "c.json"
    assert main(["canonical", "--group", "klein", "--target", "tangent",
                 "--out", str(t_path)]) == 0
    c_path.write_text(json.dumps({
        "kind": "certificate", "group": {"kind": "klein"}, "conductor": 4,
        "even_blocks": [{"degree": 0, "character": {"a1": -1, "a2": 1}}],
        "odd_blocks": [], "change_of_frame": [["1-z^2"]]}))
    capsys.readouterr()
    reason = "model degree 0 != bundle degree 2"
    assert main(["verify-cert", "--cert", str(c_path), "--structure", str(t_path)]) == 1
    assert capsys.readouterr().out.splitlines()[0] == f"fail: {reason}"
    assert main(["build", "--cert", str(c_path), "--target", "tangent"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == f"error: ShapeMismatch: {reason}\n"


def test_cli_decompose_names_a_bug_as_internal_inconsistency(
        tmp_path, capsys, monkeypatch):
    import eqbundles.classify as classify
    real = classify.rep_decompose
    monkeypatch.setattr(classify, "rep_decompose",
                        lambda rho: [(chi, v) for (chi, _), (_, v)
                                     in zip(real(rho), reversed(real(rho)))])
    chi = characters(cyclic(3))[1]
    S = direct_sum_structures(twist_by_character(canonical_structure(cyclic(3), [0]), chi),
                              canonical_structure(cyclic(3), [0]))
    path = tmp_path / "s.json"
    path.write_text(render_document(S))
    assert main(["decompose", str(path)]) == 2
    err = capsys.readouterr().err.splitlines()[-1]
    assert err.startswith("error: InternalInconsistency: decompose produced "
                          "a non-verifying certificate")


def test_cli_twist_char(tmp_path, capsys):
    s_path = tmp_path / "s.json"
    t_path = tmp_path / "t.json"
    assert main(["canonical", "--group", "klein", "--target", "tangent",
                 "--out", str(s_path)]) == 0
    assert main(["twist-char", str(s_path), "--char=-+",
                 "--out", str(t_path)]) == 0
    S = parse_document(t_path.read_text())
    assert S.maps["a1"] == M([["1"]], 4)
    capsys.readouterr()


def test_cli_invalid_structure_exit(tmp_path, capsys):
    doc = {"kind": "structure", "group": {"kind": "klein"},
           "bundle": {"kind": "bundle", "conductor": 4, "transition": [["z^-1"]]},
           "maps": {"e": [["1"]], "a1": [["1"]], "a2": [["z"]], "a1a2": [["z"]]}}
    path = tmp_path / "forged.json"
    path.write_text(json.dumps(doc))
    assert main(["validate", str(path)]) == 1
    out = capsys.readouterr().out
    assert "cocycle" in out


def test_cli_parse_error_exit(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{ nope")
    assert main(["validate", str(path)]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("entry", [
    5, "1/0", "z0",
    pytest.param("(" * 5000 + "z" + ")" * 5000, id="nested-5000"),
    pytest.param("9" * 5000, id="digits-5000"),
    pytest.param("z^" + "9" * 5000, id="exponent-digits-5000")])
def test_cli_malformed_matrix_entry_exit(tmp_path, capsys, entry):
    # exit 1 is reserved for mathematical falsity, so no input error may
    # escape as an exception
    path = tmp_path / "bundle.json"
    path.write_text(json.dumps({"kind": "bundle", "conductor": 1,
                                "transition": [[entry]]}))
    assert main(["validate", str(path)]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_cli_parse_error_quotes_a_bounded_window(tmp_path, capsys):
    entry = "(" * 5000 + "z" + ")" * 5000
    path = tmp_path / "bundle.json"
    path.write_text(json.dumps({"kind": "bundle", "conductor": 1,
                                "transition": [[entry]]}))
    assert main(["validate", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "column 101" in err
    assert len(err) <= 300


@pytest.mark.parametrize("argv", [
    ["sections", "--bundle", "O(3)", "--twist", "300000"],
    ["sections", "--bundle", "O(3)", "--twist", str(-MAX_EXPONENT - 1)],
    ["sections", "--bundle", "O(300000)"],
    ["split-type", "--bundle", "O(2)+O(-300000)"]])
def test_cli_rejects_exponents_above_the_cap(capsys, argv):
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_cli_rejects_document_exponents_above_the_cap(tmp_path, capsys):
    path = tmp_path / "bundle.json"
    for n in (300000, MAX_EXPONENT + 1):
        path.write_text(json.dumps({"kind": "bundle", "conductor": 1,
                                    "transition": [[f"z^{n}", "1"],
                                                   ["0", f"z^-{n}"]]}))
        assert main(["split-type", "--bundle", str(path)]) == 2
        assert "exceeds" in capsys.readouterr().err


def test_cli_accepts_exponents_at_the_cap(capsys):
    assert main(["sections", "--bundle", "O(0)", "--twist", str(MAX_EXPONENT)]) == 0
    assert capsys.readouterr().out.startswith(f"dimension {MAX_EXPONENT + 1}\n")
    assert main(["degree", "--bundle", f"O({-MAX_EXPONENT})"]) == 0
    assert capsys.readouterr().out == f"{-MAX_EXPONENT}\n"


def _line_doc(conductor):
    return {"kind": "bundle", "conductor": conductor, "rank": 1,
            "transition": [["z"]]}


def _cyclic_doc(bundle_conductor, n):
    return {"kind": "structure", "group": {"kind": "cyclic", "n": n},
            "bundle": _line_doc(bundle_conductor), "maps": {}}


_OVER = MAX_CONDUCTOR + 1


@pytest.mark.parametrize("argv, doc", [
    (["split-type", "--bundle", "{doc}"], _line_doc(100000)),
    (["split-type", "--bundle", "{doc}"], _line_doc(_OVER)),
    (["validate", "{doc}"],
     {"kind": "certificate", "group": {"kind": "cyclic", "n": 1},
      "conductor": _OVER, "change_of_frame": [["1"]]}),
    (["validate", "{doc}"], _cyclic_doc(1, _OVER)),
    (["validate", "{doc}"], _cyclic_doc(997, 991)),
    (["canonical", "--group", "cyclic:100000", "--target", "O(1)"], None),
    (["canonical", "--group", f"cyclic:{_OVER}", "--target", "O(1)"], None),
    (["split-type", "--bundle", "O(1)", "--conductor", str(_OVER)], None),
    (["split-type", "--bundle", "O(1)", "--conductor", "0"], None),
], ids=["document-100000", "document", "certificate", "group-order",
        "lcm-997-991", "cyclic-100000", "cyclic", "shortcut", "shortcut-0"])
def test_cli_rejects_conductors_above_the_cap(tmp_path, capsys, argv, doc):
    path = tmp_path / "doc.json"
    if doc is not None:
        path.write_text(json.dumps(doc))
    assert main([str(path) if a == "{doc}" else a for a in argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f"to {MAX_CONDUCTOR}" in err


def test_cli_accepts_conductor_at_the_cap(tmp_path, capsys):
    path = tmp_path / "bundle.json"
    path.write_text(json.dumps(_line_doc(MAX_CONDUCTOR)))
    assert main(["split-type", "--bundle", str(path)]) == 0
    assert capsys.readouterr().out == "{1}\n"


def _identity_doc(n):
    return {"kind": "bundle", "conductor": 1, "rank": n,
            "transition": [["1" if i == j else "0" for j in range(n)]
                           for i in range(n)]}


def test_cli_rejects_rank_above_the_cap(tmp_path, capsys):
    over = MAX_RANK + 1
    path = tmp_path / "doc.json"
    structure = {"kind": "structure", "group": {"kind": "cyclic", "n": 1},
                 "bundle": _identity_doc(over), "maps": {}}
    for doc in (_identity_doc(over), structure):
        path.write_text(json.dumps(doc))
        assert main(["validate", str(path)]) == 2
        assert "rank cap" in capsys.readouterr().err
    assert main(["split-type", "--bundle", "+".join(["O(0)"] * over)]) == 2
    assert "rank cap" in capsys.readouterr().err
    assert main(["fuzz", "--count", "1", "--rank", str(over)]) == 2
    assert "rank cap" in capsys.readouterr().err


def test_cli_accepts_rank_at_the_cap(tmp_path, capsys):
    path = tmp_path / "bundle.json"
    path.write_text(json.dumps(_exponent_cap_doc(2)))
    assert main(["split-type", "--bundle", str(path)]) == 0
    block = capsys.readouterr().out.strip("{}\n").split(", ")
    path.write_text(json.dumps(_exponent_cap_doc(MAX_RANK)))
    assert main(["split-type", "--bundle", str(path)]) == 0
    degrees = sorted(block * (MAX_RANK // 2), key=int, reverse=True)
    assert capsys.readouterr().out == "{" + ", ".join(degrees) + "}\n"
    assert main(["split-type", "--bundle", "+".join(["O(0)"] * MAX_RANK)]) == 0
    assert capsys.readouterr().out == "{" + ", ".join(["0"] * MAX_RANK) + "}\n"


@pytest.mark.parametrize("transition, rank, message", [
    ([["z", "bad!"], ["0"]], None, "ragged matrix rows"),
    ([["z", "bad!"]], None, "non-square matrix"),
    ([["z", "bad!"], ["0", "z"]], 3, "declared rank 3 != matrix size 2"),
], ids=["ragged", "non-square", "declared-rank"])
def test_bundle_document_shape_is_checked_before_any_entry_is_parsed(
        tmp_path, capsys, transition, rank, message):
    doc = {"kind": "bundle", "conductor": 1, "transition": transition}
    if rank is not None:
        doc["rank"] = rank
    path = tmp_path / "bundle.json"
    path.write_text(json.dumps(doc))
    assert main(["validate", str(path)]) == 2
    assert message in capsys.readouterr().err


def test_structure_map_size_is_checked_before_any_entry_is_parsed(tmp_path, capsys):
    S = canonical_structure(klein(), [0])
    doc = json.loads(render_document(S))
    doc["maps"]["a2"] = [["1", "0"], ["0", "(("]]
    path = tmp_path / "structure.json"
    path.write_text(json.dumps(doc))
    assert main(["validate", str(path)]) == 2
    assert capsys.readouterr().err == \
        "error: invalid structure: map for 'a2' is 2x2, rank is 1\n"


@pytest.mark.parametrize("command", ["validate", "decompose"])
def test_cli_rejects_map_names_outside_the_group(tmp_path, capsys, command):
    doc = json.loads(render_document(canonical_structure(klein(), [0])))
    doc["maps"]["bogus"] = [["1"]]
    path = tmp_path / "structure.json"
    path.write_text(json.dumps(doc))
    assert main([command, str(path)]) == 2
    assert capsys.readouterr().err == ("error: invalid structure: map key 'bogus' "
                                       "is not an element of klein\n")


@pytest.mark.parametrize("group, target", [("cyclic:3", "O(2)"),
                                           ("klein", "O(1)+O(1)")])
def test_cli_canonical_lift_rejects_other_targets(capsys, group, target):
    assert main(["canonical", "--group", group, "--target", target, "--lift"]) == 2
    assert capsys.readouterr().err == \
        "error: lift structures are single Klein line bundles\n"


@pytest.mark.parametrize("argv", [["decompose", "s.json", "--seed", "5"],
                                  ["equivalent", "s.json", "s.json", "--seed", "5"]],
                         ids=["decompose", "equivalent"])
def test_cli_seed_is_not_an_option_of_exact_commands(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments: --seed 5" in capsys.readouterr().err


def test_cli_equivalent_exit_codes(tmp_path, capsys):
    s_path = tmp_path / "s.json"
    t_path = tmp_path / "t.json"
    assert main(["canonical", "--group", "klein", "--target", "tangent",
                 "--out", str(s_path)]) == 0
    assert main(["twist-char", str(s_path), "--char=-+",
                 "--out", str(t_path)]) == 0
    capsys.readouterr()
    assert main(["equivalent", str(s_path), str(t_path)]) == 1
    assert capsys.readouterr().out == "not equivalent\n"
    assert main(["equivalent", str(s_path), str(s_path)]) == 0
    assert capsys.readouterr().out == "equivalent\n"


def test_cli_fuzz_deterministic(capsys):
    assert main(["fuzz", "--seed", "7", "--rank", "3", "--count", "25"]) == 0
    first = capsys.readouterr().out
    assert "25/25 splitting-type oracle matches" in first
    assert main(["fuzz", "--seed", "7", "--rank", "3", "--count", "25",
                 "--verbose"]) == 0
    second = capsys.readouterr().out
    assert second.endswith(first)
    assert main(["fuzz", "--seed", "7", "--rank", "3", "--count", "25",
                 "--verbose"]) == 0
    assert capsys.readouterr().out == second


def test_cli_fuzz_report_document(tmp_path, capsys):
    out = tmp_path / "report.json"
    assert main(["fuzz", "--seed", "3", "--count", "10", "--out", str(out)]) == 0
    rep = parse_document(out.read_text())
    assert rep.exit_code == 0
    assert rep.lines[-1] == "10/10 splitting-type oracle matches"
    capsys.readouterr()


_CERT = {"kind": "certificate", "group": {"kind": "cyclic", "n": 2},
         "conductor": 2, "odd_blocks": [], "change_of_frame": [["1"]],
         "even_blocks": [{"degree": 0, "character": {"index": 1}}]}


def test_cli_validate_accepts_the_unmutated_documents(tmp_path, capsys):
    path = tmp_path / "doc.json"
    for doc in (_CERT, _line_doc(1)):
        path.write_text(json.dumps(doc))
        assert main(["validate", str(path)]) == 0
    capsys.readouterr()


@pytest.mark.parametrize("doc", [
    dict(_cyclic_doc(1, 2), bundle=[]),
    dict(_cyclic_doc(1, 2), group="klein"),
    dict(_CERT, even_blocks=[5]),
    dict(_CERT, even_blocks=5),
    dict(_CERT, even_blocks=[{"degree": 0, "character": [1]}]),
    dict(_CERT, odd_blocks=5),
    {"kind": "report", "command": "fuzz", "lines": 5, "exit": 0},
    dict(_line_doc(1), rank=True),
    dict(_CERT, group={"kind": "klein"}, conductor=4,
         even_blocks=[{"degree": 0, "character": {"a1": True, "a2": 1}}]),
    dict(_CERT, group={"kind": "klein"}, conductor=4,
         even_blocks=[{"degree": 0, "character": {"a1": 1, "a2": -1.0}}]),
], ids=["bundle-list", "group-string", "even-blocks-item", "even-blocks-int",
        "character-list", "odd-blocks-int", "report-lines-int", "rank-true",
        "klein-sign-true", "klein-sign-float"])
def test_cli_validate_rejects_mistyped_fields(tmp_path, capsys, doc):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    assert main(["validate", str(path)]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def _klein_cert(even=(), odd=()):
    r = len(even) + 2 * len(odd)
    return {"kind": "certificate", "group": {"kind": "klein"}, "conductor": 4,
            "even_blocks": [{"degree": d, "character": {"a1": 1, "a2": -1}}
                            for d in even],
            "odd_blocks": list(odd),
            "change_of_frame": [["1" if i == j else "0" for j in range(r)]
                                for i in range(r)]}


@pytest.mark.parametrize("doc", [
    _klein_cert(even=[2000]), _klein_cert(even=[-MAX_EXPONENT - 2]),
    _klein_cert(odd=[MAX_EXPONENT + 1]),
    dict(_CERT, even_blocks=[{"degree": MAX_EXPONENT + 1, "character": {"index": 1}}]),
], ids=["klein-2000", "klein-below", "pair-above", "cyclic-above"])
def test_cli_rejects_block_degrees_above_the_cap(tmp_path, capsys, doc):
    path = tmp_path / "cert.json"
    path.write_text(json.dumps(doc))
    for argv in (["validate", str(path)], ["build", "--cert", str(path)]):
        assert main(argv) == 2
        assert f"exceeds {MAX_EXPONENT}" in capsys.readouterr().err


@pytest.mark.parametrize("doc", [
    _klein_cert(even=[MAX_EXPONENT, -MAX_EXPONENT]),
    _klein_cert(odd=[MAX_EXPONENT - 1, 1 - MAX_EXPONENT]),
    {"kind": "certificate", "group": {"kind": "cyclic", "n": 3}, "conductor": 3,
     "odd_blocks": [], "change_of_frame": [["1", "0"], ["0", "1"]],
     "even_blocks": [{"degree": MAX_EXPONENT, "character": {"index": 1}},
                     {"degree": -MAX_EXPONENT, "character": {"index": 2}}]},
], ids=["klein-even", "klein-pair", "cyclic"])
def test_cli_build_at_the_block_degree_cap_parses_back(tmp_path, capsys, doc):
    c_path, s_path = tmp_path / "cert.json", tmp_path / "built.json"
    c_path.write_text(json.dumps(doc))
    assert main(["validate", str(c_path)]) == 0
    assert main(["build", "--cert", str(c_path), "--out", str(s_path)]) == 0
    assert main(["validate", str(s_path)]) == 0
    assert main(["verify-cert", "--cert", str(c_path), "--structure", str(s_path)]) == 0
    capsys.readouterr()


@pytest.mark.parametrize("args", [
    ["--rank", "0"], ["--rank", "-2"], ["--deg-min", "5", "--deg-max", "-5"],
    ["--count", "-1"]])
def test_cli_fuzz_rejects_bad_arguments(capsys, args):
    assert main(["fuzz", "--count", "3"] + args) == 2
    assert capsys.readouterr().err.startswith("error: --")
