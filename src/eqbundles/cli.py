"""Command-line front end.

Exit codes: 0 on success / mathematical truth, 1 on mathematical falsity
(an obstruction, a failed validation, a non-verifying certificate), 2 on
input errors or an unwritable or closed output.  All output is deterministic given the
inputs, `fuzz --seed` included.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from .bundle import VectorBundle, global_sections, hn_data, splitting_type, twist
from .classify import (DecompositionCertificate, build_structure, decompose,
                       verify_certificate_report)
from .equivariant import (EquivariantStructure, canonical_structure, existence,
                          structures_equivalent, twist_by_character,
                          unpaired_odd_degrees, validation_report)
from .errors import (EqBundlesError, NoSuchStructure, ParseError,
                     ValidationError)
from .laurent import MAX_EXPONENT, render_laurent
from .serialize import (MAX_RANK, Report, parse_bundle_shortcut,
                        parse_character_shortcut, parse_degrees, parse_document,
                        parse_group_shortcut, render_document)


def _read_document(path: str):
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as err:
        raise ParseError(f"cannot read {path}: {err}") from None
    return parse_document(text)


def _load(path: str, cls, kind: str):
    doc = _read_document(path)
    if not isinstance(doc, cls):
        raise ValidationError(f"{path} is not a {kind} document")
    return doc


def _load_bundle(spec: str, conductor: int):
    try:
        is_file = Path(spec).is_file()
    except OSError:  # e.g. a shortcut longer than a file name may be
        is_file = False
    if is_file:
        return _load(spec, VectorBundle, "bundle")
    return parse_bundle_shortcut(spec, conductor)


def _write(path: str, text: str):
    try:
        Path(path).write_text(text, encoding="utf-8")
    except OSError as err:
        raise ValidationError(f"cannot write {path}: {err}") from None


def _emit_document(obj, out):
    text = render_document(obj)
    if out:
        _write(out, text)
        print(f"wrote {out}")
    else:
        sys.stdout.write(text)


def _report(problems, prefix: str, success: str) -> int:
    """Print each problem, or the success line; exit 1 on problems."""
    for p in problems:
        print(f"{prefix}: {p}")
    if problems:
        return 1
    print(success)
    return 0


# -- command handlers -----------------------------------------------------------

def _cmd_validate(args):
    doc = _read_document(args.file)
    if isinstance(doc, EquivariantStructure):
        return _report(validation_report(doc), "invalid", "valid structure")
    if isinstance(doc, VectorBundle):
        print(f"valid bundle: rank {doc.rank}, degree {doc.degree()}")
        return 0
    print("valid document")
    return 0


def _cmd_degree(args):
    E = _load_bundle(args.bundle, args.conductor)
    print(E.degree())
    return 0


def _cmd_split_type(args):
    E = _load_bundle(args.bundle, args.conductor)
    print(splitting_type(E))
    return 0


def _cmd_sections(args):
    if abs(args.twist) > MAX_EXPONENT:
        raise ValidationError(f"--twist {args.twist} exceeds {MAX_EXPONENT} "
                              "in absolute value")
    E = twist(_load_bundle(args.bundle, args.conductor), args.twist)
    secs = global_sections(E)
    print(f"dimension {len(secs)}")
    for i, s in enumerate(secs):
        z_part = ", ".join(render_laurent(p) for p in s.s_zero)
        w_part = ", ".join(render_laurent(p) for p in s.s_infty)
        print(f"section {i}: s0 = ({z_part}); sinf = ({w_part})")
    return 0


def _cmd_hn(args):
    E = _load_bundle(args.bundle, args.conductor)
    steps = hn_data(E).steps
    print("; ".join(f"slope {s} rank {r}" for s, r in steps))
    return 0


def _cmd_equiv_check(args):
    return _report(validation_report(_load(args.file, EquivariantStructure, "structure")),
                   "fail", "cocycle, identity, and regularity checks all pass")


def _cmd_obstruction(args):
    G = parse_group_shortcut(args.group)
    E = _load_bundle(args.bundle, args.conductor or G.conductor)
    if existence(E, G):
        print("equivariant structure exists")
        return 0
    odd = unpaired_odd_degrees(splitting_type(E).degrees)
    print(f"obstruction: odd degree {odd} with odd multiplicity")
    return 1


def _cmd_canonical(args):
    G = parse_group_shortcut(args.group)
    S = canonical_structure(G, parse_degrees(args.target), lift=args.lift)
    _emit_document(S, args.out)
    return 0


def _cmd_twist_char(args):
    S = _load(args.file, EquivariantStructure, "structure")
    chi = parse_character_shortcut(args.char, S.group)
    _emit_document(twist_by_character(S, chi), args.out)
    return 0


def _cmd_decompose(args):
    S = _load(args.file, EquivariantStructure, "structure")
    cert = decompose(S)
    _emit_document(cert, args.out)
    return 0


def _cmd_verify_cert(args):
    cert = _load(args.cert, DecompositionCertificate, "certificate")
    S = _load(args.structure, EquivariantStructure, "structure")
    return _report(verify_certificate_report(cert, S), "fail", "certificate verified")


def _cmd_build(args):
    cert = _load(args.cert, DecompositionCertificate, "certificate")
    target = None
    if args.target:
        target = _load_bundle(args.target, cert.conductor)
    S = build_structure(cert, target)
    _emit_document(S, args.out)
    return 0


def _cmd_equivalent(args):
    S1 = _load(args.file1, EquivariantStructure, "structure")
    S2 = _load(args.file2, EquivariantStructure, "structure")
    if structures_equivalent(S1, S2):
        print("equivalent")
        return 0
    print("not equivalent")
    return 1


def _cmd_fuzz(args):
    if args.rank < 1 or args.count < 0:
        raise ValidationError("--rank must be at least 1 and --count at least 0")
    if args.rank > MAX_RANK:
        raise ValidationError(f"--rank {args.rank} exceeds the rank cap {MAX_RANK}")
    if args.deg_min > args.deg_max:
        raise ValidationError(f"--deg-min {args.deg_min} exceeds --deg-max {args.deg_max}")
    from .randgen import splitting_oracle_run
    matches, lines = splitting_oracle_run(args.seed, args.count, args.rank,
                                          args.deg_min, args.deg_max)
    summary = f"{matches}/{args.count} splitting-type oracle matches"
    exit_code = 0 if matches == args.count else 1
    if args.out:
        rep = Report(command="fuzz", lines=tuple(lines + [summary]),
                     exit_code=exit_code)
        _write(args.out, render_document(rep))
    if args.verbose:
        for line in lines:
            print(line)
    print(summary)
    return exit_code


# -- parser -----------------------------------------------------------------------

def _build_parser():
    parser = argparse.ArgumentParser(
        prog="eqbundles",
        description="Exact equivariant vector bundle computations on the "
                    "projective line.")
    sub = parser.add_subparsers(dest="command", required=True)

    def bundle_opts(p):
        p.add_argument("--bundle", required=True,
                       help="bundle document path or shortcut O(d)[+O(e)...] / tangent")
        p.add_argument("--conductor", type=int, default=1,
                       help="scalar field conductor for shortcuts (default 1)")

    p = sub.add_parser("validate", help="validate any document")
    p.add_argument("file")
    p.set_defaults(fn=_cmd_validate)

    p = sub.add_parser("degree", help="degree of a bundle")
    bundle_opts(p)
    p.set_defaults(fn=_cmd_degree)

    p = sub.add_parser("split-type", help="splitting type of a bundle")
    bundle_opts(p)
    p.set_defaults(fn=_cmd_split_type)

    p = sub.add_parser("sections", help="basis of global sections")
    bundle_opts(p)
    p.add_argument("--twist", type=int, default=0)
    p.set_defaults(fn=_cmd_sections)

    p = sub.add_parser("hn", help="Harder-Narasimhan data of a bundle")
    bundle_opts(p)
    p.set_defaults(fn=_cmd_hn)

    p = sub.add_parser("equiv-check", help="detailed structure validation")
    p.add_argument("file")
    p.set_defaults(fn=_cmd_equiv_check)

    p = sub.add_parser("obstruction", help="does an equivariant structure exist?")
    p.add_argument("--bundle", required=True)
    p.add_argument("--group", required=True, help="cyclic:N or klein")
    p.add_argument("--conductor", type=int, default=0,
                   help="conductor for shortcuts (default: the group's)")
    p.set_defaults(fn=_cmd_obstruction)

    p = sub.add_parser("canonical", help="canonical structure on a model bundle")
    p.add_argument("--group", required=True)
    p.add_argument("--target", required=True,
                   help="O(d)[+O(e)...] or tangent")
    p.add_argument("--lift", action="store_true",
                   help="build the Klein lift-group structure")
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_canonical)

    p = sub.add_parser("twist-char", help="twist a structure by a character")
    p.add_argument("file")
    p.add_argument("--char", required=True,
                   help="cyclic: index k; klein: two signs like '+-'")
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_twist_char)

    p = sub.add_parser("decompose", help="classify a structure")
    p.add_argument("file")
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_decompose)

    p = sub.add_parser("verify-cert", help="replay a certificate against a structure")
    p.add_argument("--cert", required=True)
    p.add_argument("--structure", required=True)
    p.set_defaults(fn=_cmd_verify_cert)

    p = sub.add_parser("build", help="rebuild a structure from a certificate")
    p.add_argument("--cert", required=True)
    p.add_argument("--target", help="conjugate onto this bundle")
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_build)

    p = sub.add_parser("equivalent", help="are two structures equivalent?")
    p.add_argument("file1")
    p.add_argument("file2")
    p.set_defaults(fn=_cmd_equivalent)

    p = sub.add_parser("fuzz", help="planted splitting-type oracle run")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--rank", type=int, default=3)
    p.add_argument("--count", type=int, default=100)
    p.add_argument("--deg-min", type=int, default=-5)
    p.add_argument("--deg-max", type=int, default=5)
    p.add_argument("--verbose", action="store_true")
    p.add_argument("--out", help="also write a report document")
    p.set_defaults(fn=_cmd_fuzz)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except NoSuchStructure as err:
        print(f"no such structure: {err}")
        return 1
    except (ParseError, ValidationError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except EqBundlesError as err:
        print(f"error: {type(err).__name__}: {err}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # the reader is gone: send what is still buffered to devnull
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        print("error: output closed", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
