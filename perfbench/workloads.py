"""The benchmark's four workloads: seeded inputs, the request each case
makes, an independent check of its answer, and a traced replay.

Every case is a user request: input documents (canonical JSON text) in,
an answer document or line out.  Inputs are generated before timing from
the workload name and the seed alone; the library sees only the
generated documents.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from random import Random
from typing import Callable

from eqbundles.bundle import (SplittingType, make_bundle, model_isomorphism,
                              splitting_type)
from eqbundles.classify import (DecompositionCertificate, averaging_intertwiner,
                                block_diagonal_part, build_structure, decompose,
                                extract_residual_rep, pullback_structure,
                                rep_decompose, verify_certificate,
                                verify_certificate_report)
from eqbundles.equivariant import (conjugate_structure, structures_equivalent,
                                   transport_structure, validate_structure)
from eqbundles.group import characters, cyclic, klein
from eqbundles.laurent import LaurentMatrix, LaurentPoly
from eqbundles.randgen import (random_certificate, random_model_automorphism,
                               random_unimodular)
from eqbundles.serialize import parse_document, render_document


@dataclass(frozen=True)
class Case:
    """One request: its input documents and the planted ground truth."""
    id: int
    docs: tuple
    expected: object


@dataclass(frozen=True)
class Workload:
    """`pool` is the number of distinct cases a run generates;
    `generate(rng, index)` makes one; `solve` is the timed request and
    returns (answer text, context the check reuses); `check` judges the
    answer against the planted truth; `replay` repeats the request stage
    by stage under a span recorder; `same` compares an untraced answer
    with the replayed one."""
    name: str
    pool: int
    generate: Callable
    solve: Callable
    check: Callable
    replay: Callable
    same: Callable


class CheckFailed(Exception):
    """An answer or a replayed stage disagreed with its independent check."""


def input_digest(cases) -> str:
    """sha256 over every input document, in case order."""
    h = hashlib.sha256()
    for case in cases:
        for doc in case.docs:
            h.update(doc.encode("utf-8"))
            h.update(b"\0")
    return h.hexdigest()


# ---------------------------------------------------------------------------
# classification: parse -> decompose -> render -> parse back -> verify
# ---------------------------------------------------------------------------

def _model_degrees(cert: DecompositionCertificate) -> list:
    """Degrees of the certificate's model bundle, descending; a pair
    block counts twice."""
    return sorted([d for d, _ in cert.even_blocks]
                  + [d for d in cert.odd_blocks for _ in (0, 1)], reverse=True)


# Off-diagonal terms kept in each scrambling automorphism.  A full
# random_model_automorphism on the rank-8 Klein model has about 25 of
# them, and decompose time then ranges over 2-5 s with no input property
# that predicts it, so a 20 s run's median moved 30-40% between seeds.
# With three terms a case takes about 1.3 s and varies by about 16%.
SCRAMBLE_TERMS = 3


def _scramble(rng: Random, conductor: int, degrees) -> LaurentMatrix:
    """A random_model_automorphism of diag(z^degrees) with all but
    SCRAMBLE_TERMS of its entries between different degrees set to zero;
    the constant diagonal blocks stay, so it is still an automorphism."""
    U = random_model_automorphism(rng, conductor, degrees)
    r = len(degrees)
    off = [(i, j) for i in range(r) for j in range(r)
           if degrees[i] > degrees[j] and not U.entries[i][j].is_zero()]
    keep = set(rng.sample(off, min(SCRAMBLE_TERMS, len(off))))
    zero = LaurentPoly.zero(conductor)
    return LaurentMatrix(conductor, [
        [p if degrees[i] == degrees[j] or (i, j) in keep else zero
         for j, p in enumerate(row)] for i, row in enumerate(U.entries)])


def _planted_case(index: int, rng: Random, draw_certificate,
                  max_kb: float) -> Case:
    """A drawn certificate's structure, scrambled by an automorphism of its
    model bundle, then moved onto the planted frame A * T * B; drawn again
    until the structure document is at most max_kb.

    Decompose time grows with the document: one rank-4 cyclic(12)
    document in thirty was 34 KB and took 20x the median, which alone
    decided the run it fell in."""
    while True:
        cert = draw_certificate(rng)
        m, r = cert.conductor, cert.rank
        T = build_structure(cert)
        U = _scramble(rng, m, _model_degrees(cert))
        A = random_unimodular(rng, m, r, var_sign=1)
        B = random_unimodular(rng, m, r, var_sign=-1)
        # conjugating by U and then transporting along A is one transport
        # along A * U, with one matrix inverse instead of two
        S = transport_structure(T, A @ U,
                                make_bundle(A @ T.bundle.transition @ B))
        doc = render_document(S)
        if len(doc) <= max_kb * 1024:
            return Case(index, (doc,), cert.block_data())


def _klein_rank8(rng: Random, index: int) -> Case:
    """The four even blocks carry the four characters of the Klein group
    in a random order.  Drawn independently, the characters repeat in
    most cases, and `averaging_intertwiner` time over 14 cases varied
    with a coefficient of variation of 0.19; as a permutation, 0.13."""
    G = klein()
    chars = characters(G)

    def draw(rng):
        even = tuple(zip((4, 2, 0, -2), rng.sample(chars, len(chars))))
        return DecompositionCertificate(
            group=G, even_blocks=even, odd_blocks=(3, -1),
            change_of_frame=LaurentMatrix.identity(G.conductor, 8),
            conductor=G.conductor)
    return _planted_case(index, rng, draw, max_kb=7)


def _cyclic12_rank4(rng: Random, index: int) -> Case:
    def draw(rng):
        while True:
            cert = random_certificate(rng, cyclic(12), 4, -3, 3)
            if cert.rank == 4:
                return cert
    return _planted_case(index, rng, draw, max_kb=5)


def _solve_classify(case: Case):
    S = parse_document(case.docs[0])
    return render_document(decompose(S)), S


def _check_certificate(case: Case, cert, S) -> bool:
    return (isinstance(cert, DecompositionCertificate)
            and cert.block_data() == case.expected
            and verify_certificate(cert, S))


def _check_classify(case: Case, answer: str, S) -> bool:
    return _check_certificate(case, parse_document(answer), S)


def _replay_classify(case: Case, rec) -> str:
    """`decompose` stage by stage through the public functions."""
    with rec.span("parse"):
        S = parse_document(case.docs[0])
    with rec.span("decompose"):
        with rec.span("validate"):
            if not validate_structure(S):
                raise CheckFailed("replayed validation rejected the input")
        with rec.span("model_isomorphism"):
            iso = model_isomorphism(S.bundle)
        with rec.span("pullback"):
            N = pullback_structure(S, iso)
            R = block_diagonal_part(N)
        with rec.span("averaging"):
            Sav = averaging_intertwiner(N, R)
        with rec.span("residual"):
            cert = _residual_split(S, iso, R, Sav)
        with rec.span("verify"):
            if verify_certificate_report(cert, S):
                raise CheckFailed("replayed certificate does not verify")
    with rec.span("render"):
        answer = render_document(cert)
    with rec.span("parse"):
        back = parse_document(answer)
    with rec.span("verify"):
        if not _check_certificate(case, back, S):
            raise CheckFailed("replayed answer fails its check")
    return answer


def _residual_split(S, iso, R, Sav) -> DecompositionCertificate:
    """Split each degree block's constant representation and assemble the
    change of frame psi * Sav * P, in the order `decompose` uses."""
    even, odd, blocks = [], [], []
    for d in sorted(set(R.degrees), reverse=True):
        rr = extract_residual_rep(R, d)
        if rr.mode == "klein_lift":
            pairs = rep_decompose(rr)
            odd.extend([d] * len(pairs))
            cols = [c for v, av in pairs for c in (av, v)]
        else:
            eig = rep_decompose(rr)
            even.extend((d, chi) for chi, _ in eig)
            cols = [v for _, v in eig]
        n = len(cols)
        blocks.append(LaurentMatrix.from_const(
            R.conductor, [[cols[j][i] for j in range(n)] for i in range(n)]))
    frame = iso.psi @ Sav @ LaurentMatrix.block_diag(blocks)
    return DecompositionCertificate(group=S.group, even_blocks=tuple(even),
                                    odd_blocks=tuple(odd),
                                    change_of_frame=frame,
                                    conductor=S.conductor)


def _same_certificate(a: str, b: str) -> bool:
    ca, cb = parse_document(a), parse_document(b)
    return (ca.change_of_frame == cb.change_of_frame
            and ca.block_data() == cb.block_data())


# ---------------------------------------------------------------------------
# splitting oracle: parse -> splitting_type, against the planted degrees
# ---------------------------------------------------------------------------

_ORACLE_CONDUCTORS = (1, 2, 3, 4)
_ORACLE_RANKS = range(1, 9)
_ORACLE_DEGREES = (-5, 5)


def _splitting_oracle(rng: Random, index: int) -> Case:
    """Conductor, rank and the spread max - min of the planted degrees
    cycle through all 4 x 8 x 11 combinations, so every run sees the same
    mix; the degrees inside the spread and the frames are random.

    A case's time is set mostly by its rank and its degree spread (rank-1
    cases take under 1 ms, rank-8 ones 100-300 ms), and the mean over a
    run is dominated by the few costly cases, so with the spread drawn at
    random as well the mean moved with how many of them a seed drew."""
    m = _ORACLE_CONDUCTORS[index % len(_ORACLE_CONDUCTORS)]
    r = _ORACLE_RANKS[index // len(_ORACLE_CONDUCTORS) % len(_ORACLE_RANKS)]
    lo, hi = _ORACLE_DEGREES
    if r == 1:
        degrees = [rng.randint(lo, hi)]
    else:
        pairs = len(_ORACLE_CONDUCTORS) * len(_ORACLE_RANKS)
        spread = index // pairs % (hi - lo + 1)
        low = rng.randint(lo, hi - spread)
        degrees = [low, low + spread] + [rng.randint(low, low + spread)
                                         for _ in range(r - 2)]
    degrees.sort(reverse=True)
    A = random_unimodular(rng, m, r, var_sign=1)
    B = random_unimodular(rng, m, r, var_sign=-1)
    E = make_bundle(A @ LaurentMatrix.diag_monomials(m, degrees) @ B)
    return Case(index, (render_document(E),), str(SplittingType(tuple(degrees))))


def _solve_splitting(case: Case):
    return str(splitting_type(parse_document(case.docs[0]))), None


def _check_text(case: Case, answer: str, _) -> bool:
    """The answer line must equal the planted one."""
    return answer == case.expected


def _replay_splitting(case: Case, rec) -> str:
    with rec.span("parse"):
        E = parse_document(case.docs[0])
    with rec.span("splitting_type"):
        answer = str(splitting_type(E))
    if answer != case.expected:
        raise CheckFailed("replayed splitting type differs from the planted one")
    return answer


# ---------------------------------------------------------------------------
# equivalence: structures_equivalent, against the classification theorem
# ---------------------------------------------------------------------------

def _equivalence(rng: Random, index: int) -> Case:
    """Two Klein structures on O(2)+O(0)+O(-1)^2, each scrambled by its own
    automorphism.  One pair in three comes from the same certificate; the
    others have one even block's character changed.  Inequivalent pairs
    exhaust the intertwiner search and cost about three times more, and
    the 1:2 mix keeps the median inside one cluster instead of in the gap
    between them.  One block shape for every case keeps each cluster
    narrow (about 10% spread); random rank-4 shapes spread it over 2x."""
    G = klein()
    chars = characters(G)
    even = [(2, rng.choice(chars)), (0, rng.choice(chars))]
    pair = dict(group=G, odd_blocks=(-1,), conductor=G.conductor,
                change_of_frame=LaurentMatrix.identity(G.conductor, 4))
    cert = other = DecompositionCertificate(even_blocks=tuple(even), **pair)
    if index % 3:
        j = rng.randrange(len(even))
        d, chi = even[j]
        even[j] = (d, rng.choice([c for c in chars if c != chi]))
        other = DecompositionCertificate(even_blocks=tuple(even), **pair)
    degrees = _model_degrees(cert)
    docs = []
    for c in (cert, other):
        S = build_structure(c)
        docs.append(render_document(
            conjugate_structure(S, _scramble(rng, S.conductor, degrees))))
    # classification theorem: equivalent iff the block data agree
    truth = cert.block_data() == other.block_data()
    return Case(index, tuple(docs), "equivalent" if truth else "not equivalent")


def _answer_equivalent(S1, S2) -> str:
    return "equivalent" if structures_equivalent(S1, S2) else "not equivalent"


def _solve_equivalence(case: Case):
    S1, S2 = (parse_document(doc) for doc in case.docs)
    return _answer_equivalent(S1, S2), None


def _replay_equivalence(case: Case, rec) -> str:
    with rec.span("parse"):
        S1, S2 = (parse_document(doc) for doc in case.docs)
    with rec.span("equivalent"):
        answer = _answer_equivalent(S1, S2)
    if answer != case.expected:
        raise CheckFailed("replayed equivalence answer contradicts the theorem")
    return answer


# Pool sizes: distinct cases generated per run.  Generation is untimed
# but adds to every run's wall time, so a pool covers part of a 50 s run
# on a 2-core machine rather than all of it; the loop cycles the pool.
WORKLOADS = {w.name: w for w in (
    Workload("klein_rank8", 24, _klein_rank8, _solve_classify,
             _check_classify, _replay_classify, _same_certificate),
    Workload("cyclic12_rank4", 20, _cyclic12_rank4, _solve_classify,
             _check_classify, _replay_classify, _same_certificate),
    Workload("splitting_oracle", 704, _splitting_oracle, _solve_splitting,
             _check_text, _replay_splitting, str.__eq__),
    Workload("equivalence", 36, _equivalence, _solve_equivalence,
             _check_text, _replay_equivalence, str.__eq__),
)}


def generate(workload: Workload, seed: int, count: int) -> list:
    """The first `count` cases of the workload for this seed."""
    rng = Random(f"{workload.name}:{seed}")
    return [workload.generate(rng, i) for i in range(count)]
