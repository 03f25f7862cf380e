#!/usr/bin/env python3
"""Walk through the headline classifications and print their certificates.

Usage: python3 scripts/demo_classification.py

The output is committed as scripts/demo_expected.txt, and CI diffs the
two; regenerate the transcript when a headline answer changes on purpose.
"""

from eqbundles.bundle import splitting_type
from eqbundles.classify import decompose, verify_certificate
from eqbundles.equivariant import (canonical_structure, conjugate_structure,
                                   structures_equivalent, twist_by_character)
from eqbundles.group import characters, cyclic, klein
from eqbundles.randgen import random_model_automorphism
from eqbundles.serialize import render_document
from random import Random


def show(title, S):
    print(f"== {title} ==")
    print(f"bundle: rank {S.bundle.rank}, degree {S.bundle.degree()}, "
          f"splitting {splitting_type(S.bundle)}")
    cert = decompose(S)
    even = ", ".join(f"O({d}) with {chi.label}" for d, chi in cert.even_blocks)
    odd = ", ".join(f"O({d})^2 paired" for d in cert.odd_blocks)
    print(f"blocks: {even or '-'} | {odd or '-'}")
    print(f"M = {len(cert.even_blocks)}, N = {len(cert.odd_blocks)}, "
          f"M + 2N = {cert.rank}")
    print(f"verified: {verify_certificate(cert, S)}")
    print()
    return cert


def main():
    show("cyclic(3) tautological powers on O(2)", canonical_structure(cyclic(3), [2]))
    show("cyclic(4) twisted by its second character",
         twist_by_character(canonical_structure(cyclic(4), [1]), characters(cyclic(4))[2]))
    show("Klein tangent bundle O(2)", canonical_structure(klein(), [2]))
    pair = canonical_structure(klein(), [-1, -1])
    show("Klein paired O(-1) + O(-1)", pair)

    mixed = canonical_structure(klein(), [2, -1, -1])
    rng = Random(1)
    U = random_model_automorphism(rng, mixed.conductor,
                                  splitting_type(mixed.bundle).degrees)
    scrambled = conjugate_structure(mixed, U)
    cert = show("Klein O(2) + O(-1)^2, scrambled by a bundle automorphism",
                scrambled)
    print("full certificate document for the last example:")
    print(render_document(cert))

    print("== instance equivalence on the paired block ==")
    for chi in characters(klein()):
        same = structures_equivalent(pair, twist_by_character(pair, chi))
        print(f"pair twisted by {chi.label}: "
              f"{'equivalent' if same else 'not equivalent'}")


if __name__ == "__main__":
    main()
