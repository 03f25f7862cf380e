"""eqbundles: exact equivariant vector bundle computations on the projective line.

Bundles are Laurent-polynomial transition matrices over cyclotomic
fields; finite abelian Moebius groups act by monomial substitutions.
The `classify` module splits any validated structure into equivariant
line blocks (cyclic groups) or even line blocks plus paired odd rank-2
blocks (Klein four-group), with machine-checkable certificates.

All values are immutable after construction and all operations are pure
functions, so everything here is safe to share across threads.
"""

from .cyclotomic import CycNum, root_of_unity
from .laurent import LaurentMatrix, LaurentPoly, parse_laurent, regular_invertible_at
from .bundle import (HNData, ModelIso, Section, SplittingType, VectorBundle,
                     direct_sum, dual, embed_bundle, global_sections, h0, hn_data,
                     make_bundle, model_bundle, model_isomorphism, splitting_type, twist)
from .group import (Character, GroupElement, GroupSpec, characters, cyclic,
                    elements, generators, klein, klein_lift)
from .equivariant import (EquivariantStructure, canonical_structure, central_sign,
                          conjugate_structure, descend_lift, direct_sum_structures,
                          existence, is_bundle_map, structures_equivalent,
                          transport_structure, twist_by_character, validate_structure,
                          validation_report)
from .classify import (DecompositionCertificate, build_structure, decompose,
                       rep_decompose, verify_certificate)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
