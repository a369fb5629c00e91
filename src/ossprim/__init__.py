"""Classical machinery of one-shot-signature cryptography.

Subpackages cover: dense GF(2) linear algebra (gf2), keyed randomness and
puncturable PRFs (prng), exact hypergeometric sampling (hypergeom),
order-preserving pseudorandom merges over tally trees (merge), the recursive
neighbor-swappable PRP (nsprp), decomposable permutations (permdecomp), the
output-permutable PRP / trapdoor OWP layer over mock obfuscation (opprp), the
LWE 2-to-1 trapdoor hash (lwehash), the coset hash oracles and their reduction
simulators (oss), a small statevector simulator for the non-collapsing
demonstration (qsim), and the checked binary reader behind every
deserializer (wire).
"""

__version__ = "0.1.0"
