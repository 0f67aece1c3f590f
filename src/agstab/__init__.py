"""Quantum stabilizer codes from algebraic-geometry dual-containing chains.

The pipeline: evaluation codes on the projective line or a Hermitian
curve, twisted into certified chains C' > C >= C^perp; symbolwise
binary descent in a self-dual basis; enlargement into a large
symplectic GF(4) code; quantum parameters with exact desk-scale
distance enumeration.  Separate modules verify the operator-level
stabilizer definitions in exact arithmetic and evaluate the asymptotic
rate-distance bound curves.
"""
