"""Finite supported quantales and their modal semantics.

Subpackage map: lattice (finite complete lattices, closures, congruences),
quantale (relation and groupoid quantales, supports), nucleus (quotients),
bimodal (conjugate diamond pairs on frames), semantics (one evaluator
for all four modes), tensor (graded components and pre-support law
suites), parsing + cli (text formats and the command line front end).
"""

__version__ = "0.1.0"
