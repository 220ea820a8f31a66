"""Finite supported quantales and their modal semantics.

Subpackage map: errors (the exception types, LawCheck, and Record, the
base of every value type), relations (relation codes, the lazy
RelationQuantale, diamond tables, modal systems, point flags and
classes of points, all without numpy), groupoids (finite groupoids
and the lazy GroupoidQuantale, without numpy), lattice (finite complete
lattices, closures, congruences), quantale (table-backed relation and
groupoid quantales, supports), axioms (the checks `axioms` reports:
the support laws, the locale below the unit and a point's conjugacy,
without numpy), nucleus (quotients), bimodal (conjugate diamond pairs
on frames), semantics (one evaluator for all four modes), tensor
(graded components and pre-support law suites), parsing + cli (text
formats and the command line front end; each command imports the
modules it runs).
"""

__version__ = "0.1.0"
