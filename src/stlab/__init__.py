"""Exact-arithmetic workbench for point-line incidence geometry.

Rational points and complex lines with exact incidence counting, the
direction sphere with its Grassmannian embedding, hierarchical cube
covers with shift graphs, and the near-orthogonal region builder, plus
seeded generators, text serialization, and a CLI.  Import each name from
its module: the package exports nothing, so an import loads only what it needs.
"""
