"""Nonconforming finite elements for planar strain-gradient elasticity.

The package solves the clamped strain-gradient boundary value problem on
the unit square with three triangular element families (a tensor-product
NTW element, a tensor-product Specht triangle, and a modified Morley
triangle) and ships a verification and convergence harness around them.
The package re-exports nothing: callers use the modules, for example
``sgfem.cli`` or ``sgfem.elements``.
"""
