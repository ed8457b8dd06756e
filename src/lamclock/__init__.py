"""Clocked semantic trees for the lambda calculus.

Builds the possibly infinite tree a term unfolds into (hereditary head
normal forms, their weak-head variant, or root-stable layers), annotates
every node with the number — or the exact positions — of the head steps
that produced it, detects the regular structure such trees have for
fixed point operators, and compares annotations to tell
beta-inconvertible terms apart.

The package root exports nothing; import from the submodules.
"""
