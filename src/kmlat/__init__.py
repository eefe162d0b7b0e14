"""Exact tools for edge-transitive lattices on (q+1)-regular trees.

Modules:
  gf        - finite fields F_q and quadratic extensions, norm-one torus
  laurent   - exact Laurent polynomials in the uniformizer pi = t^-1
  serretree - the Bruhat-Tits tree for SL2(F_q((t^-1))), involution search
  groups    - finite subgroups, tori, exceptional subgroups, Dickson tables
  kmaction  - symbolic root-letter action near the base edge, z^p test
  lattice   - standard pairs, their verification, the classification table
  cli       - the `kmlat` command
"""

__version__ = "0.1.0"
