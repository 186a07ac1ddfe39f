"""Exact-arithmetic toolkit for lens-space surgery obstructions:
d-invariants, Alexander-polynomial enumeration, plumbing-lattice oracles,
GF(2) surgery-triangle algebra, and machine-checkable L-space certificates.
"""
