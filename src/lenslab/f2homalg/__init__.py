"""GF(2) algebra for the surgery exact triangle: matrices on row bitmasks
(`gf2`), the octet, the i/j/p triangle and mapping cones (`complexes`),
seeded octet and cone generators (`fuzz`), and truncated U-power series
(`series`).
"""
