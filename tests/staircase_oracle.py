"""The staircase of a knot with an L-space surgery: V_s read off its corners.

Let Delta = sum_k (-1)^k T^(n_k), with g = n_0 > n_1 > ... > n_(2m) = -g, be
the Alexander polynomial of a knot with an L-space surgery.  Its CFK^infinity
is a staircase over GF(2) (Ozsvath-Szabo, arXiv:math/0303017): the corners
start at P_0 = (0, g) and go alternately right by n_(2l) - n_(2l+1) and down
by n_(2l+1) - n_(2l+2), and the differential maps each odd corner to its two
neighbours.  The homology of A_s^+ = C{max(i, j - s) >= 0} is a tower whose
bottom sits in grading -2 V_s, and

    V_s = min over the even corners (i, j) of max(i, j - s).

Then d(S^3_p(K), i) = d(L(p,1), i) - 2 max(V_i, V_(p-i)) (Ozsvath-Szabo,
arXiv:math/0410300; Ni-Wu, arXiv:1009.4720), the relation that the t-vector
of `lenslab.alexobstruct` encodes, with T_s = V_s.  This is the corner half
of the oracle; V_s as GF(2) homology of A_s^+ is not here.

Stdlib only, and nothing from lenslab: a polynomial comes in as its list of
coefficients, so the oracle checks the package's torsion convention from the
knot side rather than by a round trip through it.
"""

from collections.abc import Sequence


def corners(full: Sequence[int]) -> list[tuple[int, int]]:
    """P_0, P_1, ..., P_(2m) of the polynomial whose coefficients of degree
    -g..g are full (length 2g + 1); its nonzero coefficients must be +-1,
    alternating in sign, +1 on top."""
    if len(full) % 2 == 0 or list(full) != list(full)[::-1]:
        raise ValueError("not a symmetric coefficient list of degree -g..g")
    g = len(full) // 2
    terms = [(k - g, a) for k, a in reversed(list(enumerate(full))) if a]
    if [a for _, a in terms] != [(-1) ** k for k in range(len(terms))]:
        raise ValueError("nonzero coefficients are not +-1, alternating, +1 on top")
    n = [e for e, _ in terms]
    i, j = 0, n[0]
    out = [(i, j)]
    for k in range(1, len(n)):
        if k % 2:
            i += n[k - 1] - n[k]
        else:
            j -= n[k - 1] - n[k]
        out.append((i, j))
    return out


def v_values(full: Sequence[int], count: int) -> list[int]:
    """V_0, ..., V_(count-1) by the corner formula."""
    even = corners(full)[::2]
    return [min(max(i, j - s) for i, j in even) for s in range(count)]
