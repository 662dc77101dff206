"""Golden tables for the Fano plane actions and their Cayley graphs.

The tests compare the constructed graphs and their minimal loops with
these hand-written tables; the library derives everything from the two
generator matrices and reads none of them.

Adjacency maps send each vertex label to its successor under the named
generator.  V1 is the action on points (right multiplication of row
vectors), V2 the induced action on lines, where a line is labeled by the
unique nonzero vector orthogonal to its points.

V1_ADJACENCY_ALT is a variant of the point table that differs in three
A-edges and places the A-loop at 110.  It is not realizable by the
generator matrices: A fixes 011 and moves 110 to 111, and no
color-preserving relabeling reconciles the two tables (the B-edges pin
every candidate bijection).  It is kept for the record, and the
acceptance suite demonstrates the mismatch explicitly.
"""

from __future__ import annotations

V1_ADJACENCY = {
    "A": {
        "001": "010",
        "010": "001",
        "011": "011",
        "100": "110",
        "101": "100",
        "110": "111",
        "111": "101",
    },
    "B": {
        "001": "100",
        "010": "001",
        "011": "101",
        "100": "010",
        "101": "110",
        "110": "011",
        "111": "111",
    },
}

V2_ADJACENCY = {
    "A": {
        "001": "110",
        "010": "001",
        "011": "111",
        "100": "100",
        "101": "010",
        "110": "101",
        "111": "011",
    },
    "B": {
        "001": "100",
        "010": "001",
        "011": "101",
        "100": "010",
        "101": "110",
        "110": "011",
        "111": "111",
    },
}

V1_ADJACENCY_ALT = {
    "A": {
        "001": "010",
        "010": "001",
        "011": "111",
        "100": "011",
        "101": "100",
        "110": "110",
        "111": "101",
    },
    "B": dict(V1_ADJACENCY["B"]),
}

# Minimal closed geodesics of length below l_A + 2*l_B, one row per free
# homotopy class: ((a, b), loop) stands for a loop of length a*l_A + b*l_B.
# Loop notation: "A[v]" walks the A-edge leaving vertex v, "^-1" backwards.
# Representatives are unique only up to rotation and inversion.

X1_MINIMAL_LOOPS = (
    ((1, 0), "A[011]"),
    ((0, 1), "B[111]"),
    ((2, 0), "A[001]*A[010]"),
    ((2, 0), "A[011]*A[011]"),
    ((1, 1), "A[001]*B[010]"),
    ((1, 1), "A[010]*B[010]^-1"),
    ((0, 2), "B[111]*B[111]"),
    ((3, 0), "A[011]*A[011]*A[011]"),
    ((2, 1), "A[100]*B[101]^-1*A[101]"),
    ((2, 1), "A[110]*A[111]*B[101]"),
)

X2_MINIMAL_LOOPS = (
    ((1, 0), "A[100]"),
    ((0, 1), "B[111]"),
    ((2, 0), "A[011]*A[111]"),
    ((2, 0), "A[100]*A[100]"),
    ((1, 1), "A[010]*B[010]^-1"),
    ((1, 1), "A[110]*B[101]"),
    ((0, 2), "B[111]*B[111]"),
    ((3, 0), "A[100]*A[100]*A[100]"),
    ((2, 1), "A[011]*B[111]*A[111]"),
    ((2, 1), "A[011]*B[111]^-1*A[111]"),
)


def expected_length_multiset(la, lb):
    """The ten minimal-loop lengths below l_A + 2*l_B, with multiplicity."""
    coeffs = [row[0] for row in X1_MINIMAL_LOOPS]
    return sorted(a * la + b * lb for a, b in coeffs)
