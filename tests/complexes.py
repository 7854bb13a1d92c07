"""Simplicial-complex helpers shared by the homology tests."""

from __future__ import annotations

from lcmlat.homology import SimplicialComplexData


def complex_from_facets(vertices, facets) -> SimplicialComplexData:
    """Subset-closure of the given facets, each an iterable of indices into
    ``vertices``; faces come out as vertex masks, sorted by value."""
    verts = tuple(vertices)
    seen = {0}
    stack = [sum(1 << i for i in set(f)) for f in facets]
    while stack:
        g = stack.pop()
        if g in seen:
            continue
        seen.add(g)
        rest = g
        while rest:
            low = rest & -rest
            stack.append(g ^ low)
            rest ^= low
    faces = {}
    for f in sorted(seen):
        faces.setdefault(f.bit_count() - 1, []).append(f)
    return SimplicialComplexData(vertices=verts, faces_by_dim=faces)


def euler_characteristic(K: SimplicialComplexData) -> int:
    """Reduced Euler characteristic: alternating face-count sum over
    dimensions >= -1."""
    return sum((-1) ** d * K.n_faces(d) for d in K.faces_by_dim)
