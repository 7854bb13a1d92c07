"""Simplicial-complex helpers shared by the homology tests."""

from __future__ import annotations

from lcmlat.homology import SimplicialComplexData


def complex_from_facets(vertices, facets) -> SimplicialComplexData:
    """Subset-closure of the given facets."""
    verts = tuple(vertices)
    seen = {()}
    for f in facets:
        f = tuple(sorted(f))
        stack = [f]
        while stack:
            g = stack.pop()
            if g in seen:
                continue
            seen.add(g)
            for k in range(len(g)):
                stack.append(g[:k] + g[k + 1 :])
    faces = {}
    for f in seen:
        faces.setdefault(len(f) - 1, []).append(f)
    return SimplicialComplexData(
        vertices=verts, faces_by_dim={d: sorted(fs) for d, fs in faces.items()}
    )


def euler_characteristic(K: SimplicialComplexData) -> int:
    """Reduced Euler characteristic: alternating face-count sum over
    dimensions >= -1."""
    return sum((-1) ** d * K.n_faces(d) for d in K.faces_by_dim)
