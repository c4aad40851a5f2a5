"""Skeleton and boundary reconstruction from stress data.

Input: the (k-1)-skeleton of an unknown simplicial d-polytope
boundary plus a basis of its degree-k stress space.  Missing faces
of size <= k are visible in the skeleton directly; sizes k+1 through
d-k+1 come from the certificate sweep.  Knowing all of them pins
down the (d-k)-skeleton, and when the hidden polytope is prime
(no missing facets) it pins down the whole boundary complex.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .detect import certificate_sweep
from .errors import CompletionFailure, InvalidArgument, ReconstructionFailure
from .simplicial import SimplicialComplex, extensions, face_key, missing_faces, skeleton


@dataclass(frozen=True)
class DiffReport:
    """Symmetric difference of two complexes, by facets and by
    missing faces.  Empty everywhere iff the complexes are equal."""

    vertices_only_first: tuple
    vertices_only_second: tuple
    facets_only_first: tuple
    facets_only_second: tuple
    missing_only_first: tuple
    missing_only_second: tuple

    @property
    def equal(self) -> bool:
        return not (
            self.vertices_only_first
            or self.vertices_only_second
            or self.facets_only_first
            or self.facets_only_second
            or self.missing_only_first
            or self.missing_only_second
        )


def compare(K1: SimplicialComplex, K2: SimplicialComplex) -> DiffReport:
    v1, v2 = set(K1.vertices), set(K2.vertices)
    f1 = {face_key(S) for S in K1.facets}
    f2 = {face_key(S) for S in K2.facets}
    m1 = set(missing_faces(K1, len(K1.vertices)))
    m2 = set(missing_faces(K2, len(K2.vertices)))
    key = lambda xs: tuple(sorted(xs, key=lambda t: (len(t), t)))
    return DiffReport(
        vertices_only_first=tuple(sorted(v1 - v2)),
        vertices_only_second=tuple(sorted(v2 - v1)),
        facets_only_first=key(f1 - f2),
        facets_only_second=key(f2 - f1),
        missing_only_first=key(m1 - m2),
        missing_only_second=key(m2 - m1),
    )


def _recover_missing(skel: SimplicialComplex, basis, d: int, k: int):
    """All recovered missing faces: sizes <= k read off the skeleton,
    sizes k+1 .. d-k+1 from certificates.  Also returns the
    admissible-but-uncertified candidates (possibly undecided for
    k >= 3)."""
    if d < 2 * k:
        raise ReconstructionFailure(f"need d >= 2k, got d={d}, k={k}")
    if skel.dim != k - 1:
        raise ReconstructionFailure(f"expected a (k-1)-skeleton, got dimension {skel.dim}")
    if any(b.degree != k for b in basis):
        raise ReconstructionFailure("stress basis degree does not match k")
    low = missing_faces(skel, k)
    certified, undecided = certificate_sweep(skel, basis, d, k)
    found = sorted(low + certified, key=lambda t: (len(t), t))
    return found, tuple(undecided)


def reconstruct_skeleton(skel: SimplicialComplex, basis, d: int, k: int) -> SimplicialComplex:
    """The (d-k)-skeleton of the hidden boundary complex.

    Faces are exactly the vertex subsets of size <= d-k+1 containing
    no recovered missing face.
    """
    found, _ = _recover_missing(skel, basis, d, k)
    return _avoiding_complex(skel.vertices, found, d - k + 1)


def _avoiding_complex(vertices, missing_list, max_size: int) -> SimplicialComplex:
    """The sets of at most max_size vertices that contain no missing
    face.  Level s holds the extensions of level s-1 that are not
    missing themselves; the constructor keeps the sets no extension covers."""
    miss = {face_key(set(M)) for M in missing_list}
    levels = [{()} - miss]
    for _ in range(max_size):
        levels.append({S for S in extensions(levels[-1], vertices) if S not in miss})
    return SimplicialComplex(facets=[S for level in levels for S in level])


def complete_prime(skelDK: SimplicialComplex, missing, d: int) -> SimplicialComplex:
    """Boundary complex of a prime polytope from its (d-k)-skeleton
    and full missing-face list.

    Facets are the d-subsets avoiding every missing face.  Validity
    of the claim is checked: the avoiding sets of at most d vertices
    form a pure complex, every ridge is in exactly two facets, and
    the dual graph is connected.  Violations mean the primeness
    precondition was wrong and raise CompletionFailure.
    """
    V = skelDK.vertices
    for M in missing:
        if not set(M) <= set(V):
            raise InvalidArgument(f"missing face {sorted(M)} uses unknown vertices")
    K = _avoiding_complex(V, missing, d)
    facets = [F for F in K.facet_keys if len(F) == d]
    if not facets:
        raise CompletionFailure("no candidate facets avoid the missing faces")
    if len(facets) < len(K.facets):
        S = min((F for F in K.facet_keys if len(F) < d), key=lambda F: (len(F), F))
        raise CompletionFailure(f"maximal face {S} has size {len(S)} < d; input is not a prime boundary")

    ridge_count: dict[tuple, list[int]] = {}
    for i, T in enumerate(facets):
        for rd in combinations(T, d - 1):
            ridge_count.setdefault(rd, []).append(i)
    for rd, owners in sorted(ridge_count.items()):
        if len(owners) != 2:
            raise CompletionFailure(f"ridge {rd} lies in {len(owners)} facets, expected 2")

    seen, stack = {0}, [0]
    while stack:
        for rd in combinations(facets[stack.pop()], d - 1):
            for j in ridge_count[rd]:
                if j not in seen:
                    seen.add(j)
                    stack.append(j)
    if len(seen) != len(facets):
        raise CompletionFailure("facet dual graph is disconnected")
    return K


@dataclass(frozen=True)
class ReconstructionReport:
    d: int
    k: int
    missing_by_dim: dict
    skeleton: SimplicialComplex
    status: str  # "full" | "skeleton-only"
    completion: SimplicialComplex | None
    undetermined: tuple
    diff: DiffReport | None


def run_pipeline(
    skel: SimplicialComplex,
    basis,
    d: int,
    k: int,
    prime: bool = False,
    truth: SimplicialComplex | None = None,
) -> ReconstructionReport:
    """Full reconstruction pass: missing faces, (d-k)-skeleton, and,
    when primeness is asserted or verified against the truth, the
    completed boundary.  The diff compares against `truth` when given
    (skeleton against skeleton when no completion is claimed)."""
    found, undecided = _recover_missing(skel, basis, d, k)
    skel_dk = _avoiding_complex(skel.vertices, found, d - k + 1)
    by_dim: dict = {}
    for M in found:
        by_dim.setdefault(len(M) - 1, []).append(M)
    by_dim = {dim: tuple(ms) for dim, ms in sorted(by_dim.items())}

    can_complete = prime
    if truth is not None and not prime:
        truth_missing = missing_faces(truth, len(truth.vertices))
        can_complete = all(len(M) - 1 <= d - k for M in truth_missing)

    completion = None
    status = "skeleton-only"
    if can_complete:
        completion = complete_prime(skel_dk, found, d)
        status = "full"

    diff = None
    if truth is not None:
        if completion is not None:
            diff = compare(completion, truth)
        else:
            diff = compare(skel_dk, skeleton(truth, d - k))
    return ReconstructionReport(
        d=d,
        k=k,
        missing_by_dim=by_dim,
        skeleton=skel_dk,
        status=status,
        completion=completion,
        undetermined=undecided,
        diff=diff,
    )
