"""Flag subcomplexes by a walk, as `subcomplex_WF` found them before it
derived them from the orbit data of W: a seed cell of W_F is found by
retraction, and a BFS over the face/coface graph, restricted to the cells
that respect the flag, canonicalizes orbits with the flag-constrained
equivalence search.  Every representative's faces, cofaces and witness
come from the LPs.  Kept only here, as the oracle that the tests compare
the derivation with."""

from wellround.cells import (
    Cell, _orbit_complex, _OrbitIndex, cell_cofaces, cell_faces,
    cell_from_config,
)
from wellround.exactla import CertificateError
from wellround.flags import RationalFlag, respects_flag
from wellround.lattice import GramForm, GroupSpec, minimal_vectors, normalize
from wellround.retraction import (
    ScalingVector, orthant_bound, retract, scale_along_flag,
)


def wf_seed(group: GroupSpec, flag: RationalFlag) -> Cell:
    """A cell of the flag subcomplex: push the identity form deep into
    the orthant given by the flag's bound and retract."""
    n = group.n
    base = GramForm.identity(n)
    ob = orthant_bound(base, flag)
    s = ScalingVector.from_rho_sq(ob.t_sq)
    moved = scale_along_flag(normalize(base), flag, s)
    final = retract(moved).final_form
    seed = cell_from_config(minimal_vectors(final).vectors)
    if not respects_flag(seed.config, flag):
        raise CertificateError("seed cell does not respect the flag")
    return seed


def walk_WF(group: GroupSpec, flag: RationalFlag):
    """The orbit complex of W_F mod Gamma_F, found by the walk."""
    index = _OrbitIndex(group, flag)
    index.add(wf_seed(group, flag))
    faces = []
    while len(faces) < len(index.orbits):
        rep = index.orbits[len(faces)].cell
        faces.append(cell_faces(rep))
        for f in faces[-1]:
            if not respects_flag(f.config, flag):
                raise CertificateError("face left the flag subcomplex")
        cofaces = [c for c in cell_cofaces(rep)
                   if respects_flag(c.config, flag)]
        for nb in faces[-1] + cofaces:
            if index.locate(nb.config, nb.dim) is None:
                index.add(nb)
    return _orbit_complex(index, [[(f.config, f.dim) for f in found]
                                  for found in faces])
