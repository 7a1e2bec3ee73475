"""The closure of a cell by a walk over `cell_faces`, as quotients
computed cell closures before they carried them over from the orbit
representatives.  Every cell the walk reaches, translates included, has
its faces computed by the LP.  Kept only here, as the oracle that the
tests compare the package with."""

from wellround.cells import Cell, cell_faces
from wellround.lattice import VectorConfig


def closure_configs(cell: Cell) -> list[VectorConfig]:
    """The configs of the cell and of all its faces, sorted."""
    seen = {cell.config: cell}
    frontier = [cell]
    while frontier:
        cur = frontier.pop()
        for f in cell_faces(cur):
            if f.config not in seen:
                seen[f.config] = f
                frontier.append(f)
    return sorted(seen)
