"""The closure of a stabilizer's signed permutations as `lattice._Action`
built it before it grew the closure from the elements each new generator
finds: every time it takes a generator, the search restarts from every
element reached and composes each with every generator.  Kept only here,
as the oracle that the tests compare the generators and the composed
tables with."""

from wellround.exactla import CertificateError
from wellround.lattice import _Action


class RestartedAction(_Action):
    def __init__(self, moves, perms):
        m = len(perms[0])
        self.moves = moves
        self.m = m
        self.doubled = [(*p, *((j + m) % (2 * m) for j in p)) for p in perms]
        reached = {tuple(range(2 * m))}
        self.gens = []
        self.steps = []
        for k, perm in enumerate(self.doubled):
            if perm in reached:
                continue
            self.gens.append(k)
            new = list(reached)
            while new:
                found = []
                for e in new:
                    for i, g in enumerate(self.gens):
                        x = tuple(map(self.doubled[g].__getitem__, e))
                        if x not in reached:
                            reached.add(x)
                            found.append(x)
                            self.steps.append((x, e, i))
                new = found
        if len(reached) != len(set(self.doubled)):
            raise CertificateError("the stabilizer is not a group")
