"""A small reference semantics for the terms the generators compose.

It knows only the pieces the generators use: lookups, updates and table
generators on the states side; throws (the `raise` sugar), table
generators and handlers on the exceptions side.  Expected answers come
from here and never from `decorlogic.models`, so a wrong evaluator or a
wrong enumeration order in the program shows up as a failed request.

States atoms (application order, first applied first):
    ("l", i)        1 -> V[i]
    ("u", i)        V[i] -> 1
    ("unit", i)     V[i] -> 1
    ("gen", name)   V[i] -> V[j], a pure table
Exceptions atoms:
    ("gen", name)               P[i] -> P[j], a pure table
    ("id", i)                   P[i] -> P[i]
    ("raise", i, to)            P[i] -> P[to]
    ("throw", i), ("catch", i)  P[i] -> 0 and 0 -> P[i]
    ("handle", body, clauses, style)   body P[a] -> P[b]; clauses
                                       ((k, atoms P[k] -> P[b]), ...),
                                       k == "_" last: a catch-all 1 -> P[b]
"""

from __future__ import annotations

import itertools

UNIT = ()


class StatesRef:
    def __init__(self, locs, sizes, gens):
        self.locs = tuple(locs)
        self.sizes = dict(sizes)
        self.gens = dict(gens)  # name -> (i, j, table)

    def run(self, atoms, value, state):
        state = list(state)
        for atom in atoms:
            op = atom[0]
            if op == "l":
                value = state[self.locs.index(atom[1])]
            elif op == "u":
                state[self.locs.index(atom[1])] = value
                value = UNIT
            elif op == "unit":
                value = UNIT
            elif op == "gen":
                value = self.gens[atom[1]][2][value]
            else:
                raise ValueError(f"unknown states atom {atom!r}")
        return value, tuple(state)

    def states(self):
        """Every state, lexicographic in location order."""
        return itertools.product(*(range(self.sizes[i]) for i in self.locs))

    def first_strong_difference(self, lhs, rhs, dom):
        """The first (input, state) where lhs and rhs differ in full.

        Inputs count up, states run lexicographically; `dom` is None for
        the unit type or a location name.
        """
        inputs = [UNIT] if dom is None else range(self.sizes[dom])
        for x in inputs:
            for s in self.states():
                r1, r2 = self.run(lhs, x, s), self.run(rhs, x, s)
                if r1 != r2:
                    return {"input": x, "state": s, "lhs": r1, "rhs": r2}
        return None


class ExceptionsRef:
    def __init__(self, names, sizes, gens):
        self.names = tuple(names)
        self.sizes = dict(sizes)
        self.gens = dict(gens)  # name -> (i, j, table)

    def run(self, atoms, inp):
        for atom in atoms:
            inp = self._step(atom, inp)
        return inp

    def _step(self, atom, inp):
        tag, payload = inp
        op = atom[0]
        if op == "catch":
            if tag == "exc" and payload[0] == atom[1]:
                return ("val", payload[1])
            return inp
        if tag == "exc":
            return inp  # every other piece propagates
        if op == "gen":
            table = self.gens[atom[1]][2]
            return ("val", table[0 if payload == UNIT else payload])
        if op == "id":
            return inp
        if op in ("raise", "throw"):
            return ("exc", (atom[1], payload))
        if op == "handle":
            _, body, clauses, _style = atom
            out = self.run(body, inp)
            if out[0] == "exc":
                name, arg = out[1]
                for k, clause in clauses:
                    if k == name:
                        return self.run(clause, ("val", arg))
                    if k == "_":  # the catch-all drops the payload
                        return self.run(clause, ("val", UNIT))
            return out
        raise ValueError(f"unknown exceptions atom {atom!r}")

    def exceptions(self):
        return [(i, a) for i in self.names for a in range(self.sizes[i])]

    def first_strong_difference(self, lhs, rhs, dom):
        """First ordinary input, then exceptional ones in name order."""
        inputs = [("val", a) for a in range(self.sizes[dom])]
        inputs += [("exc", e) for e in self.exceptions()]
        for inp in inputs:
            r1, r2 = self.run(lhs, inp), self.run(rhs, inp)
            if r1 != r2:
                return {"input": inp, "lhs": r1, "rhs": r2}
        return None


def jsonable(v):
    """The JSON shape the reports give a carrier element (tuples as lists)."""
    if isinstance(v, (list, tuple)):
        return [jsonable(x) for x in v]
    return v
