"""Finite topological dynamical systems: orbits, minimal sets, transitivity."""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from functools import cached_property

from .transforms import Transformation, check_int


def strong_components(nodes, successors) -> list[list]:
    """The strongly connected components of the graph v -> ``successors(v)``,
    each listed after every component it reaches: Tarjan's search on its own
    stack, a low link being a stack position, infinite once listed."""
    low, stack, found, listed = {}, [], [], float("inf")
    for root in (v for v in nodes if v not in low):
        low[root] = 0  # each root's search empties the stack
        stack.append(root)
        work = [(root, 0, iter(successors(root)))]
        while work:
            v, at, edges = work[-1]
            for w in edges:
                if w not in low:
                    low[w] = len(stack)
                    work.append((w, len(stack), iter(successors(w))))
                    stack.append(w)
                    break
                if low[w] < low[v]:
                    low[v] = low[w]
            else:
                work.pop()
                if low[v] == at == len(stack) - 1:
                    found.append([stack.pop()])
                    low[v] = listed
                elif low[v] == at:
                    found.append(stack[at:])
                    del stack[at:]
                    for w in found[-1]:
                        low[w] = listed
                elif low[v] < low[work[-1][0]]:  # below its own position: v has a parent
                    low[work[-1][0]] = low[v]
    return found


@dataclass(frozen=True)
class FiniteSystem:
    """A finite state set acted on by named generating self-maps."""

    states: tuple[str, ...]
    generators: tuple[tuple[str, Transformation], ...]
    name: str = ""

    def __post_init__(self):
        n = len(self.states)
        if n == 0:
            raise ValueError("empty state set")
        if len(set(self.states)) != n:
            raise ValueError("state labels must be distinct")
        if not self.generators:
            raise ValueError("need at least one generator")
        for gname, g in self.generators:
            if g.degree != n:
                raise ValueError(f"generator {gname!r} has wrong degree")

    @classmethod
    def from_maps(cls, maps: dict[str, dict], name: str = "") -> "FiniteSystem":
        """Build from {generator name: {state label: state label}}."""
        labels = sorted({x for m in maps.values() for x in m} |
                        {y for m in maps.values() for y in m.values()})
        index = {x: i for i, x in enumerate(labels)}
        gens = []
        for gname in maps:
            m = maps[gname]
            if set(m) != set(labels):
                raise ValueError(f"generator {gname!r} is not total")
            gens.append((gname, Transformation(tuple(index[m[x]] for x in labels))))
        return cls(tuple(labels), tuple(gens), name=name)

    @property
    def n(self) -> int:
        return len(self.states)

    @property
    def generator_maps(self) -> tuple[Transformation, ...]:
        return tuple(g for _, g in self.generators)

    @cached_property
    def commuting(self) -> bool:
        """Recomputed from the maps, never trusted from input."""
        maps = self.generator_maps
        return all(
            a.compose(b) == b.compose(a)
            for i, a in enumerate(maps)
            for b in maps[i + 1:]
        )

    @cached_property
    def components(self) -> list[list[int]]:
        """The strong components of the state graph x -> g(x), as listed by
        ``strong_components``."""
        images = [g.images for g in self.generator_maps]
        return strong_components(range(self.n), lambda x: [im[x] for im in images])

    @cached_property
    def minimal_sets(self) -> tuple[frozenset[int], ...]:
        """All minimal nonempty invariant subsets, sorted by least element.

        These are the sink components, the ones every generator maps into
        themselves: Sx = C for each state x of a sink component C, so no
        smaller invariant set fits in C; and a minimal set M is Sx for each
        of its states x, so M is strongly connected and no edge leaves it.
        """
        maps = self.generator_maps
        return tuple(sorted((c for c in map(frozenset, self.components)
                             if all(g(x) in c for x in c for g in maps)), key=min))

    @cached_property
    def invariant_supports(self) -> tuple[frozenset[int], ...]:
        """The minimal sets that every generator permutes, sorted by least element."""
        return tuple(m for m in self.minimal_sets
                     if all(len({g(x) for x in m}) == len(m) for g in self.generator_maps))

    def system_id(self) -> str:
        if self.name:
            return self.name
        payload = repr((self.states, tuple((n, g.images) for n, g in self.generators)))
        return hashlib.sha256(payload.encode()).hexdigest()[:12]


def cyclic_shift_system(n: int, name: str = "") -> FiniteSystem:
    check_int(n, "n", 1)
    shift = Transformation(tuple((i + 1) % n for i in range(n)))
    return FiniteSystem(tuple(str(i) for i in range(n)), (("shift", shift),),
                        name=name or f"cyclic-{n}")


@dataclass(frozen=True)
class Orbit:
    """{x} u Sx, with the semigroup part kept separate."""

    start: int
    states: frozenset[int]
    semigroup_orbit: frozenset[int]

    @property
    def returns_to_start(self) -> bool:
        return self.start in self.semigroup_orbit


def orbit(sys: FiniteSystem, x: int) -> Orbit:
    """{x} u Sx, by one breadth-first search from x."""
    _check_state(sys, x)
    seen, frontier = set(), {x}
    while frontier := {g(y) for y in frontier for g in sys.generator_maps} - seen:
        seen |= frontier
    return Orbit(x, frozenset(seen | {x}), frozenset(seen))


def _check_state(sys: FiniteSystem, x) -> None:
    check_int(x, "state", float("-inf"))
    if not (0 <= x < sys.n):
        raise ValueError(f"state {x} out of range")


def minimal_sets(sys: FiniteSystem) -> tuple[frozenset[int], ...]:
    """All minimal nonempty invariant subsets, sorted by least element."""
    return sys.minimal_sets


def invariant_supports(sys: FiniteSystem) -> tuple[frozenset[int], ...]:
    """The minimal sets that every generator permutes, sorted by least element."""
    return sys.invariant_supports


@dataclass(frozen=True)
class TransitivityReport:
    """Witnesses for {x} u Sx = K and for the stricter Sx = K."""

    witness: int | None
    strict_witness: int | None


def transitivity(sys: FiniteSystem) -> TransitivityReport:
    """Read off the last component, which no other enters: it reaches every
    state iff every other is entered, and itself iff it holds a cycle."""
    maps, comps = sys.generator_maps, list(map(set, sys.components))
    entered = {y for c in comps for x in c for g in maps if (y := g(x)) not in c}
    if any(entered.isdisjoint(c) for c in comps[:-1]):
        return TransitivityReport(None, None)
    x = min(comps[-1])
    return TransitivityReport(x, x if any(g(x) in comps[-1] for g in maps) else None)


def is_transitive(sys: FiniteSystem) -> int | None:
    """Witness x with {x} u Sx = all states, or None."""
    return transitivity(sys).witness


def random_system(n: int, g: int, commuting: bool = False, seed: int = 0) -> FiniteSystem:
    """Seeded pseudo-random system; commuting draws powers of one map."""
    check_int(n, "n", 1)
    check_int(g, "g", 1)
    rng = random.Random(seed)
    gens = []
    if commuting:
        base = Transformation(tuple(rng.randrange(n) for _ in range(n)))
        for i in range(g):
            k = rng.randint(1, max(2 * n, 2))
            gens.append((f"g{i}", base.power(k)))
    else:
        for i in range(g):
            gens.append((f"g{i}", Transformation(tuple(rng.randrange(n) for _ in range(n)))))
    sys = FiniteSystem(
        tuple(str(i) for i in range(n)), tuple(gens),
        name=f"random-n{n}-g{g}-s{seed}" + ("-comm" if commuting else ""),
    )
    if commuting:
        assert sys.commuting
    return sys


def congruence_closure(sys: FiniteSystem, pairs) -> tuple[int, ...]:
    """Smallest generator-compatible partition merging the given pairs.

    Returns phi as a tuple mapping each state to its class index; classes
    are numbered by least member, so the output is canonical.
    """
    parent = list(range(sys.n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(x, y):
        rx, ry = find(x), find(y)
        if rx == ry:
            return False
        if rx > ry:
            rx, ry = ry, rx
        parent[ry] = rx
        return True

    work = [tuple(p) for p in pairs]
    for x in (x for p in work for x in p):
        _check_state(sys, x)
    while work:
        x, y = work.pop()
        if union(x, y):
            for g in sys.generator_maps:
                work.append((g(x), g(y)))
    roots = sorted({find(x) for x in range(sys.n)})
    renumber = {r: i for i, r in enumerate(roots)}
    return tuple(renumber[find(x)] for x in range(sys.n))
