"""Finite topological dynamical systems: orbits, minimal sets, transitivity."""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from functools import cached_property

from .transforms import Transformation, check_int


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
    def reach(self) -> tuple[frozenset[int], ...]:
        """Sx for every state x: the states some nonempty generator word
        sends x to, found once per system by one search from each state."""
        maps = self.generator_maps
        found = []
        for x in range(self.n):
            seen, frontier = set(), {x}
            while frontier:
                frontier = {g(y) for y in frontier for g in maps} - seen
                seen |= frontier
            found.append(frozenset(seen))
        return tuple(found)

    @cached_property
    def minimal_sets(self) -> tuple[frozenset[int], ...]:
        """All minimal nonempty invariant subsets, sorted by least element.

        Sx is minimal iff x lies in Sy for every y in Sx: then Sy = Sx for
        each of its points, x among them.  Each minimal set is read once,
        off its least state x, where also x <= min(Sx); one pass over
        ``reach`` yields them in least-state order.
        """
        reach = self.reach
        return tuple(r for x, r in enumerate(reach)
                     if x <= min(r) and all(x in reach[y] for y in r))

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
    check_int(x, "state", float("-inf"))
    if not (0 <= x < sys.n):
        raise ValueError(f"state {x} out of range")
    return Orbit(x, sys.reach[x] | {x}, sys.reach[x])


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
    everything = frozenset(range(sys.n))
    witness = next((x for x, r in enumerate(sys.reach) if r | {x} == everything), None)
    strict = next((x for x, r in enumerate(sys.reach) if r == everything), None)
    return TransitivityReport(witness, strict)


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
    while work:
        x, y = work.pop()
        if union(x, y):
            for g in sys.generator_maps:
                work.append((g(x), g(y)))
    roots = sorted({find(x) for x in range(sys.n)})
    renumber = {r: i for i, r in enumerate(roots)}
    return tuple(renumber[find(x)] for x in range(sys.n))
