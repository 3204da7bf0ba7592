"""Randomized recoloring engine with a losslessly invertible execution record.

The forward direction (`run`) repeatedly colors the family's next uncolored
object from a color source (the family's per-run frontier names that
object, see `BadEventFamily`), and whenever the family detects a bad event it
uncolors the event's designated set and logs the event's type and class
index.  The record plus the final partial coloring determine the entire
color stream: `decode` replays the record forward on colored *sets* alone to
recover which object each step touched, then walks backward rebuilding every
erased color.  Injectivity of V -> (coloring, record) is the point; it is
what turns a record-counting bound into a coloring guarantee.

Families are duck-typed; see `BadEventFamily` for the expected surface.
"""

from __future__ import annotations

import random
from array import array
from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field
from enum import Enum
from typing import AbstractSet, Optional, Protocol

from .errors import DecodeError, FamilyContractError


class RunStatus(Enum):
    COMPLETED = "Completed"
    BUDGET_EXHAUSTED = "BudgetExhausted"


@dataclass(frozen=True)
class EventTypeMeta:
    """Declared shape of one bad-event type.

    ``cost`` is the class-count ceiling: every class index the family emits
    for this type satisfies 1 <= k <= cost.  Costs are reals (type ceilings
    like Delta^(8/3)/(8a) are not integers); class indices are integers.
    ``uncolor_size`` is the exact number of objects every event of this type
    uncolors.
    """

    type_id: int
    cost: float
    uncolor_size: int

    def __post_init__(self):
        if self.type_id < 1:
            raise ValueError("type_id must be >= 1")
        if not self.cost >= 1:
            raise ValueError("cost must be >= 1")
        if self.uncolor_size < 1:
            raise ValueError("uncolor_size must be >= 1")


class PartialColoring:
    """Color assignment over objects 1..n; color 0 means uncolored.

    ``colors`` is an int array indexed by object (index 0 unused), which the
    row scans read directly; ``colored`` is the set of currently colored
    objects.
    """

    __slots__ = ("colors", "colored")

    def __init__(self, n_objects: int):
        self.colors = array("i", bytes(4 * (n_objects + 1)))
        self.colored: set[int] = set()

    @property
    def n_objects(self) -> int:
        return len(self.colors) - 1

    def color_of(self, v: int) -> int:
        return self.colors[v]

    def assign(self, v: int, color: int) -> None:
        if not 1 <= v <= self.n_objects or color < 1:
            raise ValueError(f"bad assignment {v} <- {color}")
        if self.colors[v]:
            raise ValueError(f"object {v} already colored")
        self.colors[v] = color
        self.colored.add(v)

    def unassign(self, v: int) -> None:
        if not self.colors[v]:
            raise ValueError(f"object {v} not colored")
        self.colors[v] = 0
        self.colored.discard(v)

    def as_dict(self) -> dict[int, int]:
        return {v: self.colors[v] for v in sorted(self.colored)}

    def copy(self) -> "PartialColoring":
        dup = PartialColoring.__new__(PartialColoring)
        dup.colors = array("i", self.colors)
        dup.colored = set(self.colored)
        return dup


class BadEventFamily(Protocol):
    """What the engine requires of a bad-event family.

    ``next_uncolored`` and ``uncolor_set`` may only depend on the colored
    *set* (plus the family's static structure): the decoder replays them
    before any colors are known.  ``detect`` and ``rebuild_event`` see full
    colorings.  ``detect(phi, v)`` is only ever called with v the object
    colored this step, and must pick deterministically among simultaneous
    events (declared type order, then smallest class index).
    ``rebuild_event`` returns the erased colors {u: color} of the unique
    type-j class-k event at v whose uncolored set was erased leaving
    ``after``.  Both ``uncolor_set`` and ``rebuild_event`` receive as
    ``colored`` the colored set at detection, anchor v included; the set is
    the engine's own, so a family reads it only during the call and never
    changes or keeps it.  ``uncolor_set`` may raise ValueError for a class
    within the type's ceiling that names no event at v; the engine reports
    it as FamilyContractError in `run` and as DecodeError in replay and
    decode.

    A family may also define ``frontier()``, returning a fresh object that
    tracks one run's colored set incrementally: ``pick()`` returns the next
    object, ``took(v)`` reports that v (the object ``pick()`` just returned)
    was colored, and ``released(target)`` that the objects in ``target``
    were uncolored.  ``pick()`` must always equal ``next_uncolored`` of the
    colored set those calls describe, which stays the specification.  The
    engine builds one frontier per run and per decode and never stores it on
    the family, since one family may serve many runs.  Families without
    ``frontier`` get one that calls ``next_uncolored`` on every pick.
    """

    name: str
    n_objects: int
    metas: Sequence[EventTypeMeta]

    def next_uncolored(self, colored: set[int]) -> Optional[int]: ...

    def detect(self, coloring: PartialColoring, v: int) -> Optional[tuple[int, int]]: ...

    def uncolor_set(self, j: int, v: int, colored: AbstractSet[int], k: int) -> tuple[int, ...]: ...

    def rebuild_event(
        self, j: int, v: int, colored: AbstractSet[int], k: int,
        after: PartialColoring,
    ) -> dict[int, int]: ...


class _NextUncolored:
    """Frontier of a family without one: asks ``next_uncolored`` each pick."""

    __slots__ = ("fam", "colored")

    def __init__(self, fam: BadEventFamily):
        self.fam = fam
        self.colored: set[int] = set()

    def pick(self) -> Optional[int]:
        return self.fam.next_uncolored(self.colored)

    def took(self, v: int) -> None:
        self.colored.add(v)

    def released(self, target: Sequence[int]) -> None:
        self.colored.difference_update(target)


def frontier_of(fam: BadEventFamily):
    """A fresh frontier for one run or decode of ``fam``."""
    make = getattr(fam, "frontier", None)
    return make() if make is not None else _NextUncolored(fam)


@dataclass(frozen=True)
class Record:
    """One entry per step: None for a surviving color, (j, k) when the step's
    color triggered the class-k bad event of type j and its set was uncolored."""

    steps: tuple[Optional[tuple[int, int]], ...]

    def __len__(self) -> int:
        return len(self.steps)

    def levels(self, metas: Sequence[EventTypeMeta]) -> tuple[int, ...]:
        """Dyck level (count of currently colored objects) after each step."""
        size = {m.type_id: m.uncolor_size for m in metas}
        out = []
        level = 0
        for step in self.steps:
            level += 1
            if step is not None:
                level -= size[step[0]]
            if level < 0:
                raise ValueError("record descends below the empty coloring")
            out.append(level)
        return tuple(out)

    def to_text(self, manifest: Mapping[str, object] | None = None) -> str:
        lines = [f"# {key}: {value}" for key, value in (manifest or {}).items()]
        for step in self.steps:
            lines.append("Color")
            if step is not None:
                lines.append(f"Uncolor, Bad Event {step[0]}, {step[1]}")
        return "\n".join(lines) + "\n"

    @classmethod
    def parse(cls, text: str) -> tuple["Record", dict[str, str]]:
        manifest: dict[str, str] = {}
        steps: list[Optional[tuple[int, int]]] = []
        for no, raw in enumerate(text.splitlines(), start=1):
            line = raw.strip()
            if not line:
                continue
            if line.startswith("#"):
                key, _, value = line[1:].partition(":")
                manifest[key.strip()] = value.strip()
            elif line == "Color":
                steps.append(None)
            elif line.startswith("Uncolor, Bad Event "):
                try:
                    j_text, k_text = line[len("Uncolor, Bad Event "):].split(",")
                    j, k = int(j_text), int(k_text)
                except ValueError:
                    raise DecodeError(f"line {no}: malformed uncolor entry") from None
                if not steps or steps[-1] is not None:
                    raise DecodeError(f"line {no}: Uncolor must follow a Color")
                steps[-1] = (j, k)
            else:
                raise DecodeError(f"line {no}: unrecognized record line {line!r}")
        return cls(tuple(steps)), manifest


@dataclass(frozen=True)
class EngineInput:
    """Color source for a run: an explicit vector, or (seed, budget) for the
    documented PRNG stream (`random.Random(seed)`, one randint(1, kappa) per
    step).  In list mode each drawn value is a 1-based index into the colored
    object's list, and lists must hold at least kappa colors."""

    kappa: int
    vector: tuple[int, ...] | None = None
    seed: int | None = None
    budget: int | None = None
    lists: Mapping[int, Sequence[int]] | None = None

    def __post_init__(self):
        if self.kappa < 1:
            raise ValueError("kappa must be >= 1")
        if (self.vector is None) == (self.seed is None):
            raise ValueError("supply exactly one of vector and seed")
        if self.vector is not None:
            object.__setattr__(self, "vector", tuple(self.vector))
            bad = [x for x in self.vector if not 1 <= x <= self.kappa]
            if bad:
                raise ValueError(f"vector entries outside 1..kappa: {bad[:3]}")
            if self.budget is not None and self.budget != len(self.vector):
                raise ValueError("budget and vector length disagree")
            object.__setattr__(self, "budget", len(self.vector))
        else:
            if self.budget is None or self.budget < 0:
                raise ValueError("seeded input needs a budget >= 0")

    def make_vector(self) -> tuple[int, ...]:
        """Materialize the full color stream this input draws from."""
        if self.vector is not None:
            return self.vector
        rng = random.Random(self.seed)
        return tuple(rng.randint(1, self.kappa) for _ in range(self.budget))

    def list_for(self, v: int) -> Sequence[int]:
        assert self.lists is not None
        try:
            colors = self.lists[v]
        except KeyError:
            raise ValueError(f"no color list for object {v}") from None
        if len(colors) < self.kappa:
            raise ValueError(
                f"list for object {v} has {len(colors)} colors, needs >= {self.kappa}"
            )
        return colors


@dataclass
class RunResult:
    coloring: PartialColoring
    record: Record
    status: RunStatus
    steps_used: int
    surviving_order: tuple[int, ...] = field(default=())


def _checked_event(fam, metas, j: int, k: int, exc) -> EventTypeMeta:
    meta = metas.get(j)
    if meta is None:
        raise exc(f"family {fam.name!r} emitted unknown event type {j}")
    if not (isinstance(k, int) and 1 <= k and k <= meta.cost):
        raise exc(f"family {fam.name!r} emitted class {k} outside 1..{meta.cost} for type {j}")
    return meta


def _checked_pick(fam, frontier, colored, exc) -> Optional[int]:
    v = frontier.pick()
    if v is not None and (
            not (isinstance(v, int) and 1 <= v <= fam.n_objects) or v in colored):
        raise exc(f"family {fam.name!r} picked invalid object {v}")
    return v


def _checked_uncolor_set(fam, meta, v, colored, k, exc) -> tuple[int, ...]:
    try:
        target = tuple(fam.uncolor_set(meta.type_id, v, colored, k))
    except ValueError as err:
        raise exc(f"family {fam.name!r}: {err}") from None
    distinct = set(target)
    if len(distinct) != len(target) or len(target) != meta.uncolor_size:
        raise exc(
            f"family {fam.name!r} uncolor set {target} is not {meta.uncolor_size} distinct objects"
        )
    if v not in distinct or not distinct <= colored:
        raise exc(
            f"family {fam.name!r} uncolor set {target} must contain {v} and stay inside the colored set"
        )
    return target


def run(g, fam: BadEventFamily, inp: EngineInput) -> RunResult:
    """Execute the coloring loop until the family reports no uncolored object
    (Completed) or the color budget runs out (BudgetExhausted).

    ``surviving_order`` lists the finally colored objects by the step that
    gave them their surviving color; replaying detection in that order is a
    sound allowedness check (see `allowedness_witness`).
    """
    metas = {m.type_id: m for m in fam.metas}
    pc = PartialColoring(fam.n_objects)
    frontier = frontier_of(fam)
    vector = inp.vector
    rng = random.Random(inp.seed) if vector is None else None
    steps: list[Optional[tuple[int, int]]] = []
    last_step: dict[int, int] = {}
    status = None
    used = 0
    for i in range(inp.budget):
        v = _checked_pick(fam, frontier, pc.colored, FamilyContractError)
        if v is None:
            status = RunStatus.COMPLETED
            break
        idx = vector[i] if vector is not None else rng.randint(1, inp.kappa)
        color = inp.list_for(v)[idx - 1] if inp.lists is not None else idx
        if color < 1:
            raise ValueError(f"color {color} for object {v} is not a positive integer")
        pc.assign(v, color)
        frontier.took(v)
        used = i + 1
        last_step[v] = i
        hit = fam.detect(pc, v)
        if hit is None:
            steps.append(None)
            continue
        j, k = hit
        meta = _checked_event(fam, metas, j, k, FamilyContractError)
        target = _checked_uncolor_set(fam, meta, v, pc.colored, k, FamilyContractError)
        for u in target:
            pc.unassign(u)
        frontier.released(target)
        steps.append((j, k))
    if status is None:
        status = (
            RunStatus.COMPLETED
            if _checked_pick(fam, frontier, pc.colored, FamilyContractError) is None
            else RunStatus.BUDGET_EXHAUSTED
        )
    order = tuple(sorted(pc.colored, key=last_step.__getitem__))
    return RunResult(pc, Record(tuple(steps)), status, used, order)


def replay_colored_sets(fam: BadEventFamily,
                        record: Record) -> list[tuple[int, tuple[int, ...]]]:
    """Forward replay of a record on colored sets alone.

    Returns one (object colored, objects uncolored) pair per step, the
    second empty for a surviving color.  Colors never enter: the next object
    is a function of the colored set and the uncolor set is a function of
    (type, anchor, colored set, class).
    """
    metas = {m.type_id: m for m in fam.metas}
    colored: set[int] = set()
    frontier = frontier_of(fam)
    out: list[tuple[int, tuple[int, ...]]] = []
    for step in record.steps:
        v = _checked_pick(fam, frontier, colored, DecodeError)
        if v is None:
            raise DecodeError("record is longer than the run it claims to describe")
        colored.add(v)
        frontier.took(v)
        target: tuple[int, ...] = ()
        if step is not None:
            j, k = step
            meta = _checked_event(fam, metas, j, k, DecodeError)
            target = _checked_uncolor_set(fam, meta, v, colored, k, DecodeError)
            colored.difference_update(target)
            frontier.released(target)
        out.append((v, target))
    return out


def decode(g, fam: BadEventFamily, final: PartialColoring, record: Record,
           lists: Mapping[int, Sequence[int]] | None = None) -> list[int]:
    """Recover the color stream that produced (final, record).

    Forward-replays the record to learn each step's object and uncolored
    set, checks the final set matches, then walks backward: a surviving
    step's value is the color it left behind (its list index in list mode);
    an uncolored step's value comes from the family rebuilding the erased
    event, which must give back exactly its uncolored set.  One colored set,
    ``live``, is updated in place: at an event it gains the target, making
    it the set at detection, and every step then drops its object.  The
    walk must end at the empty coloring.
    """
    pairs = replay_colored_sets(fam, record)
    colored: set[int] = set()
    for v, target in pairs:
        colored.add(v)
        colored.difference_update(target)
    if colored != final.colored:
        raise DecodeError("final coloring does not match the record's replay")
    pc = final.copy()
    live = set(pc.colored)
    values = [0] * len(pairs)

    def value_of(v: int, color: int) -> int:
        if lists is None:
            return color
        try:
            return list(lists[v]).index(color) + 1
        except (KeyError, ValueError):
            raise DecodeError(f"color {color} not in the list of object {v}") from None

    for i in range(len(pairs) - 1, -1, -1):
        v, target = pairs[i]
        step = record.steps[i]
        if step is None:
            if v not in pc.colored:
                raise DecodeError(f"step {i + 1} colored {v} but it is gone")
        else:
            j, k = step
            live.update(target)
            rebuilt = dict(fam.rebuild_event(j, v, live, k, pc))
            if rebuilt.keys() != set(target):
                raise DecodeError(
                    f"rebuilt event at step {i + 1} gives objects "
                    f"{sorted(rebuilt)}, not its uncolored set {sorted(target)}")
            for u, c in rebuilt.items():
                pc.assign(u, c)
        values[i] = value_of(v, pc.color_of(v))
        pc.unassign(v)
        live.discard(v)
    if pc.colored:
        raise DecodeError("backward walk did not end at the empty coloring")
    return values


def allowedness_witness(fam: BadEventFamily, coloring: PartialColoring,
                        order: Sequence[int]) -> Optional[tuple[int, tuple[int, int]]]:
    """Recolor `order` one by one and run detection at each newcomer; return
    the first firing (object, (j, k)) or None.

    With `order` the surviving-order of a run this is a sound and complete
    allowedness check: any bad event fully inside the final coloring would
    have fired at its last-colored member's original step and uncolored that
    member, contradicting survival.  A plain one-pass sweep over an arbitrary
    order is *not* sound for families whose witnesses are asymmetric in the
    anchor.
    """
    if set(order) != coloring.colored or len(set(order)) != len(order):
        raise ValueError("order must enumerate exactly the colored objects")
    pc = PartialColoring(fam.n_objects)
    for v in order:
        pc.assign(v, coloring.color_of(v))
        hit = fam.detect(pc, v)
        if hit is not None:
            return v, hit
    return None
