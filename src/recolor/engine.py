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
from collections.abc import Iterator, Mapping, Sequence
from enum import Enum
from typing import AbstractSet, NamedTuple, Optional, Protocol

from .bounds import _checked_make
from .errors import DecodeError, FamilyContractError


class RunStatus(Enum):
    COMPLETED = "Completed"
    BUDGET_EXHAUSTED = "BudgetExhausted"


# Named tuples and a slotted class, not dataclasses: see `recolor.bounds`.
class _EventTypeFields(NamedTuple):
    type_id: int
    cost: float
    uncolor_size: int


class EventTypeMeta(_EventTypeFields):
    """Declared shape of one bad-event type.

    ``cost`` is the class-count ceiling: every class index the family emits
    for this type satisfies 1 <= k <= cost.  Costs are reals (type ceilings
    like Delta^(8/3)/(8a) are not integers); class indices are integers.
    ``uncolor_size`` is the exact number of objects every event of this type
    uncolors.
    """

    __slots__ = ()
    _make = classmethod(_checked_make)

    def __new__(cls, type_id: int, cost: float,
                uncolor_size: int) -> "EventTypeMeta":
        if type_id < 1:
            raise ValueError("type_id must be >= 1")
        if not cost >= 1:
            raise ValueError("cost must be >= 1")
        if uncolor_size < 1:
            raise ValueError("uncolor_size must be >= 1")
        return super().__new__(cls, type_id, cost, uncolor_size)


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

    def color_of(self, v: int) -> int:
        return self.colors[v]

    def assign(self, v: int, color: int) -> None:
        if not 0 < v < len(self.colors) or color < 1:
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
    the family, since one family may serve many runs; what a family keeps
    for its frontiers is family data fixed by its structure, such as the
    facial edge family's leaf tree of the all-uncolored state
    (``leaf_tree``), which each frontier copies.  Families without
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


class Record:
    """One entry per step: None for a surviving color, (j, k) when the step's
    color triggered the class-k bad event of type j and its set was uncolored.

    Not a tuple: its length is its step count.  ``steps`` is read-only, and
    records compare and hash by their steps."""

    __slots__ = ("_steps",)

    def __init__(self, steps: tuple[Optional[tuple[int, int]], ...]):
        self._steps = steps

    @property
    def steps(self) -> tuple[Optional[tuple[int, int]], ...]:
        return self._steps

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._steps == other._steps

    def __hash__(self) -> int:
        return hash((self._steps,))

    def __repr__(self) -> str:
        return f"{type(self).__name__}(steps={self._steps!r})"

    def __len__(self) -> int:
        return len(self._steps)

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


class _EngineInputFields(NamedTuple):
    kappa: int
    vector: tuple[int, ...] | None
    seed: int | None
    budget: int | None
    lists: Mapping[int, Sequence[int]] | None


class EngineInput(_EngineInputFields):
    """Color source for a run: an explicit vector, or (seed, budget) for the
    documented PRNG stream, one randint(1, kappa) per step.  `draws` is the
    one definition of that stream.  In list mode each
    drawn value is a 1-based index into the colored object's list; every
    given list is checked here, once: it must hold at least kappa colors,
    all positive and distinct, since `decode` reads an index back from its
    color."""

    __slots__ = ()
    _make = classmethod(_checked_make)

    def __new__(cls, kappa: int, vector: Sequence[int] | None = None,
                seed: int | None = None, budget: int | None = None,
                lists: Mapping[int, Sequence[int]] | None = None,
                ) -> "EngineInput":
        if kappa < 1:
            raise ValueError("kappa must be >= 1")
        if (vector is None) == (seed is None):
            raise ValueError("supply exactly one of vector and seed")
        if vector is not None:
            vector = tuple(vector)
            bad = [x for x in vector if not 1 <= x <= kappa]
            if bad:
                raise ValueError(f"vector entries outside 1..kappa: {bad[:3]}")
            if budget is not None and budget != len(vector):
                raise ValueError("budget and vector length disagree")
            budget = len(vector)
        elif budget is None or budget < 0:
            raise ValueError("seeded input needs a budget >= 0")
        for v, colors in (lists or {}).items():
            if len(colors) < kappa:
                raise ValueError(
                    f"list for object {v} has {len(colors)} colors, needs >= {kappa}")
            if (low := min(colors)) < 1:
                raise ValueError(f"list for object {v} holds color {low}, needs >= 1")
            if len(set(colors)) < len(colors):
                twice = next(c for i, c in enumerate(colors) if c in colors[:i])
                raise ValueError(f"list for object {v} holds color {twice} twice")
        return super().__new__(cls, kappa, vector, seed, budget, lists)

    def draws(self) -> Iterator[int]:
        """The color stream, drawn lazily: the vector's entries, or
        ``budget`` values of ``randint(1, kappa)`` from a ``random.Random``
        seeded with ``seed``."""
        if self.vector is not None:
            return iter(self.vector)
        return _randints(random.Random(self.seed).getrandbits, self.kappa,
                         self.budget)

    def make_vector(self) -> tuple[int, ...]:
        """Materialize the full color stream this input draws from."""
        return tuple(self.draws())


def _randints(getrandbits, kappa: int, budget: int) -> Iterator[int]:
    """``budget`` values of ``randint(1, kappa)``, drawn as CPython's
    ``randint`` draws them: kappa's bit length of random bits, redrawn
    while they reach kappa, plus one.  Inlined, because the four calls
    ``randint`` makes per value cost more than the draw itself."""
    k = kappa.bit_length()
    for _ in range(budget):
        r = getrandbits(k)
        while r >= kappa:
            r = getrandbits(k)
        yield r + 1


class RunResult(NamedTuple):
    coloring: PartialColoring
    record: Record
    status: RunStatus
    steps_used: int
    surviving_order: tuple[int, ...] = ()


def _bad_pick(fam, v, exc) -> Exception:
    return exc(f"family {fam.name!r} picked invalid object {v}")


def _checked_target(fam, metas, j, k, v, colored, exc) -> tuple[int, ...]:
    """The objects that the type-j class-k event at v uncolors, checked
    against the family's declaration; `run` and `replay_colored_sets` make
    every event check here, raising ``exc``.  A type wider than the colored
    set is refused before the family is asked for its set."""
    meta = metas.get(j)
    if meta is None:
        raise exc(f"family {fam.name!r} emitted unknown event type {j}")
    if not (isinstance(k, int) and 1 <= k and k <= meta.cost):
        raise exc(f"family {fam.name!r} emitted class {k} outside 1..{meta.cost} for type {j}")
    size = meta.uncolor_size
    if size > len(colored):
        raise exc(
            f"family {fam.name!r}: a type {j} event at {v} uncolors "
            f"{size} objects, but only {len(colored)} are colored")
    try:
        target = tuple(fam.uncolor_set(meta.type_id, v, colored, k))
    except ValueError as err:
        raise exc(f"family {fam.name!r}: {err}") from None
    distinct = set(target)
    if len(distinct) != len(target) or len(target) != size:
        raise exc(
            f"family {fam.name!r} uncolor set {target} is not {size} distinct objects"
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
    n = fam.n_objects
    pc = PartialColoring(n)
    colored, assign, unassign = pc.colored, pc.assign, pc.unassign
    frontier = frontier_of(fam)
    pick, took, released = frontier.pick, frontier.took, frontier.released
    detect = fam.detect
    lists = inp.lists
    steps: list[Optional[tuple[int, int]]] = []
    append = steps.append
    last_step: dict[int, int] = {}
    for i, idx in enumerate(inp.draws()):
        v = pick()
        if v is None:
            status = RunStatus.COMPLETED
            break
        if not (isinstance(v, int) and 1 <= v <= n) or v in colored:
            raise _bad_pick(fam, v, FamilyContractError)
        if lists is None:
            color = idx
        else:
            try:
                color = lists[v][idx - 1]
            except KeyError:
                raise ValueError(f"no color list for object {v}") from None
        assign(v, color)
        took(v)
        last_step[v] = i
        hit = detect(pc, v)
        if hit is None:
            append(None)
            continue
        j, k = hit
        target = _checked_target(fam, metas, j, k, v, colored, FamilyContractError)
        for u in target:
            unassign(u)
        released(target)
        append((j, k))
    else:
        v = pick()
        if v is None:
            status = RunStatus.COMPLETED
        elif not (isinstance(v, int) and 1 <= v <= n) or v in colored:
            raise _bad_pick(fam, v, FamilyContractError)
        else:
            status = RunStatus.BUDGET_EXHAUSTED
    order = tuple(sorted(colored, key=last_step.__getitem__))
    return RunResult(pc, Record(tuple(steps)), status, len(steps), order)


def replay_colored_sets(fam: BadEventFamily,
                        record: Record) -> list[tuple[int, tuple[int, ...]]]:
    """Forward replay of a record on colored sets alone.

    Returns one (object colored, objects uncolored) pair per step, the
    second empty for a surviving color.  Colors never enter: the next object
    is a function of the colored set and the uncolor set is a function of
    (type, anchor, colored set, class).  An event whose type uncolors more
    objects than are colored is refused before the family is asked for it.
    """
    metas = {m.type_id: m for m in fam.metas}
    n = fam.n_objects
    colored: set[int] = set()
    add, drop = colored.add, colored.difference_update
    frontier = frontier_of(fam)
    pick, took, released = frontier.pick, frontier.took, frontier.released
    out: list[tuple[int, tuple[int, ...]]] = []
    append = out.append
    for step in record.steps:
        v = pick()
        if v is None:
            raise DecodeError("record is longer than the run it claims to describe")
        if not (isinstance(v, int) and 1 <= v <= n) or v in colored:
            raise _bad_pick(fam, v, DecodeError)
        add(v)
        took(v)
        if step is None:
            append((v, ()))
            continue
        j, k = step
        target = _checked_target(fam, metas, j, k, v, colored, DecodeError)
        drop(target)
        released(target)
        append((v, target))
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
    steps = record.steps
    live = set(pc.colored)
    values = [0] * len(pairs)

    def value_of(v: int, color: int) -> int:
        if lists is None:
            return color
        try:
            return lists[v].index(color) + 1
        except (KeyError, ValueError):
            raise DecodeError(f"color {color} not in the list of object {v}") from None

    for i in range(len(pairs) - 1, -1, -1):
        v, target = pairs[i]
        step = steps[i]
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
                try:
                    pc.assign(u, c)
                except ValueError as exc:
                    raise DecodeError(f"rebuilt event at step {i + 1}: {exc}") from None
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
