"""Mercury performance variables (PVARs) and the external tool interface.

This implements Section IV-B of the paper verbatim:

* **PVAR classes** (Table I): STATE, COUNTER, TIMER, LEVEL, SIZE,
  HIGHWATERMARK, LOWWATERMARK.
* **PVAR bindings**: ``NO_OBJECT`` for library-global variables and
  ``HANDLE`` for variables scoped to one RPC handle, whose values "go out
  of scope and are lost forever" once the RPC completes.
* **The tool interface**: session init -> query -> handle allocation ->
  sampling -> finalize, mirroring the five steps of Section IV-B-2.

SYMBIOSYS (through Margo) is one client of this interface; the tests use
it directly as an external tool would.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import partial
from operator import getitem
from typing import Any, Callable, Optional

__all__ = [
    "PvarClass",
    "PvarBinding",
    "PvarDef",
    "PvarError",
    "PvarRegistry",
    "PvarSession",
    "PvarTable",
    "PvarHandle",
]


class PvarError(RuntimeError):
    """Protocol violation against the PVAR tool interface."""


class PvarClass(enum.Enum):
    """Table I: the semantic classes a PVAR can have."""

    STATE = "STATE"  # one of a set of discrete states
    COUNTER = "COUNTER"  # monotonically increasing value
    TIMER = "TIMER"  # interval event timer
    LEVEL = "LEVEL"  # utilization level of a resource
    SIZE = "SIZE"  # size of a resource
    HIGHWATERMARK = "HIGHWATERMARK"  # highest recorded value
    LOWWATERMARK = "LOWWATERMARK"  # lowest recorded value


class PvarBinding(enum.Enum):
    NO_OBJECT = "NO_OBJECT"  # global scope within the Mercury instance
    HANDLE = "HANDLE"  # bound to one RPC handle


#: Bound once for :meth:`PvarRegistry.raw_value`, which the monitor's
#: detectors call per process per tick: an enum member lookup costs more
#: than the read it guards.
_NO_OBJECT = PvarBinding.NO_OBJECT


@dataclass(frozen=True)
class PvarDef:
    """Static description of one exported PVAR (what ``pvar_get_info``
    returns to an external tool).

    A definition is library data, not instance state: one module-level
    tuple of them serves every instance of the defining class, and each
    registry that holds a definition pairs it with the object it reads.
    """

    name: str
    pvar_class: PvarClass
    binding: PvarBinding
    description: str
    #: For NO_OBJECT PVARs whose value is computed on demand (e.g. the
    #: instantaneous completion-queue depth), a one-argument getter
    #: called with the owner the registry was given at
    #: :meth:`PvarRegistry.define` time, e.g. ``lambda hg:
    #: len(hg._completion_queue)``.
    getter: Optional[Callable[[Any], Any]] = None


def _initial_value(pvar_def: PvarDef) -> Any:
    """A stored NO_OBJECT PVAR's value before its first update (0, 0.0
    for a TIMER, None for a LOWWATERMARK: no sample yet); None for a
    HANDLE-bound one."""
    if pvar_def.binding is not PvarBinding.NO_OBJECT:
        return None
    if pvar_def.pvar_class is PvarClass.LOWWATERMARK:
        return None
    return 0.0 if pvar_def.pvar_class is PvarClass.TIMER else 0


class PvarTable:
    """A fixed tuple of definitions, prebuilt once so that a registry
    takes all of them in one step (:meth:`PvarRegistry.define_table`).

    One module-level table serves every instance of the defining class:
    it holds the name -> slot index, the slot template of initial values
    and the slots whose getter is called with the registry's owner.
    """

    __slots__ = ("defs", "index", "template", "owned")

    def __init__(self, defs: tuple[PvarDef, ...]):
        self.defs = tuple(defs)
        self.index: dict[str, int] = {}
        for slot, d in enumerate(self.defs):
            if d.name in self.index:
                raise PvarError(f"duplicate PVAR {d.name!r}")
            self.index[d.name] = slot
        self.template = [_initial_value(d) for d in self.defs]
        self.owned = tuple(
            slot for slot, d in enumerate(self.defs) if d.getter is not None
        )


class PvarRegistry:
    """Holds the PVAR definitions and NO_OBJECT values for one Mercury
    instance.

    Values live in a flat list parallel to the definitions.  Every
    update goes through the validated name API (:meth:`set`,
    :meth:`add`, :meth:`watermark`), so binding, class and
    monotonicity checks run on each write.  Readers may bind a name to
    its slot once (:meth:`reader`, :attr:`slot_values`) and then read
    ``_slots[slot]`` without hashing the name.
    """

    def __init__(self) -> None:
        self._defs: list[PvarDef] = []
        self._index: dict[str, int] = {}
        #: Per definition slot: the current value of a stored PVAR, the
        #: owner handed to the getter of a getter-backed one, and None
        #: for a HANDLE-bound one.
        self._slots: list[Any] = []
        #: Sessions opened against this registry (numbers session ids).
        self._sessions_opened = 0

    # -- definition (library side) -------------------------------------------

    def define_table(self, table: PvarTable, owner: Any = None) -> None:
        """Add every definition of ``table`` in one step, in table order.
        ``owner`` is what each getter-backed definition's getter is
        called with."""
        index = self._index
        if not index.keys().isdisjoint(table.index):
            dup = next(name for name in table.index if name in index)
            raise PvarError(f"duplicate PVAR {dup!r}")
        base = len(self._defs)
        index.update(zip(table.index, range(base, base + len(table.defs))))
        self._defs += table.defs
        slots = table.template.copy()
        for slot in table.owned:
            slots[slot] = owner
        self._slots += slots

    @property
    def num_pvars(self) -> int:
        return len(self._defs)

    @property
    def names(self) -> tuple[str, ...]:
        """Every PVAR name in definition (slot) order: the registry's
        schema."""
        return tuple(self._index)

    @property
    def slot_values(self) -> list[Any]:
        """The live per-slot list, for bind-once readers that index it
        directly.  A getter-backed slot holds the getter's owner, so its
        value is ``getter(slot_values[slot])``; a HANDLE-bound slot holds
        None."""
        return self._slots

    def info(self, index: int) -> PvarDef:
        if not 0 <= index < len(self._defs):
            raise PvarError(f"PVAR index {index} out of range")
        return self._defs[index]

    def index_of(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise PvarError(f"unknown PVAR {name!r}") from None

    # -- reads (tool side) ----------------------------------------------------

    def reader(self, name: str) -> Callable[[], Any]:
        """Bind-once zero-arg reader for a NO_OBJECT PVAR.

        Getter-backed definitions hand back the getter bound to its
        owner; stored definitions hand back ``slots[slot]`` bound the
        same way, so a read costs one list index instead of two dict
        lookups.
        """
        slot = self.index_of(name)
        d = self._defs[slot]
        if d.binding is not PvarBinding.NO_OBJECT:
            raise PvarError(f"{name!r} is HANDLE-bound")
        if d.getter is not None:
            return partial(d.getter, self._slots[slot])
        return partial(getitem, self._slots, slot)

    # -- updates (library side) ------------------------------------------------

    def _slot_for_update(self, name: str) -> int:
        slot = self.index_of(name)
        d = self._defs[slot]
        if d.binding is not PvarBinding.NO_OBJECT:
            raise PvarError(f"{name!r} is HANDLE-bound; update it on the handle")
        if d.getter is not None:
            raise PvarError(f"{name!r} is computed; it cannot be set")
        return slot

    def set(self, name: str, value: Any) -> None:
        """Direct write (STATE / LEVEL semantics)."""
        self._slots[self._slot_for_update(name)] = value

    def add(self, name: str, delta: Any = 1) -> None:
        """Increment (COUNTER semantics; LEVEL may also go up/down)."""
        slot = self._slot_for_update(name)
        if self._defs[slot].pvar_class is PvarClass.COUNTER and delta < 0:
            raise PvarError(f"COUNTER {name!r} cannot decrease")
        self._slots[slot] += delta

    def watermark(self, name: str, value: Any) -> None:
        """Record a sample into a HIGH/LOWWATERMARK PVAR."""
        slot = self._slot_for_update(name)
        cls = self._defs[slot].pvar_class
        cur = self._slots[slot]
        if cls is PvarClass.HIGHWATERMARK:
            if cur is None or value > cur:
                self._slots[slot] = value
        elif cls is PvarClass.LOWWATERMARK:
            if cur is None or value < cur:
                self._slots[slot] = value
        else:
            raise PvarError(f"{name!r} is not a watermark PVAR")

    def raw_value(self, name: str) -> Any:
        slot = self.index_of(name)
        d = self._defs[slot]
        if d.binding is not _NO_OBJECT:
            raise PvarError(f"{name!r} is HANDLE-bound")
        if d.getter is not None:
            return d.getter(self._slots[slot])
        return self._slots[slot]


@dataclass
class PvarHandle:
    """An allocated reference to one PVAR within a session."""

    session: "PvarSession"
    index: int
    freed: bool = False


class PvarSession:
    """One external tool's sampling session against a Mercury instance.

    Follows the paper's five-step protocol; every step validates its
    preconditions so misuse is caught loudly.  Session ids count from 1
    per registry, so identical runs in one interpreter number their
    sessions identically.
    """

    def __init__(self, registry: PvarRegistry):
        self._registry = registry
        registry._sessions_opened += 1
        self.session_id = registry._sessions_opened
        self._finalized = False
        self._handles: list[PvarHandle] = []

    # -- step 2: query -----------------------------------------------------

    def get_num_pvars(self) -> int:
        self._check_live()
        return self._registry.num_pvars

    def get_info(self, index: int) -> PvarDef:
        self._check_live()
        return self._registry.info(index)

    def index_of(self, name: str) -> int:
        self._check_live()
        return self._registry.index_of(name)

    # -- step 3: allocate handles -------------------------------------------

    def handle_alloc(self, index: int) -> PvarHandle:
        self._check_live()
        self._registry.info(index)  # validates range
        h = PvarHandle(session=self, index=index)
        self._handles.append(h)
        return h

    def handle_alloc_by_name(self, name: str) -> PvarHandle:
        return self.handle_alloc(self.index_of(name))

    # -- step 4: sample -----------------------------------------------------

    def read(self, pvar_handle: PvarHandle, hg_handle: Any = None) -> Any:
        self._check_live()
        if pvar_handle.session is not self:
            raise PvarError("PVAR handle belongs to a different session")
        if pvar_handle.freed:
            raise PvarError("PVAR handle already freed")
        d = self._registry.info(pvar_handle.index)
        if d.binding is PvarBinding.HANDLE:
            if hg_handle is None:
                raise PvarError(
                    f"{d.name!r} is HANDLE-bound; a Mercury handle is required"
                )
            return hg_handle.pvar_get(d.name)
        return self._registry.raw_value(d.name)

    def read_by_name(self, name: str, hg_handle: Any = None) -> Any:
        """Convenience: allocate-free read by name (tests / tooling)."""
        idx = self.index_of(name)
        d = self._registry.info(idx)
        if d.binding is PvarBinding.HANDLE:
            if hg_handle is None:
                raise PvarError(
                    f"{d.name!r} is HANDLE-bound; a Mercury handle is required"
                )
            return hg_handle.pvar_get(d.name)
        return self._registry.raw_value(d.name)

    def reader(self, name: str) -> Callable[[], Any]:
        """Bind a zero-arg reader for a NO_OBJECT PVAR once, so a
        per-RPC sample is one call instead of name resolution +
        validation each time (SYMBIOSYS's t14 fusion path)."""
        self._check_live()
        return self._registry.reader(name)

    # -- step 5: finalize ------------------------------------------------------

    def handle_free(self, pvar_handle: PvarHandle) -> None:
        self._check_live()
        if pvar_handle.freed:
            raise PvarError("PVAR handle already freed")
        pvar_handle.freed = True

    def finalize(self) -> None:
        self._check_live()
        for h in self._handles:
            h.freed = True
        self._finalized = True

    def _check_live(self) -> None:
        if self._finalized:
            raise PvarError("PVAR session already finalized")
