"""The temporal object database.

:class:`TemporalDatabase` executes the model: it owns the clock (the
concrete value of ``now``), the schema (classes with their metaclasses
and the ISA DAG) and the object population, and exposes exactly the
update operations the model's definitions constrain:

* :meth:`define_class` / :meth:`drop_class` -- schema evolution, with
  inheritance merging (Rule 6.1, method variance) checked at
  definition time;
* :meth:`create_object` -- instantiation; registers the oid in the
  ``proper-ext`` of the class and the ``ext`` of all its superclasses
  (Definition 4.1, Invariant 6.1);
* :meth:`update_attribute` -- typed updates; temporal attributes extend
  their history at ``now``, static attributes replace their value,
  immutable attributes refuse changes;
* :meth:`migrate` -- object migration (Section 5.2): static attributes
  dropped without trace, temporal attribute histories retained, extents
  and the object's class history adjusted;
* :meth:`delete_object` -- ends the lifespan (contiguous; no
  reincarnation).

Deletion convention: an operation executed at clock reading ``t`` takes
effect *at* t -- a created object exists at t; a deleted object's last
instant of existence is ``t - 1`` (its extents change at t).  This
keeps ``ext``, lifespans and class histories aligned (Invariant 5.1)
without half-open intervals.

The database implements the :class:`~repro.types.context.TypeContext`
protocol, so it plugs directly into ``[[T]]_t`` membership, the typing
rules and the consistency checkers; and the
:class:`~repro.objects.consistency.SchemaView` protocol for class
lookups.
"""

from __future__ import annotations

from typing import Any, Iterable, Iterator, Mapping

from repro import perf
from repro.database.caches import INDEX_MIN_POPULATION, DatabaseCaches
from repro.database.mvcc import MVCCManager
from repro.obs import spans as obs
from repro.database.events import Event, EventKind
from repro.errors import (
    DuplicateClassError,
    InvalidIntervalError,
    LifespanError,
    MigrationError,
    ReferentialIntegrityError,
    SchemaError,
    TypeCheckError,
    UnknownClassError,
    UnknownObjectError,
)
from repro.inheritance.coercion import as_member_of
from repro.inheritance.isa import IsaHierarchy
from repro.inheritance.refinement import (
    merge_inherited_attributes,
    merge_inherited_methods,
)
from repro.objects.object import TemporalObject
from repro.objects.references import oids_in_value
from repro.schema.attribute import Attribute
from repro.schema.class_def import ClassSignature
from repro.schema.metaclass import Metaclass
from repro.schema.method import MethodSignature
from repro.temporal.clock import Clock
from repro.temporal.intervals import Interval
from repro.temporal.intervalsets import IntervalSet
from repro.temporal.temporalvalue import TemporalValue
from repro.types.extension import in_extension
from repro.types.grammar import TemporalType, Type
from repro.values.null import NULL, is_null
from repro.values.oid import OID, OidGenerator
from repro.values.records import RecordValue


class Partitioning:
    """Hash-partitioning of the object population by oid serial.

    The layer is *pure*: it owns no bucket state, only the routing
    function ``oid.serial mod n_partitions``, so it can never go stale
    when the population changes behind its back (transaction rollback
    reassigns ``_objects`` wholesale; persistence restores insert
    directly).  :meth:`split` materializes the buckets for whatever oid
    set the caller is about to fan out -- an O(n) hash pass that is
    noise next to the per-object work it parallelizes.  Partitions are
    deliberately shard-shaped: the same routing function serves the
    scatter-gather executor today (:mod:`repro.database.parallel`) and
    cross-process shards later (ROADMAP item 3).
    """

    __slots__ = ("n_partitions",)

    def __init__(self, n_partitions: int | None = None) -> None:
        if n_partitions is None:
            from repro.database.parallel import default_partitions

            n_partitions = default_partitions()
        if n_partitions < 1:
            raise ValueError("n_partitions must be >= 1")
        self.n_partitions = int(n_partitions)

    def partition_of(self, oid: OID) -> int:
        """The partition index owning *oid* (stable for its lifetime)."""
        return oid.serial % self.n_partitions

    def split(self, oids: Iterable[OID]) -> list[list[OID]]:
        """Bucket *oids* by partition; index ``p`` holds partition p."""
        buckets: list[list[OID]] = [
            [] for _ in range(self.n_partitions)
        ]
        for oid in oids:
            buckets[oid.serial % self.n_partitions].append(oid)
        return buckets


class TemporalDatabase:
    """One T_Chimera database: clock + schema + objects."""

    def __init__(
        self,
        start_time: int = 0,
        journal=None,
        n_partitions: int | None = None,
    ) -> None:
        self.clock = Clock(start_time)
        self._isa = IsaHierarchy()
        self._classes: dict[str, ClassSignature] = {}
        self._metaclasses: dict[str, Metaclass] = {}
        self._objects: dict[OID, TemporalObject] = {}
        self._oids = OidGenerator()
        self._observers: list = []
        #: Subscriber failure policy: ``"raise"`` collects exceptions
        #: from observer callbacks and re-raises after *all* observers
        #: ran (a single failure re-raises as itself, several as one
        #: :class:`SubscriberError`); ``"continue"`` logs and goes on.
        self.on_subscriber_error: str = "raise"
        #: Hot-path caches (extents, membership, snapshots, indexes);
        #: invalidated from the event emission points and the schema
        #: evolution operations.  See docs/performance.md.
        self.caches = DatabaseCaches()
        #: Optional write-ahead journal (docs/durability.md).  Every
        #: committed operation appends a replayable record before the
        #: caller regains control.
        self._journal = None
        #: The active :class:`~repro.database.batch.BulkBatch`, or None.
        #: While set, cache maintenance and observer notification are
        #: deferred and journal records land in the group-commit buffer.
        self._batch = None
        #: Oid-hash partitioning of the population (default: one
        #: partition per core); routing for the scatter-gather
        #: executor in :mod:`repro.database.parallel`.
        self.partitioning = Partitioning(n_partitions)
        #: Monotone operation counter, part of :meth:`_state_version`;
        #: lets the parallel worker pool detect that its forked
        #: snapshot went stale.
        self._op_count = 0
        #: The persistent scatter-gather ``SnapshotPool``, lazily
        #: forked by ``parallel.snapshot_pool`` on the first eligible
        #: scan.
        self._parallel_pool = None
        #: How many live histories are segment-backed (cold prefix on
        #: disk); maintained by checkpoint spills and recovery, read by
        #: the planner's cold-read penalty.
        self.segment_values = 0
        #: MVCC read snapshots (docs/server.md): open
        #: :class:`~repro.database.mvcc.ReadView` registry plus the
        #: copy-on-write overlays the mutators feed via the
        #: ``before_*`` hooks below.  Hooks are no-ops while no view
        #: is open, so the single-client fast path pays one attribute
        #: read per mutation.
        self.mvcc = MVCCManager(self)
        #: True while a :class:`~repro.database.transactions
        #: .Transaction` is open (view acquisition is refused then).
        self._txn_active = False
        if journal is not None:
            self.attach_journal(journal)

    # ------------------------------------------------------------- durability

    @property
    def journal(self):
        """The attached write-ahead journal, or None."""
        return self._journal

    def attach_journal(self, journal, genesis: bool = True) -> None:
        """Start journaling every subsequent operation to *journal*.

        With *genesis* (the default for a fresh database) an empty
        journal receives a ``genesis`` record carrying the clock start,
        so recovery without any checkpoint can replay from scratch.
        """
        self._journal = journal
        if genesis and journal.is_empty():
            journal.append({"kind": "genesis", "start_time": self.now})

    def checkpoint(self) -> str:
        """Atomically snapshot this database and truncate its journal.

        Returns the checkpoint file path.  Requires an attached
        journal; see :meth:`repro.database.wal.Journal.checkpoint` for
        the crash-safe write protocol.
        """
        from repro.errors import JournalError

        if self._journal is None:
            raise JournalError(
                "checkpoint requires an attached journal"
            )
        return self._journal.checkpoint(self)

    def _journal_op(self, record: dict) -> None:
        if self._journal is not None:
            self._journal.append(record)

    # ------------------------------------------------------ transaction time

    @property
    def transaction_now(self) -> int | None:
        """The current transaction time: the last committed journal
        LSN, or None when no journal is attached (an unjournaled
        database has no transaction-time order)."""
        if self._journal is None:
            return None
        return self._journal.last_lsn

    def as_of(self, lsn: int):
        """The database as believed at transaction time *lsn*.

        The full bitemporal read surface: the returned database (the
        live one at the head, a detached reconstruction otherwise)
        answers every valid-time question -- ``pi`` / ``extent``
        sweeps, ``snapshot_at``, ``membership_times``, queries in all
        five scopes -- about the state as it was recorded then.  See
        :mod:`repro.bitemporal.asof`.
        """
        from repro.bitemporal import asof as asof_mod

        return asof_mod.as_of(self, lsn)

    # ---------------------------------------------------------------- events

    def subscribe(self, callback) -> None:
        """Register *callback* to receive an :class:`Event` after every
        completed create/update/migrate/delete operation."""
        self._observers.append(callback)

    def unsubscribe(self, callback) -> None:
        self._observers.remove(callback)

    def _emit(self, event: Event) -> None:
        self._op_count += 1
        if self._batch is not None:
            # Bulk batch: journal into the group-commit buffer, defer
            # cache maintenance and observer notification to the
            # coalesced reconciliation at batch close.
            if self._journal is not None:
                from repro.database.wal import record_for_event

                self._journal.append(record_for_event(event))
            self._batch.record(event)
            return
        # Caches first: observer callbacks must never read stale state.
        self.caches.on_event(self, event)
        # Journal second: the operation is already applied, and a
        # raising observer must not un-durable it (after-the-fact
        # enforcement wraps operations in a Transaction, whose rollback
        # truncates the journal suffix).
        if self._journal is not None:
            from repro.database.wal import record_for_event

            self._journal.append(record_for_event(event))
        self._notify(event)

    def _notify(self, event: Event) -> None:
        """Run the observer callbacks with failure isolation."""
        failures: list[tuple] = []
        for callback in list(self._observers):
            try:
                callback(self, event)
            except Exception as exc:  # isolate: every observer runs
                failures.append((callback, exc))
        if not failures:
            return
        if self.on_subscriber_error == "continue":
            import logging

            for callback, exc in failures:
                logging.getLogger("repro.events").error(
                    "subscriber %r raised handling %r: %s",
                    callback, event, exc,
                )
            return
        if len(failures) == 1:
            raise failures[0][1]
        from repro.errors import SubscriberError

        raise SubscriberError(event, failures)

    # --------------------------------------------------------------- batches

    @property
    def in_batch(self) -> bool:
        """Whether a bulk batch is currently open."""
        return self._batch is not None

    def batch(self):
        """A bulk-ingestion batch: ``with db.batch(): ...``.

        Inside the block, operations journal into a group-commit
        buffer (one write + one fsync barrier at close instead of one
        per operation), cache and attribute-index maintenance is
        suspended and applied as one coalesced delta at close, and
        observers receive a single :attr:`EventKind.BATCH` event
        carrying the ordered operation list.  See
        :mod:`repro.database.batch` (and docs/performance.md, "Bulk
        ingestion") for semantics, crash behaviour and the
        ``REPRO_NO_BATCH`` ablation.
        """
        from repro.database.batch import BulkBatch

        return BulkBatch(self)

    #: Alias: the ETL-flavoured name for the same context manager.
    bulk_load = batch

    # ------------------------------------------------------------------ time

    @property
    def now(self) -> int:
        """The current time instant."""
        return self.clock.now

    def tick(self, steps: int = 1) -> int:
        """Advance the clock."""
        result = self.clock.tick(steps)
        self._journal_op({"kind": "tick", "steps": steps})
        return result

    def _state_version(self) -> tuple[int, int, int]:
        """A cheap fingerprint of the database state.

        ``(now, cache generation, operation count)`` changes on every
        clock advance, schema evolution (generation bump), committed
        operation, and transaction rollback (``invalidate_all`` bumps
        the generation).  The scatter-gather pool pins its forked
        snapshot to this tuple; a mismatch forces a respawn rather
        than a stale read.
        """
        return (self.now, self.caches._global_gen, self._op_count)

    # ---------------------------------------------------------------- schema

    def define_class(
        self,
        name: str,
        attributes: Iterable[Attribute | tuple[str, Any]] = (),
        methods: Iterable[MethodSignature] = (),
        parents: Iterable[str] = (),
        c_attributes: Iterable[Attribute | tuple[str, Any]] = (),
        c_attr_values: Mapping[str, Any] | None = None,
        c_methods: Iterable[MethodSignature] = (),
    ) -> ClassSignature:
        """Define a class; its lifespan starts at the current time.

        ``attributes`` accepts :class:`Attribute` objects or
        ``(name, type)`` pairs (types may be terms or concrete syntax).
        Inherited attributes and methods are merged in, checking Rule
        6.1 and the method variance rules.  Attribute domains may
        mention the class being defined (e.g. ``subproject:
        temporal(project)`` in class ``project``) and any existing
        class.
        """
        if name in self._classes:
            raise DuplicateClassError(f"class {name!r} already defined")
        parent_list = list(parents)
        parent_signatures = []
        for parent in parent_list:
            parent_cls = self.get_class(parent)
            if not parent_cls.is_alive:
                raise LifespanError(
                    f"cannot inherit from dropped class {parent!r}"
                )
            parent_signatures.append(parent_cls)

        own_attributes = _as_attributes(attributes)
        own_c_attributes = _as_attributes(c_attributes)
        own_methods = {m.name: m for m in methods}

        # Register in the ISA DAG first so refinement checks can use it.
        self._isa.add_class(name, parent_list)
        try:
            merged_attributes = merge_inherited_attributes(
                own_attributes,
                [p.attributes for p in parent_signatures],
                self._isa,
                name,
            )
            merged_methods = merge_inherited_methods(
                own_methods,
                [p.methods for p in parent_signatures],
                self._isa,
                name,
            )
            for attribute in merged_attributes.values():
                self._check_mentioned_classes(attribute.type, name)
        except Exception:
            self._isa_rollback(name)
            raise

        initial_c_values: dict[str, Any] = {}
        provided = dict(c_attr_values or {})
        for c_name, c_attribute in own_c_attributes.items():
            value = provided.pop(c_name, NULL)
            if c_attribute.is_temporal:
                history = TemporalValue()
                history.assign(self.now, value)
                initial_c_values[c_name] = history
            else:
                initial_c_values[c_name] = value
        if provided:
            self._isa_rollback(name)
            raise SchemaError(
                f"class {name!r}: values for undeclared c-attributes "
                f"{sorted(provided)}"
            )

        cls = ClassSignature(
            name,
            attributes=merged_attributes.values(),
            methods=merged_methods.values(),
            c_attributes=own_c_attributes.values(),
            created_at=self.now,
            c_attr_values=initial_c_values,
        )
        self._classes[name] = cls
        metaclass = Metaclass(cls, tuple(c_methods))
        self._metaclasses[metaclass.name] = metaclass
        self.caches.bump_all()
        if self._journal is not None:
            from repro.database.persistence import encode_value
            from repro.types.parser import format_type

            self._journal.append({
                "kind": "define_class",
                "name": name,
                "parents": parent_list,
                "attributes": [
                    [a.name, format_type(a.type), a.immutable]
                    for a in own_attributes.values()
                ],
                "methods": [
                    [
                        m.name,
                        [format_type(t) for t in m.inputs],
                        format_type(m.output),
                    ]
                    for m in own_methods.values()
                ],
                "c_attributes": [
                    [a.name, format_type(a.type), a.immutable]
                    for a in own_c_attributes.values()
                ],
                "c_attr_values": {
                    c_name: encode_value(value)
                    for c_name, value in dict(c_attr_values or {}).items()
                },
            })
        return cls

    def _isa_rollback(self, name: str) -> None:
        # add_class is the only ISA mutation; undo it on definition failure.
        self._isa.retract_class(name)

    def _check_mentioned_classes(self, t: Type, defining: str) -> None:
        for class_name in t.mentioned_classes():
            if class_name != defining and class_name not in self._isa:
                raise UnknownClassError(
                    f"attribute domain mentions unknown class "
                    f"{class_name!r}"
                )

    # ----------------------------------------------------- schema evolution

    def add_attribute(
        self, class_name: str, attribute: Attribute | tuple[str, Any]
    ) -> None:
        """Add an attribute to a class (and its subclasses) at ``now``.

        Existing members get a null slot: a static attribute starts
        null; a temporal one starts recording null at ``now`` (it is
        not meaningful earlier, which is exactly what the time-indexed
        consistency notions require).  Subclasses that already declare
        the name reject the addition (resolve the conflict first).
        """
        spec = (
            attribute
            if isinstance(attribute, Attribute)
            else Attribute(*attribute)
        )
        spec = Attribute(
            spec.name, spec.type, spec.immutable, declared_at=self.now
        )
        cls = self.get_class(class_name)
        if not cls.is_alive:
            raise LifespanError(
                f"cannot evolve dropped class {class_name!r}"
            )
        family = [
            self._classes[sub]
            for sub in self._isa.subclasses(class_name)
            if self._classes[sub].is_alive
        ]
        for member in family:
            if spec.name in member.attributes:
                raise SchemaError(
                    f"class {member.name!r} already declares attribute "
                    f"{spec.name!r}"
                )
        self._check_mentioned_classes(spec.type, class_name)
        if self.mvcc.active:
            for member in family:
                self.mvcc.before_class_change(member.name)
                for oid in member.history.instances_at(self.now):
                    self.mvcc.before_object_change(oid)
        for member in family:
            member.declare_attribute(spec)
            for oid in member.history.instances_at(self.now):
                obj = self._objects[oid]
                if isinstance(spec.type, TemporalType):
                    history = obj.retained.pop(spec.name, None)
                    if history is None:
                        history = TemporalValue()
                    history.assign(self.now, NULL)
                    obj.value[spec.name] = history
                else:
                    obj.value[spec.name] = NULL
        self.caches.bump_all()
        if self._journal is not None:
            from repro.types.parser import format_type

            self._journal.append({
                "kind": "add_attribute",
                "class": class_name,
                "attribute": [
                    spec.name, format_type(spec.type), spec.immutable
                ],
            })

    def remove_attribute(self, class_name: str, name: str) -> None:
        """Remove an attribute from a class (and its subclasses) at
        ``now``.

        Only attributes declared at this level may be removed (an
        inherited attribute must be removed from the declaring
        superclass).  Object slots follow the Section 5.2 migration
        semantics: static values vanish without trace, temporal
        histories are closed and retained.
        """
        cls = self.get_class(class_name)
        if name not in cls.attributes:
            raise SchemaError(
                f"class {class_name!r} has no attribute {name!r}"
            )
        for ancestor in self._isa.superclasses(class_name, strict=True):
            if name in self._classes[ancestor].attributes:
                raise SchemaError(
                    f"attribute {name!r} is inherited from "
                    f"{ancestor!r}; remove it there"
                )
        now = self.now
        family = [
            self._classes[sub]
            for sub in self._isa.subclasses(class_name)
            if name in self._classes[sub].attributes
        ]
        if self.mvcc.active:
            for member in family:
                self.mvcc.before_class_change(member.name)
                for oid in member.history.instances_at(now):
                    self.mvcc.before_object_change(oid)
        for member in family:
            member.retire_attribute(name, now)
            for oid in member.history.instances_at(now):
                obj = self._objects[oid]
                leaving = obj.value.pop(name, None)
                if isinstance(leaving, TemporalValue):
                    leaving.close(now - 1)
                    if not leaving.is_empty():
                        obj.retained[name] = leaving
        self.caches.bump_all()
        self._journal_op({
            "kind": "remove_attribute",
            "class": class_name,
            "attribute": name,
        })

    def drop_class(self, name: str) -> None:
        """Drop a class: lifespan ends at ``now - 1``.

        Requires no live subclasses and an empty current extent (the
        model gives no semantics to orphaned members).
        """
        cls = self.get_class(name)
        live_subclasses = [
            sub
            for sub in self._isa.subclasses(name, strict=True)
            if self._classes[sub].is_alive
        ]
        if live_subclasses:
            raise SchemaError(
                f"cannot drop {name!r}: live subclasses "
                f"{sorted(live_subclasses)}"
            )
        if cls.history.members_at(self.now):
            raise SchemaError(
                f"cannot drop {name!r}: its extent at {self.now} is not "
                "empty"
            )
        if self.mvcc.active:
            self.mvcc.before_class_change(name)
        cls.close_lifespan(self.now)
        self.caches.bump_all()
        self._journal_op({"kind": "drop_class", "class": name})

    def get_class(self, name: str) -> ClassSignature:
        """The class identified by *name* (SchemaView protocol)."""
        try:
            return self._classes[name]
        except KeyError:
            raise UnknownClassError(f"class {name!r} is not defined") from None

    def get_metaclass(self, name: str) -> Metaclass:
        try:
            return self._metaclasses[name]
        except KeyError:
            raise UnknownClassError(
                f"metaclass {name!r} is not defined"
            ) from None

    def classes(self) -> Iterator[ClassSignature]:
        return iter(self._classes.values())

    def class_names(self) -> tuple[str, ...]:
        return tuple(self._classes)

    # --------------------------------------------------------------- objects

    def create_object(
        self,
        class_name: str,
        attributes: Mapping[str, Any] | None = None,
    ) -> OID:
        """Create an object as an instance of *class_name* at ``now``.

        Temporal attributes accept a plain value (the history starts at
        ``now``); static attributes take their value directly; omitted
        attributes start as null.  Values are type-checked against
        ``[[T]]_now`` and referenced objects must exist now.
        """
        cls = self.get_class(class_name)
        if not cls.is_alive:
            raise LifespanError(
                f"cannot instantiate dropped class {class_name!r}"
            )
        provided = dict(attributes or {})
        value: dict[str, Any] = {}
        for attr_name, attribute in cls.attributes.items():
            raw = provided.pop(attr_name, NULL)
            value[attr_name] = self._admit_value(
                attribute, raw, fresh=True
            )
        if provided:
            raise SchemaError(
                f"class {class_name!r} has no attribute(s) "
                f"{sorted(provided)}"
            )
        oid = self._oids.fresh(self._isa.hierarchy_of(class_name))
        obj = TemporalObject(oid, self.now, class_name, value)
        self._check_references(obj)
        if self.mvcc.active:
            # Open views must not see the newcomer in the extents; the
            # object itself is filtered by its oid serial watermark.
            self.mvcc.before_extent_change(class_name)
        self._objects[oid] = obj
        self._enter_extents(oid, class_name)
        self._emit(
            Event(
                EventKind.CREATE, self.now, oid, class_name,
                payload=dict(attributes or {}),
            )
        )
        return oid

    def _admit_value(
        self, attribute: Attribute, raw: Any, fresh: bool
    ) -> Any:
        """Validate and shape one attribute value for storage."""
        if isinstance(attribute.type, TemporalType):
            if isinstance(raw, TemporalValue):
                raise TypeCheckError(
                    f"attribute {attribute.name!r}: pass the current "
                    "value; histories are built by updates over time"
                )
            inner = attribute.type.argument
            if not is_null(raw) and not in_extension(
                raw, inner, self.now, self, now=self.now
            ):
                raise TypeCheckError(
                    f"attribute {attribute.name!r}: {raw!r} is not a "
                    f"legal value of {inner!r} at time {self.now}"
                )
            history = TemporalValue()
            history.assign(self.now, raw)
            return history
        if isinstance(raw, TemporalValue):
            raise TypeCheckError(
                f"attribute {attribute.name!r} is static; a temporal "
                "value cannot substitute it (coercion goes the other "
                "way; Section 6.1)"
            )
        if not is_null(raw) and not in_extension(
            raw, attribute.type, self.now, self, now=self.now
        ):
            raise TypeCheckError(
                f"attribute {attribute.name!r}: {raw!r} is not a legal "
                f"value of {attribute.type!r} at time {self.now}"
            )
        return raw

    def _enter_extents(self, oid: OID, class_name: str) -> None:
        for ancestor in self._isa.superclasses(class_name):
            self._classes[ancestor].history.add_member(oid, self.now)
        self._classes[class_name].history.add_instance(oid, self.now)

    def _check_references(self, obj: TemporalObject) -> None:
        for attr_name, attr_value in obj.value.items():
            current = (
                attr_value.get(self.now)
                if isinstance(attr_value, TemporalValue)
                else attr_value
            )
            for ref in oids_in_value(current):
                target = self._objects.get(ref)
                if target is None or not target.alive_at(self.now, self.now):
                    raise ReferentialIntegrityError(
                        f"attribute {attr_name!r} refers to {ref!r}, "
                        f"which does not exist at time {self.now}"
                    )

    def get_object(self, oid: OID) -> TemporalObject:
        try:
            return self._objects[oid]
        except KeyError:
            raise UnknownObjectError(
                f"no object with oid {oid!r}"
            ) from None

    def objects(self) -> Iterator[TemporalObject]:
        return iter(self._objects.values())

    def live_objects(self) -> Iterator[TemporalObject]:
        now = self.now
        return (o for o in self._objects.values() if o.alive_at(now, now))

    def __contains__(self, oid: object) -> bool:
        return oid in self._objects

    def __len__(self) -> int:
        return len(self._objects)

    def update_attribute(self, oid: OID, name: str, value: Any) -> None:
        """Set attribute *name* of *oid* to *value* at the current time."""
        obj = self._require_alive(oid)
        if self.mvcc.active:
            self.mvcc.before_object_change(oid)
        cls = self.get_class(obj.current_class(self.now))
        attribute = cls.attribute(name)
        if isinstance(attribute.type, TemporalType):
            history = obj.value.get(name)
            if not isinstance(history, TemporalValue):
                raise TypeCheckError(
                    f"attribute {name!r} of {oid!r} is missing its "
                    "temporal value"
                )
            if attribute.immutable and not _immutable_allows(
                history, value
            ):
                raise SchemaError(
                    f"attribute {name!r} is immutable; its value is a "
                    "constant function over the object lifetime"
                )
            inner = attribute.type.argument
            if not is_null(value) and not in_extension(
                value, inner, self.now, self, now=self.now
            ):
                raise TypeCheckError(
                    f"{value!r} is not a legal value of {inner!r} at "
                    f"time {self.now}"
                )
            self._check_value_references(name, value)
            old = history.get(self.now)
            history.assign(self.now, value)
            self._emit(
                Event(
                    EventKind.UPDATE, self.now, oid, cls.name,
                    attribute=name, old_value=old, new_value=value,
                )
            )
        else:
            if not is_null(value) and not in_extension(
                value, attribute.type, self.now, self, now=self.now
            ):
                raise TypeCheckError(
                    f"{value!r} is not a legal value of "
                    f"{attribute.type!r} at time {self.now}"
                )
            self._check_value_references(name, value)
            old = obj.value.get(name)
            obj.value[name] = value
            self._emit(
                Event(
                    EventKind.UPDATE, self.now, oid, cls.name,
                    attribute=name, old_value=old, new_value=value,
                )
            )

    def _check_value_references(self, attr_name: str, value: Any) -> None:
        for ref in oids_in_value(value):
            target = self._objects.get(ref)
            if target is None or not target.alive_at(self.now, self.now):
                raise ReferentialIntegrityError(
                    f"attribute {attr_name!r} refers to {ref!r}, which "
                    f"does not exist at time {self.now}"
                )

    def correct_attribute(
        self,
        oid: OID,
        name: str,
        start: int,
        end: int,
        value: Any,
    ) -> None:
        """Retroactively correct a temporal attribute over ``[start,
        end]`` -- the valid-time operation par excellence.

        Valid time records when facts were *true in reality* (Section
        1.1), so discovering that the recorded history was wrong calls
        for rewriting the affected stretch: the value becomes *value*
        throughout ``[start, end]``, splitting or truncating whatever
        pairs the stretch overlaps.  Constraints:

        * the attribute must be temporal and currently declared (its
          whole history is the correction target);
        * the interval must lie within the object's lifespan and not
          extend into the future (``end <= now``);
        * the value must be legal at every instant of the interval
          (checked via the same machinery as Definition 3.5);
        * corrections cannot introduce dangling references (the
          referenced objects must exist throughout the interval).

        A correction strictly in the past splits the surrounding
        history around the window (the pre-correction current value
        keeps tracking ``now``).  A correction whose window reaches
        ``now`` makes the corrected value *current*: the function
        continues with it until the next update -- there is no
        information from which the old value could "resume" in the
        future.  Pair with
        :class:`repro.bitemporal.BitemporalDatabase` to keep the
        pre-correction belief queryable.
        """
        obj = self.get_object(oid)
        if self.mvcc.active:
            self.mvcc.before_object_change(oid)
        now = self.now
        if end < start:
            raise InvalidIntervalError(
                f"correction interval start {start} is after end {end}"
            )
        if end > now:
            raise LifespanError(
                f"corrections cannot reach into the future (end={end} > "
                f"now={now}); use update_attribute for the present"
            )
        span = Interval(start, end)
        life = IntervalSet([obj.lifespan], now=now)
        if not IntervalSet([span]).issubset(life):
            raise LifespanError(
                f"[{start},{end}] is not inside the lifespan of {oid!r}"
            )
        # The attribute must be temporal in the class(es) the object
        # belonged to throughout the interval; use the object's own
        # history slot, which exists exactly when it ever was.
        history = obj.value.get(name)
        target = history if isinstance(history, TemporalValue) else (
            obj.retained.get(name)
        )
        if not isinstance(target, TemporalValue):
            raise SchemaError(
                f"object {oid!r} records no temporal history under "
                f"{name!r}; only temporal attributes can be corrected "
                "(static past values are not recorded at all)"
            )
        current_class = obj.current_class(now) if obj.alive_at(now, now) \
            else None
        declared_type: Type | None = None
        if current_class is not None:
            cls = self.get_class(current_class)
            if name in cls.attributes and isinstance(
                cls.attributes[name].type, TemporalType
            ):
                declared_type = cls.attributes[name].type.argument
                if cls.attributes[name].immutable:
                    raise SchemaError(
                        f"attribute {name!r} is immutable; its history "
                        "cannot be rewritten"
                    )
        if declared_type is not None and not is_null(value):
            for instant in (start, end):
                if not in_extension(
                    value, declared_type, instant, self, now=now
                ):
                    raise TypeCheckError(
                        f"{value!r} is not a legal value of "
                        f"{declared_type!r} at instant {instant}"
                    )
            if declared_type.mentions_object_types():
                for ref in oids_in_value(value):
                    target_obj = self._objects.get(ref)
                    if target_obj is None or not IntervalSet(
                        [span]
                    ).issubset(
                        IntervalSet([target_obj.lifespan], now=now)
                    ):
                        raise ReferentialIntegrityError(
                            f"correction refers to {ref!r}, which does "
                            f"not exist throughout [{start},{end}]"
                        )
        open_overlaps = (
            target.has_open_pair()
            and target.pairs()[-1][0].start <= end
        )
        if end == now and open_overlaps:
            # The window reaches the present: the corrected value
            # becomes (and stays) the current value.
            target.put(
                Interval.from_now(start), value, overwrite=True, now=now
            )
        else:
            target.put(span, value, overwrite=True, now=now)
        self._emit(
            Event(
                EventKind.CORRECT,
                now,
                oid,
                current_class or "",
                attribute=name,
                new_value=value,
                window=(start, end),
            )
        )

    def migrate(
        self,
        oid: OID,
        new_class: str,
        attributes: Mapping[str, Any] | None = None,
    ) -> None:
        """Move *oid* to *new_class* as its most specific class.

        Migration is allowed anywhere within the object's hierarchy
        (specialization *and* generalization; never across hierarchies,
        Invariant 6.2).  Attribute handling per Section 5.2:

        * static attributes not in the new class are deleted, no trace;
        * temporal attributes not in the new class have their history
          closed and retained in the object;
        * attributes new in the target class take their value from
          *attributes* (or null); a retained history under the same
          name is resumed (employee re-promoted to manager);
        * an attribute whose kind changes temporal -> static keeps its
          closed history retained and gets a current static value
          (coerced from the history when not provided); static ->
          temporal starts recording at ``now`` from the current value.
        """
        obj = self._require_alive(oid)
        old_class = obj.current_class(self.now)
        if new_class == old_class:
            raise MigrationError(
                f"{oid!r} is already an instance of {new_class!r}"
            )
        new_cls = self.get_class(new_class)
        if not new_cls.is_alive:
            raise LifespanError(
                f"cannot migrate into dropped class {new_class!r}"
            )
        if not self._isa.same_hierarchy(old_class, new_class):
            raise MigrationError(
                f"cannot migrate {oid!r} from hierarchy "
                f"{self._isa.hierarchy_of(old_class)!r} to "
                f"{self._isa.hierarchy_of(new_class)!r} (Invariant 6.2)"
            )
        provided = dict(attributes or {})
        now = self.now

        # Validate everything before mutating.
        staged: dict[str, Any] = {}
        for attr_name, attribute in new_cls.attributes.items():
            if attr_name in provided:
                staged[attr_name] = self._admit_migration_value(
                    attribute, provided.pop(attr_name)
                )
        if provided:
            raise SchemaError(
                f"class {new_class!r} has no attribute(s) "
                f"{sorted(provided)}"
            )

        old_cls = self.get_class(old_class)
        old_attrs = old_cls.attributes
        new_attrs = new_cls.attributes

        if self.mvcc.active:
            self.mvcc.before_object_change(oid)
            self.mvcc.before_extent_change(old_class)
            self.mvcc.before_extent_change(new_class)

        # 1. Attributes leaving the object.
        for attr_name in list(obj.value):
            if attr_name in new_attrs:
                continue
            leaving = obj.value.pop(attr_name)
            if isinstance(leaving, TemporalValue):
                leaving.close(now - 1)
                if not leaving.is_empty():
                    obj.retained[attr_name] = leaving
            # static: dropped without trace (Section 5.2)

        # 2. Attributes of the new class.
        for attr_name, attribute in new_attrs.items():
            current = obj.value.get(attr_name)
            wants_temporal = isinstance(attribute.type, TemporalType)
            if wants_temporal:
                if isinstance(current, TemporalValue):
                    history = current
                else:
                    history = obj.retained.pop(attr_name, None) or (
                        TemporalValue()
                    )
                    seed = staged.pop(
                        attr_name,
                        current if current is not None else NULL,
                    )
                    history.assign(now, seed)
                    obj.value[attr_name] = history
                    continue
                if attr_name in staged:
                    history.assign(now, staged.pop(attr_name))
            else:
                if isinstance(current, TemporalValue):
                    # temporal -> static: retain the history, coerce.
                    coerced = current.get(now, NULL)
                    current.close(now - 1)
                    if not current.is_empty():
                        obj.retained[attr_name] = current
                    obj.value[attr_name] = staged.pop(attr_name, coerced)
                elif attr_name in staged:
                    obj.value[attr_name] = staged.pop(attr_name)
                elif current is None:
                    obj.value[attr_name] = NULL

        # 3. Class history and extents.
        obj.class_history.assign(now, new_class)
        old_supers = self._isa.superclasses(old_class)
        new_supers = self._isa.superclasses(new_class)
        for leaving_class in old_supers - new_supers:
            self._classes[leaving_class].history.remove_member(oid, now)
        for entering_class in new_supers - old_supers:
            self._classes[entering_class].history.add_member(oid, now)
        old_cls.history.remove_instance(oid, now)
        new_cls.history.add_instance(oid, now)

        self._check_references(obj)
        self._emit(
            Event(
                EventKind.MIGRATE, now, oid, new_class,
                from_class=old_class,
                payload=dict(attributes or {}),
            )
        )

    def _admit_migration_value(self, attribute: Attribute, raw: Any) -> Any:
        if isinstance(raw, TemporalValue):
            raise TypeCheckError(
                f"attribute {attribute.name!r}: pass the current value; "
                "histories are built by updates over time"
            )
        target = attribute.type
        inner = (
            target.argument if isinstance(target, TemporalType) else target
        )
        if not is_null(raw) and not in_extension(
            raw, inner, self.now, self, now=self.now
        ):
            raise TypeCheckError(
                f"attribute {attribute.name!r}: {raw!r} is not a legal "
                f"value of {inner!r} at time {self.now}"
            )
        return raw

    def delete_object(self, oid: OID, force: bool = False) -> None:
        """Delete *oid*: its last instant of existence is ``now - 1``.

        Refuses when other live objects currently refer to it, unless
        *force* is set (leaving the checker to flag the dangle is the
        caller's responsibility then).
        """
        obj = self._require_alive(oid)
        now = self.now
        if not force:
            for other in self.live_objects():
                if other.oid == oid:
                    continue
                from repro.objects.references import referenced_oids

                if oid in referenced_oids(other, now, now):
                    raise ReferentialIntegrityError(
                        f"cannot delete {oid!r}: {other.oid!r} refers "
                        f"to it at time {now} (pass force=True to "
                        "override)"
                    )
        current_class = obj.current_class(now)
        if self.mvcc.active:
            self.mvcc.before_object_change(oid)
            self.mvcc.before_extent_change(current_class)
        obj.end_lifespan(now)
        for name, value in obj.value.items():
            if isinstance(value, TemporalValue):
                value.close(now - 1)
        obj.class_history.close(now - 1)
        for ancestor in self._isa.superclasses(current_class):
            self._classes[ancestor].history.remove_member(oid, now)
        self.get_class(current_class).history.remove_instance(oid, now)
        self._emit(
            Event(
                EventKind.DELETE, now, oid, current_class, payload=force
            )
        )

    def _require_alive(self, oid: OID) -> TemporalObject:
        obj = self.get_object(oid)
        if not obj.alive_at(self.now, self.now):
            raise LifespanError(
                f"object {oid!r} does not exist at time {self.now}"
            )
        return obj

    # ------------------------------------------------- substitutability

    def view_as(self, oid: OID, class_name: str) -> RecordValue:
        """The object's state seen as an instance of *class_name*,
        with snapshot coercion for temporally-refined attributes
        (Section 6.1)."""
        obj = self._require_alive(oid)
        current = obj.current_class(self.now)
        if not self._isa.isa_le(current, class_name):
            raise MigrationError(
                f"{oid!r} is an instance of {current!r}, which is not a "
                f"subclass of {class_name!r}; substitutability does not "
                "apply"
            )
        return as_member_of(obj, self.get_class(class_name), self.now)

    # ---------------------------------------------------- methods (behaviour)

    def call_method(
        self, oid: OID, method_name: str, *args: Any, at: int | None = None
    ) -> Any:
        """Invoke a method body against the object's snapshot at *at*
        (default: now) -- the time-dependent behaviour extension."""
        from repro.objects.state import snapshot as take_snapshot

        obj = self._require_alive(oid)
        cls = self.get_class(obj.current_class(self.now))
        try:
            method = cls.methods[method_name]
        except KeyError:
            raise SchemaError(
                f"class {cls.name!r} has no method {method_name!r}"
            ) from None
        if method.body is None:
            raise SchemaError(
                f"method {method_name!r} of {cls.name!r} has no body"
            )
        if len(args) != method.arity:
            raise TypeCheckError(
                f"method {method_name!r} expects {method.arity} "
                f"argument(s), got {len(args)}"
            )
        for index, (arg, expected) in enumerate(zip(args, method.inputs)):
            if not is_null(arg) and not in_extension(
                arg, expected, self.now, self, now=self.now
            ):
                raise TypeCheckError(
                    f"method {method_name!r}: argument {index} "
                    f"({arg!r}) is not a legal value of {expected!r}"
                )
        instant = self.now if at is None else at
        receiver = take_snapshot(obj, instant, self.now)
        result = method.body(self, oid, receiver, *args)
        if not is_null(result) and not in_extension(
            result, method.output, self.now, self, now=self.now
        ):
            raise TypeCheckError(
                f"method {method_name!r} returned {result!r}, not a "
                f"legal value of {method.output!r}"
            )
        return result

    def call_c_method(
        self, class_name: str, method_name: str, *args: Any
    ) -> Any:
        """Invoke a c-method: an operation on the class itself.

        C-attributes and c-operations associate state and behaviour
        with an entire class rather than its instances (paper, Section
        2: "c-operations can be used to manipulate such values", e.g.
        recompute the average age of employees).  The body receives
        ``(db, class_signature)`` plus the arguments; it typically
        reads the extent and updates c-attributes via
        ``cls.history.set_c_attr(name, value, db.now)``.
        """
        cls = self.get_class(class_name)
        metaclass = self.get_metaclass(cls.metaclass_name)
        try:
            method = metaclass.c_methods[method_name]
        except KeyError:
            raise SchemaError(
                f"class {class_name!r} has no c-method {method_name!r}"
            ) from None
        if method.body is None:
            raise SchemaError(
                f"c-method {method_name!r} of {class_name!r} has no body"
            )
        if len(args) != method.arity:
            raise TypeCheckError(
                f"c-method {method_name!r} expects {method.arity} "
                f"argument(s), got {len(args)}"
            )
        for index, (arg, expected) in enumerate(zip(args, method.inputs)):
            if not is_null(arg) and not in_extension(
                arg, expected, self.now, self, now=self.now
            ):
                raise TypeCheckError(
                    f"c-method {method_name!r}: argument {index} "
                    f"({arg!r}) is not a legal value of {expected!r}"
                )
        result = method.body(self, cls, *args)
        if not is_null(result) and not in_extension(
            result, method.output, self.now, self, now=self.now
        ):
            raise TypeCheckError(
                f"c-method {method_name!r} returned {result!r}, not a "
                f"legal value of {method.output!r}"
            )
        return result

    # ------------------------------------------------ TypeContext protocol

    def pi(self, class_name: str, t: int) -> frozenset[OID]:
        """``pi(c, t)``: the extent of the class at instant t (cached)."""
        cls = self.get_class(class_name)
        cached = self.caches.get_pi(class_name, t)
        if cached is not None:
            return cached
        result = cls.history.members_at(t)
        self.caches.put_pi(class_name, t, result)
        return result

    def anchor_extent(self, class_name: str, t: int) -> frozenset[OID]:
        """The extent anchoring AT/NOW query evaluation.

        Identical in value to :meth:`pi`; served from the pi cache when
        warm, and on a miss -- for populations large enough to amortize
        it -- from the per-class :class:`IntervalStabbingIndex`
        (O(log n + k) per stab), which is stale-marked on mutation.
        Instants beyond ``now`` fall back to the set-valued history
        (the index resolves moving membership intervals at build time).
        """
        cached = self.caches.get_pi(class_name, t)
        if cached is not None:
            return cached
        cls = self.get_class(class_name)
        use_index = (
            perf.is_enabled
            # During a bulk batch the index is unmaintained and its
            # generation key is frozen -- a stale index would *hit*.
            and not self.caches.suspended
            and 0 <= t <= self.now
            and len(cls.history.ever_members()) >= INDEX_MIN_POPULATION
        )
        # Only the cache-miss compute is traced: warm reads stay
        # guard-free, so tracing costs the steady state nothing.
        if obs.is_enabled:
            with obs.span(
                "db.extent",
                cls=class_name,
                t=t,
                path="index" if use_index else "history",
            ):
                result = self._compute_anchor_extent(cls, class_name, t, use_index)
        else:
            result = self._compute_anchor_extent(cls, class_name, t, use_index)
        self.caches.put_pi(class_name, t, result)
        return result

    def _compute_anchor_extent(
        self, cls, class_name: str, t: int, use_index: bool
    ) -> frozenset[OID]:
        if use_index:
            index = self.caches.stabbing_index(self, class_name)
            return frozenset(index.stab(t))
        return cls.history.members_at(t)

    def extent(self, class_name: str, t: int) -> frozenset[OID]:
        if class_name not in self._classes:
            return frozenset()
        return self.pi(class_name, t)

    def membership_times(self, class_name: str, oid: OID) -> IntervalSet:
        if class_name not in self._classes:
            return IntervalSet.empty()
        cached = self.caches.get_membership(class_name, oid, self.now)
        if cached is not None:
            return cached
        result = self._classes[class_name].history.member_times(
            oid, self.now
        )
        self.caches.put_membership(class_name, oid, self.now, result)
        return result

    def snapshot_at(self, oid: OID, t: int | None = None) -> RecordValue:
        """``snapshot(i, t)`` (Section 5.3) with result caching.

        Defaults to the current instant.  The cached record is immutable
        and invalidated by any event naming *oid* (update, correction,
        migration, deletion), by schema evolution, and by clock
        advancement.
        """
        from repro.objects.state import snapshot as take_snapshot

        instant = self.now if t is None else t
        obj = self.get_object(oid)
        cached = self.caches.get_snapshot(oid, instant, self.now)
        if cached is not None:
            return cached
        if obs.is_enabled:
            with obs.span("db.snapshot", oid=oid.serial, t=instant):
                result = take_snapshot(obj, instant, self.now)
        else:
            result = take_snapshot(obj, instant, self.now)
        self.caches.put_snapshot(oid, instant, self.now, result)
        return result

    def ever_member(self, class_name: str, oid: OID) -> bool:
        if class_name not in self._classes:
            return False
        return oid in self._classes[class_name].history.ever_members()

    def member_throughout(
        self, class_name: str, oid: OID, times: IntervalSet
    ) -> bool:
        return times.issubset(self.membership_times(class_name, oid))

    def classes_of(self, oid: OID) -> tuple[str, ...]:
        obj = self._objects.get(oid)
        if obj is None:
            return ()
        current = obj.most_specific_class(self.now)
        if current is not None:
            return tuple(self._isa.superclasses(current))
        # Deleted object: every class it ever belonged to.
        names: set[str] = set()
        for _interval, class_name in obj.class_history.pairs():
            names.update(self._isa.superclasses(class_name))
        return tuple(names)

    def known_class(self, class_name: str) -> bool:
        return class_name in self._classes

    @property
    def current_time(self) -> int | None:
        return self.now

    @property
    def isa(self) -> IsaHierarchy:
        return self._isa

    def __repr__(self) -> str:
        return (
            f"TemporalDatabase(now={self.now}, "
            f"classes={len(self._classes)}, objects={len(self._objects)})"
        )


def _as_attributes(
    specs: Iterable[Attribute | tuple[str, Any]],
) -> dict[str, Attribute]:
    result: dict[str, Attribute] = {}
    for spec in specs:
        attribute = (
            spec if isinstance(spec, Attribute) else Attribute(*spec)
        )
        if attribute.name in result:
            raise SchemaError(
                f"attribute {attribute.name!r} declared twice"
            )
        result[attribute.name] = attribute
    return result


def _immutable_allows(history: TemporalValue, value: Any) -> bool:
    """An immutable attribute's value is a constant function: only the
    very same value may be (re-)assigned once set to non-null."""
    if history.is_empty():
        return True
    existing = [v for v in history.values() if not is_null(v)]
    if not existing:
        return True
    return all(v == value for v in existing)
