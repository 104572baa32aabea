"""Element base class and the element registry.

A Click element is a small unit of packet processing with numbered input
and output ports.  Concrete behaviour lives in :meth:`Element.push`;
the matching symbolic behaviour is registered separately in
:mod:`repro.symexec.models` keyed by the same class name, which is what
lets the controller statically analyse any configuration built from
known elements (Section 4.1 of the paper).
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple, Type

from repro.common.errors import ConfigError

#: ``push()`` results: a list of (output port, packet) pairs.
PushResult = List[Tuple[int, "object"]]

#: ``push_batch()`` results: a list of (output port, packets) groups.
#: Port order follows first emission; packet order within a group is the
#: order the packets would have left that port under scalar ``push()``.
PushBatchResult = List[Tuple[int, List["object"]]]

#: ``push_columns()`` results: a list of (output port, PacketColumns)
#: groups, same ordering contract as ``push_batch``.
PushColumnsResult = List[Tuple[int, "object"]]

_REGISTRY: Dict[str, Type["Element"]] = {}


def register_element(class_name: str):
    """Class decorator registering a Click element under ``class_name``."""

    def decorate(cls: Type["Element"]) -> Type["Element"]:
        if class_name in _REGISTRY:
            raise ConfigError(
                "element class %r registered twice" % (class_name,)
            )
        cls.class_name = class_name
        _REGISTRY[class_name] = cls
        return cls

    return decorate


def element_registry() -> Dict[str, Type["Element"]]:
    """A copy of the class-name -> element-class registry."""
    return dict(_REGISTRY)


def lookup_element(class_name: str) -> Type["Element"]:
    """Return the element class registered under ``class_name``."""
    try:
        return _REGISTRY[class_name]
    except KeyError:
        raise ConfigError("unknown element class %r" % (class_name,))


def create_element(
    class_name: str, name: str, args: Sequence[str] = ()
) -> "Element":
    """Instantiate a registered element from its textual argument list."""
    return lookup_element(class_name)(name, list(args))


class Element:
    """Base class for all Click elements.

    Subclasses set :attr:`n_inputs` / :attr:`n_outputs` (``None`` means
    "any number", fixed by the configuration) and override
    :meth:`configure` to parse their argument strings and :meth:`push`
    to process packets.
    """

    class_name = "Element"
    n_inputs: Optional[int] = 1
    n_outputs: Optional[int] = 1
    #: Whether the element keeps per-flow state.  Stateful modules are not
    #: consolidated with other tenants and use suspend/resume rather than
    #: terminate/boot (Section 5).
    stateful = False
    #: Relative CPU cost of pushing one packet through this element, in
    #: abstract "element cost units"; the platform throughput model sums
    #: these along a config's path (see repro.platform.throughput).
    cycle_cost = 1.0
    #: Whether push() may buffer packets for later emission.  Buffering
    #: elements returning no results are not counted as drops by the
    #: instrumented runtime, and their backlog feeds the queue-depth
    #: gauge (see repro.obs).
    is_buffering = False
    #: Whether push() may emit more than one packet per input packet
    #: (Tee, Multicast).  The runtime's deferred accounting sink
    #: derives per-element counts from entry counts, which multiplying
    #: elements would skew, so their presence selects the exact
    #: per-hop sink instead (see repro.click.accounting).
    is_multiplying = False
    #: Whether the element implements :meth:`push_columns`.  The plan
    #: compiler only marks a segment plan columnar when *every*
    #: element on it (including the sink) sets this; otherwise the
    #: batch crosses the segment via ``push_batch``.
    has_column_kernel = False
    #: Header fields the column kernel reads or writes.  The plan
    #: compiler unions these over a segment to decide which columns
    #: :class:`~repro.click.columnar.PacketColumns` must lift.  Elements
    #: whose field set depends on configuration (the classifiers)
    #: shadow this class default with an instance attribute.
    column_fields: Tuple[str, ...] = ()
    #: Whether the kernel needs the packet-length column (counters).
    needs_length_column = False

    def __init__(self, name: str, args: Optional[Sequence[str]] = None):
        self.name = name
        self.args = [str(a) for a in (args or [])]
        #: The owning runtime as a ``weakref.proxy`` (assigned by the
        #: Runtime constructor), so elements never keep it alive: a
        #: dropped runtime is freed by refcount, not by the cyclic GC.
        #: ``None`` outside a runtime.
        self.runtime = None
        self.configure(self.args)

    # -- configuration hooks -------------------------------------------------
    def configure(self, args: List[str]) -> None:
        """Parse textual configuration arguments.

        The default accepts an empty argument list only.
        """
        if args:
            raise ConfigError(
                "%s takes no arguments, got %r" % (self.class_name, args)
            )

    def initialize(self, runtime) -> None:
        """Hook called once the runtime is assembled (timers go here)."""

    # -- sharding --------------------------------------------------------------
    def shard_unsafe_reason(self) -> Optional[str]:
        """Why this element cannot run flow-sharded, or ``None`` if it can.

        The sharded dataplane (:mod:`repro.click.sharding`) partitions
        traffic by flow hash across independent runtimes, one per
        worker.  That is only transparent when every element's
        behaviour for a packet depends on nothing but the packet itself
        and state keyed by its flow (or conversation -- the flow hash
        is direction-symmetric).  The default derives the answer from
        the class flags: buffering elements interleave with timers,
        multiplying elements force the exact-counting obs mode, and
        stateful elements are assumed to share state across flows.
        Elements whose state *is* per-flow (``FlowMeter``,
        ``StatefulFirewall``) override this to return ``None``;
        elements that are order-dependent despite being stateless by
        flags (``RoundRobinSwitch``) override it to return a reason.
        """
        if self.is_buffering:
            return "buffers packets for timer-driven release"
        if self.is_multiplying:
            return "multiplies packets (exact-counting graph)"
        if self.stateful:
            return "keeps state that is not keyed by flow"
        return None

    # -- dataplane -------------------------------------------------------------
    def push(self, port: int, packet) -> PushResult:
        """Process ``packet`` arriving on input ``port``.

        Returns a list of ``(output_port, packet)`` pairs; an empty list
        drops the packet.  Elements that buffer (queues, batchers) stash
        the packet and emit later via scheduled callbacks.
        """
        return [(0, packet)]

    def push_batch(self, port: int, packets: List["object"]) -> PushBatchResult:
        """Process a whole batch arriving on input ``port``.

        Returns ``(output_port, packets)`` groups.  The default loops
        over scalar :meth:`push` and regroups by output port, so every
        element is batch-capable; hot elements override this with a
        hand-vectorized loop (FastClick-style) that amortizes attribute
        lookups and list allocations over the batch.

        Contract for overrides, relied on by the runtime's segment
        executor:

        * never return a group with an empty packet list (drop the
          group instead; return ``[]`` when the whole batch was
          dropped or buffered),
        * within one group, packets keep the relative order scalar
          ``push()`` would have emitted them in,
        * the runtime owns the ``packets`` list -- overrides may return
          it (or slices of it) without copying.
        """
        groups: Dict[int, List[object]] = {}
        push = self.push
        for packet in packets:
            for out_port, out_packet in push(port, packet):
                try:
                    groups[out_port].append(out_packet)
                except KeyError:
                    groups[out_port] = [out_packet]
        return list(groups.items())

    def push_columns(self, port: int, cols) -> PushColumnsResult:
        """Process a whole columnar batch arriving on input ``port``.

        Opt-in vectorized tier: only elements with
        :attr:`has_column_kernel` set implement this, and the runtime
        only calls it inside a compiled column plan (see
        ``docs/dataplane.md``).  Contract, on top of the
        :meth:`push_batch` rules:

        * return ``(output_port, PacketColumns)`` groups; never a
          group with zero surviving rows (return ``[]`` when the
          whole batch died),
        * a kernel may pass a freshly built mask to ``cols.kill`` and
          must not reuse it afterwards (the batch takes ownership),
        * writes go through ``set_all``/``set_rows`` or mark the
          column dirty explicitly -- materialization only writes dirty
          columns back,
        * dead rows may hold garbage in written columns; they never
          materialize.
        """
        raise NotImplementedError(
            "%s declares no column kernel" % (type(self).__name__,)
        )

    # -- helpers ---------------------------------------------------------------
    def emit(self, port: int, packet) -> None:
        """Asynchronously emit a packet (for timer-driven elements)."""
        runtime = self.runtime
        if runtime is None:
            raise self._outside_runtime("emitted")
        try:
            deliver = runtime.deliver_from
        except ReferenceError:  # the runtime has been dropped
            raise self._outside_runtime("emitted") from None
        deliver(self, port, packet)

    def schedule(self, delay: float, callback) -> None:
        """Schedule ``callback()`` after ``delay`` simulated seconds."""
        runtime = self.runtime
        if runtime is None:
            raise self._outside_runtime("scheduled")
        try:
            schedule = runtime.schedule
        except ReferenceError:  # the runtime has been dropped
            raise self._outside_runtime("scheduled") from None
        schedule(delay, callback)

    def _outside_runtime(self, verb: str) -> ConfigError:
        return ConfigError(
            "element %r %s outside a runtime" % (self.name, verb)
        )

    def require_args(
        self, args: Sequence[str], minimum: int, maximum: Optional[int] = None
    ) -> None:
        """Validate the argument count, raising ConfigError otherwise."""
        if maximum is None:
            maximum = minimum
        if not minimum <= len(args) <= maximum:
            raise ConfigError(
                "%s expects %d..%d arguments, got %d"
                % (self.class_name, minimum, maximum, len(args))
            )

    def __repr__(self) -> str:
        return "%s(%s :: %s)" % (
            type(self).__name__,
            self.name,
            self.class_name,
        )


def parse_keyword_args(
    args: Sequence[str], keywords: Sequence[str]
) -> Tuple[List[str], Dict[str, str]]:
    """Split Click arguments into positional and ``KEY value`` keyword parts.

    Click syntax allows trailing keyword arguments like
    ``Queue(1000, CAPACITY 2000)``.  Returns ``(positional, keyword_map)``.
    """
    positional: List[str] = []
    keyword_map: Dict[str, str] = {}
    wanted = {k.upper() for k in keywords}
    for arg in args:
        head, _, tail = arg.strip().partition(" ")
        if head.upper() in wanted and tail:
            keyword_map[head.upper()] = tail.strip()
        else:
            positional.append(arg)
    return positional, keyword_map


def parse_int_arg(value: str, what: str) -> int:
    """Parse an integer element argument with a helpful error."""
    try:
        return int(value.strip())
    except ValueError:
        raise ConfigError("invalid %s: %r" % (what, value))


def parse_float_arg(value: str, what: str) -> float:
    """Parse a float element argument with a helpful error."""
    try:
        return float(value.strip())
    except ValueError:
        raise ConfigError("invalid %s: %r" % (what, value))
