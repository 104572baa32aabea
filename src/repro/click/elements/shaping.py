"""Buffering, batching, and rate control elements.

``TimedUnqueue`` is the element behind the paper's push-notification
batcher (Figure 4): it buffers traffic and releases bursts on a fixed
interval, letting a mobile device's radio sleep between bursts.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, List

from repro.click.element import (
    Element,
    PushBatchResult,
    PushResult,
    parse_float_arg,
    parse_int_arg,
    register_element,
)


@register_element("Queue")
class Queue(Element):
    """A FIFO with bounded capacity; overflow packets are dropped.

    Downstream pull-style elements (``Unqueue`` family) register as
    listeners and drain it.
    """

    cycle_cost = 0.5
    is_buffering = True

    def configure(self, args: List[str]) -> None:
        self.require_args(args, 0, 1)
        self.capacity = parse_int_arg(args[0], "capacity") if args else 1000
        self.buffer: Deque = deque()
        self.drops = 0
        self._listeners = []

    def add_listener(self, callback) -> None:
        """Register a callable invoked whenever a packet is enqueued."""
        self._listeners.append(callback)

    def pull(self):
        """Remove and return the head packet, or None when empty."""
        if self.buffer:
            return self.buffer.popleft()
        return None

    def __len__(self) -> int:
        return len(self.buffer)

    def push(self, port: int, packet) -> PushResult:
        if len(self.buffer) >= self.capacity:
            self.drops += 1
            return []
        self.buffer.append(packet)
        for listener in self._listeners:
            listener()
        return []

    def push_batch(self, port: int, packets: List) -> PushBatchResult:
        buffer = self.buffer
        if not self._listeners:
            # No drain side: absorb the whole batch in one extend, drop
            # whatever exceeds the remaining room (exactly what a
            # per-packet loop would do with nothing emptying the
            # buffer in between).
            room = self.capacity - len(buffer)
            if room >= len(packets):
                buffer.extend(packets)
            else:
                if room > 0:
                    buffer.extend(packets[:room])
                self.drops += len(packets) - max(room, 0)
            return []
        # Listeners may drain between enqueues (Unqueue), so overflow
        # depends on interleaving: keep the exact per-packet protocol,
        # with the hot names hoisted out of the loop.
        capacity = self.capacity
        listeners = self._listeners
        append = buffer.append
        drops = 0
        for packet in packets:
            if len(buffer) >= capacity:
                drops += 1
                continue
            append(packet)
            for listener in listeners:
                listener()
        if drops:
            self.drops += drops
        return []


class _QueueFedElement(Element):
    """Base for pull-side elements: drains upstream Queue instances.

    It holds the queues' buffers, not the queues: each queue holds this
    element's listener, so holding the queue as well would be a
    reference cycle, left to the cyclic GC with whatever it buffers.
    """

    def initialize(self, runtime) -> None:
        self._upstream_buffers: List[Deque] = []
        for name, _port in runtime.config.predecessors(self.name, 0):
            element = runtime.elements[name]
            if isinstance(element, Queue):
                element.add_listener(self._on_enqueue)
                self._upstream_buffers.append(element.buffer)

    def _on_enqueue(self) -> None:
        """Called when an upstream queue receives a packet."""

    def _pull_one(self):
        for buffer in self._upstream_buffers:
            if buffer:
                return buffer.popleft()
        return None


@register_element("Unqueue")
class Unqueue(_QueueFedElement):
    """Continuously drains upstream queues (back-to-back forwarding)."""

    cycle_cost = 0.5

    def configure(self, args: List[str]) -> None:
        self.require_args(args, 0, 0)

    def _on_enqueue(self) -> None:
        packet = self._pull_one()
        while packet is not None:
            self.emit(0, packet)
            packet = self._pull_one()

    def push(self, port: int, packet) -> PushResult:
        # Also usable in a push path as a no-op.
        return [(0, packet)]


@register_element("TimedUnqueue")
class TimedUnqueue(Element):
    """Releases up to BURST buffered packets every INTERVAL seconds.

    ``TimedUnqueue(INTERVAL, BURST)``.  Packets pushed into the element
    are buffered; a periodic timer flushes them.  This is the batching
    primitive of the Figure 4 client request (``TimedUnqueue(120,100)``).
    """

    cycle_cost = 0.7
    is_buffering = True

    def configure(self, args: List[str]) -> None:
        self.require_args(args, 1, 2)
        self.interval = parse_float_arg(args[0], "interval")
        self.burst = parse_int_arg(args[1], "burst") if len(args) > 1 else 1
        if self.interval <= 0:
            self.interval = 1e-9
        self.buffer: Deque = deque()
        self.batches_emitted = 0

    def initialize(self, runtime) -> None:
        self.schedule(self.interval, self._tick)

    def _tick(self) -> None:
        released = 0
        while self.buffer and released < self.burst:
            self.emit(0, self.buffer.popleft())
            released += 1
        if released:
            self.batches_emitted += 1
        self.schedule(self.interval, self._tick)

    def push(self, port: int, packet) -> PushResult:
        self.buffer.append(packet)
        return []

    def push_batch(self, port: int, packets: List) -> PushBatchResult:
        self.buffer.extend(packets)
        return []


@register_element("RatedUnqueue")
class RatedUnqueue(Element):
    """Emits buffered packets at a fixed packet rate (packets/second)."""

    cycle_cost = 0.7
    is_buffering = True

    def configure(self, args: List[str]) -> None:
        self.require_args(args, 1)
        self.rate = parse_float_arg(args[0], "rate")
        if self.rate <= 0:
            self.rate = 1.0
        self.buffer: Deque = deque()
        self._draining = False

    def push(self, port: int, packet) -> PushResult:
        self.buffer.append(packet)
        if not self._draining:
            self._draining = True
            self.schedule(1.0 / self.rate, self._drain)
        return []

    def push_batch(self, port: int, packets: List) -> PushBatchResult:
        self.buffer.extend(packets)
        if not self._draining:
            self._draining = True
            self.schedule(1.0 / self.rate, self._drain)
        return []

    def _drain(self) -> None:
        if self.buffer:
            self.emit(0, self.buffer.popleft())
        if self.buffer:
            self.schedule(1.0 / self.rate, self._drain)
        else:
            self._draining = False


@register_element("BandwidthShaper")
class BandwidthShaper(Element):
    """Delays packets so egress never exceeds RATE bits per second.

    ``BandwidthShaper(RATE_BPS [, CAPACITY])``.  Packets beyond the
    buffering capacity are dropped.
    """

    cycle_cost = 0.9
    is_buffering = True

    def configure(self, args: List[str]) -> None:
        self.require_args(args, 1, 2)
        self.rate_bps = parse_float_arg(args[0], "rate")
        self.capacity = (
            parse_int_arg(args[1], "capacity") if len(args) > 1 else 1000
        )
        self.backlog = 0
        self.drops = 0
        self._next_free = 0.0

    def push(self, port: int, packet) -> PushResult:
        if self.backlog >= self.capacity:
            self.drops += 1
            return []
        now = self.runtime.now if self.runtime else 0.0
        start = max(now, self._next_free)
        transmit_time = packet.length * 8.0 / self.rate_bps
        self._next_free = start + transmit_time
        self.backlog += 1

        def release(p=packet):
            self.backlog -= 1
            self.emit(0, p)

        self.schedule(self._next_free - now, release)
        return []


@register_element("RateLimiter")
class RateLimiter(Element):
    """Token-bucket policer: conformant packets exit port 0, excess is
    dropped (or exits port 1 when connected).

    ``RateLimiter(RATE_PPS [, BURST])``.
    """

    n_outputs = None
    cycle_cost = 0.8

    def configure(self, args: List[str]) -> None:
        self.require_args(args, 1, 2)
        self.rate = parse_float_arg(args[0], "rate")
        self.burst = (
            parse_float_arg(args[1], "burst") if len(args) > 1 else self.rate
        )
        self.tokens = self.burst
        self._last_refill = 0.0
        self.dropped = 0

    def push(self, port: int, packet) -> PushResult:
        now = self.runtime.now if self.runtime else self._last_refill
        elapsed = max(0.0, now - self._last_refill)
        self._last_refill = now
        self.tokens = min(self.burst, self.tokens + elapsed * self.rate)
        if self.tokens >= 1.0:
            self.tokens -= 1.0
            return [(0, packet)]
        self.dropped += 1
        return [(1, packet)]

    def shard_unsafe_reason(self):
        # One token bucket polices the aggregate; per-shard buckets
        # would multiply the permitted rate by the shard count.
        return "polices an aggregate token bucket across all flows"
