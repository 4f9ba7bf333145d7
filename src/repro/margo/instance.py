"""Margo: the unified RPC + tasking layer of a Mochi process.

One :class:`MargoInstance` is one simulated process.  It owns:

* an Argobots runtime with a *primary* pool/ES (client ULTs and, unless
  ``use_progress_thread`` is set, the Mercury progress ULT),
* optionally a *handler* pool with N execution streams (the "Threads
  (ESs)" column of Table IV) for servicing incoming RPCs,
* a Mercury instance bound to a fabric endpoint,
* a local wall clock (possibly skewed) and OS-statistics gauges,
* the SYMBIOSYS instrumentation hooks.

``forward`` and ``respond`` present Margo's blocking semantics on top of
callback-driven Mercury, exactly like ``margo_forward`` /
``margo_respond``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any, Callable, Generator, Optional

from ..argobots import AbtRuntime, Compute, Pool, ULT, YieldNow
from ..config import Replaceable
from ..mercury import HGConfig, HGCore, HGHandle, SerializationModel
from ..net import Fabric
from ..sim import LocalClock, Simulator
from .errors import MargoTimeoutError, RemoteRpcError
from .hooks import Instrumentation, NullInstrumentation
from .retry import RetryPolicy

__all__ = ["MargoConfig", "MargoInstance", "ProcessStats"]

#: Reserved response key carrying a remote handler failure back to the
#: origin.
_ERROR_KEY = "__margo_error__"


@dataclass(frozen=True, kw_only=True)
class MargoConfig(Replaceable):
    """Process-level Margo knobs (Table IV columns map here)."""

    #: Dedicated ES for the progress ULT ("Client Progress Thread?").
    use_progress_thread: bool = False
    #: Execution streams for the RPC handler pool ("Threads (ESs)").
    #: Zero means incoming RPCs run on the primary ES.
    n_handler_es: int = 0
    #: How long an idle progress iteration blocks waiting for OFI events,
    #: like HG_Progress's timeout.  Event arrival wakes the loop
    #: immediately regardless (the endpoint notifies the blocked waiter),
    #: so this only bounds how often an *idle* loop re-checks state.
    progress_idle_timeout: float = 2e-3

    def __post_init__(self) -> None:
        if self.n_handler_es < 0:
            raise ValueError("n_handler_es must be non-negative")
        if self.progress_idle_timeout <= 0:
            raise ValueError("progress_idle_timeout must be positive")


class ProcessStats:
    """OS-layer gauges SYMBIOSYS samples at trace events (memory, CPU)."""

    def __init__(self, mi: "MargoInstance"):
        self._mi = mi
        self.memory_bytes = 0
        self._last_cpu_sample = (0.0, 0.0)  # (time, cumulative busy)

    def add_memory(self, nbytes: int) -> None:
        self.memory_bytes += nbytes
        if self.memory_bytes < 0:
            raise ValueError("process memory gauge went negative")

    def cpu_utilization(self) -> float:
        """Busy fraction of this process's ESs since the last call."""
        rt = self._mi.rt
        now = self._mi.sim.now
        busy = sum(rt.es_busy)
        last_t, last_busy = self._last_cpu_sample
        self._last_cpu_sample = (now, busy)
        dt = now - last_t
        n_es = max(1, len(rt.xstreams))
        if dt <= 0:
            return 0.0
        return min(1.0, (busy - last_busy) / (dt * n_es))


class MargoInstance:
    """One Mochi process: Margo + Mercury + Argobots + endpoint."""

    def __init__(
        self,
        sim: Simulator,
        fabric: Fabric,
        addr: str,
        node: str,
        *,
        config: Optional[MargoConfig] = None,
        hg_config: Optional[HGConfig] = None,
        serialization: Optional[SerializationModel] = None,
        clock: Optional[LocalClock] = None,
        instrumentation: Optional[Instrumentation] = None,
        retry: Optional[RetryPolicy] = None,
        rng=None,
        ctx_switch_cost: float = 50e-9,
    ):
        self.sim = sim
        self.fabric = fabric
        self.addr = addr
        self.node = node
        self.config = config or MargoConfig()
        self.clock = clock or LocalClock()
        self.instr = instrumentation or NullInstrumentation()
        #: Default resilience policy applied by ``forward`` when the call
        #: site does not pass its own.
        self.retry = retry
        #: Numpy Generator used for backoff jitter (None = no jitter).
        self._rng = rng

        self.rt = AbtRuntime(sim, name=addr, ctx_switch_cost=ctx_switch_cost)
        self.primary_pool = self.rt.create_pool(f"{addr}.primary")
        self.rt.create_xstream(self.primary_pool, f"{addr}.es-primary")

        if self.config.n_handler_es > 0:
            self.handler_pool: Pool = self.rt.create_pool(f"{addr}.handlers")
            for i in range(self.config.n_handler_es):
                self.rt.create_xstream(self.handler_pool, f"{addr}.es-h{i}")
        else:
            self.handler_pool = self.primary_pool

        if self.config.use_progress_thread:
            self.progress_pool: Pool = self.rt.create_pool(f"{addr}.progress")
            self.rt.create_xstream(self.progress_pool, f"{addr}.es-progress")
        else:
            self.progress_pool = self.primary_pool

        self.endpoint = fabric.create_endpoint(addr, node=node)
        self.hg = HGCore(
            sim,
            fabric,
            self.endpoint,
            self.rt,
            serialization=serialization,
            config=hg_config,
        )
        self.stats = ProcessStats(self)
        #: Lamport logical clock for distributed tracing.
        self.lamport = 0
        #: Request-id sequence, scoped per instance (a class-global
        #: counter here leaked across runs in one interpreter, making
        #: same-seed runs export different request ids).  The ``addr``
        #: prefix keeps ids unique within a cluster.
        self._req_seq = itertools.count(1)

        self._handlers: dict[tuple[str, int], Callable] = {}
        #: The one Mercury request-arrival callback, bound once and
        #: shared by every RPC this process serves.
        self._arrival = self._on_arrival
        #: Handler exceptions caught and returned to the origin as
        #: RemoteRpcError payloads (the server survives them).
        self.handler_errors: list[tuple[str, Exception]] = []
        self._finalizing = False
        #: Optional fault-injection hook (duck-typed; see
        #: :class:`repro.faults.FaultInjector`).  Consulted at handler
        #: start: ``on_handler(mi, handle) -> Optional[HandlerAction]``.
        self.fault_hook = None
        self._crashed = False
        self._hang_until = 0.0
        #: The pool the progress loop should live on; runtime migration
        #: (enable_progress_thread) repoints this.
        self._progress_home = self.progress_pool
        self.instr.attach(self)
        self._progress_ult = self.rt.spawn(
            self._progress_loop(), self.progress_pool, name=f"{addr}.__margo_progress"
        )

    # -- clocks -------------------------------------------------------------

    def local_time(self) -> float:
        """Process-local wall clock reading (subject to drift/offset)."""
        return self.clock.read(self.sim.now)

    def lamport_tick(self) -> int:
        self.lamport += 1
        return self.lamport

    def lamport_receive(self, remote: int) -> int:
        self.lamport = max(self.lamport, remote) + 1
        return self.lamport

    def next_request_id(self) -> str:
        return f"{self.addr}-{next(self._req_seq)}"

    # -- registration ----------------------------------------------------------

    def register(
        self,
        rpc_name: str,
        handler: Optional[Callable[["MargoInstance", HGHandle], Generator]] = None,
        provider_id: int = 0,
    ) -> None:
        """Register an RPC.

        ``handler(mi, handle)`` is a generator executed in a fresh ULT on
        the handler pool; it must eventually ``yield from mi.respond(...)``.
        Client-side registration passes no handler.
        """
        if handler is None:
            self.hg.register(rpc_name)
            return
        key = (rpc_name, provider_id)
        if key in self._handlers:
            raise ValueError(
                f"RPC {rpc_name!r} provider {provider_id} already registered"
            )
        self._handlers[key] = handler
        # Every provider of every RPC shares the one HG callback
        # (dispatch is by provider_id); re-registering it is a no-op.
        self.hg.register(rpc_name, self._arrival)

    def _on_arrival(self, handle: HGHandle) -> None:
        # t4: runs inside the progress ULT via HG_Trigger.  HGCore
        # dispatches by ``handle.rpc_name``, so that and the provider id
        # name the handler.
        rpc_name = handle.rpc_name
        pid = handle.header.get("provider_id", 0)
        try:
            handler = self._handlers[(rpc_name, pid)]
        except KeyError:
            raise RuntimeError(
                f"{self.addr}: no provider {pid} for RPC {rpc_name!r}"
            ) from None
        self.rt.spawn(
            self._handler_wrapper(handler, handle),
            self.handler_pool,
            name=f"{self.addr}.h:{rpc_name}",
        )

    # -- origin side --------------------------------------------------------------

    def forward(
        self,
        target_addr: str,
        rpc_name: str,
        payload: Any,
        provider_id: int = 0,
        timeout: Optional[float] = None,
        retry: Optional[RetryPolicy] = None,
    ) -> Generator:
        """Blocking RPC from a client ULT: ``out = yield from mi.forward(...)``.

        Returns the response payload.  The caller ULT blocks from t1 until
        the completion callback fires at t14.  With a ``timeout``, raises
        :class:`MargoTimeoutError` if no response arrives in time (the
        handle is cancelled; a late response is dropped).  If the remote
        handler raised, re-raises here as :class:`RemoteRpcError`.

        With a :class:`RetryPolicy` (per-call ``retry`` or the instance
        default), each attempt uses the policy's per-attempt timeout and
        failed attempts are retried with backoff, optionally failing over
        to alternate targets.  An explicit ``timeout`` overrides the
        policy's per-attempt deadline.
        """
        policy = retry if retry is not None else self.retry
        if policy is None:
            out = yield from self._forward_attempt(
                target_addr, rpc_name, payload, provider_id, timeout
            )
            return out

        ult = self.rt.self_ult()
        attempt_timeout = timeout if timeout is not None else policy.timeout
        last_exc: Optional[Exception] = None
        for attempt in range(1, policy.max_attempts + 1):
            target = policy.target_for(target_addr, attempt)
            try:
                out = yield from self._forward_attempt(
                    target, rpc_name, payload, provider_id, attempt_timeout
                )
                return out
            except MargoTimeoutError as exc:
                last_exc = exc
            except RemoteRpcError as exc:
                if not policy.retry_remote_errors:
                    raise
                last_exc = exc
            if attempt == policy.max_attempts:
                break
            delay = policy.delay(attempt, self._rng)
            next_target = policy.target_for(target_addr, attempt + 1)
            self.hg.pvars.add("num_forward_retries")
            if next_target != target_addr:
                self.hg.pvars.add("num_failed_over_forwards")
            self.instr.on_forward_retry(
                self,
                getattr(last_exc, "handle", None),
                ult,
                attempt,
                delay,
                next_target,
            )
            if delay > 0:
                yield from self.rt.sleep(delay)
        assert last_exc is not None
        raise last_exc

    def _forward_attempt(
        self,
        target_addr: str,
        rpc_name: str,
        payload: Any,
        provider_id: int,
        timeout: Optional[float],
    ) -> Generator:
        """One post/wait cycle of ``forward`` (no retry logic)."""
        ult = self.rt.self_ult()
        handle = self.hg.create(target_addr, rpc_name)
        handle.header["provider_id"] = provider_id
        t1 = self.sim.now
        handle.marks["t1"] = t1
        self.instr.on_forward(self, handle, ult)

        ev = self.rt.eventual(f"fwd:{rpc_name}")

        def _on_complete(h: HGHandle) -> None:
            # t14 is when Mercury triggers the completion callback -- the
            # caller ULT may resume later if its ES is busy, and that
            # resume wait is *not* part of the RPC (the paper measures at
            # the callback).
            h.marks["t14"] = self.sim.now
            ev.signal(h)

        yield from self.hg.forward(handle, payload, _on_complete)
        if timeout is None:
            yield from ev.wait()
        else:
            ok, _ = yield from ev.wait(timeout=timeout)
            if not ok:
                self.hg.cancel(handle)
                self.hg.pvars.add("num_forward_timeouts")
                self.instr.on_forward_timeout(self, handle, ult, timeout)
                raise MargoTimeoutError(rpc_name, target_addr, timeout, handle)

        t14 = handle.marks["t14"]
        self.instr.on_forward_complete(self, handle, ult, t1, t14)
        if ult is not None:
            # Children's origin-execution time, for exclusive-time profiles.
            ult.local["child_rpc_time"] = (
                ult.local.get("child_rpc_time", 0.0) + (t14 - t1)
            )
        output = handle.output
        if isinstance(output, dict) and _ERROR_KEY in output:
            raise RemoteRpcError(rpc_name, target_addr, output[_ERROR_KEY])
        return output

    # -- target side --------------------------------------------------------------

    def _handler_wrapper(self, handler: Callable, handle: HGHandle) -> Generator:
        # The generator body starts lazily, so this first statement runs at
        # t5 -- when an ES picks the ULT up, not when it was spawned.
        handle.marks["t5"] = self.sim.now
        ult = self.rt.self_ult()
        self.instr.on_handler_start(self, handle, ult)
        try:
            if self.fault_hook is not None:
                action = self.fault_hook.on_handler(self, handle)
                if action is not None:
                    if action.stall > 0:
                        # An artificial stall burns ES time like a real
                        # misbehaving handler (it delays pool peers too).
                        yield Compute(action.stall)
                    if action.error is not None:
                        raise action.error
            yield from handler(self, handle)
        except Exception as exc:  # noqa: BLE001 - server must stay alive
            self.handler_errors.append((handle.rpc_name, exc))
            if "t8" in handle.marks:
                # Already responded: nothing more to tell the origin.
                self.instr.on_handler_end(self, handle, ult)
                return
            yield from self.respond(handle, {_ERROR_KEY: repr(exc)})
            self.instr.on_handler_end(self, handle, ult)
            return
        if "t8" not in handle.marks:
            raise RuntimeError(
                f"handler for {handle.rpc_name!r} returned without responding"
            )
        self.instr.on_handler_end(self, handle, ult)

    def get_input(self, handle: HGHandle) -> Generator:
        """Deserialize the request input (t6-t7); handler ULT only."""
        value = yield from self.hg.get_input(handle)
        return value

    def respond(self, handle: HGHandle, payload: Any) -> Generator:
        """Send the response and block until it is on the wire (t8..t13)."""
        ult = self.rt.self_ult()
        t8 = self.sim.now
        handle.marks["t8"] = t8
        self.instr.on_respond(self, handle, ult)
        ev = self.rt.eventual(f"resp:{handle.rpc_name}")
        yield from self.hg.respond(handle, payload, lambda h: ev.signal())
        yield from ev.wait()
        handle.marks["t13"] = self.sim.now

    def bulk_transfer(self, handle: HGHandle, size_bytes: int) -> Generator:
        """Pull bulk data from the RPC origin (handler ULT).  Returns the
        transfer duration."""
        elapsed = yield from self.hg.bulk_pull(handle, size_bytes)
        return elapsed

    # -- client ULTs -------------------------------------------------------------

    def client_ult(self, gen: Generator, name: str = "client") -> ULT:
        """Run an application generator as a ULT on the primary pool --
        sharing the primary ES with the progress ULT unless a dedicated
        progress thread was configured."""
        return self.rt.spawn(gen, self.primary_pool, name=f"{self.addr}.{name}")

    # -- runtime reconfiguration (the paper's future-work direction) -----------

    def enable_progress_thread(self) -> bool:
        """Move the progress loop onto a dedicated execution stream.

        Returns True if a migration was initiated, False if the progress
        loop already had its own ES.  The running progress ULT notices on
        its next iteration, respawns itself on the new pool, and exits.
        """
        if self.progress_pool is not self.primary_pool:
            return False
        self.progress_pool = self.rt.create_pool(f"{self.addr}.progress")
        self.rt.create_xstream(self.progress_pool, f"{self.addr}.es-progress")
        self._progress_home = self.progress_pool
        return True

    def set_ofi_max_events(self, n: int) -> None:
        """Adjust Mercury's per-iteration OFI read cap at runtime."""
        self.hg.set_ofi_max_events(n)

    # -- process faults (driven by repro.faults.FaultInjector) ----------------

    @property
    def crashed(self) -> bool:
        """True between :meth:`crash` and :meth:`restart`."""
        return self._crashed

    def crash(self) -> None:
        """Fail-stop this process.

        The endpoint closes (in-flight deliveries are discarded, and a
        closed source cannot inject anything), the progress loop exits,
        and in-flight handler ULTs never complete their responses.  Peers
        observe only silence -- exactly what a timeout/retry policy is
        for.
        """
        if self._crashed:
            return
        self._crashed = True
        self._finalizing = True
        self.endpoint.close()

    def hang(self, duration: float) -> None:
        """Make the process unresponsive for ``duration`` seconds.

        Unlike a crash, the endpoint stays open: requests queue in the CQ
        and are serviced (late) once the hang lifts -- the GDB-attach
        scenario rather than the kill-9 one.
        """
        if duration < 0:
            raise ValueError("hang duration must be non-negative")
        self._hang_until = max(self._hang_until, self.sim.now + duration)

    def restart(self, warmup: float = 0.0) -> None:
        """Bring a crashed process back.

        The endpoint reopens and a fresh progress loop spawns.  A nonzero
        ``warmup`` models slow restart: the process is reachable (messages
        queue) but unresponsive until the warmup elapses.  RPC
        registrations survive -- this is a process restart, not a
        reconstruction.
        """
        if not self._crashed:
            return
        self._crashed = False
        self._finalizing = False
        self.endpoint.reopen()
        if warmup > 0:
            self._hang_until = max(self._hang_until, self.sim.now + warmup)
        self._progress_ult = self.rt.spawn(
            self._progress_loop(),
            self._progress_home,
            name=f"{self.addr}.__margo_progress",
        )

    def resilience_counters(self) -> dict[str, int]:
        """The degraded-mode gauges (timeouts, retries, failovers, dropped
        late responses) for this process."""
        return self.hg.resilience_counters()

    # -- progress loop -------------------------------------------------------------

    def _progress_loop(self) -> Generator:
        """The __margo_progress ULT.

        Mirrors Margo's scheduling heuristic: progress non-blocking and
        yield when there is other work (pending completions or peer ULTs
        in our pool); block in the OFI wait otherwise.  If a dedicated
        progress ES is enabled at runtime, the loop respawns itself there
        and exits.
        """
        hg = self.hg
        my_pool = self._progress_home
        while not self._finalizing:
            if self.rt.self_ult() is not self._progress_ult:
                # A restart spawned a replacement while this incarnation
                # was blocked in the OFI wait: stand down.
                return
            if self.sim.now < self._hang_until:
                # Hung process: no progress, no triggers; the endpoint
                # keeps queueing arrivals for when we come back.
                yield from self.rt.sleep(self._hang_until - self.sim.now)
                continue
            if self._progress_home is not my_pool:
                # Migrate: continue on the newly designated pool.
                self._progress_ult = self.rt.spawn(
                    self._progress_loop(),
                    self._progress_home,
                    name=f"{self.addr}.__margo_progress",
                )
                return
            busy_peers = len(my_pool) > 0
            timeout = (
                0.0
                if (hg.has_pending_completions or busy_peers)
                else self.config.progress_idle_timeout
            )
            yield from hg.progress(timeout=timeout)
            yield from hg.trigger()
            yield YieldNow()

    def finalize(self) -> None:
        """Ask the progress loop to exit; pending work still drains."""
        self._finalizing = True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"MargoInstance({self.addr!r}, node={self.node!r})"
