"""The asyncio serving front end over ``ExplanationService.explain_many``.

This is the process boundary the service layer was built toward (paper
Figure 2: one long-lived deployment, many interactive clients): an
``asyncio`` streams server speaking the newline-delimited JSON protocol
of :mod:`repro.serve.protocol`, zero dependencies beyond the stdlib.

Design points:

* **Sessions map onto admission keys.**  Each connection owns a session
  name (``hello`` frame, else a server-assigned ``conn-<n>``) stamped
  onto every request that doesn't carry its own — so the admission
  layer's per-session fair share sees *connections* as tenants, exactly
  like the in-process path sees ``ExplainRequest.session``.

* **Results stream as requests complete.**  A ``batch`` frame dispatches
  ``explain_many`` on a dispatch thread; the service's ``on_response``
  hook forwards each completed response into the event loop the moment
  it is final, so ``result`` frames (tagged with the
  ``ok/degraded/timed_out/rejected/failed`` outcome taxonomy) reach the
  client *before* the batch finishes.  The terminal ``batch_end`` frame
  carries the outcome tally and a :class:`~repro.service.runtime
  .ServiceStats` snapshot.  A batch frame's ``max_workers`` field is
  validated (it is outside input) and otherwise ignored: each batch runs
  on one thread, and ``dispatch_threads`` bounds how many run at once.

* **Backpressure, not buffering.**  A connection may pipeline at most
  ``max_inflight_batches`` batches; past that the server simply *stops
  reading its socket* (the read loop blocks before parsing the next
  frame), pushing the pressure into the kernel's TCP window instead of
  an unbounded queue.  When a batch comes back load-shed (``rejected``
  outcomes from admission control) or the registry's LRUs thrashed
  while it ran (engine/session build churn above
  ``thrash_threshold``), the connection drops to *drain mode*: the next
  frame is not read until every in-flight batch on that connection has
  finished.  Outbound frames go through one writer task per connection
  with ``drain()`` after every frame, so a slow reader throttles its
  own result stream the same way.

* **Typed errors, never a dropped connection mid-batch.**  Malformed
  and oversized frames, unknown frame types, and bad request payloads
  are answered with ``error`` frames (:class:`~repro.serve.protocol
  .ProtocolError` kinds) and the read loop continues — a batch already
  streaming on the connection is unaffected.  Only EOF and a truncated
  final line close a connection, and a client that disconnects
  mid-batch costs the server nothing but the already-running dispatch.

* **Clean shutdown drains.**  :meth:`ExplanationServer.shutdown` stops
  accepting connections and new batches (``ServerClosing`` errors),
  waits for every in-flight batch to finish streaming, sends each
  client a ``shutdown`` frame, and only then closes sockets.
"""

from __future__ import annotations

import asyncio
import dataclasses
import itertools
import logging
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Any, Dict, List, Optional

from repro.eval.workload import outcome_counts
from repro.graph.overlay import NetworkOverlay
from repro.explain.serialize import request_from_dict, response_to_dict
from repro.serve.protocol import (
    MAX_FRAME_BYTES,
    OVERSIZED,
    PROTOCOL_VERSION,
    FrameReader,
    InvalidRequest,
    MalformedFrame,
    OversizedFrame,
    ProtocolError,
    ServerClosing,
    UnknownFrameType,
    decode_frame,
    encode_frame,
    error_frame,
)
from repro.service.requests import ExplainRequest
from repro.service.service import ExplanationService

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class ServeConfig:
    """Knobs for the serving front end."""

    host: str = "127.0.0.1"
    #: 0 picks an ephemeral port (read it back from ``server.port``).
    port: int = 0
    #: Ceiling on one frame's encoded size (both directions).
    max_frame_bytes: int = MAX_FRAME_BYTES
    #: Batches one connection may have in flight before the server stops
    #: reading its socket.
    max_inflight_batches: int = 2
    #: Ignored: every batch runs on one thread.  Kept so configurations
    #: that set it still load.
    max_batch_workers: int = 4
    #: Threads running ``explain_many`` dispatches (one batch each; this
    #: bounds concurrent *batches* server-wide).
    dispatch_threads: int = 4
    #: Registry engine+session builds during one batch above which the
    #: connection is considered to be thrashing the LRUs and is dropped
    #: to drain mode (read nothing until its in-flight batches finish).
    #: None disables the thrash signal.
    thrash_threshold: Optional[int] = 64
    #: How long shutdown waits for in-flight batches to finish streaming.
    drain_timeout_seconds: float = 60.0
    #: Warm-registry spill file (:mod:`repro.service.persistence`): when
    #: set, :meth:`ExplanationServer.start` restores warm sessions/memos
    #: from it (skipped safely on any mismatch) and :meth:`shutdown`
    #: rewrites it — so a restarted worker answers its first request hot.
    spill_path: Optional[str] = None

    def __post_init__(self) -> None:
        if self.max_inflight_batches < 1:
            raise ValueError(
                f"max_inflight_batches must be >= 1, got {self.max_inflight_batches}"
            )
        if self.max_frame_bytes < 1024:
            raise ValueError(
                f"max_frame_bytes must be >= 1024, got {self.max_frame_bytes}"
            )


class _Connection:
    """Per-connection state: session identity, in-flight batch tasks,
    the outbound frame queue, and the backpressure flags."""

    _ids = itertools.count()

    def __init__(self, writer: asyncio.StreamWriter) -> None:
        self.writer = writer
        self.session = f"conn-{next(self._ids)}"
        self.named = False  # session set explicitly via hello
        self.inflight: set = set()
        self.outbound: asyncio.Queue = asyncio.Queue()
        self.pressured = False
        self.dead = False
        self.writer_task: Optional[asyncio.Task] = None

    def enqueue(self, frame: Dict[str, Any]) -> None:
        if not self.dead:
            self.outbound.put_nowait(frame)


class ExplanationServer:
    """One listening socket over one :class:`ExplanationService`."""

    def __init__(
        self, service: ExplanationService, config: Optional[ServeConfig] = None
    ) -> None:
        self.service = service
        self.config = config or ServeConfig()
        self.stats: Dict[str, int] = {
            "connections": 0,
            "frames": 0,
            "batches": 0,
            "requests": 0,
            "protocol_errors": 0,
            "read_pauses": 0,
            "drain_pauses": 0,
            "disconnects_mid_batch": 0,
            "commits": 0,
        }
        self.restore_stats: Optional[Dict[str, Any]] = None
        self._server: Optional[asyncio.base_events.Server] = None
        self._connections: set = set()
        self._pool: Optional[ThreadPoolExecutor] = None
        self._closing = False
        self.port: Optional[int] = None

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def _spill_systems(self) -> List[Any]:
        return [self.service.ranker, self.service.former]

    async def start(self) -> "ExplanationServer":
        if self.config.spill_path is not None:
            # Restore before the socket opens: the first request finds
            # warm sessions/memos instead of paying the cold-start
            # rebuild.  Any mismatch (dataset, backend, missing file)
            # skips restore — never hot-with-wrong-answers.
            try:
                self.restore_stats = self.service.registry.restore(
                    self.config.spill_path,
                    self.service.network,
                    self._spill_systems(),
                )
            except Exception:
                logger.warning("spill restore failed; starting cold", exc_info=True)
                self.restore_stats = {"skipped": "error"}
        self._pool = ThreadPoolExecutor(
            max_workers=self.config.dispatch_threads,
            thread_name_prefix="repro-serve",
        )
        self._server = await asyncio.start_server(
            self._handle_connection, self.config.host, self.config.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        return self

    async def serve_forever(self) -> None:
        assert self._server is not None, "call start() first"
        try:
            await self._server.serve_forever()
        except asyncio.CancelledError:
            pass

    @property
    def inflight_batches(self) -> int:
        return sum(len(conn.inflight) for conn in self._connections)

    async def shutdown(self) -> None:
        """Stop accepting, drain every in-flight batch (their result and
        ``batch_end`` frames still stream), then close connections."""
        self._closing = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        # Drain: every already-admitted batch finishes and streams out.
        deadline = time.monotonic() + self.config.drain_timeout_seconds
        for conn in list(self._connections):
            pending = list(conn.inflight)
            if pending:
                timeout = max(0.1, deadline - time.monotonic())
                await asyncio.wait(pending, timeout=timeout)
        for conn in list(self._connections):
            conn.enqueue({"type": "shutdown"})
            conn.enqueue(None)  # writer-task sentinel: flush then stop
            if conn.writer_task is not None:
                try:
                    await asyncio.wait_for(conn.writer_task, timeout=5.0)
                except asyncio.TimeoutError:
                    conn.writer_task.cancel()
            conn.dead = True
            conn.writer.close()
        if self._pool is not None:
            self._pool.shutdown(wait=True)
        if self.config.spill_path is not None:
            try:
                self.service.registry.spill(
                    self.config.spill_path,
                    self.service.network,
                    self._spill_systems(),
                )
            except Exception:
                logger.warning("spill write failed", exc_info=True)

    # ------------------------------------------------------------------
    # per-connection loops
    # ------------------------------------------------------------------
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        conn = _Connection(writer)
        self._connections.add(conn)
        self.stats["connections"] += 1
        conn.writer_task = asyncio.ensure_future(self._writer_loop(conn))
        frames = FrameReader(reader, self.config.max_frame_bytes)
        try:
            while True:
                line = await frames.next_line()
                if line is None:
                    break  # EOF (or truncated final line): clean close
                self.stats["frames"] += 1
                if line is OVERSIZED:
                    self._protocol_error(
                        conn,
                        OversizedFrame(
                            "frame exceeded "
                            f"{self.config.max_frame_bytes} bytes and was discarded"
                        ),
                    )
                    continue
                try:
                    frame = decode_frame(line)
                except MalformedFrame as exc:
                    self._protocol_error(conn, exc)
                    continue
                # Reading one more frame than the admission gate allows
                # is unavoidable (we must parse to know it's a batch);
                # _handle_frame blocks before *dispatching* over-limit
                # batches, which stalls this read loop — the actual
                # backpressure path.
                await self._handle_frame(conn, frame)
        except (ConnectionError, asyncio.IncompleteReadError):
            pass  # peer vanished; in-flight batches finish below
        finally:
            if conn.inflight:
                self.stats["disconnects_mid_batch"] += 1
                # Let running dispatches finish (their results go to a
                # dead queue); never cancel mid-batch work.
                await asyncio.wait(list(conn.inflight))
            conn.dead = True
            conn.outbound.put_nowait(None)
            if conn.writer_task is not None:
                try:
                    await asyncio.wait_for(conn.writer_task, timeout=5.0)
                except asyncio.TimeoutError:
                    conn.writer_task.cancel()
            self._connections.discard(conn)
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _writer_loop(self, conn: _Connection) -> None:
        """The single outbound path: frames serialize through one queue,
        and ``drain()`` after every write lets a slow client throttle
        its own stream instead of growing a server-side buffer."""
        while True:
            frame = await conn.outbound.get()
            if frame is None:
                break
            try:
                conn.writer.write(encode_frame(frame))
                await conn.writer.drain()
            except (ConnectionError, RuntimeError, OSError):
                conn.dead = True
                break

    def _protocol_error(
        self, conn: _Connection, exc: ProtocolError, frame_id: Any = None
    ) -> None:
        self.stats["protocol_errors"] += 1
        conn.enqueue(error_frame(exc.to_error(), frame_id))

    # ------------------------------------------------------------------
    # frame dispatch
    # ------------------------------------------------------------------
    async def _handle_frame(self, conn: _Connection, frame: Dict[str, Any]) -> None:
        kind = frame["type"]
        if kind == "hello":
            session = frame.get("session")
            if isinstance(session, str) and session:
                conn.session = session
                conn.named = True
            conn.enqueue(
                {
                    "type": "welcome",
                    "session": conn.session,
                    "version": PROTOCOL_VERSION,
                    "server": "repro-serve",
                }
            )
        elif kind == "ping":
            conn.enqueue({"type": "pong", "id": frame.get("id")})
        elif kind == "batch":
            await self._handle_batch(conn, frame)
        elif kind == "commit":
            await self._handle_commit(conn, frame)
        else:
            self._protocol_error(
                conn,
                UnknownFrameType(f"unknown frame type {kind!r}"),
                frame.get("id"),
            )

    async def _handle_batch(self, conn: _Connection, frame: Dict[str, Any]) -> None:
        batch_id = frame.get("id")
        if self._closing:
            self._protocol_error(
                conn, ServerClosing("server is draining for shutdown"), batch_id
            )
            return
        payload = frame.get("requests")
        if not isinstance(payload, list) or not payload:
            self._protocol_error(
                conn,
                InvalidRequest("batch frame needs a non-empty 'requests' list"),
                batch_id,
            )
            return
        try:
            requests = [request_from_dict(item) for item in payload]
        except (ValueError, TypeError, KeyError, OverflowError) as exc:
            # OverflowError: JSON admits Infinity, and int(inf) overflows.
            self._protocol_error(
                conn, InvalidRequest(f"bad request payload: {exc}"), batch_id
            )
            return
        # Per-connection session mapping: requests without an explicit
        # caller identity inherit the connection's, so admission control
        # fair-shares across connections out of the box.
        requests = [
            r if r.session else dataclasses.replace(r, session=conn.session)
            for r in requests
        ]
        # Validated, then ignored: every batch runs on one thread.
        raw_workers = frame.get("max_workers", 1)
        try:
            int(raw_workers)
        except (TypeError, ValueError, OverflowError):
            self._protocol_error(
                conn,
                InvalidRequest(f"max_workers must be an integer, got {raw_workers!r}"),
                batch_id,
            )
            return
        coalesce = bool(frame.get("coalesce", True))

        await self._admit(conn)
        task = asyncio.ensure_future(
            self._run_batch(conn, batch_id, requests, coalesce)
        )
        conn.inflight.add(task)
        task.add_done_callback(conn.inflight.discard)

    async def _handle_commit(self, conn: _Connection, frame: Dict[str, Any]) -> None:
        """A live base edit over the wire: ``{"type": "commit",
        "skill_flips": [[person, skill, added], ...], "edge_flips":
        [[u, v, added], ...], "id": ...}``.

        The flips are staged on a fresh overlay and promoted through
        :meth:`~repro.service.service.ExplanationService.commit` on a
        worker thread — the service's version gate drains in-flight
        requests on the old version first, and every later response is
        stamped with the new ``base_version``.  The reply is a
        ``commit_end`` frame carrying both versions and the registry's
        rebase accounting."""
        commit_id = frame.get("id")
        if self._closing:
            self._protocol_error(
                conn, ServerClosing("server is draining for shutdown"), commit_id
            )
            return
        skill_flips = frame.get("skill_flips") or []
        edge_flips = frame.get("edge_flips") or []
        if not isinstance(skill_flips, list) or not isinstance(edge_flips, list):
            self._protocol_error(
                conn,
                InvalidRequest("commit flips must be lists of triples"),
                commit_id,
            )
            return
        try:
            overlay = NetworkOverlay(self.service.network)
            for person, skill, added in skill_flips:
                if added:
                    overlay.add_skill(int(person), str(skill))
                else:
                    overlay.remove_skill(int(person), str(skill))
            for u, v, added in edge_flips:
                if added:
                    overlay.add_edge(int(u), int(v))
                else:
                    overlay.remove_edge(int(u), int(v))
        except (TypeError, ValueError, KeyError, IndexError, OverflowError) as exc:
            self._protocol_error(
                conn, InvalidRequest(f"bad commit payload: {exc}"), commit_id
            )
            return
        loop = asyncio.get_event_loop()
        try:
            result = await loop.run_in_executor(
                self._pool, lambda: self.service.commit(overlay)
            )
        except Exception as exc:
            self._protocol_error(
                conn, InvalidRequest(f"commit failed: {exc}"), commit_id
            )
            return
        self.stats["commits"] += 1
        conn.enqueue(
            {
                "type": "commit_end",
                "id": commit_id,
                "old_version": result.old_version,
                "new_version": result.new_version,
                "n_skill_flips": len(result.delta.skill_flips),
                "n_edge_flips": len(result.delta.edge_flips),
                "stats": dict(result.stats),
            }
        )

    async def _admit(self, conn: _Connection) -> None:
        """The backpressure gate: block the read loop (and therefore the
        socket) until this connection may start another batch.  Under
        pressure (load shed or LRU thrash on the last batch) the limit
        drops to one — a full drain before the next frame is read."""
        paused = False
        while True:
            limit = 1 if conn.pressured else self.config.max_inflight_batches
            if len(conn.inflight) < limit:
                return
            if not paused:
                paused = True
                self.stats[
                    "drain_pauses" if conn.pressured else "read_pauses"
                ] += 1
            await asyncio.wait(
                list(conn.inflight), return_when=asyncio.FIRST_COMPLETED
            )

    # ------------------------------------------------------------------
    # batch execution
    # ------------------------------------------------------------------
    async def _run_batch(
        self,
        conn: _Connection,
        batch_id: Any,
        requests: List[ExplainRequest],
        coalesce: bool,
    ) -> None:
        loop = asyncio.get_event_loop()
        registry = self.service.registry
        builds_before = registry.engine_builds + registry.session_builds

        def on_response(index: int, response) -> None:
            # Called on the dispatch thread: hop to the loop, then
            # through the connection's single writer task.
            frame = {
                "type": "result",
                "id": batch_id,
                "index": index,
                "response": response_to_dict(response),
            }
            loop.call_soon_threadsafe(conn.enqueue, frame)

        start = time.perf_counter()
        try:
            responses = await loop.run_in_executor(
                self._pool,
                lambda: self.service.explain_many(
                    requests,
                    coalesce=coalesce,
                    on_response=on_response,
                ),
            )
        except Exception as exc:  # pragma: no cover - explain_many types
            # its own failures; anything surfacing here is a defect, but
            # the connection must still never drop mid-batch.
            logger.exception("explain_many crashed for batch %r", batch_id)
            self._protocol_error(
                conn,
                InvalidRequest(f"batch dispatch failed: {exc}"),
                batch_id,
            )
            return
        elapsed = time.perf_counter() - start
        outcomes = outcome_counts(responses)
        builds = (
            registry.engine_builds + registry.session_builds - builds_before
        )
        self.stats["batches"] += 1
        self.stats["requests"] += len(requests)
        # Pressure detection: admission shed load, or this batch churned
        # the registry LRUs (cold engines/sessions built faster than
        # they can stay resident) — drop to drain mode either way, and
        # clear it again after a clean batch.
        thrash = (
            self.config.thrash_threshold is not None
            and builds > self.config.thrash_threshold
        )
        conn.pressured = bool(outcomes.get("rejected", 0)) or thrash
        conn.enqueue(
            {
                "type": "batch_end",
                "id": batch_id,
                "n_requests": len(responses),
                "elapsed_seconds": elapsed,
                "outcomes": outcomes,
                "stats": self.service.stats.snapshot(),
                "registry_builds": builds,
                "pressured": conn.pressured,
            }
        )


async def serve(
    service: ExplanationService, config: Optional[ServeConfig] = None
) -> ExplanationServer:
    """Start a server and return it (callers own ``serve_forever`` /
    ``shutdown``)."""
    return await ExplanationServer(service, config).start()
