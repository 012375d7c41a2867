"""The async client for the serving front end.

:class:`ServeClient` speaks the :mod:`repro.serve.protocol` frames over
one connection: a ``hello``/``welcome`` handshake naming the session,
then ``batch`` frames answered by streamed ``result`` frames and a
terminal ``batch_end`` summary.  :meth:`ServeClient.explain_stream`
surfaces the stream frame-by-frame (the tests watch partials arrive
before the batch completes); :meth:`ServeClient.explain_many` collects
it back into the same ``List[ExplainResponse]`` the in-process call
returns, plus the summary — so swapping a local
``service.explain_many(...)`` for a remote one is a two-line change.

:func:`run_remote_workload` is the synchronous wrapper the CLI's
``workload --remote`` path uses: connect, run one batch, return
``(responses, summary)``.
"""

from __future__ import annotations

import asyncio
import itertools
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.explain.serialize import (
    explain_error_from_dict,
    request_to_dict,
    response_from_dict,
)
from repro.serve.protocol import FrameReader, decode_frame, encode_frame
from repro.service.requests import ExplainRequest, ExplainResponse


class RemoteProtocolError(RuntimeError):
    """The server answered a batch with a typed ``error`` frame (carried
    on ``.error`` as an :class:`~repro.service.requests.ExplainError`)."""

    def __init__(self, error) -> None:
        super().__init__(f"{error.kind}: {error.message}")
        self.error = error


class ServeClient:
    """One connection to an :class:`~repro.serve.server.ExplanationServer`."""

    _batch_ids = itertools.count(1)

    def __init__(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self._reader = FrameReader(reader)
        self._writer = writer
        self.session: Optional[str] = None
        self.protocol_version: Optional[int] = None

    @classmethod
    async def connect(
        cls, host: str, port: int, session: Optional[str] = None
    ) -> "ServeClient":
        """Open a connection and complete the hello/welcome handshake.
        ``session`` names this connection's admission-control tenant;
        omitted, the server assigns one."""
        reader, writer = await asyncio.open_connection(host, port)
        client = cls(reader, writer)
        hello: Dict[str, Any] = {"type": "hello"}
        if session is not None:
            hello["session"] = session
        await client.send(hello)
        welcome = await client.recv()
        if welcome is None or welcome.get("type") != "welcome":
            raise ConnectionError(f"expected a welcome frame, got {welcome!r}")
        client.session = welcome.get("session")
        client.protocol_version = welcome.get("version")
        return client

    async def send(self, frame: Dict[str, Any]) -> None:
        self._writer.write(encode_frame(frame))
        await self._writer.drain()

    async def recv(self) -> Optional[Dict[str, Any]]:
        """The next frame, or ``None`` on a clean server close."""
        line = await self._reader.next_line()
        if line is None:
            return None
        return decode_frame(line)

    async def ping(self, ping_id: Any = None) -> Dict[str, Any]:
        await self.send({"type": "ping", "id": ping_id})
        while True:
            frame = await self.recv()
            if frame is None:
                raise ConnectionError("server closed before answering ping")
            if frame.get("type") == "pong":
                return frame

    async def commit(
        self,
        skill_flips: Sequence = (),
        edge_flips: Sequence = (),
        commit_id: Any = None,
    ) -> Dict[str, Any]:
        """Promote a live base edit on the server: send a ``commit``
        frame (``skill_flips`` as ``(person, skill, added)`` triples,
        ``edge_flips`` as ``(u, v, added)``) and return the
        ``commit_end`` summary — old/new versions plus the registry's
        rebase accounting.  Raises :class:`RemoteProtocolError` when the
        server refuses the commit."""
        await self.send(
            {
                "type": "commit",
                "id": commit_id,
                "skill_flips": [list(flip) for flip in skill_flips],
                "edge_flips": [list(flip) for flip in edge_flips],
            }
        )
        while True:
            frame = await self.recv()
            if frame is None:
                raise ConnectionError("server closed before commit_end")
            kind = frame.get("type")
            if kind == "commit_end" and frame.get("id") == commit_id:
                return frame
            if kind == "error":
                raise RemoteProtocolError(explain_error_from_dict(frame["error"]))
            if kind == "shutdown":
                raise ConnectionError("server shut down mid-commit")

    async def explain_stream(
        self,
        requests: Sequence[ExplainRequest],
        max_workers: int = 1,
        coalesce: bool = True,
    ):
        """Send one batch and yield its frames as they stream back:
        ``result`` frames in completion order (not request order), then
        exactly one terminal ``batch_end`` — or a terminal ``error``
        frame when the server refused the batch.  ``max_workers`` rides
        the frame, where the server validates and ignores it."""
        batch_id = next(self._batch_ids)
        await self.send(
            {
                "type": "batch",
                "id": batch_id,
                "requests": [request_to_dict(r) for r in requests],
                "max_workers": max_workers,
                "coalesce": coalesce,
            }
        )
        while True:
            frame = await self.recv()
            if frame is None:
                raise ConnectionError("server closed mid-batch")
            kind = frame.get("type")
            if kind in ("result", "batch_end") and frame.get("id") == batch_id:
                yield frame
                if kind == "batch_end":
                    return
            elif kind == "error":
                # Typed refusal of this batch — or a stray protocol
                # error the server answered between frames; both are
                # terminal for the caller awaiting this batch.
                yield frame
                return
            elif kind == "shutdown":
                raise ConnectionError("server shut down mid-batch")
            # welcome/pong interleavings are someone else's frames: skip.

    async def explain_many(
        self,
        requests: Sequence[ExplainRequest],
        coalesce: bool = True,
    ) -> Tuple[List[ExplainResponse], Dict[str, Any]]:
        """The remote mirror of ``ExplanationService.explain_many``:
        responses in request order plus the ``batch_end`` summary dict."""
        responses: List[Optional[ExplainResponse]] = [None] * len(requests)
        summary: Dict[str, Any] = {}
        async for frame in self.explain_stream(requests, coalesce=coalesce):
            if frame["type"] == "result":
                responses[int(frame["index"])] = response_from_dict(frame["response"])
            elif frame["type"] == "batch_end":
                summary = frame
            else:
                raise RemoteProtocolError(explain_error_from_dict(frame["error"]))
        missing = [i for i, r in enumerate(responses) if r is None]
        if missing:
            raise ConnectionError(
                f"batch ended with {len(missing)} unanswered requests: {missing[:5]}"
            )
        return responses, summary  # type: ignore[return-value]

    async def close(self) -> None:
        try:
            self._writer.close()
            await self._writer.wait_closed()
        except (ConnectionError, OSError):
            pass


def run_remote_workload(
    host: str,
    port: int,
    requests: Sequence[ExplainRequest],
    coalesce: bool = True,
    session: Optional[str] = None,
) -> Tuple[List[ExplainResponse], Dict[str, Any]]:
    """Synchronous one-shot: connect, run one batch, disconnect."""

    async def go() -> Tuple[List[ExplainResponse], Dict[str, Any]]:
        client = await ServeClient.connect(host, port, session=session)
        try:
            return await client.explain_many(requests, coalesce=coalesce)
        finally:
            await client.close()

    return asyncio.run(go())
