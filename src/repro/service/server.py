"""Newline-delimited-JSON TCP front end for the solver service.

``repro serve`` binds a :class:`ServiceServer` on localhost; ``repro
submit`` / ``status`` / ``result`` talk to it through
:class:`ServiceClient`.  The protocol is one JSON object per line,
request then response(s), stdlib-only (``asyncio.start_server``):

* ``{"op": "submit", "instance": {...}, "tenant": ..., "seed": ...}``
  -> ``{"ok": true, "job_id": "job-0001"}``.  The instance crosses the
  wire as generator spec (``{"spec": "uniform:200:7"}``) or TSPLIB path
  (``{"path": "..."}``) — the *server* parses and interns it, so
  duplicate submits from different clients hit the content store.
* ``status`` / ``cancel`` / ``stats`` -> one response object.
* ``result`` -> waits for the job, then the final tour + run summary.
* ``stream`` -> one line per incumbent ``{"vsec": .., "length": ..,
  "node": ..}`` followed by a terminal ``{"done": true, "status": ..}``.

Errors come back as ``{"ok": false, "error": "..."}``; a malformed line
never kills the server, only the connection's response.
"""

from __future__ import annotations

import asyncio
import json
from typing import Optional, Set

from .backends import check_job_params
from .jobs import TenantPolicy
from .service import JobError, SolverService

__all__ = ["ServiceServer", "ServiceClient"]

DEFAULT_HOST = "127.0.0.1"
DEFAULT_PORT = 7117

#: Per-read timeout for client connections: a stalled peer releases its
#: handler instead of pinning it forever (asyncio face of RPL005).
_READ_TIMEOUT_S = 600.0


def _load_instance(doc: dict):
    # Lazy import: repro.cli lazily imports repro.service for `serve`,
    # so the eager direction here would be a cycle at module import.
    from ..cli import resolve_instance

    spec = doc.get("spec") or doc.get("path")
    if not spec:
        raise ValueError("instance requires 'spec' or 'path'")
    try:
        return resolve_instance(str(spec))
    except SystemExit as exc:
        # resolve_instance is CLI-first and exits on bad specs; in the
        # server that must become a per-request error, not a shutdown.
        raise ValueError(str(exc)) from None


class ServiceServer:
    """TCP wrapper: one service, many line-oriented clients."""

    def __init__(
        self,
        service: SolverService,
        host: str = DEFAULT_HOST,
        port: int = DEFAULT_PORT,
    ):
        self.service = service
        self.host = host
        self.port = port
        self._server: Optional[asyncio.Server] = None
        # Live connection handlers: Server.wait_closed() does not wait
        # for in-flight protocol callbacks on 3.10/3.11, so close()
        # reaps these explicitly instead of leaking them.
        self._conn_tasks: Set[asyncio.Task] = set()

    async def start(self) -> "ServiceServer":
        await self.service.start()
        server = await asyncio.start_server(
            self._handle, self.host, self.port)
        self._server = server
        # Port 0 means "pick one"; reflect the bound port back.
        self.port = server.sockets[0].getsockname()[1]
        return self

    async def close(self) -> None:
        server, self._server = self._server, None
        if server is not None:
            server.close()
            await server.wait_closed()
        for task in list(self._conn_tasks):
            try:
                await asyncio.wait_for(task, timeout=5.0)
            except asyncio.TimeoutError:
                task.cancel()
                try:
                    await task
                except asyncio.CancelledError:
                    pass
        await self.service.close()

    async def serve_forever(self) -> None:
        assert self._server is not None, "call start() first"
        async with self._server:
            await self._server.serve_forever()

    # -- request handling -----------------------------------------------------

    async def _handle(self, reader: asyncio.StreamReader,
                      writer: asyncio.StreamWriter) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._conn_tasks.add(task)
        try:
            line = await asyncio.wait_for(reader.readline(),
                                          timeout=_READ_TIMEOUT_S)
            if line:
                try:
                    request = json.loads(line)
                    await self._dispatch(request, writer)
                except (JobError, KeyError, ValueError, TypeError) as exc:
                    # Best-effort error reply: the peer may already be
                    # gone, and the send failing must not kill the task.
                    try:
                        await self._send(writer, {"ok": False,
                                                  "error": str(exc)})
                    except (ConnectionError, OSError):
                        pass
        except asyncio.TimeoutError:
            # Stalled client: drop the connection, keep the server.
            pass
        except (ConnectionError, OSError):
            # Client dropped mid-request or mid-stream; this connection
            # dies, the server keeps serving the others.
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                # Peer already gone; nothing left to flush.
                pass
            if task is not None:
                self._conn_tasks.discard(task)

    @staticmethod
    async def _send(writer: asyncio.StreamWriter, doc: dict) -> None:
        writer.write(json.dumps(doc).encode() + b"\n")
        await writer.drain()

    async def _dispatch(self, request: dict,
                        writer: asyncio.StreamWriter) -> None:
        op = request.get("op")
        svc = self.service
        if op == "ping":
            await self._send(writer, {"ok": True, "pong": True})
        elif op == "submit":
            params = request.get("params") or {}
            check_job_params(params)  # no fault-injection hook over the wire
            instance = _load_instance(request.get("instance") or {})
            job_id = svc.submit(
                instance,
                tenant=request.get("tenant", "default"),
                priority=int(request.get("priority", 0)),
                seed=int(request.get("seed", 0)),
                budget_vsec_per_node=float(
                    request.get("budget_vsec_per_node", 1.0)),
                n_nodes=int(request.get("n_nodes", 8)),
                **params,
            )
            await self._send(writer, {"ok": True, "job_id": job_id})
        elif op == "status":
            await self._send(
                writer,
                {"ok": True, "job": svc.status(request["job_id"])})
        elif op == "cancel":
            cancelled = svc.cancel(request["job_id"])
            await self._send(writer, {"ok": True, "cancelled": cancelled})
        elif op == "stats":
            await self._send(writer, {"ok": True, "stats": svc.stats()})
        elif op == "tenant":
            svc.set_tenant(
                request["tenant"],
                TenantPolicy(
                    max_concurrency=int(request.get("max_concurrency", 2)),
                    vsec_budget=request.get("vsec_budget"),
                    priority=int(request.get("priority", 0)),
                ),
            )
            await self._send(writer, {"ok": True})
        elif op == "result":
            job_id = request["job_id"]
            result = await svc.result(job_id,
                                      timeout=request.get("timeout"))
            doc = svc.status(job_id)
            doc["tour"] = {
                "order": [int(c) for c in result.best_tour.order],
                "length": int(result.best_tour.length),
            }
            await self._send(writer, {"ok": True, "job": doc})
        elif op == "stream":
            job_id = request["job_id"]
            stream = svc.stream_incumbents(job_id)
            try:
                async for vsec, length, node_id in stream:
                    await self._send(writer, {
                        "vsec": float(vsec),
                        "length": int(length),
                        "node": int(node_id),
                    })
            finally:
                # A client that drops mid-stream aborts the async-for
                # via the failed send; closing the generator runs its
                # finally blocks so the job watcher is released instead
                # of idling until the job ends.
                await stream.aclose()
            await self._send(writer, {
                "done": True,
                "status": svc.status(job_id)["status"],
            })
        else:
            raise ValueError(f"unknown op {op!r}")


class ServiceClient:
    """Line-oriented client for :class:`ServiceServer`.

    Async methods for programmatic use; each opens one connection per
    request (the server is connection-per-request by design).  The CLI
    wraps them with ``asyncio.run``.
    """

    def __init__(self, host: str = DEFAULT_HOST, port: int = DEFAULT_PORT,
                 timeout: float = 300.0):
        self.host = host
        self.port = port
        self.timeout = timeout

    async def _request(self, doc: dict) -> dict:
        reader, writer = await asyncio.wait_for(
            asyncio.open_connection(self.host, self.port),
            timeout=self.timeout)
        try:
            writer.write(json.dumps(doc).encode() + b"\n")
            await writer.drain()
            line = await asyncio.wait_for(reader.readline(),
                                          timeout=self.timeout)
            if not line:
                raise ConnectionError("server closed the connection")
            response = json.loads(line)
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                # Peer already gone; nothing left to flush.
                pass
        if not response.get("ok", False):
            raise RuntimeError(
                f"server error: {response.get('error', 'unknown')}")
        return response

    async def ping(self) -> bool:
        return bool((await self._request({"op": "ping"})).get("pong"))

    async def submit(self, instance: dict, **options) -> str:
        doc = {"op": "submit", "instance": instance}
        doc.update(options)
        return (await self._request(doc))["job_id"]

    async def status(self, job_id: str) -> dict:
        return (await self._request(
            {"op": "status", "job_id": job_id}))["job"]

    async def cancel(self, job_id: str) -> bool:
        return bool((await self._request(
            {"op": "cancel", "job_id": job_id}))["cancelled"])

    async def stats(self) -> dict:
        return (await self._request({"op": "stats"}))["stats"]

    async def set_tenant(self, tenant: str, **policy) -> None:
        doc = {"op": "tenant", "tenant": tenant}
        doc.update(policy)
        await self._request(doc)

    async def result(self, job_id: str,
                     timeout: Optional[float] = None) -> dict:
        return (await self._request(
            {"op": "result", "job_id": job_id, "timeout": timeout}))["job"]

    async def stream(self, job_id: str):
        """Async generator over the job's incumbent stream."""
        reader, writer = await asyncio.wait_for(
            asyncio.open_connection(self.host, self.port),
            timeout=self.timeout)
        try:
            writer.write(json.dumps(
                {"op": "stream", "job_id": job_id}).encode() + b"\n")
            await writer.drain()
            while True:
                line = await asyncio.wait_for(reader.readline(),
                                              timeout=self.timeout)
                if not line:
                    return
                doc = json.loads(line)
                if doc.get("done") or doc.get("ok") is False:
                    if doc.get("ok") is False:
                        raise RuntimeError(
                            f"server error: {doc.get('error')}")
                    return
                yield doc
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                # Peer already gone; nothing left to flush.
                pass
