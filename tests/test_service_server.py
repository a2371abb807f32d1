"""TCP front end: protocol roundtrips against a live in-process server."""

import asyncio

import pytest

from repro.service import ServiceClient, ServiceServer, SolverService

pytestmark = pytest.mark.service

JOB = dict(seed=4, budget_vsec_per_node=0.2, n_nodes=2,
           params={"topology": "ring"})


def run(coro):
    return asyncio.run(coro)


async def _with_server(fn):
    server = ServiceServer(SolverService(backend="sim"), port=0)
    await server.start()
    try:
        client = ServiceClient(port=server.port, timeout=60)
        return await fn(client, server)
    finally:
        await server.close()


class TestServer:
    def test_ping(self):
        async def body(client, _server):
            return await client.ping()

        assert run(_with_server(body))

    def test_submit_stream_result_roundtrip(self):
        async def body(client, _server):
            job_id = await client.submit({"spec": "uniform:50:3"}, **JOB)
            streamed = [doc async for doc in client.stream(job_id)]
            result = await client.result(job_id, timeout=60)
            status = await client.status(job_id)
            stats = await client.stats()
            return job_id, streamed, result, status, stats

        job_id, streamed, result, status, stats = run(_with_server(body))
        assert job_id == "job-0001"
        assert status["status"] == "done"
        lengths = [doc["length"] for doc in streamed]
        assert lengths and lengths == sorted(lengths, reverse=True)
        assert result["tour"]["length"] == lengths[-1]
        assert len(result["tour"]["order"]) == 50
        assert stats["store"]["entries"] == 1

    def test_cancel_over_wire(self):
        async def body(client, _server):
            job_id = await client.submit(
                {"spec": "uniform:200:1"}, seed=1,
                budget_vsec_per_node=5.0, n_nodes=4)
            cancelled = await client.cancel(job_id)
            # result for a cancelled job is a server-side error.
            with pytest.raises(RuntimeError):
                await client.result(job_id, timeout=60)
            return cancelled, await client.status(job_id)

        cancelled, status = run(_with_server(body))
        assert cancelled
        assert status["status"] == "cancelled"

    def test_tenant_policy_over_wire(self):
        async def body(client, server):
            await client.set_tenant("vip", max_concurrency=3, priority=-1)
            policy = server.service.queue.policy("vip")
            return policy.max_concurrency, policy.priority

        assert run(_with_server(body)) == (3, -1)

    def test_bad_requests_keep_server_alive(self):
        async def body(client, _server):
            with pytest.raises(RuntimeError):
                await client.status("job-9999")  # unknown id
            with pytest.raises(RuntimeError):
                await client.submit({"spec": "nonsense:spec"})
            with pytest.raises(RuntimeError):
                await client._request({"op": "frobnicate"})
            return await client.ping()  # still serving

        assert run(_with_server(body))

    def test_unknown_params_rejected_at_submit(self):
        # A key SolveSession does not take, or one the service sets
        # itself, is an error reply at submit: nothing is queued and no
        # job id is used up.
        async def body(client, server):
            for params, error in (({"kernal": "row"}, "unknown job params"),
                                  ({"kernel": "row"}, "unknown job params"),
                                  ({"rng": 3}, "unknown job params"),
                                  ({"on_incumbent": None},
                                   "unknown job params"),
                                  ({"_crash": True}, "unknown job params"),
                                  ({"instance": "x"}, "instance")):
                with pytest.raises(RuntimeError, match=error):
                    await client.submit({"spec": "uniform:50:3"},
                                        **{**JOB, "params": params})
            job_id = await client.submit({"spec": "uniform:50:3"}, **JOB)
            return job_id, list(server.service.jobs)

        job_id, jobs = run(_with_server(body))
        assert job_id == "job-0001"
        assert jobs == ["job-0001"]

    def test_bad_network_keywords_are_error_replies(self):
        async def body(client, server):
            for params in ({"topology": "bogus"}, {"dissemination": "bogus"},
                           {"latency": -1.0}, {"churn": "bogus"},
                           {"topology": {"0": [1], "1": [0]}}):
                with pytest.raises(RuntimeError,
                                   match=f"server error: .*{next(iter(params))}"):
                    await client.submit({"spec": "uniform:50:3"},
                                        **{**JOB, "params": params})
            return list(server.service.jobs)

        assert run(_with_server(body)) == []

    def test_unknown_params_raise_value_error_in_process(self):
        from repro.tsp import generators

        async def body():
            async with SolverService(backend="sim") as svc:
                with pytest.raises(ValueError, match="kernal"):
                    svc.submit(generators.uniform(30, rng=1), kernal="row")
                return dict(svc.jobs)

        assert run(body()) == {}

    @pytest.mark.parametrize("params, error", [
        ({"kick": "bogus"}, KeyError),
        ({"c_v": 0}, ValueError),
        ({"kick_batch_width": 0}, ValueError),
        ({"topology": "bogus"}, KeyError),
        ({"dissemination": "bogus"}, ValueError),
        ({"latency": -1.0}, TypeError),
        ({"churn": "bogus"}, TypeError),
        ({"gossip_fanout": -3}, ValueError),
        # A ring over ids 0..7 with the edge 7 -> 0 made one-way.
        ({"topology": {**{i: ((i - 1) % 8, i + 1) for i in range(1, 7)},
                       0: (1,), 7: (6, 0)}}, ValueError),
    ], ids=["kick", "c_v", "kick_batch_width", "topology", "dissemination",
            "latency", "churn", "gossip_fanout", "topology_graph"])
    def test_bad_param_values_rejected_before_a_job_id(self, params, error):
        # The job's NodeConfig is built and its network keywords are
        # checked at submit, so a value no run could use fails here
        # rather than as a failed job later.
        from repro.tsp import generators

        async def body():
            async with SolverService(backend="sim") as svc:
                with pytest.raises(error, match=next(iter(params))):
                    svc.submit(generators.uniform(30, rng=1), **params)
                return dict(svc.jobs)

        assert run(body()) == {}

    def test_duplicate_submits_share_store_across_connections(self):
        async def body(client, _server):
            await client.submit({"spec": "uniform:50:3"}, tenant="a", **JOB)
            await client.submit({"spec": "uniform:50:3"}, tenant="b", **JOB)
            return (await client.stats())["store"]

        store = run(_with_server(body))
        assert store["entries"] == 1
        assert store["hits"] == 1


class TestClientDisconnect:
    """A peer that vanishes mid-conversation must cost the server only
    that one connection: the handler unwinds, its task leaves
    ``_conn_tasks``, and everyone else keeps being served."""

    def test_drop_mid_stream(self):
        async def body(client, server):
            job_id = await client.submit(
                {"spec": "uniform:150:1"}, seed=1,
                budget_vsec_per_node=2.0, n_nodes=2,
                params={"topology": "ring"})
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", server.port)
            writer.write(
                b'{"op": "stream", "job_id": "%s"}\n' % job_id.encode())
            await writer.drain()
            # Take one incumbent line, then vanish without reading the
            # rest of the stream.
            first = await asyncio.wait_for(reader.readline(), timeout=60)
            assert first
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass
            # The server must still answer other clients and finish the
            # job; the dead handler must drain out of _conn_tasks.
            alive = await client.ping()
            await client.result(job_id, timeout=60)
            for _ in range(100):
                if not server._conn_tasks:
                    break
                await asyncio.sleep(0.05)
            return alive, len(server._conn_tasks)

        alive, leftover = run(_with_server(body))
        assert alive is True
        assert leftover == 0

    def test_drop_mid_request(self):
        async def body(client, server):
            # Half a request — bytes but no newline — then vanish: the
            # handler sees a truncated line at EOF, fails to parse it,
            # and must not be able to reply to the closed socket.
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", server.port)
            writer.write(b'{"op": "stat')
            await writer.drain()
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass
            alive = await client.ping()
            for _ in range(100):
                if not server._conn_tasks:
                    break
                await asyncio.sleep(0.05)
            return alive, len(server._conn_tasks)

        alive, leftover = run(_with_server(body))
        assert alive is True
        assert leftover == 0

    def test_drop_before_any_bytes(self):
        async def body(client, server):
            # Connect-and-leave: readline returns b"" and the handler
            # must treat the empty line as "no request", not an error.
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", server.port)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass
            return await client.ping()

        assert run(_with_server(body)) is True
