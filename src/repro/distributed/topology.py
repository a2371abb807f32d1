"""Network topologies.

The paper arranges 8 nodes in a **hypercube**; the hub assigns each
joining node a hypercube position and hands it the neighbour list of the
already-known nodes (see :mod:`repro.distributed.hub`).  Other topologies
are provided for the ablation benches (the paper's future-work section
asks how the structure matters).

A topology is simply ``dict[int, tuple[int, ...]]`` mapping node id to its
neighbour ids; all topologies here are undirected and connected.
"""

from __future__ import annotations

import numpy as np

from ..utils.rng import ensure_rng

__all__ = [
    "hypercube",
    "ring",
    "grid",
    "complete",
    "random_regular",
    "TOPOLOGIES",
    "get_topology",
    "validate_topology",
    "remove_node",
]


def hypercube(n_nodes: int) -> dict[int, tuple[int, ...]]:
    """(Incomplete) hypercube on ``n_nodes`` nodes.

    Node ids are hypercube coordinates; two nodes are adjacent iff their
    ids differ in exactly one bit.  When ``n_nodes`` is not a power of two
    the result is the induced subgraph on ids ``0..n_nodes-1`` (which is
    connected), matching how the paper's hub fills positions first-come
    first-served.
    """
    if n_nodes < 1:
        raise ValueError("need at least one node")
    dim = max(1, int(np.ceil(np.log2(max(n_nodes, 2)))))
    topo = {}
    for i in range(n_nodes):
        nbrs = []
        for b in range(dim):
            j = i ^ (1 << b)
            if j < n_nodes and j != i:
                nbrs.append(j)
        topo[i] = tuple(sorted(nbrs))
    return topo


def ring(n_nodes: int) -> dict[int, tuple[int, ...]]:
    """Bidirectional ring."""
    if n_nodes < 2:
        return {0: ()} if n_nodes == 1 else {}
    return {
        i: tuple(sorted({(i - 1) % n_nodes, (i + 1) % n_nodes} - {i}))
        for i in range(n_nodes)
    }


def grid(n_nodes: int) -> dict[int, tuple[int, ...]]:
    """Near-square 2D grid (row-major ids)."""
    cols = int(np.ceil(np.sqrt(n_nodes)))
    topo: dict[int, list[int]] = {i: [] for i in range(n_nodes)}
    for i in range(n_nodes):
        r, c = divmod(i, cols)
        for dr, dc in ((0, 1), (1, 0)):
            j = (r + dr) * cols + (c + dc)
            if c + dc < cols and j < n_nodes:
                topo[i].append(j)
                topo[j].append(i)
    return {i: tuple(sorted(set(v))) for i, v in topo.items()}


def complete(n_nodes: int) -> dict[int, tuple[int, ...]]:
    """Complete graph (every node broadcasts to every other)."""
    return {
        i: tuple(j for j in range(n_nodes) if j != i) for i in range(n_nodes)
    }


def random_regular(n_nodes: int, degree: int = 3, rng=None,
                   max_tries: int = 200) -> dict[int, tuple[int, ...]]:
    """Random connected ``degree``-regular graph (pairing model + retry)."""
    if n_nodes * degree % 2 != 0:
        raise ValueError("n_nodes * degree must be even")
    if degree >= n_nodes:
        return complete(n_nodes)
    rng = ensure_rng(rng)
    for _ in range(max_tries):
        stubs = np.repeat(np.arange(n_nodes), degree)
        rng.shuffle(stubs)
        pairs = stubs.reshape(-1, 2)
        edges = {tuple(sorted(map(int, p))) for p in pairs}
        if any(a == b for a, b in edges) or len(edges) < len(pairs):
            continue
        topo: dict[int, list[int]] = {i: [] for i in range(n_nodes)}
        for a, b in edges:
            topo[a].append(b)
            topo[b].append(a)
        result = {i: tuple(sorted(v)) for i, v in topo.items()}
        if _connected(result):
            return result
    raise RuntimeError("failed to sample a connected regular graph")


def _connected(topo: dict[int, tuple[int, ...]]) -> bool:
    if not topo:
        return True
    seen = {next(iter(topo))}
    stack = list(seen)
    while stack:
        for j in topo[stack.pop()]:
            if j not in seen:
                seen.add(j)
                stack.append(j)
    return len(seen) == len(topo)


#: Named topologies buildable for any node count (``random_regular``
#: also needs a degree and an RNG, so it stays outside the table).
TOPOLOGIES = {
    "hypercube": hypercube,
    "ring": ring,
    "grid": grid,
    "complete": complete,
}


def get_topology(name: str, n_nodes: int, **kwargs) -> dict[int, tuple[int, ...]]:
    """Build a named topology (``random_regular`` takes ``degree``/``rng``)."""
    if name == "random_regular":
        return random_regular(n_nodes, **kwargs)
    try:
        builder = TOPOLOGIES[name]
    except KeyError:
        raise KeyError(
            f"unknown topology {name!r}; choices: "
            f"{sorted(TOPOLOGIES) + ['random_regular']}"
        ) from None
    return builder(n_nodes, **kwargs)


def remove_node(topo: dict[int, tuple[int, ...]],
                node_id: int) -> dict[int, tuple[int, ...]]:
    """Topology degradation around a dead node.

    Removes ``node_id`` and cross-links its former neighbours into a
    clique, so the surviving graph keeps (at least) the connectivity the
    dead node provided — the same "topology degenerates around finished
    nodes" behaviour the paper describes for end-of-run drop-out, applied
    to crashes by the multiprocessing supervisor.
    """
    if node_id not in topo:
        raise KeyError(f"node {node_id} not in topology")
    orphans = topo[node_id]
    out: dict[int, set] = {
        i: set(nbrs) - {node_id} for i, nbrs in topo.items() if i != node_id
    }
    for a in orphans:
        for b in orphans:
            if a != b:
                out[a].add(b)
    return {i: tuple(sorted(v)) for i, v in out.items()}


def validate_topology(topo: dict[int, tuple[int, ...]],
                      require_connected: bool = True) -> None:
    """Raise ValueError unless the topology is simple and symmetric.

    Connectivity is required by default; pass ``require_connected=False``
    for deliberately partitioned setups (e.g. the no-cooperation arm of
    the topology ablation).
    """
    for i, nbrs in topo.items():
        if i in nbrs:
            raise ValueError(f"topology has a self-loop at node {i}")
        if len(set(nbrs)) != len(nbrs):
            raise ValueError(f"topology has duplicate neighbours at node {i}")
        for j in nbrs:
            if j not in topo or i not in topo[j]:
                raise ValueError(f"topology has an asymmetric edge {i} -> {j}")
    if require_connected and not _connected(topo):
        raise ValueError("topology is not connected")
