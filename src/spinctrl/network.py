"""Spin-network topologies: coupling graphs, control placement, serialization.

Nodes are numbered 1..N. An edge (m, n, gamma) with m < n carries a nonzero
coupling strength; absent edges mean zero coupling. Controls are the node set
acted on by a single collective Z-field.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass


# Largest network accepted. The detectors' worst case is a highly degenerate
# spectrum (no edges, or a star of equal two-node branches): the commutant
# then has about d^2 elements of d^2 entries each. analyze() took 22 s and
# 0.46 GB on the 50-node network without edges (one core).
MAX_NODES = 50


class InvalidNetworkError(ValueError):
    """Raised when a network description violates a structural invariant."""


def _check_size(n: int, path: str) -> None:
    if n > MAX_NODES:
        raise InvalidNetworkError(f"{path}: more than {MAX_NODES} nodes")


@dataclass(frozen=True)
class NetworkSpec:
    """Immutable description of an XXZ network with a collective Z-control.

    edges are stored sorted by (m, n) with m < n; controls sorted ascending.
    """

    node_count: int
    edges: tuple[tuple[int, int, float], ...]
    kappa: float
    controls: tuple[int, ...]
    topology: str = "general"
    star_lengths: tuple[int, ...] | None = None

    def __post_init__(self):
        n = self.node_count
        if n < 1:
            raise InvalidNetworkError("node_count: must be >= 1")
        _check_size(n, "node_count")
        if not math.isfinite(self.kappa):
            raise InvalidNetworkError(f"kappa: non-finite value {self.kappa!r}")
        # canonical order makes serialization round-trips literal identities
        object.__setattr__(self, "edges", tuple(sorted(self.edges)))
        object.__setattr__(self, "controls", tuple(sorted(self.controls)))
        seen = set()
        for i, (m, nn, g) in enumerate(self.edges):
            if not (1 <= m <= n and 1 <= nn <= n):
                raise InvalidNetworkError(f"edges[{i}]: index out of range 1..{n}")
            if m == nn:
                raise InvalidNetworkError(f"edges[{i}]: self-loop at node {m}")
            if m > nn:
                raise InvalidNetworkError(f"edges[{i}]: expected m < n, got ({m}, {nn})")
            if (m, nn) in seen:
                raise InvalidNetworkError(f"edges[{i}]: duplicate edge ({m}, {nn})")
            if g == 0:
                raise InvalidNetworkError(f"edges[{i}]: zero coupling (drop the edge instead)")
            if not math.isfinite(g):
                raise InvalidNetworkError(f"edges[{i}]: non-finite coupling {g!r}")
            seen.add((m, nn))
        if not self.controls:
            raise InvalidNetworkError("controls: must be nonempty")
        for i, k in enumerate(self.controls):
            if not (1 <= k <= n):
                raise InvalidNetworkError(f"controls[{i}]: index {k} out of range 1..{n}")
        if len(set(self.controls)) != len(self.controls):
            raise InvalidNetworkError("controls: duplicate node index")
        if self.topology not in ("chain", "star", "general"):
            raise InvalidNetworkError(f"topology: unknown tag {self.topology!r}")

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def is_chain(self) -> bool:
        """True iff the edge set is exactly {(i, i+1)} for i = 1..N-1."""
        want = {(i, i + 1) for i in range(1, self.node_count)}
        return {(m, n) for m, n, _ in self.edges} == want

    def chain_couplings(self) -> tuple[float, ...]:
        """Couplings (gamma_1, ..., gamma_{N-1}) for a chain-shaped network."""
        if not self.is_chain():
            raise InvalidNetworkError("not a chain: edge set is not {(i, i+1)}")
        by_pos = {m: g for m, _, g in self.edges}
        return tuple(by_pos[i] for i in range(1, self.node_count))

    def adjacency(self) -> dict[int, list[tuple[int, float]]]:
        adj: dict[int, list[tuple[int, float]]] = {v: [] for v in range(1, self.node_count + 1)}
        for m, n, g in self.edges:
            adj[m].append((n, g))
            adj[n].append((m, g))
        return adj

    def is_connected(self) -> bool:
        if self.node_count == 1:
            return True
        adj = self.adjacency()
        seen = {1}
        stack = [1]
        while stack:
            v = stack.pop()
            for w, _ in adj[v]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        return len(seen) == self.node_count


@dataclass(frozen=True)
class StarDescriptor:
    """Star network: a center joined to m path branches.

    Branch "length" l_p counts the shared center plus the l_p - 1 branch
    nodes, so the generated network has 1 + sum(l_p - 1) nodes.
    control_site is either "center" or (branch index p, position j) with
    j in 2..l_p, position 2 being adjacent to the center.
    """

    branch_lengths: tuple[int, ...]
    control_site: str | tuple[int, int] = "center"

    def __post_init__(self):
        if len(self.branch_lengths) < 2:
            raise InvalidNetworkError("branch_lengths: need m >= 2 branches")
        for i, lp in enumerate(self.branch_lengths):
            if lp < 2:
                raise InvalidNetworkError(f"branch_lengths[{i}]: length {lp} < 2")
        _check_size(self.node_count, "branch_lengths")
        cs = self.control_site
        if cs != "center":
            if not (isinstance(cs, tuple) and len(cs) == 2):
                raise InvalidNetworkError("control_site: expected 'center' or (branch, position)")
            p, j = cs
            if not (1 <= p <= len(self.branch_lengths)):
                raise InvalidNetworkError(f"control_site: branch {p} out of range")
            if not (2 <= j <= self.branch_lengths[p - 1]):
                raise InvalidNetworkError(
                    f"control_site: position {j} out of range 2..{self.branch_lengths[p - 1]}")

    @property
    def node_count(self) -> int:
        return 1 + sum(lp - 1 for lp in self.branch_lengths)


def make_chain(length: int, couplings="uniform", kappa: float = 0.0,
               controls=(1,)) -> NetworkSpec:
    """Open chain with nearest-neighbor couplings.

    couplings is either "uniform" (all gamma = 1) or a sequence of N-1
    nonzero strengths. A zero entry would disconnect the chain and is
    rejected.
    """
    if length < 2:
        raise InvalidNetworkError("length: chain needs N >= 2")
    _check_size(length, "length")
    if isinstance(couplings, str):
        if couplings != "uniform":
            raise InvalidNetworkError(f"couplings: unknown mode {couplings!r}")
        gammas = [1.0] * (length - 1)
    else:
        gammas = [float(g) for g in couplings]
        if len(gammas) != length - 1:
            raise InvalidNetworkError(
                f"couplings: expected {length - 1} values, got {len(gammas)}")
        for i, g in enumerate(gammas):
            if g == 0:
                raise InvalidNetworkError(f"couplings[{i}]: zero coupling disconnects the chain")
    edges = tuple((i, i + 1, gammas[i - 1]) for i in range(1, length))
    return NetworkSpec(node_count=length, edges=edges, kappa=float(kappa),
                       controls=tuple(sorted(set(int(k) for k in controls))),
                       topology="chain")


def make_star(descriptor: StarDescriptor, kappa: float = 0.0) -> NetworkSpec:
    """Star network with unit couplings; node 1 is the center.

    Branches are laid out in input order, each occupying a contiguous node
    range walking outward from the center.
    """
    edges = []
    branch_nodes: list[list[int]] = []
    nxt = 2
    for lp in descriptor.branch_lengths:
        nodes = []
        prev = 1
        for _ in range(lp - 1):
            edges.append((min(prev, nxt), max(prev, nxt), 1.0))
            nodes.append(nxt)
            prev = nxt
            nxt += 1
        branch_nodes.append(nodes)
    if descriptor.control_site == "center":
        controls = (1,)
    else:
        p, j = descriptor.control_site
        controls = (branch_nodes[p - 1][j - 2],)
    return NetworkSpec(node_count=descriptor.node_count, edges=tuple(sorted(edges)),
                       kappa=float(kappa), controls=controls, topology="star",
                       star_lengths=tuple(descriptor.branch_lengths))


def serialize_network(spec: NetworkSpec) -> str:
    """Canonical JSON form; round-trips through parse_network."""
    doc = {
        "kappa": spec.kappa,
        "nodes": spec.node_count,
        "edges": [[m, n, g] for m, n, g in spec.edges],
        "controls": list(spec.controls),
        "topology": {"type": spec.topology},
    }
    if spec.topology == "star" and spec.star_lengths is not None:
        doc["topology"]["lengths"] = list(spec.star_lengths)
    return json.dumps(doc, sort_keys=True)


def parse_network(text: str) -> NetworkSpec:
    """Parse the JSON network schema.

    Chains may be declared by {"topology": {"type": "chain", "length": N,
    "couplings": "uniform" | [...]}} without an edge list; the parser
    expands them. A network has at most MAX_NODES nodes. Validation errors
    carry the offending field path.
    """
    try:
        doc = json.loads(text)
    except ValueError as e:  # JSONDecodeError, or an integer too long to convert
        raise InvalidNetworkError(f"not valid JSON: {e}") from e
    if not isinstance(doc, dict):
        raise InvalidNetworkError("top level: expected a JSON object")

    topo = doc.get("topology", {"type": "general"})
    if not isinstance(topo, dict) or "type" not in topo:
        raise InvalidNetworkError("topology: expected object with a 'type' field")
    ttype = topo["type"]
    kappa = _parse_number(doc.get("kappa", 0.0), "kappa")

    if ttype == "chain" and "length" in topo:
        length = topo["length"]
        if not _is_int(length) or length < 2:
            raise InvalidNetworkError("topology.length: expected integer >= 2")
        _check_size(length, "topology.length")
        controls = _parse_controls(doc, length)
        couplings = topo.get("couplings", "uniform")
        if not isinstance(couplings, str):
            if not isinstance(couplings, list):
                raise InvalidNetworkError(
                    "topology.couplings: expected \"uniform\" or a list of numbers")
            couplings = [_parse_number(g, f"topology.couplings[{i}]")
                         for i, g in enumerate(couplings)]
        return make_chain(length, couplings, kappa, controls)

    if "nodes" not in doc:
        raise InvalidNetworkError("nodes: missing")
    n = doc["nodes"]
    if not _is_int(n) or n < 1:
        raise InvalidNetworkError("nodes: expected positive integer")
    _check_size(n, "nodes")
    raw_edges = doc.get("edges")
    if not isinstance(raw_edges, list):
        raise InvalidNetworkError("edges: expected a list")
    edges = []
    for i, e in enumerate(raw_edges):
        if not (isinstance(e, list) and len(e) == 3):
            raise InvalidNetworkError(f"edges[{i}]: expected [m, n, gamma]")
        m, nn, g = e
        if not (_is_int(m) and _is_int(nn)):
            raise InvalidNetworkError(f"edges[{i}]: expected [int, int, number]")
        g = _parse_number(g, f"edges[{i}][2]")
        if m > nn:
            m, nn = nn, m
        edges.append((m, nn, g))
    controls = _parse_controls(doc, n)
    lengths = topo.get("lengths")
    if lengths is not None:
        if not isinstance(lengths, list):
            raise InvalidNetworkError("topology.lengths: expected a list of integers")
        for i, x in enumerate(lengths):
            if not _is_int(x):
                raise InvalidNetworkError(f"topology.lengths[{i}]: expected integer")
        lengths = tuple(lengths)
    return NetworkSpec(node_count=n, edges=tuple(sorted(edges)), kappa=kappa,
                       controls=controls, topology=ttype, star_lengths=lengths)


def _is_int(x) -> bool:
    """True for a JSON integer; JSON booleans parse to bool, a subclass of
    int, and are not integers here."""
    return isinstance(x, int) and not isinstance(x, bool)


def _parse_number(x, path: str) -> float:
    if isinstance(x, bool) or not isinstance(x, (int, float)):
        raise InvalidNetworkError(f"{path}: expected a number")
    try:
        return float(x)
    except OverflowError:
        raise InvalidNetworkError(f"{path}: out of float range") from None


def _parse_controls(doc, n: int) -> tuple[int, ...]:
    raw = doc.get("controls")
    if not isinstance(raw, list) or not raw:
        raise InvalidNetworkError("controls: expected a nonempty list")
    out = []
    for i, k in enumerate(raw):
        if not _is_int(k):
            raise InvalidNetworkError(f"controls[{i}]: expected integer node index")
        if not (1 <= k <= n):
            raise InvalidNetworkError(f"controls[{i}]: index {k} out of range 1..{n}")
        out.append(k)
    return tuple(sorted(set(out)))
