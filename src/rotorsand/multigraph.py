"""Loopless undirected multigraphs with deterministic identities and minors.

Vertices and edges carry string ids.  Parallel edges are distinct first-class
edges, never multiplicities.  All operations are pure: they return new graphs
and never mutate.
"""

from __future__ import annotations

import json
from itertools import combinations


class Multigraph:
    """An undirected multigraph without loops.

    ``edges`` maps each edge id to its unordered endpoint pair, stored as a
    sorted tuple.  Equality and hashing are by value, so graphs behave as
    immutable data.
    """

    __slots__ = (
        "_vertices", "_index", "_ends", "_edge_ids", "_incident",
        "_hash", "_cuts", "_connected", "_trees",
    )

    def __init__(self, vertices, edges):
        vs = tuple(sorted(vertices))
        index = {v: i for i, v in enumerate(vs)}
        if len(index) != len(vs):
            raise ValueError("duplicate vertex ids")
        ends = {}
        for eid, pair in dict(edges).items():
            u, v = pair
            if u == v:
                raise ValueError(f"loop edge {eid!r} at {u!r} not allowed")
            if u not in index or v not in index:
                raise ValueError(f"edge {eid!r} has unknown endpoint")
            ends[eid] = (u, v) if u <= v else (v, u)
        self._vertices = vs
        self._index = index
        self._edge_ids = tuple(sorted(ends))
        self._ends = ends
        incident = {v: [] for v in vs}
        for eid in self._edge_ids:
            u, v = ends[eid]
            incident[u].append(eid)
            incident[v].append(eid)
        self._incident = {v: tuple(es) for v, es in incident.items()}
        self._hash = hash((self._vertices, tuple((e, ends[e]) for e in self._edge_ids)))
        self._cuts = None
        self._connected = None
        self._trees = None

    @property
    def vertices(self) -> tuple[str, ...]:
        return self._vertices

    @property
    def edges(self) -> tuple[str, ...]:
        return self._edge_ids

    def ends(self, e: str) -> tuple[str, str]:
        try:
            return self._ends[e]
        except KeyError:
            raise KeyError(f"unknown edge id {e!r}") from None

    def other(self, e: str, v: str) -> str:
        u, w = self.ends(e)
        if v == u:
            return w
        if v == w:
            return u
        raise ValueError(f"vertex {v!r} is not an endpoint of {e!r}")

    def incident(self, v: str) -> tuple[str, ...]:
        try:
            return self._incident[v]
        except KeyError:
            raise KeyError(f"unknown vertex id {v!r}") from None

    def degree(self, v: str) -> int:
        return len(self.incident(v))

    def parallel_class(self, e: str) -> tuple[str, ...]:
        """All edges sharing both endpoints with e (including e itself)."""
        pair = self.ends(e)
        return tuple(f for f in self._edge_ids if self._ends[f] == pair)

    def __eq__(self, other):
        return (
            isinstance(other, Multigraph)
            and self._vertices == other._vertices
            and self._ends == other._ends
        )

    def __hash__(self):
        return self._hash

    def __reduce__(self):
        # rebuilt from its arguments, so no string hash crosses a process
        return Multigraph, (self._vertices, self._ends)

    def __repr__(self):
        return f"Multigraph({len(self._vertices)} vertices, {len(self._edge_ids)} edges)"

    # -- connectivity ------------------------------------------------------

    def _components(self, skip_vertex=None):
        seen = set()
        comps = []
        for start in self._vertices:
            if start == skip_vertex or start in seen:
                continue
            comp = {start}
            stack = [start]
            while stack:
                x = stack.pop()
                for e in self._incident[x]:
                    y = self.other(e, x)
                    if y != skip_vertex and y not in comp:
                        comp.add(y)
                        stack.append(y)
            seen |= comp
            comps.append(comp)
        return comps

    def is_connected(self) -> bool:
        """Exactly one component (cached)."""
        if self._connected is None:
            self._connected = len(self._components()) == 1
        return self._connected

    def cut_vertices(self) -> frozenset[str]:
        """Vertices whose removal disconnects the remaining graph (cached)."""
        if self._cuts is None:
            if not self.is_connected():
                raise ValueError("graph must be connected")
            ix, vs = self._index, self._vertices
            pairs = [(ix[u], ix[v]) for u, v in self._ends.values()]
            self._cuts = frozenset(vs[i] for i in cut_points(len(vs), pairs))
        return self._cuts

    def is_two_connected(self) -> bool:
        """Connected with no cut vertices (so E_k and the single edge count)."""
        return self.is_connected() and not self.cut_vertices()

    def block_labels(self) -> dict[str, tuple[int, ...]]:
        """Edge -> a label shared by exactly the edges of its block.

        Two edges share a block iff no cut vertex separates them, i.e. iff
        for every cut vertex x some component of the graph minus x touches
        an end of both other than x.  One component pass per cut vertex:
        the label's entry for x numbers the component holding the edge's
        ends other than x (one or two ends, one component, since the graph
        is loopless).
        """
        labels = {e: [] for e in self._edge_ids}
        for x in sorted(self.cut_vertices()):
            side = {v: k for k, comp in enumerate(self._components(skip_vertex=x)) for v in comp}
            for e, (u, w) in self._ends.items():
                labels[e].append(side[w if u == x else u])
        return {e: tuple(label) for e, label in labels.items()}

    # -- minors ------------------------------------------------------------

    def delete(self, e: str) -> "Multigraph":
        """The graph without edge e.  May be disconnected; caller checks."""
        self.ends(e)
        return Multigraph(self._vertices, {f: p for f, p in self._ends.items() if f != e})

    def contract(self, e: str) -> "Multigraph":
        """Contract e, merging its endpoints into the smaller id.

        Edges parallel to e would become loops and are removed with it.
        """
        x, y = self.ends(e)  # x < y; merged vertex keeps id x
        pair = (x, y)
        new_edges = {}
        for f, (u, v) in self._ends.items():
            if (u, v) == pair:
                continue
            u2 = x if u == y else u
            v2 = x if v == y else v
            new_edges[f] = (u2, v2)
        return Multigraph((v for v in self._vertices if v != y), new_edges)

    # -- spanning trees ------------------------------------------------------

    def spanning_trees(self) -> list[frozenset[str]]:
        """All spanning trees, lexicographic on their sorted edge-id tuples.

        Enumerated once per graph; each call returns a fresh list.
        """
        if self._trees is None:
            self._trees = tuple(self._enumerate_trees())
        return list(self._trees)

    def _enumerate_trees(self) -> list[frozenset[str]]:
        """Backtracking over edges in id order, taking each edge before
        leaving it out; exhaustive and duplicate-free.  The branches left for
        later wait on an explicit stack, so the edge count is not bounded by
        the recursion limit."""
        if not self.is_connected():
            raise ValueError("graph must be connected")
        n = len(self._vertices)
        need = n - 1
        slack = len(self._edge_ids) - need  # edges each tree leaves out
        ix, ids = self._index, self._edge_ids
        epairs = [(ix[self._ends[e][0]], ix[self._ends[e][1]]) for e in ids]
        out = []
        chosen = []
        stack = [(0, 0, list(range(n)))]  # (next edge, edges taken, union-find parent)
        while stack:
            idx, k, parent = stack.pop()
            del chosen[k:]
            while k < need and idx - k <= slack:
                u, v = epairs[idx]
                ru, rv = find_root(parent, u), find_root(parent, v)
                if ru != rv:
                    if idx - k < slack:  # the edge can still be left out
                        stack.append((idx + 1, k, parent))
                    parent = parent.copy()
                    parent[ru] = rv
                    chosen.append(ids[idx])
                    k += 1
                idx += 1
            if k == need:
                out.append(frozenset(chosen))
        return out

    def is_spanning_tree(self, edge_set) -> bool:
        edge_set = frozenset(edge_set)
        n = len(self._vertices)
        if len(edge_set) != n - 1:
            return False
        ix = self._index
        parent = list(range(n))
        for e in edge_set:
            pair = self._ends.get(e)
            if pair is None:
                return False
            a, b = find_root(parent, ix[pair[0]]), find_root(parent, ix[pair[1]])
            if a == b:
                return False
            parent[a] = b
        return True

    # -- serialization -------------------------------------------------------

    def to_obj(self) -> dict:
        return {
            "vertices": list(self._vertices),
            "edges": [
                {"id": e, "ends": list(self._ends[e])} for e in self._edge_ids
            ],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_obj(), sort_keys=True)

    @classmethod
    def from_obj(cls, obj) -> "Multigraph":
        try:
            edges = {}
            for e in obj["edges"]:
                eid = e["id"]
                if type(eid) is not str:
                    raise ValueError(f"edge id {eid!r} is not a string")
                if eid in edges:
                    raise ValueError(f"duplicate edge id {eid!r}")
                edges[eid] = tuple(string_list(e["ends"], f"ends of edge {eid!r}", 2))
            return cls(string_list(obj["vertices"], "vertices"), edges)
        except (KeyError, TypeError) as exc:
            raise ValueError(f"malformed graph object: {exc}") from exc


def string_list(obj, what: str, length=None) -> list:
    """obj if it is a JSON list of strings, of the given length if any."""
    if not isinstance(obj, list) or any(type(x) is not str for x in obj):
        raise ValueError(f"{what} must be a list of strings")
    if length is not None and len(obj) != length:
        raise ValueError(f"{what} must hold {length} strings")
    return obj


def string_lists(obj, what: str, length=None) -> dict:
    """A JSON object whose values are string_list()s, with tuple values."""
    if not isinstance(obj, dict):
        raise ValueError(f"{what} must be an object")
    return {k: tuple(string_list(v, f"{what} of {k!r}", length)) for k, v in obj.items()}


def find_root(parent: list[int], i: int) -> int:
    """Union-find root of i, halving the path on the way up."""
    while parent[i] != i:
        parent[i] = parent[parent[i]]
        i = parent[i]
    return i


def cut_points(n: int, pairs):
    """The cut vertices, in increasing order, of the connected graph on
    0..n-1 with one (a, b) pair per edge: those whose removal leaves the
    other vertices in more than one union-find class."""
    for v in range(n):
        parent = list(range(n))
        parts = n - 1
        for a, b in pairs:
            if a != v and b != v:
                ra, rb = find_root(parent, a), find_root(parent, b)
                if ra != rb:
                    parent[ra] = rb
                    parts -= 1
        if parts > 1:
            yield v


def complete_graph(n: int) -> Multigraph:
    vs = [f"v{i}" for i in range(n)]
    edges = {}
    for i, j in combinations(range(n), 2):
        edges[f"e{i}_{j}"] = (vs[i], vs[j])
    return Multigraph(vs, edges)


def cycle_graph(k: int) -> Multigraph:
    """C_k; for k <= 2 this is the single or double edge on two vertices."""
    if k < 1:
        raise ValueError("need at least one edge")
    if k == 1:
        return Multigraph(["v0", "v1"], {"e0": ("v0", "v1")})
    if k == 2:
        return Multigraph(["v0", "v1"], {"e0": ("v0", "v1"), "e1": ("v0", "v1")})
    vs = [f"v{i}" for i in range(k)]
    return Multigraph(vs, {f"e{i}": (vs[i], vs[(i + 1) % k]) for i in range(k)})


def banana_graph(k: int) -> Multigraph:
    """E_k: two vertices joined by k parallel edges."""
    if k < 1:
        raise ValueError("need at least one edge")
    return Multigraph(["x", "y"], {f"e{i}": ("x", "y") for i in range(k)})
