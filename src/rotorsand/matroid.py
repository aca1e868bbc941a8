"""Regular oriented matroids, acyclic signatures, and the BBY torsor.

A regular matroid is carried by a totally unimodular integer matrix whose
columns are labeled by the ground set.  Pivoting on +-1 entries keeps the
matrix totally unimodular, so everything runs on -1/0/+1 ints: one walk
over the basis-exchange graph, from the standard form [I | D], visits every
basis, and each basis's tableau gives its fundamental circuits (kernel
vectors) and fundamental cocircuits (row-space vectors), which between them
are all the signed circuits and cocircuits.  The sandpile group is Z^E
modulo the direct sum of the circuit and cocircuit lattices, with canonical
coset representatives from a Hermite basis.

The BBY action tags each basis with the 0/1 vector of fundamental-circuit
and fundamental-cocircuit signs picked by a pair of acyclic signatures, and
acts by translation on the classes of those vectors.  Its three companions
negate every circuit, every cocircuit or both, which flips the tag bits
outside the basis, inside it or both (``BBY_VARIANTS``), so all four share
one pair and, in the consistency harness, one induced pair per minor.  Each
matroid numbers its classes once, with the class of each representative
plus each unit vector (``ColumnLattice.cosets``, the closure the sandpile
classes also use), so the harness reads every act off that table.
"""

from __future__ import annotations

import json
from collections import deque
from itertools import combinations, compress
from math import comb
from typing import NamedTuple

from .errors import InvariantViolation
from .intlinalg import ColumnLattice, det
from .multigraph import Multigraph, string_list, string_lists


# Square minors _is_totally_unimodular may evaluate; K6's incidence matrix
# (6 x 15) has 54,173, K7's (7 x 21) about 1.2 * 10^6.
TU_MINOR_LIMIT = 250_000


def _is_totally_unimodular(matrix) -> bool:
    rows = len(matrix)
    cols = len(matrix[0]) if rows else 0
    if any(abs(x) > 1 for row in matrix for x in row):
        return False
    minors = sum(comb(rows, k) * comb(cols, k) for k in range(2, min(rows, cols) + 1))
    if minors > TU_MINOR_LIMIT:
        raise ValueError(f"total unimodularity check needs {minors} minors, over {TU_MINOR_LIMIT}")
    for k in range(2, min(rows, cols) + 1):
        for ris in combinations(range(rows), k):
            for cis in combinations(range(cols), k):
                sub = [[matrix[i][j] for j in cis] for i in ris]
                if det(sub) not in (-1, 0, 1):
                    return False
    return True


def _pivot(rows, i, c) -> None:
    """Pivot the rows in place on the +-1 entry rows[i][c].

    Row i is scaled to 1 at c and subtracted from every other row nonzero at
    c.  On a totally unimodular matrix every entry stays in {-1, 0, 1}.
    """
    if rows[i][c] not in (1, -1):
        raise InvariantViolation("pivot entry is not +-1")
    rows[i] = pr = [rows[i][c] * x for x in rows[i]]
    for k, row in enumerate(rows):
        if k != i and row[c]:
            f = row[c]
            rows[k] = row = [a - f * b for a, b in zip(row, pr)]
            if any(x not in (-1, 0, 1) for x in row):
                raise InvariantViolation("pivoting left an entry outside -1/0/+1")


def _standard_form(matrix, n):
    """(rows, basis): the rows pivoted to [I | D] up to column order, zero
    rows dropped, with row k pivoted on column basis[k]."""
    rows = [list(row) for row in matrix]
    basis = []
    for c in range(n):
        r = len(basis)
        i = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if i is None:
            continue
        rows[r], rows[i] = rows[i], rows[r]
        _pivot(rows, r, c)
        basis.append(c)
    return rows[: len(basis)], basis


def _lead_positive(vec) -> tuple[int, ...]:
    lead = next(x for x in vec if x)
    return tuple(vec) if lead > 0 else _neg(vec)


class RegularMatroid:
    """A TU-represented oriented matroid over a labeled ground set."""

    def __init__(self, labels, matrix, check_unimodular: bool = True):
        self.labels = tuple(labels)
        if len(set(self.labels)) != len(self.labels):
            raise ValueError("duplicate ground set labels")
        self.matrix = tuple(tuple(row) for row in matrix)
        if any(type(x) is not int for row in self.matrix for x in row):
            raise ValueError("matrix entries must be integers")
        if any(len(row) != len(self.labels) for row in self.matrix):
            raise ValueError("matrix width must match the ground set")
        if check_unimodular and not _is_totally_unimodular(self.matrix):
            raise ValueError("representation matrix is not totally unimodular")
        self._standard = _standard_form(self.matrix, self.size)
        self.rank = len(self._standard[1])
        self._bases = None
        self._circuits = None
        self._cocircuits = None
        self._fundamental = None
        self._lattice = None
        self._classes = None
        self._minors = {}
        self._index = {e: i for i, e in enumerate(self.labels)}

    @property
    def size(self) -> int:
        return len(self.labels)

    def column(self, e):
        j = self._index[e]
        return [row[j] for row in self.matrix]

    def _walk(self) -> None:
        """Breadth-first search over the basis-exchange graph, from the
        standard form, pivoting on each nonzero tableau entry that leads to
        an unseen basis.  In the tableau of basis B, row k is the fundamental
        cocircuit of its pivot element, and column f, set to 1 at f and
        negated on B, the fundamental circuit of f; every circuit and every
        cocircuit is fundamental for some basis."""
        if self._bases is not None:
            return
        seen = {frozenset(self._standard[1])}
        queue = deque([self._standard])
        fundamental, circuits, cocircuits = {}, set(), set()
        while queue:
            rows, basis = queue.popleft()
            vectors = [None] * self.size
            for k, e in enumerate(basis):
                vectors[e] = _lead_positive(rows[k])
                cocircuits.add(vectors[e])
            for f in range(self.size):
                if f in basis:
                    continue
                vec = [0] * self.size
                vec[f] = 1
                for k, row in enumerate(rows):
                    if row[f]:
                        vec[basis[k]] = -row[f]
                        nxt = basis[:k] + [f] + basis[k + 1 :]
                        if frozenset(nxt) not in seen:
                            seen.add(frozenset(nxt))
                            pivoted = list(rows)  # _pivot replaces rows, never edits one
                            _pivot(pivoted, k, f)
                            queue.append((pivoted, nxt))
                vectors[f] = _lead_positive(vec)
                circuits.add(vectors[f])
            fundamental[tuple(sorted(basis))] = tuple(vectors)
        # sorted index tuples are the order combinations() yields r-subsets in
        self._fundamental = {
            frozenset(self.labels[j] for j in key): fundamental[key] for key in sorted(fundamental)
        }
        self._bases = tuple(self._fundamental)
        self._circuits = tuple(sorted(circuits))
        self._cocircuits = tuple(sorted(cocircuits))

    def bases(self) -> tuple[frozenset, ...]:
        self._walk()
        return self._bases

    def is_loop(self, e) -> bool:
        return all(x == 0 for x in self.column(e))

    def is_coloop(self, e) -> bool:
        return all(e in b for b in self.bases())

    # -- signed circuits and cocircuits ------------------------------------

    def circuits(self) -> tuple[tuple[int, ...], ...]:
        """One signed vector per circuit, sign chosen so the minimal-label
        nonzero entry is positive; the antipode is its negation."""
        self._walk()
        return self._circuits

    def cocircuits(self) -> tuple[tuple[int, ...], ...]:
        self._walk()
        return self._cocircuits

    def fundamental_vectors(self, basis) -> tuple[tuple[int, ...], ...]:
        """Per element of the ground set: its fundamental cocircuit if it is
        in the basis, else its fundamental circuit, signed as in circuits()."""
        self._walk()
        try:
            return self._fundamental[frozenset(basis)]
        except KeyError:
            raise ValueError("not a basis") from None

    # -- the sandpile group -------------------------------------------------

    def lattice(self) -> ColumnLattice:
        """Circuit lattice plus cocircuit lattice inside Z^E."""
        if self._lattice is None:
            cols = [list(v) for v in self.circuits()] + [
                list(v) for v in self.cocircuits()
            ]
            lat = ColumnLattice(self.size, cols)
            if lat.lattice_rank != self.size:
                raise InvariantViolation("circuit + cocircuit lattice is not full rank")
            self._lattice = lat
        return self._lattice

    def class_of(self, vector) -> tuple[int, ...]:
        """Canonical coset representative of an integer vector mod the lattice."""
        if len(vector) != self.size:
            raise ValueError("vector length must match the ground set")
        return self.lattice().reduce([int(x) for x in vector])

    def group_order(self) -> int:
        return self.lattice().index_in_ambient()

    def class_table(self) -> tuple[dict, tuple[tuple[int, ...], ...]]:
        """The lattice's ``cosets()`` closure, built once per matroid: (index,
        succ), with succ[i][j] the number of class_of(rep_i + e_j)."""
        if self._classes is None:
            self._classes = self.lattice().cosets()
        return self._classes

    # -- single-element minors ----------------------------------------------

    def minor_matroid(self, e, op: str) -> "RegularMatroid":
        """M \\ e (op 'delete') or M / e (op 'contract'), built once per (e, op)."""
        if op not in ("delete", "contract"):
            raise ValueError("op must be 'delete' or 'contract'")
        if e not in self._index:
            raise KeyError(f"unknown ground element {e!r}")
        if (e, op) not in self._minors:
            j = self._index[e]
            if op == "delete":
                if self.is_coloop(e):
                    raise ValueError("cannot delete a coloop")
                rows = list(self.matrix)
            else:
                if self.is_loop(e):
                    raise ValueError("cannot contract a loop")
                rows = [list(row) for row in self.matrix]
                pivot = next(i for i in range(len(rows)) if rows[i][j] != 0)
                _pivot(rows, pivot, j)
                rows.pop(pivot)
            matrix = [row[:j] + row[j + 1 :] for row in rows]
            labels = self.labels[:j] + self.labels[j + 1 :]
            self._minors[e, op] = RegularMatroid(labels, matrix, check_unimodular=False)
        return self._minors[e, op]

    def to_obj(self) -> dict:
        return {"labels": list(self.labels), "matrix": [list(r) for r in self.matrix]}

    def to_json(self) -> str:
        return json.dumps(self.to_obj(), sort_keys=True)

    @classmethod
    def from_obj(cls, obj) -> "RegularMatroid":
        try:
            if "graph" in obj:
                g = Multigraph.from_obj(obj["graph"])
                orientation = string_lists(obj.get("orientation", {}), "orientation", 2)
                if not orientation:
                    orientation = default_orientation(g)
                return from_graph(g, orientation)
            return cls(string_list(obj["labels"], "labels"), obj["matrix"])
        except (KeyError, TypeError) as exc:
            raise ValueError(f"malformed matroid object: {exc}") from exc


def default_orientation(g: Multigraph) -> dict:
    return {e: g.ends(e) for e in g.edges}


def from_graph(g: Multigraph, orientation=None) -> RegularMatroid:
    """The cycle matroid of a connected graph via its signed incidence matrix."""
    if not g.is_connected():
        raise ValueError("graph must be connected")
    if orientation is None:
        orientation = default_orientation(g)
    unknown = sorted(set(orientation) - set(g.edges))
    if unknown:
        raise ValueError(f"orientation names edges not in the graph: {unknown}")
    vs = g.vertices
    vi = {v: i for i, v in enumerate(vs)}
    matrix = [[0] * len(g.edges) for _ in vs]
    for j, e in enumerate(g.edges):
        tail, head = orientation[e]
        if {tail, head} != set(g.ends(e)):
            raise ValueError(f"orientation of {e!r} does not match its endpoints")
        matrix[vi[tail]][j] -= 1
        matrix[vi[head]][j] += 1
    return RegularMatroid(g.edges, matrix, check_unimodular=False)


# -- signatures -----------------------------------------------------------


class SignaturePair(NamedTuple):
    """A chosen orientation for every circuit and every cocircuit."""

    circuits: tuple[tuple[int, ...], ...]
    cocircuits: tuple[tuple[int, ...], ...]

    def to_obj(self) -> dict:
        return {
            "circuits": [list(v) for v in self.circuits],
            "cocircuits": [list(v) for v in self.cocircuits],
        }


def _neg(v):
    return tuple(-x for x in v)


def default_signatures(m: RegularMatroid) -> SignaturePair:
    """Minimal-label-positive rule: always an acyclic pair."""
    return SignaturePair(m.circuits(), m.cocircuits())


def check_acyclic(vectors) -> bool:
    """No nonnegative, nonzero combination of the vectors sums to zero."""
    from .lp import separating_functional  # the sweep never asks; kept off its start-up

    ok, _cert = separating_functional([list(v) for v in vectors])
    return ok


def check_acyclic_pair(pair: SignaturePair) -> bool:
    return check_acyclic(pair.circuits) and check_acyclic(pair.cocircuits)


# -- the BBY action ---------------------------------------------------------


def _oriented(pair_vectors, base_vector):
    """The signature's choice between base_vector and its negation."""
    if base_vector in pair_vectors:
        return base_vector
    neg = _neg(base_vector)
    if neg in pair_vectors:
        return neg
    raise InvariantViolation("signature misses a circuit or cocircuit")


def bby_vector(m: RegularMatroid, pair: SignaturePair, basis: frozenset) -> tuple[int, ...]:
    """0/1 tag of a basis: fundamental signs under the chosen signatures."""
    out = []
    for j, vec in enumerate(m.fundamental_vectors(basis)):
        chosen = _oriented(pair.cocircuits if m.labels[j] in basis else pair.circuits, vec)
        out.append(1 if chosen[j] > 0 else 0)
    return tuple(out)


# variant -> (negate every circuit, negate every cocircuit) of the pair
BBY_VARIANTS = {
    "bby": (False, False),
    "bby_flip_circuits": (True, False),
    "bby_flip_both": (True, True),
    "bby_flip_cocircuits": (False, True),
}


def bby_table(m: RegularMatroid, pair: SignaturePair, variant: str = "bby") -> dict:
    """class representative -> basis; a bijection by the torsor theorem.

    The variant's tags are the pair's with the bits outside the basis
    (negated circuits), inside it (negated cocircuits) or both flipped: each
    bit is the sign of one fundamental vector's own entry.
    """
    flips = BBY_VARIANTS[variant]  # indexed by membership in the basis
    table = {}
    lookup = SignaturePair(frozenset(pair.circuits), frozenset(pair.cocircuits))  # O(1) _oriented
    for b in m.bases():
        tag = bby_vector(m, lookup, b)
        key = m.class_of([x ^ flips[e in b] for e, x in zip(m.labels, tag)])
        if key in table:
            raise InvariantViolation("two bases share a class")
        table[key] = b
    if len(table) != m.group_order():
        raise InvariantViolation("basis tags do not exhaust the group")
    return table


def bby_action(m: RegularMatroid, pair: SignaturePair, variant: str = "bby"):
    """act(j, b): the basis that the class of the j-th unit vector sends b to
    under the variant.

    One bby_table, with its checks, per call; each act is then a lookup in
    the matroid's class table, with no reduction.
    """
    index, succ = m.class_table()
    at, basis_at = {}, [None] * len(succ)
    for key, b in bby_table(m, pair, variant).items():
        at[b] = i = index[key]
        basis_at[i] = b

    def act(j, b):
        return basis_at[succ[at[b]][j]]

    return act


def bby_act(m: RegularMatroid, pair: SignaturePair, vector, basis: frozenset) -> frozenset:
    """Translate the basis tag by the vector and return the tagged basis."""
    table = bby_table(m, pair)
    shifted = [a + b for a, b in zip(bby_vector(m, pair, basis), vector)]
    key = m.class_of(shifted)
    if key not in table:
        raise InvariantViolation("translated class has no basis")
    return table[key]


# -- minors -------------------------------------------------------------------


def minor(m: RegularMatroid, pair: SignaturePair, e, op: str):
    """Delete or contract e, with the induced signatures on the minor.

    Deletion keeps circuits avoiding e and restricts cocircuit choices to
    the minimal surviving supports; contraction is dual.  The induced pair
    of an acyclic pair stays acyclic, which callers may re-check.  The minor
    matroid is m's cached one; only the induced pair depends on the pair.
    """
    sub = m.minor_matroid(e, op)
    induced = SignaturePair(
        _induced_signature(m, pair.circuits, e, sub.circuits(), keep=(op == "delete")),
        _induced_signature(m, pair.cocircuits, e, sub.cocircuits(), keep=(op == "contract")),
    )
    return sub, induced


def _induced_signature(m, chosen, e, minor_family, keep: bool):
    """Restrict chosen signed vectors to the minor's ground set.

    keep=True: survivors are exactly the chosen vectors avoiding e.
    keep=False: drop the e coordinate and keep choices whose support is
    minimal, i.e. still in the minor's family.  Every minor circuit or
    cocircuit must be reached with an unambiguous sign.
    """
    j = m._index[e]
    targets = {_support(v) for v in minor_family}  # never the empty support
    out = {}
    for v in chosen:
        if keep and v[j] != 0:
            continue
        w = v[:j] + v[j + 1 :]
        supp = _support(w)
        if supp in targets and out.setdefault(supp, w) != w:
            raise InvariantViolation("conflicting induced signs on a minor")
    if set(out) != targets:
        raise InvariantViolation("induced signature misses part of the minor")
    return tuple(sorted(out.values()))


def _support(v):
    return tuple(compress(range(len(v)), v))


# -- consistency harness ---------------------------------------------------


def verify_matroid_consistency(
    m: RegularMatroid,
    pair: SignaturePair,
    variant_tag: str = "bby",
) -> dict:
    """Check minor compatibility of the BBY action over one matroid.

    For every generator class [f] and basis B with B' the acted basis:
    contracting any shared e (not f) must commute, and so must deleting any
    e outside B, B' and f.  Findings are reported, never raised.  The
    minor matroids and class tables are cached on m, so calls for the other
    variants rebuild neither.
    """
    return _consistency_reports(m, pair, (variant_tag,))[0]


def _consistency_reports(m: RegularMatroid, pair: SignaturePair, tags) -> list[dict]:
    """verify_matroid_consistency's report for each variant, from one pass.

    Each (e, op) minor and its induced pair are built from the base pair
    once, on first use, and serve every variant: the induced pair of a
    negated family is the negated induced pair, so a variant's minor table
    is the base induced pair's under the same flips.
    """
    reports = [{"checked": 0, "violations": [], "variant": tag} for tag in tags]
    tops = [bby_action(m, pair, tag) for tag in tags]
    minors, acts = {}, {}

    def minor_action(e, op, tag):
        if (e, op) not in minors:
            minors[e, op] = minor(m, pair, e, op)
        if (e, op, tag) not in acts:
            acts[e, op, tag] = bby_action(*minors[e, op], tag)
        return minors[e, op][0], acts[e, op, tag]

    for j, f in enumerate(m.labels):
        for b in m.bases():
            for report, act_top in zip(reports, tops):
                b2 = act_top(j, b)
                for e in m.labels:
                    if e != f and e in b and e in b2:
                        condition, op, start, expected = 1, "contract", b - {e}, b2 - {e}
                    elif e != f and e not in b and e not in b2:
                        condition, op, start, expected = 2, "delete", b, b2
                    else:
                        continue
                    sub, act_sub = minor_action(e, op, report["variant"])
                    got = act_sub(sub._index[f], start)
                    report["checked"] += 1
                    if got != expected:
                        report["violations"].append(
                            {
                                "condition": condition,
                                "f": f,
                                "basis": sorted(b),
                                "element": e,
                                "expected": sorted(expected),
                                "actual": sorted(got),
                            }
                        )
    return reports


def conjecture_search(max_graph_edges: int, include_r10: bool = False) -> dict:
    """Sweep small matroids through the consistency harness of every variant.

    Graphic matroids come from all connected multigraphs within the edge
    bound, with default signatures; the ten-element non-graphic matroid
    joins when asked.  Any violation would be a counterexample to the
    consistency conjectures and is preserved verbatim; the caller decides
    what to make of it.
    """
    from .catalog import connected_multigraphs

    def cases():
        for g in connected_multigraphs(max_graph_edges):
            m = from_graph(g)
            yield m, m.to_obj(), BBY_VARIANTS
        if include_r10:
            yield r10(), "r10", ("bby",)

    report = {"instances": 0, "checked": 0, "findings": []}
    for m, name, tags in cases():
        for rep in _consistency_reports(m, default_signatures(m), tags):
            report["instances"] += 1
            report["checked"] += rep["checked"]
            for v in rep["violations"]:
                report["findings"].append({"matroid": name, "variant": rep["variant"], "detail": v})
    return report


def r10() -> RegularMatroid:
    """The classical ten-element regular matroid that is not graphic."""
    ident = [[int(i == j) for j in range(5)] for i in range(5)]
    circ = [
        [-1, 1, 0, 0, 1],
        [1, -1, 1, 0, 0],
        [0, 1, -1, 1, 0],
        [0, 0, 1, -1, 1],
        [1, 0, 0, 1, -1],
    ]
    matrix = [ident[i] + circ[i] for i in range(5)]
    return RegularMatroid([f"e{i}" for i in range(1, 11)], matrix)
