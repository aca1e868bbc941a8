"""The one-shot commands: trees, group, genus, route, act, reduce, moves,
telescope and bby.

``cli.main`` imports this module only to run one of them, so a `verify`
sweep never compiles it.  Each command reads its files here and reports
malformed input as ``cli.InputError``.
"""

from __future__ import annotations

import json

from .cli import InputError, _open_out
from .multigraph import Multigraph


def _load_json(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc


def _load_graph(path) -> Multigraph:
    try:
        return Multigraph.from_obj(_load_json(path))
    except ValueError as exc:
        raise InputError(str(exc)) from exc


def _load_ribbon(path) -> RibbonGraph:
    from .ribbon import RibbonGraph

    try:
        rg = RibbonGraph.from_obj(_load_json(path))
    except ValueError as exc:
        raise InputError(str(exc)) from exc
    _require_connected(rg.graph)
    return rg


def _load_tree(path):
    obj = _load_json(path)
    if isinstance(obj, dict):
        obj = obj.get("edges")
    if not isinstance(obj, list) or not all(isinstance(e, str) for e in obj):
        raise InputError("tree file must be a list of edge ids")
    return frozenset(obj)


def _load_spanning_tree(path, g: Multigraph):
    tree = _load_tree(path)
    if not g.is_spanning_tree(tree):
        raise InputError(f"{sorted(tree)} is not a spanning tree of the graph")
    return tree


def _require_connected(g: Multigraph):
    if not g.is_connected():
        raise InputError("graph must be connected")


def _require_vertex(g: Multigraph, v, what):
    if v not in g.vertices:
        raise InputError(f"unknown {what} {v!r}")


def _load_divisor(path, g: Multigraph) -> Divisor:
    from .sandpile import Divisor

    obj = _load_json(path)
    if not isinstance(obj, dict) or not all(type(n) is int for n in obj.values()):
        raise InputError("divisor file must map vertex ids to integers")
    unknown = sorted(set(obj) - set(g.vertices))
    if unknown:
        raise InputError(f"divisor names vertices not in the graph: {unknown}")
    return Divisor(obj)


def _emit(obj):
    print(json.dumps(obj, sort_keys=True, indent=2))


def _dot_ribbon(rg: RibbonGraph) -> str:
    lines = ["graph {"]
    for v, seq in rg.rotation.items():
        lines.append(f'  "{v}";  // rotation: {" ".join(seq)}')
    for e in rg.graph.edges:
        u, w = rg.graph.ends(e)
        lines.append(f'  "{u}" -- "{w}" [label="{e}"];')
    lines.append("}")
    return "\n".join(lines)


def _dot_rotors(g: Multigraph, tree, s) -> str:
    from .rotor import tree_to_rotors

    lines = ["digraph {"]
    for v, e in sorted(tree_to_rotors(g, tree, s).items()):
        lines.append(f'  "{v}" -> "{g.other(e, v)}" [label="{e}"];')
    lines.append("}")
    return "\n".join(lines)


def cmd_trees(args):
    g = _load_graph(args.graph)
    _require_connected(g)
    _emit([sorted(t) for t in g.spanning_trees()])


def cmd_group(args):
    from . import sandpile

    g = _load_graph(args.graph)
    _require_connected(g)
    s = sandpile.group_structure(g)
    _emit({"invariant_factors": list(s.invariant_factors), "order": s.order})


def cmd_genus(args):
    rg = _load_ribbon(args.graph)
    if args.dot:
        print(_dot_ribbon(rg))
        return
    _emit(
        {
            "faces": len(rg.faces()),
            "genus": rg.euler_genus(),
            "plane": rg.is_plane(),
        }
    )


def cmd_route(args):
    from .rotor import route_chip

    rg = _load_ribbon(args.graph)
    _require_vertex(rg.graph, args.chip, "chip")
    _require_vertex(rg.graph, args.sink, "sink")
    tree = _load_spanning_tree(args.tree, rg.graph)
    out, steps = route_chip(rg, tree, args.chip, args.sink, trace=args.trace)
    if args.dot:
        print(_dot_rotors(rg.graph, out, args.sink))
        return
    result = {"tree": sorted(out)}
    if args.trace:
        result["trace"] = [
            {
                "step": st.step,
                "chip": st.chip,
                "rotatedVertex": st.rotated_vertex,
                "newRotor": st.new_rotor,
            }
            for st in steps
        ]
    _emit(result)


def cmd_act(args):
    from . import torsor

    rg = _load_ribbon(args.graph)
    if not rg.is_plane():
        raise InputError("act needs a plane ribbon graph")
    tree = _load_spanning_tree(args.tree, rg.graph)
    d = _load_divisor(args.divisor, rg.graph)
    if d.degree() != 0:
        raise InputError(f"act needs a degree-0 divisor, this one has degree {d.degree()}")
    action = torsor.TorsorAction(rg, args.variant)
    _emit({"tree": sorted(action.act(d, tree)), "variant": args.variant})


def cmd_reduce(args):
    from . import sandpile

    g = _load_graph(args.graph)
    _require_connected(g)
    d = _load_divisor(args.divisor, g)
    q = g.vertices[0] if args.sink is None else args.sink
    _require_vertex(g, q, "sink")
    _emit({"reduced": sandpile.reduce(g, d, q).to_dict(), "sink": q})


def cmd_moves(args):
    from . import moves

    # leaf-swap paths read no rotation, so they take a plain graph
    rg = None if args.leaf_swap else _load_ribbon(args.graph)
    g = _load_graph(args.graph) if rg is None else rg.graph
    if not g.is_two_connected():
        raise InputError("move paths need a 2-connected graph")
    t1 = _load_spanning_tree(args.src, g)
    t2 = _load_spanning_tree(args.dst, g)
    if rg is None:
        _emit({"trees": [sorted(t) for t in moves.leaf_swap_path(g, t1, t2)]})
        return
    seq = moves.source_turn_path(rg, t1, t2)
    _emit(
        {
            "moves": [
                {"c": mv.c, "s": mv.s, "removed": mv.removed, "added": mv.added}
                for mv in seq
            ],
            "trees": [sorted(t1)] + [sorted(mv.result) for mv in seq],
        }
    )


def cmd_telescope(args):
    from . import moves

    try:
        ks = [int(x) for x in args.ks.split(",")] if args.ks else [0]
    except ValueError as exc:
        raise InputError(f"--ks must be comma-separated integers: {exc}") from exc
    if args.n < 0 or len(ks) != args.n + 1 or min(ks) < 0:
        raise InputError("telescope needs --n >= 0 and --ks of n+1 nonnegative counts")
    rg, labels = moves.telescope(args.n, ks)
    obj = rg.to_obj()
    obj["labels"] = {
        "c": labels.c,
        "s": labels.s,
        "x": labels.x,
        "f": labels.f,
        "g": labels.g,
    }
    if args.out:
        with _open_out(args.out) as fh:
            json.dump(obj, fh, sort_keys=True, indent=2)
    else:
        _emit(obj)


def _load_matroid(args):
    from .matroid import RegularMatroid

    try:
        return RegularMatroid.from_obj(_load_json(args.matroid))
    except ValueError as exc:
        raise InputError(str(exc)) from exc


def _load_signatures(args, m):
    from .matroid import SignaturePair, check_acyclic_pair, default_signatures

    if not args.signatures:
        return default_signatures(m)
    obj = _load_json(args.signatures)
    try:
        pair = SignaturePair(
            tuple(tuple(v) for v in obj["circuits"]), tuple(tuple(v) for v in obj["cocircuits"])
        )
    except (KeyError, TypeError) as exc:
        raise InputError(f"malformed signature file: {exc}") from exc
    if any(type(x) is not int for v in pair.circuits + pair.cocircuits for x in v):
        raise InputError("signature entries must be integers")
    _check_signature_choice(pair.circuits, set(m.circuits()), "circuit")
    _check_signature_choice(pair.cocircuits, set(m.cocircuits()), "cocircuit")
    if not check_acyclic_pair(pair):
        raise InputError("provided signatures are not acyclic")
    return pair


def _check_signature_choice(chosen, family, kind):
    seen = set()
    for v in chosen:
        base = v if v in family else tuple(-x for x in v)
        if base not in family:
            raise InputError(f"{list(v)} is not a signed {kind} of this matroid")
        if base in seen:
            raise InputError(f"both orientations of a {kind} were chosen")
        seen.add(base)
    if len(seen) != len(family):
        raise InputError(f"signature must choose one orientation per {kind}")


def _parts(text, sep):
    """The parts of text between the separators, stripped, empty ones left out."""
    return [part.strip() for part in text.split(sep) if part.strip()]


def cmd_bby(args):
    from .matroid import bby_act, bby_vector

    m = _load_matroid(args)
    pair = _load_signatures(args, m)
    basis = frozenset(_parts(args.basis, ","))
    if basis not in m.bases():
        raise InputError(f"{sorted(basis)} is not a basis of the matroid")
    if args.action == "vector":
        _emit({"vector": list(bby_vector(m, pair, basis))})
        return
    vec = [0] * m.size
    for part in _parts(args.cls, "+"):
        if part not in m.labels:
            raise InputError(f"unknown ground element {part!r}")
        vec[m.labels.index(part)] += 1
    _emit({"basis": sorted(bby_act(m, pair, vec, basis))})
