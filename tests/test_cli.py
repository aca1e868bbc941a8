import hashlib
import json
import os
import subprocess
import sys

import pytest

from rotorsand import cli
from rotorsand.cli import main


@pytest.fixture
def files(tmp_path):
    g = {
        "vertices": ["a", "b", "c", "s"],
        "edges": [
            {"id": "sa", "ends": ["s", "a"]},
            {"id": "ab", "ends": ["a", "b"]},
            {"id": "ac", "ends": ["a", "c"]},
            {"id": "bc", "ends": ["b", "c"]},
            {"id": "cs", "ends": ["c", "s"]},
        ],
        "rotation": {
            "a": ["ab", "ac", "sa"],
            "b": ["bc", "ab"],
            "c": ["cs", "ac", "bc"],
            "s": ["cs", "sa"],
        },
    }
    paths = {}
    for name, obj in [
        ("graph", g),
        ("tree", ["ac", "bc", "cs"]),
        ("divisor", {"c": 1, "s": -1}),
        (
            "matroid",
            {
                "labels": ["e1", "e2", "e3", "e4", "e5"],
                "matrix": [
                    [-1, 0, 0, -1, -1],
                    [1, -1, 0, 0, 0],
                    [0, 1, -1, 0, 1],
                    [0, 0, 1, 1, 0],
                ],
            },
        ),
    ]:
        p = tmp_path / f"{name}.json"
        p.write_text(json.dumps(obj))
        paths[name] = str(p)
    return paths


def run(capsys, argv):
    rc = main(argv)
    out = capsys.readouterr().out
    return rc, out


def test_group_command(files, capsys):
    rc, out = run(capsys, ["group", files["graph"]])
    assert rc == 0
    assert json.loads(out)["order"] == 8


def test_route_command_reproduces_drawn_run(files, capsys):
    rc, out = run(
        capsys,
        ["route", "--graph", files["graph"], "--tree", files["tree"], "--chip", "c", "--sink", "s", "--trace"],
    )
    assert rc == 0
    got = json.loads(out)
    assert got["tree"] == ["ac", "bc", "sa"]
    assert [st["newRotor"] for st in got["trace"]] == ["ac", "sa"]


def test_act_command(files, capsys):
    rc, out = run(
        capsys,
        ["act", "--graph", files["graph"], "--tree", files["tree"], "--divisor", files["divisor"]],
    )
    assert rc == 0
    assert json.loads(out)["tree"] == ["ac", "bc", "sa"]


def test_genus_and_dot(files, capsys):
    rc, out = run(capsys, ["genus", files["graph"]])
    assert rc == 0 and json.loads(out)["plane"] is True
    rc, out = run(capsys, ["genus", files["graph"], "--dot"])
    assert rc == 0 and out.startswith("graph {")


def test_moves_command(files, tmp_path, capsys):
    goal = tmp_path / "goal.json"
    goal.write_text(json.dumps(["ab", "bc", "cs"]))
    rc, out = run(
        capsys,
        ["moves", "path", "--graph", files["graph"], "--from", files["tree"], "--to", str(goal)],
    )
    assert rc == 0
    seq = json.loads(out)
    assert seq["trees"][0] == ["ac", "bc", "cs"]
    assert seq["trees"][-1] == ["ab", "bc", "cs"]


def test_matroid_graph_form_and_signature_file(files, tmp_path, capsys):
    graph_form = tmp_path / "gm.json"
    graph_form.write_text(
        json.dumps(
            {
                "graph": {
                    "vertices": ["a", "b", "c"],
                    "edges": [
                        {"id": "e1", "ends": ["a", "b"]},
                        {"id": "e2", "ends": ["b", "c"]},
                        {"id": "e3", "ends": ["a", "c"]},
                    ],
                },
                "orientation": {"e1": ["a", "b"], "e2": ["b", "c"], "e3": ["a", "c"]},
            }
        )
    )
    rc, out = run(capsys, ["bby", "vector", "--matroid", str(graph_form), "--basis", "e1,e2"])
    assert rc == 0 and len(json.loads(out)["vector"]) == 3

    sig = tmp_path / "sig.json"
    sig.write_text(
        json.dumps(
            {
                "circuits": [[-1, -1, 1]],
                "cocircuits": [[1, 0, 1], [1, -1, 0], [0, 1, 1]],
            }
        )
    )
    rc, out = run(
        capsys,
        ["bby", "vector", "--matroid", str(graph_form), "--signatures", str(sig), "--basis", "e1,e2"],
    )
    assert rc == 0

    bad_sig = tmp_path / "bad.json"
    bad_sig.write_text(
        json.dumps(
            {
                "circuits": [[1, 1, -1], [-1, -1, 1]],
                "cocircuits": [[1, 0, 1], [1, -1, 0], [0, 1, 1]],
            }
        )
    )
    rc = main(
        ["bby", "vector", "--matroid", str(graph_form), "--signatures", str(bad_sig), "--basis", "e1,e2"]
    )
    capsys.readouterr()
    assert rc == 2


def test_bby_commands(files, capsys):
    rc, out = run(
        capsys,
        ["bby", "vector", "--matroid", files["matroid"], "--basis", "e2,e3,e5"],
    )
    assert rc == 0
    assert json.loads(out)["vector"] == [1, 0, 1, 0, 1]
    rc, out = run(
        capsys,
        ["bby", "act", "--matroid", files["matroid"], "--class", "e3", "--basis", "e2,e3,e5"],
    )
    assert rc == 0
    assert json.loads(out)["basis"] == ["e1", "e3", "e4"]


def test_exit_code_on_bad_input(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    rc = main(["group", str(bad)])
    assert rc == 2
    missing_edge = tmp_path / "graph.json"
    missing_edge.write_text(json.dumps({"vertices": ["a"], "edges": []}))
    rc = main(["trees", str(missing_edge)])
    assert rc == 0  # single vertex: one empty tree


def test_exit_code_unknown_vertex(files):
    assert (
        main(["route", "--graph", files["graph"], "--tree", files["tree"], "--chip", "zz", "--sink", "s"])
        == 2
    )


def test_verify_report_deterministic(tmp_path, capsys):
    out1 = tmp_path / "r1.json"
    out2 = tmp_path / "r2.json"
    rc1 = main(["verify", "torsor", "--max-edges", "3", "--seed", "7", "--report", str(out1)])
    capsys.readouterr()
    rc2 = main(["verify", "torsor", "--max-edges", "3", "--seed", "7", "--report", str(out2)])
    capsys.readouterr()
    assert rc1 == rc2 == 0
    r1 = json.loads(out1.read_text())
    r2 = json.loads(out2.read_text())
    r1.pop("wall_time_s")
    r2.pop("wall_time_s")
    assert r1 == r2
    assert r1["schema"] == "rotorsand-report-v1"


def test_verify_sink_invariance_flags_nonplanar(tmp_path, capsys):
    report = tmp_path / "r.json"
    rc = main(
        ["verify", "sink-invariance", "--max-edges", "3", "--include-nonplanar", "--report", str(report)]
    )
    capsys.readouterr()
    assert rc == 0
    rep = json.loads(report.read_text())
    assert rep["violations"] == []
    assert rep["findings"], "the twisted triple edge must be flagged"


def test_verify_matroid_emits_findings_report(tmp_path, capsys):
    report = tmp_path / "m.json"
    rc = main(
        ["verify", "matroid", "--max-edges", "3", "--max-elements", "3", "--report", str(report)]
    )
    capsys.readouterr()
    assert rc == 0
    rep = json.loads(report.read_text())
    assert rep["schema"] == "rotorsand-report-v1"
    assert rep["checked"] > 0
    assert isinstance(rep["findings"], list)


def test_unwritable_report_fails_before_the_sweep(tmp_path, capsys, monkeypatch):
    # the report path is opened before any instance is checked
    def no_sweep(*args, **kwargs):
        raise AssertionError("the sweep ran")

    monkeypatch.setattr(cli, "sweep", no_sweep)
    path = tmp_path / "missing" / "r.json"
    rc = main(["verify", "torsor", "--max-edges", "3", "--report", str(path)])
    out = capsys.readouterr()
    assert rc == 2
    assert out.out == "" and "input error" in out.err and "r.json" in out.err


@pytest.mark.parametrize(
    "argv",
    [
        ["sink-invariance", "--variant", "rbar"],
        ["moves", "--variant", "rinv"],
        ["torsor", "--include-nonplanar"],
        ["consistency", "--max-elements", "10"],
    ],
    ids=["variant-sink-invariance", "variant-moves", "nonplanar-torsor", "max-elements-consistency"],
)
def test_verify_rejects_options_its_suite_ignores(capsys, argv):
    # a report must not echo an option that changed nothing
    rc = main(["verify", *argv, "--max-edges", "2"])
    out = capsys.readouterr()
    assert rc == 2
    assert out.out == "" and "does nothing" in out.err


@pytest.mark.parametrize(
    "suite,max_edges",
    [("consistency", "3"), ("moves", "4"), ("unicycle", "4")],
    ids=["consistency", "moves", "unicycle"],
)
def test_workers_option_matches_serial(tmp_path, capsys, suite, max_edges):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    argv = ["verify", suite, "--max-edges", max_edges, "--seed", "1"]
    main([*argv, "--report", str(a)])
    capsys.readouterr()
    main([*argv, "--workers", "2", "--report", str(b)])
    capsys.readouterr()
    ra, rb = json.loads(a.read_text()), json.loads(b.read_text())
    for r in (ra, rb):
        r.pop("wall_time_s")
        r["config"].pop("workers")
    assert ra == rb


def _write(tmp_path, name, obj):
    p = tmp_path / f"{name}.json"
    p.write_text(json.dumps(obj))
    return str(p)


def test_duplicate_edge_ids_are_rejected(tmp_path, capsys):
    path = _write(
        tmp_path,
        "dup",
        {
            "vertices": ["a", "b"],
            "edges": [{"id": "x", "ends": ["a", "b"]}, {"id": "x", "ends": ["a", "b"]}],
        },
    )
    for cmd in ("trees", "group"):
        assert main([cmd, path]) == 2
        assert capsys.readouterr().out == ""


@pytest.fixture
def triangle_files(tmp_path):
    return {
        "graph": _write(
            tmp_path,
            "triangle",
            {
                "vertices": ["a", "b", "c"],
                "edges": [
                    {"id": "ab", "ends": ["a", "b"]},
                    {"id": "bc", "ends": ["b", "c"]},
                    {"id": "ac", "ends": ["a", "c"]},
                ],
                "rotation": {"a": ["ab", "ac"], "b": ["bc", "ab"], "c": ["ac", "bc"]},
            },
        ),
        "tree": _write(tmp_path, "tree", ["ab", "bc"]),
    }


@pytest.mark.parametrize(
    "divisor",
    [{"zz": 1, "a": -1}, {"b": True, "a": -1}, {"b": 1.0, "a": -1}],
    ids=["unknown-vertex", "bool-count", "float-count"],
)
def test_bad_divisors_are_rejected(triangle_files, tmp_path, capsys, divisor):
    dpath = _write(tmp_path, "divisor", divisor)
    g = triangle_files["graph"]
    assert main(["reduce", "--graph", g, "--divisor", dpath]) == 2
    assert main(["act", "--graph", g, "--tree", triangle_files["tree"], "--divisor", dpath]) == 2
    assert capsys.readouterr().out == ""


def test_tree_entries_must_be_edge_ids(triangle_files, tmp_path, capsys):
    tree = _write(tmp_path, "nested", [["ab"], "bc"])
    divisor = _write(tmp_path, "divisor", {"b": 1, "a": -1})
    argv = ["act", "--graph", triangle_files["graph"], "--tree", tree, "--divisor", divisor]
    assert main(argv) == 2
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("entry", [1.5, True], ids=["float", "bool"])
def test_matroid_entries_must_be_integers(tmp_path, capsys, entry):
    path = _write(tmp_path, "m", {"labels": ["a", "b"], "matrix": [[entry, 1]]})
    assert main(["bby", "vector", "--matroid", path, "--basis", "a"]) == 2
    assert capsys.readouterr().out == ""


TRIANGLE_MATROID = {
    "graph": {
        "vertices": ["a", "b", "c"],
        "edges": [
            {"id": "e1", "ends": ["a", "b"]},
            {"id": "e2", "ends": ["b", "c"]},
            {"id": "e3", "ends": ["a", "c"]},
        ],
    },
}


@pytest.mark.parametrize(
    "matroid",
    [
        {"labels": ["a", "b"], "matrix": 5},
        {**TRIANGLE_MATROID, "orientation": {"e1": 5}},
        {
            **TRIANGLE_MATROID,
            "orientation": {"e1": ["a", "b"], "e2": ["b", "c"], "e3": ["a", "c"], "zz": ["x", "y"]},
        },
        {**TRIANGLE_MATROID, "orientation": {"e1": "ab", "e2": "bc", "e3": "ac"}},
        {**TRIANGLE_MATROID, "orientation": [["a", "b"], ["b", "c"], ["a", "c"]]},
    ],
    ids=[
        "matrix-not-rows",
        "orientation-not-pair",
        "orientation-unknown-edge",
        "orientation-strings",
        "orientation-not-object",
    ],
)
def test_malformed_matroid_is_input_error(tmp_path, capsys, matroid):
    path = _write(tmp_path, "m", matroid)
    assert main(["bby", "vector", "--matroid", path, "--basis", "e1,e2"]) == 2
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize(
    "signatures",
    [
        {"circuits": [[-1.5, -1, 1]], "cocircuits": [[1, 0, 1], [1, -1, 0], [0, 1, 1]]},
        {"circuits": [[-1, -1, 1]], "cocircuits": [[1, 0, 1], [1, -1, 0], [0, 1, True]]},
    ],
    ids=["float", "bool"],
)
def test_signature_entries_must_be_integers(tmp_path, capsys, signatures):
    matroid = _write(tmp_path, "m", TRIANGLE_MATROID)
    sig = _write(tmp_path, "sig", signatures)
    argv = ["bby", "vector", "--matroid", matroid, "--signatures", sig, "--basis", "e1,e2"]
    assert main(argv) == 2
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("labels", ["abc", ["a", 1, "c"]], ids=["string", "entry-not-string"])
def test_matroid_labels_must_be_strings(tmp_path, capsys, labels):
    path = _write(tmp_path, "m", {"labels": labels, "matrix": [[1, 0, 1], [0, 1, 1]]})
    assert main(["bby", "vector", "--matroid", path, "--basis", "a,b"]) == 2
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize(
    "graph",
    [
        {"vertices": "ab", "edges": [{"id": "e1", "ends": ["a", "b"]}]},
        {"vertices": ["a", "b"], "edges": [{"id": "e1", "ends": "ab"}]},
        {"vertices": ["a", "b"], "edges": [{"id": 1, "ends": ["a", "b"]}]},
    ],
    ids=["vertices-string", "ends-string", "id-not-string"],
)
def test_graph_fields_must_be_strings(tmp_path, capsys, graph):
    path = _write(tmp_path, "g", graph)
    for cmd in ("trees", "group"):
        assert main([cmd, path]) == 2
        assert capsys.readouterr().out == ""


@pytest.mark.parametrize(
    "rotation",
    [{"a": "xz", "b": "yx", "c": "zy"}, [["x", "z"], ["y", "x"], ["z", "y"]]],
    ids=["strings", "not-object"],
)
def test_rotation_must_map_vertices_to_lists(tmp_path, capsys, rotation):
    ribbon = {
        "vertices": ["a", "b", "c"],
        "edges": [
            {"id": "x", "ends": ["a", "b"]},
            {"id": "y", "ends": ["b", "c"]},
            {"id": "z", "ends": ["a", "c"]},
        ],
        "rotation": rotation,
    }
    assert main(["genus", _write(tmp_path, "r", ribbon)]) == 2
    assert capsys.readouterr().out == ""


def test_reduce_rejects_disconnected_graph(tmp_path, capsys):
    graph = {
        "vertices": ["a", "b", "c", "d"],
        "edges": [{"id": "ab", "ends": ["a", "b"]}, {"id": "cd", "ends": ["c", "d"]}],
    }
    argv = ["reduce", "--graph", _write(tmp_path, "g", graph)]
    assert main([*argv, "--divisor", _write(tmp_path, "d", {"b": 1, "a": -1})]) == 2
    out = capsys.readouterr()
    assert out.out == "" and "connected" in out.err


def test_good_divisor_still_reduces(triangle_files, tmp_path, capsys):
    dpath = _write(tmp_path, "divisor", {"b": 1, "a": -1})
    rc, out = run(capsys, ["reduce", "--graph", triangle_files["graph"], "--divisor", dpath])
    assert rc == 0
    assert json.loads(out) == {"reduced": {"a": -1, "b": 1}, "sink": "a"}


def test_unknown_reduce_sink_is_input_error(triangle_files, tmp_path, capsys):
    dpath = _write(tmp_path, "divisor", {"a": 1, "b": 0})
    argv = ["reduce", "--graph", triangle_files["graph"], "--divisor", dpath, "--sink", "zz"]
    assert main(argv) == 2
    out = capsys.readouterr()
    assert out.out == "" and "zz" in out.err


def test_empty_reduce_sink_is_input_error(triangle_files, tmp_path, capsys):
    # an empty id names no vertex; it does not fall back to the first one
    dpath = _write(tmp_path, "divisor", {"a": 1, "b": -1})
    argv = ["reduce", "--graph", triangle_files["graph"], "--divisor", dpath, "--sink", ""]
    assert main(argv) == 2
    out = capsys.readouterr()
    assert out.out == "" and "unknown sink ''" in out.err


# Verdicts of the sweeps at small sizes; a refactor that changes what a suite
# covers changes these counts.
VERIFY_VERDICTS = [
    (["torsor", "--max-edges", "4"], 22, 682, 0, 0),
    (["consistency", "--max-edges", "4"], 22, 872, 0, 0),
    (["sink-invariance", "--max-edges", "4"], 22, 311, 0, 0),
    (["moves", "--max-edges", "5"], 13, 712, 0, 0),
    (["unicycle", "--max-edges", "5"], 116, 423, 0, 0),
    (["unicycle", "--max-edges", "6"], 703, 4041, 0, 0),
    (["telescope"], 39, 39, 0, 0),
    (["matroid", "--max-edges", "3"], 32, 136, 0, 0),
    # off the plane, sink dependence is expected and reported as findings
    (["sink-invariance", "--max-edges", "4", "--include-nonplanar"], 28, 452, 6, 76),
]


@pytest.mark.parametrize(
    "argv,instances,checked,findings,disagreements",
    VERIFY_VERDICTS,
    ids=[
        v[0][0] + "-nonplanar" * ("--include-nonplanar" in v[0]) + "-6" * ("6" in v[0])
        for v in VERIFY_VERDICTS
    ],
)
def test_verify_verdicts_pinned(capsys, argv, instances, checked, findings, disagreements):
    rc, out = run(capsys, ["verify", *argv, "--seed", "0"])
    rep = json.loads(out)
    assert rc == 0
    assert (rep["instances"], rep["checked"]) == (instances, checked)
    assert rep["violations"] == []
    assert len(rep["findings"]) == findings
    assert sum(f["disagreements"] for f in rep["findings"]) == disagreements


# sha256 of whole `verify ... --seed 1` reports, wall_time_s removed, as
# json.dumps(report, sort_keys=True, indent=2); a refactor that claims
# byte-identical reports keeps every digest.
REPORT_SHA256 = [
    (
        ["torsor", "--max-edges", "4", "--variant", "r"],
        "9c744a5c98351be9e75912d8b976a314fb72e7335710f7eeedd43c65d33e423c",
    ),
    (
        ["torsor", "--max-edges", "4", "--variant", "rbar"],
        "7001ff8a9d032e3faf799e5fc1c9bddd9026708b89d481969cc42471dd499b1c",
    ),
    (
        ["torsor", "--max-edges", "4", "--variant", "rinv"],
        "c88c6da2772bac0b7cfa481c26f3720440b279b9b8cea4003d5b77ac7faf7d8d",
    ),
    (
        ["torsor", "--max-edges", "4", "--variant", "rbarinv"],
        "560d1e5fbe8f587e8c242f6721d3febcc7597363904f79f494d3c2cafdbee747",
    ),
    (
        ["consistency", "--max-edges", "4", "--variant", "r"],
        "7961848f830daee7d12a00ccc65e224c55190998c0ed1010c4d78a5711acf0f3",
    ),
    (
        ["consistency", "--max-edges", "4", "--variant", "rbar"],
        "40a1675edc9810d32fa0ebd3ad1bd6b464801d3e607d092779b6b8004002bd86",
    ),
    (
        ["consistency", "--max-edges", "4", "--variant", "rinv"],
        "a0c480ad12f13ddf3ab736feb4a7f54c70bef28bcf8fd3b4f092dfc4bf693d87",
    ),
    (
        ["consistency", "--max-edges", "4", "--variant", "rbarinv"],
        "b78b41446c694a3877902cdc0f22f8d9f405b669d4b307cd3adc42181ad80885",
    ),
    (
        ["sink-invariance", "--max-edges", "4", "--include-nonplanar"],
        "b48d6f6203b2a2bff64db44356aaa2eee5be00063b21297a8418529eb59ec296",
    ),
    (
        ["moves", "--max-edges", "5"],
        "d816e77df7bb4c9420e88ea0effad96a74d9460ec3b53157a61ec287c14f20db",
    ),
    (
        ["unicycle", "--max-edges", "5"],
        "c17fd8a77d2dcc2fbee12c9c0791b0420754972e33a18a60bbfd38c5e56e8015",
    ),
    (
        ["telescope"],
        "a36bba3d5c39a8257ef20e77ee4b50fa53f8e08825383a95e5ecd28436f5a9a4",
    ),
    (
        ["matroid", "--max-edges", "3"],
        "bedeedc8694af80b98c3ab2f967c7b7798ab02684bc739232a803d1554ce6226",
    ),
    (
        ["matroid", "--max-edges", "3", "--max-elements", "10"],
        "0610b0bb3565649bc872859a776b2cd98a837202ba79ba58d5c1bf0923c1ffb0",
    ),
]


@pytest.mark.parametrize(
    "argv,digest", REPORT_SHA256, ids=[" ".join(a) for a, _ in REPORT_SHA256]
)
def test_verify_reports_pinned(capsys, argv, digest):
    rc, out = run(capsys, ["verify", *argv, "--seed", "1"])
    rep = json.loads(out)
    assert rc == 0
    rep.pop("wall_time_s")
    text = json.dumps(rep, sort_keys=True, indent=2)
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_internal_key_error_is_not_an_input_error(triangle_files, tmp_path, capsys, monkeypatch):
    # a KeyError from inside the engine is a bug: it must surface as a
    # traceback, not as exit 2 with "input error"
    def broken(g, d, q):
        raise KeyError("internal")

    monkeypatch.setattr("rotorsand.sandpile.reduce", broken)
    dpath = _write(tmp_path, "divisor", {"b": 1, "a": -1})
    with pytest.raises(KeyError, match="internal"):
        main(["reduce", "--graph", triangle_files["graph"], "--divisor", dpath])
    assert "input error" not in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv,message",
    [
        (["route", "--graph", "{square}", "--tree", "{tree}", "--chip", "c", "--sink", "zz"], "unknown sink"),
        (["route", "--graph", "{square}", "--tree", "{cycle}", "--chip", "c", "--sink", "s"], "spanning tree"),
        (["act", "--graph", "{twisted}", "--tree", "{tree}", "--divisor", "{divisor}"], "plane"),
        (["act", "--graph", "{square}", "--tree", "{tree}", "--divisor", "{degree1}"], "degree-0"),
        (["moves", "path", "--graph", "{square}", "--from", "{tree}", "--to", "{cycle}"], "spanning tree"),
        (["genus", "{apart}"], "connected"),
        (["telescope", "--n", "2", "--ks", "1,x,1"], "integers"),
        (["telescope", "--n", "2", "--ks", "1,1"], "n+1"),
        (["bby", "vector", "--matroid", "{matroid}", "--basis", "e1,e2"], "not a basis"),
    ],
    ids=["unknown-sink", "tree-not-spanning", "nonplane-act", "nonzero-degree", "moves-tree", "disconnected-ribbon", "ks-not-int", "ks-length", "not-a-basis"],
)
def test_user_errors_are_input_errors(files, tmp_path, capsys, argv, message):
    twisted = json.loads(open(files["graph"]).read())
    twisted["rotation"]["a"] = ["ac", "ab", "sa"]
    apart = {
        "vertices": ["a", "b", "c", "d"],
        "edges": [{"id": "ab", "ends": ["a", "b"]}, {"id": "cd", "ends": ["c", "d"]}],
        "rotation": {"a": ["ab"], "b": ["ab"], "c": ["cd"], "d": ["cd"]},
    }
    paths = {
        "square": files["graph"],
        "tree": files["tree"],
        "divisor": files["divisor"],
        "matroid": files["matroid"],
        "twisted": _write(tmp_path, "twisted", twisted),
        "cycle": _write(tmp_path, "cycle", ["ab", "bc", "ac"]),
        "degree1": _write(tmp_path, "degree1", {"c": 1}),
        "apart": _write(tmp_path, "apart", apart),
    }
    assert main([a.format(**paths) for a in argv]) == 2
    out = capsys.readouterr()
    assert out.out == "" and message in out.err


@pytest.mark.parametrize(
    "argv,message",
    [
        (["torsor", "--max-edges", "-3"], "--max-edges"),
        (["moves", "--max-edges", "0"], "--max-edges"),
        (["consistency", "--max-edges", "3", "--workers", "-2"], "--workers"),
    ],
    ids=["max-edges-negative", "max-edges-zero", "workers-negative"],
)
def test_verify_rejects_empty_sizes_and_negative_workers(capsys, argv, message):
    assert main(["verify", *argv, "--seed", "0"]) == 2
    out = capsys.readouterr()
    assert out.out == "" and message in out.err


def test_telescope_suite_ignores_max_edges(capsys):
    # the telescope suite runs its fixed instances and never reads --max-edges
    for size in ("0", "99"):
        assert main(["verify", "telescope", "--max-edges", size, "--seed", "0"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["instances"] == 39 and report["violations"] == []


def _src_env():
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    return dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))


def test_cli_import_leaves_matroid_code_out():
    # commands other than bby and verify matroid never load the matroid code
    code = "import sys, rotorsand.cli; print(*sys.modules)"
    env = _src_env()
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    loaded = out.stdout.split()
    assert "rotorsand.cli" in loaded
    assert "rotorsand.matroid" not in loaded and "rotorsand.lp" not in loaded


def test_verify_start_up_loads_only_what_it_runs():
    # a torsor sweep never loads the move or matroid code, dataclasses (and
    # the inspect chain behind it) or fractions; a matroid sweep loads none of
    # the plane code, ribbon maps or the LP; a unicycle sweep no torsor code
    plane = ("rotorsand.torsor", "rotorsand.rotor", "rotorsand.sandpile", "rotorsand.ribbon")
    cases = [
        ("torsor", "rotorsand.torsor", ("rotorsand.moves", "rotorsand.matroid", "dataclasses", "fractions")),
        ("matroid", "rotorsand.matroid", (*plane, "rotorsand.lp", "fractions")),
        ("unicycle", "rotorsand.rotor", ("rotorsand.torsor",)),
    ]
    for suite, needed, absent in cases:
        code = (
            "import sys, contextlib, io\n"
            "from rotorsand import cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    rc = cli.main(['verify', '{suite}', '--max-edges', '2', '--seed', '0'])\n"
            "print(rc, *sys.modules)\n"
        )
        out = subprocess.run([sys.executable, "-c", code], env=_src_env(), capture_output=True, text=True, check=True)
        rc, *loaded = out.stdout.split()
        assert rc == "0" and needed in loaded, suite
        assert [name for name in absent if name in loaded] == [], suite


def test_runtime_loads_only_the_standard_library():
    # the modules that importing the package's entry points, and running
    # every verify suite, add to those the interpreter started with; a diff,
    # because site hooks may load third-party modules at start-up
    code = (
        "import sys, contextlib, io\n"
        "before = set(sys.modules)\n"
        "import rotorsand.cli, rotorsand.moves, rotorsand.matroid, rotorsand.lp\n"
        "from rotorsand import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    codes = [cli.main(['verify', s, '--max-edges', '2', '--workers', '1']) for s in cli.SUITES]\n"
        "added = {name.split('.')[0] for name in set(sys.modules) - before}\n"
        "print(*codes, '|', *sorted(added - set(sys.stdlib_module_names)))\n"
    )
    out = subprocess.run([sys.executable, "-c", code], env=_src_env(), capture_output=True, text=True, check=True)
    codes, added = out.stdout.split("|")
    assert codes.split() == ["0"] * len(cli.SUITES)
    assert added.split() == ["rotorsand"]


def test_package_re_exports_resolve_on_access():
    code = (
        "import sys, rotorsand\n"
        "before = 'rotorsand.sandpile' in sys.modules\n"
        "from rotorsand import Divisor, Multigraph, RibbonGraph, group_structure\n"
        "from rotorsand import *\n"
        "print(before, Divisor.__module__, RibbonGraph.__module__, 'rotorsand.sandpile' in sys.modules)\n"
    )
    out = subprocess.run([sys.executable, "-c", code], env=_src_env(), capture_output=True, text=True, check=True)
    assert out.stdout.split() == ["False", "rotorsand.sandpile", "rotorsand.ribbon", "True"]
    import rotorsand

    with pytest.raises(AttributeError):
        rotorsand.no_such_name


def test_parser_variants_are_the_torsor_variants():
    from rotorsand import torsor

    assert cli.VARIANTS == torsor.VARIANTS


@pytest.mark.parametrize("sized", sorted(cli.MAX_EDGES))
def test_verify_refuses_sizes_over_the_suite_bound(capsys, monkeypatch, sized):
    def no_sweep(*args, **kwargs):
        raise AssertionError("an oversized sweep was started")

    monkeypatch.setattr(cli, "sweep", no_sweep)
    bound = cli.MAX_EDGES[sized]
    assert main(["verify", *sized.split(), "--max-edges", str(bound + 1), "--seed", "0"]) == 2
    out = capsys.readouterr()
    assert out.out == "" and f"bound of {bound} for {sized}" in out.err


def test_verify_accepts_a_size_at_the_bound(capsys, monkeypatch):
    # the matroid bound itself is accepted and reaches the sweep
    seen = []

    def stub_sweep(suite, max_edges, *args):
        seen.append((suite, max_edges))
        return {"instances": 0, "checked": 0, "violations": [], "findings": [], "notes": []}

    monkeypatch.setattr(cli, "sweep", stub_sweep)
    bound = cli.MAX_EDGES["matroid"]
    assert main(["verify", "matroid", "--max-edges", str(bound), "--seed", "0"]) == 0
    assert seen == [("matroid", bound)]
    assert json.loads(capsys.readouterr().out)["config"]["max_edges"] == bound


def test_python_dash_m_runs_the_cli():
    argv = [sys.executable, "-m", "rotorsand", "verify", "torsor", "--max-edges", "2"]
    out = subprocess.run(argv, env=_src_env(), capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    report = json.loads(out.stdout)
    assert report["config"]["suite"] == "torsor" and report["instances"] == 3


@pytest.mark.parametrize("suite,max_edges", [("unicycle", 4), ("consistency", 3)])
def test_spawn_pool_matches_serial(monkeypatch, suite, max_edges):
    # pooled payloads carry catalog graphs into children that start with
    # their own string-hash seed, so no cached hash may travel with them
    import multiprocessing
    import pickle

    from rotorsand import catalog, cli

    rg = catalog.ribbon_graphs(3)[-1]
    assert pickle.loads(pickle.dumps(rg)) == rg
    assert b"_hash" not in pickle.dumps(rg) and b"_hash" not in pickle.dumps(rg.graph)

    serial = cli.sweep(suite, max_edges)

    def spawn_map(fn, payloads, workers):
        with multiprocessing.get_context("spawn").Pool(workers) as pool:
            return pool.map(fn, payloads, chunksize=4)

    monkeypatch.setattr(cli, "_pool_map", spawn_map)
    assert cli.sweep(suite, max_edges, workers=2) == serial


def flagging_check(suite, variant, rg):
    """A stand-in for cli._check that flags every genus-1 graph twice and notes it once."""
    if rg.euler_genus() != 1:
        return 1, [], []
    text = rg.to_json()
    return 2, [f"first {text}", f"second {text}"], [f"note {text}"]


def test_sweep_reports_flagged_graphs_in_text_order(monkeypatch):
    # checks run in catalog order, but violations and notes are listed by
    # each graph's JSON text, each graph's own in the order it gave them
    from rotorsand import catalog

    monkeypatch.setattr(cli, "_check", flagging_check)
    graphs = catalog.ribbon_graphs(4)
    flagged = [rg.to_json() for rg in graphs if rg.euler_genus() == 1]
    assert len(flagged) > 3 and flagged != sorted(flagged)
    rep = cli.sweep("unicycle", 4)
    assert rep["instances"] == len(graphs) + len(cli.reversal_instances())
    assert rep["checked"] == len(graphs) + len(flagged)
    assert rep["violations"] == [
        {"graph": t, "detail": f"{w} {t}"} for t in sorted(flagged) for w in ("first", "second")
    ]
    assert rep["notes"] == [f"note {t}" for t in sorted(flagged)]
    assert cli.sweep("unicycle", 4, workers=2) == rep
