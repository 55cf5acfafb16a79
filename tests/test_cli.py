import hashlib
import os

import pytest

from girthcover import cli, graph
from girthcover.algebraic import build_quadrangle, index_to_tuple
from girthcover.cli import EXIT_FAIL, EXIT_PASS, EXIT_USAGE, cli_main
from girthcover.graph import cycle_graph, read_edge_list, write_edge_list
from conftest import random_regular


def run(argv):
    return cli_main(argv)


def test_build_q_then_verify_girth(tmp_path, capsys):
    edges = str(tmp_path / "q5.edges")
    assert run(["build-q", "--q", "5", "--out", edges]) == EXIT_PASS
    assert capsys.readouterr().out == (
        f"quadrangle q=5 shift=(0, 0): 250 vertices, 625 edges -> {edges}\n"
    )
    g = read_edge_list(edges)
    assert g.n == 250 and g.m == 625
    assert os.path.exists(edges + ".labels")
    out = str(tmp_path / "pb")
    assert run(["partition-bipartite", "--q", "5", "--arity", "3", "--out", out]) == EXIT_PASS
    code = run(["verify", "--manifest", os.path.join(out, "manifest.txt"), "--girth", "8"])
    assert code == EXIT_PASS


def test_build_h_with_shift(tmp_path, capsys):
    edges = str(tmp_path / "h5.edges")
    assert run(["build-h", "--q", "5", "--shift", "1,2,3,4", "--out", edges]) == EXIT_PASS
    assert capsys.readouterr().out == (
        f"hexagon q=5 shift=(1, 2, 3, 4): 6250 vertices, 15625 edges -> {edges}\n"
    )
    g = read_edge_list(edges)
    assert g.n == 6250 and g.m == 15625


# sha256 of the edge list and label file each build writes, recorded before
# the writers formatted rows in numpy blocks: the bytes must not change.
BUILD_FILE_SHA256 = {
    ("build-q", "--q", "5"): (
        "51c93754d4f0c382659328919a2a7a7c723640345c95a3737a80180c5247f8e8",
        "215c4cb8eee36d72489a05f6b2a7b3e47af726c7ccd6f32a011380a4f85f224e",
    ),
    ("build-h", "--q", "5", "--shift", "1,2,3,4"): (
        "c4a4064c0337d71b38947aaa1fb55822636e314fe84cd39b6318425abc636d9a",
        "2e03ed172d53ee9bf3f3be0af7f8ce75721864e156d4f27962e02bf495cb4a2c",
    ),
}


@pytest.mark.parametrize("argv", list(BUILD_FILE_SHA256))
def test_build_files_match_recorded_bytes(tmp_path, argv):
    edges = tmp_path / "g.edges"
    assert run([*argv, "--out", str(edges)]) == EXIT_PASS
    digests = tuple(
        hashlib.sha256(path.read_bytes()).hexdigest()
        for path in (edges, tmp_path / "g.edges.labels")
    )
    assert digests == BUILD_FILE_SHA256[argv]


@pytest.mark.parametrize("block", [7, 8192])
def test_writers_match_line_by_line_format(tmp_path, monkeypatch, block):
    # The block writers against one f-string per line; block 7 splits every
    # file into many blocks with a short last one.
    monkeypatch.setattr(graph, "_WRITE_BLOCK", block)
    plg = build_quadrangle(5, (1, 2))
    cli._write_labels(plg, tmp_path / "g.labels")

    def coords(v):
        return ",".join(map(str, index_to_tuple(v % plg.n_side, 5, 3)))

    labels = [f"{v} P:{coords(v)}\n" for v in range(plg.n_side)]
    labels += [f"{v} L:{coords(v)}\n" for v in range(plg.n_side, plg.graph.n)]
    assert (tmp_path / "g.labels").read_text() == "# vertex-id class coords\n" + "".join(labels)
    for g, header in [
        (plg.graph, "250 625 bipartite 125 125\n"),
        (cycle_graph(14), "14 14\n"),
        (graph.Graph(3, []), "3 0\n"),
    ]:
        write_edge_list(g, tmp_path / "g.edges")
        want = header + "".join(f"{u} {v}\n" for u, v in g.edges())
        assert (tmp_path / "g.edges").read_text() == want


def test_verify_planted_cycle_fails(tmp_path):
    out = str(tmp_path / "cc")
    assert run(["cover-complete", "--n", "30", "--girth", "8", "--out", out]) == EXIT_PASS
    manifest = os.path.join(out, "manifest.txt")
    assert run(["verify", "--manifest", manifest, "--girth", "8"]) == EXIT_PASS
    # plant a C6 into one part by swapping its edges for a hexagon
    part_file = os.path.join(out, "parts", "part_00000.edges")
    hexagon = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5)]
    with open(part_file, "w") as fh:
        fh.write(f"30 6\n")
        for u, v in hexagon:
            fh.write(f"{u} {v}\n")
    assert run(["verify", "--manifest", manifest, "--cycle", "6"]) == EXIT_FAIL


def test_decompose_cli_roundtrip(tmp_path):
    g = random_regular(120, 8, seed=2)
    inp = str(tmp_path / "g.edges")
    write_edge_list(g, inp)
    out = str(tmp_path / "dec")
    assert run(["decompose", "--input", inp, "--cycle", "6", "--seed", "3", "--out", out]) == EXIT_PASS
    manifest = os.path.join(out, "manifest.txt")
    assert run(["verify", "--manifest", manifest, "--cycle", "6"]) == EXIT_PASS
    # a girth demand the forests meet but cyclic parts need not: use cycle-6
    # claim embedded in the manifest itself as the default check
    assert run(["verify", "--manifest", manifest]) == EXIT_PASS


def test_random_cover_cli(tmp_path, capsys):
    out = str(tmp_path / "rc")
    code = run([
        "random-cover", "--n", "250", "--k", "3", "--C", "9", "--seed", "1", "--out", out,
    ])
    assert code == EXIT_PASS
    capsys.readouterr()
    assert run(["verify", "--manifest", os.path.join(out, "manifest.txt"), "--girth", "8"]) == EXIT_PASS


def test_bounds_cli(capsys):
    assert run(["bounds", "--k", "3", "--s", "100"]) == EXIT_PASS
    text = capsys.readouterr().out
    assert "3/2" in text
    assert "Theta(s^3/2)" in text
    assert run(["bounds", "--k", "2", "--s", "4", "--ck", "1.0"]) == EXIT_PASS
    assert "15" in capsys.readouterr().out


@pytest.mark.parametrize("shift", ["", "1,x", "1,2,3"])
def test_build_rejects_malformed_shift(tmp_path, capsys, shift):
    edges = tmp_path / "q5.edges"
    assert run(["build-q", "--q", "5", "--shift", shift, "--out", str(edges)]) == EXIT_USAGE
    assert f"--shift {shift!r}" in capsys.readouterr().err
    assert not edges.exists()


def test_usage_errors():
    assert run(["no-such-command"]) == EXIT_USAGE
    assert run(["build-q", "--q", "6", "--out", "/tmp/x.edges"]) == EXIT_USAGE
    assert run(["verify", "--manifest", "/nonexistent/manifest.txt"]) == EXIT_USAGE
    for C in ("inf", "nan"):
        assert run(["random-cover", "--n", "250", "--k", "3", "--C", C]) == EXIT_USAGE


@pytest.mark.parametrize("q", ["6", "4"])
def test_partition_bipartite_rejects_non_prime_q(tmp_path, q):
    out = str(tmp_path / "pb")
    assert run(["partition-bipartite", "--q", q, "--arity", "3", "--out", out]) == EXIT_USAGE
    assert not os.path.exists(out)


@pytest.mark.parametrize(
    "line",
    [
        "host",
        "part a",
        "part a ../outside.edges girth 8",
        "host complete x",
        "parts y",
        "part a e.edges girth z",
    ],
)
def test_verify_malformed_manifest_line(tmp_path, capsys, line):
    write_edge_list(cycle_graph(10), tmp_path / "outside.edges")
    (tmp_path / "m").mkdir()
    manifest = tmp_path / "m" / "manifest.txt"
    manifest.write_text(f"host complete 10\n{line}\n")
    assert run(["verify", "--manifest", str(manifest)]) == EXIT_USAGE
    assert line in capsys.readouterr().err


def test_verify_one_token_edge_list_header(tmp_path, capsys):
    manifest = tmp_path / "manifest.txt"
    manifest.write_text("host complete 10\npart a a.edges girth 8\n")
    for header in ["10", "3 x", "3 1 bipartite 1 x"]:
        (tmp_path / "a.edges").write_text(f"{header}\n")
        assert run(["verify", "--manifest", str(manifest)]) == EXIT_USAGE
        assert f"a.edges, line 1: malformed header {header}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "text, line, message",
    [
        ("3 1\n0 5\n", 2, "edge (0, 5) out of range for n=3"),
        ("3 2\n0 1\n0 1\n", 3, "duplicate edge (0, 1)"),
        ("4 1 bipartite 2 2\n0 1\n", 2, "edge (0, 1) does not cross the bipartition"),
    ],
)
def test_verify_names_part_file_and_line_of_bad_edge(tmp_path, capsys, text, line, message):
    (tmp_path / "parts").mkdir()
    (tmp_path / "parts" / "part_00000.edges").write_text(text)
    manifest = tmp_path / "manifest.txt"
    manifest.write_text("host complete 4\npart a parts/part_00000.edges girth 8\n")
    assert run(["verify", "--manifest", str(manifest)]) == EXIT_USAGE
    assert f"part_00000.edges, line {line}: {message}" in capsys.readouterr().err
