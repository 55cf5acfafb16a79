import os

import pytest

from girthcover.cli import EXIT_FAIL, EXIT_PASS, EXIT_USAGE, cli_main
from girthcover.graph import cycle_graph, read_edge_list, write_edge_list
from conftest import random_regular


def run(argv):
    return cli_main(argv)


def test_build_q_then_verify_girth(tmp_path, capsys):
    edges = str(tmp_path / "q5.edges")
    assert run(["build-q", "--q", "5", "--out", edges]) == EXIT_PASS
    g = read_edge_list(edges)
    assert g.n == 250 and g.m == 625
    assert os.path.exists(edges + ".labels")
    out = str(tmp_path / "pb")
    assert run(["partition-bipartite", "--q", "5", "--arity", "3", "--out", out]) == EXIT_PASS
    code = run(["verify", "--manifest", os.path.join(out, "manifest.txt"), "--girth", "8"])
    assert code == EXIT_PASS


def test_build_h_with_shift(tmp_path):
    edges = str(tmp_path / "h5.edges")
    assert run(["build-h", "--q", "5", "--shift", "1,2,3,4", "--out", edges]) == EXIT_PASS
    g = read_edge_list(edges)
    assert g.n == 6250 and g.m == 15625


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


def test_usage_errors():
    assert run(["no-such-command"]) == EXIT_USAGE
    assert run(["build-q", "--q", "6", "--out", "/tmp/x.edges"]) == EXIT_USAGE
    assert run(["verify", "--manifest", "/nonexistent/manifest.txt"]) == EXIT_USAGE


@pytest.mark.parametrize("q", ["6", "4"])
def test_partition_bipartite_rejects_non_prime_q(tmp_path, q):
    out = str(tmp_path / "pb")
    assert run(["partition-bipartite", "--q", q, "--arity", "3", "--out", out]) == EXIT_USAGE
    assert not os.path.exists(out)


@pytest.mark.parametrize("line", ["host", "part a", "part a ../outside.edges girth 8"])
def test_verify_malformed_manifest_line(tmp_path, capsys, line):
    write_edge_list(cycle_graph(10), tmp_path / "outside.edges")
    (tmp_path / "m").mkdir()
    manifest = tmp_path / "m" / "manifest.txt"
    manifest.write_text(f"host complete 10\n{line}\n")
    assert run(["verify", "--manifest", str(manifest)]) == EXIT_USAGE
    assert line in capsys.readouterr().err


def test_verify_one_token_edge_list_header(tmp_path, capsys):
    (tmp_path / "a.edges").write_text("10\n")
    manifest = tmp_path / "manifest.txt"
    manifest.write_text("host complete 10\npart a a.edges girth 8\n")
    assert run(["verify", "--manifest", str(manifest)]) == EXIT_USAGE
    assert "a.edges" in capsys.readouterr().err
