import hashlib
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from girthcover import algebraic, cli, graph, partition
from girthcover.algebraic import build_hexagon, build_quadrangle, index_to_tuple
from girthcover.cli import EXIT_FAIL, EXIT_PASS, EXIT_USAGE, cli_main
from girthcover.graph import cycle_graph, read_edge_list, write_edge_list
from conftest import random_regular, searched_as, traced_peak


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
    # plant a C6 into the first part by swapping its edges for a hexagon
    with open(manifest) as fh:
        lines = fh.read().splitlines()
    i = next(i for i, line in enumerate(lines) if line.startswith("part "))
    *head, count = lines[i].split()
    lines[i] = " ".join([*head, "6"])
    with open(manifest, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    body = os.path.join(out, "parts.edges")
    with open(body) as fh:
        rows = fh.read().splitlines()[int(count):]
    hexagon = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5)]
    with open(body, "w") as fh:
        fh.writelines(f"{u} {v}\n" for u, v in hexagon)
        fh.writelines(row + "\n" for row in rows)
    assert run(["verify", "--manifest", manifest, "--cycle", "6"]) == EXIT_FAIL


def test_verify_prints_the_witness_cycle(tmp_path, capsys):
    hexagon = [(2, 3), (3, 4), (4, 5), (5, 6), (6, 7), (2, 7)]
    p = partition.EdgePartition(
        partition.HostSpec.explicit(graph.Graph(9, [(0, 1)] + hexagon)),
        [partition.Part("edge", [(0, 1)], forbidden_cycle=6),
         partition.Part("hexagon", hexagon, forbidden_cycle=6)],
    )
    manifest = partition.write_manifest(p, tmp_path / "m")
    assert run(["verify", "--manifest", manifest]) == EXIT_FAIL
    out = capsys.readouterr().out
    assert "certificates: 1/2 pass (0 by certificate, 1 acyclic, 1 by search)" in out
    assert "  FAIL hexagon: no C_6 (cycle 2 3 4 5 6 7)\n" in out
    assert run(["verify", "--manifest", manifest, "--cycle", "4"]) == EXIT_PASS


def test_verify_counts_unclaimed_parts_apart(tmp_path, capsys):
    # A part with no claim fails without any search; the summary names the
    # unclaimed count only when there is one.
    p = partition.EdgePartition(
        partition.HostSpec.explicit(graph.Graph(4, [(0, 1), (1, 2), (2, 3)])),
        [partition.Part("tree", [(0, 1), (1, 2)], forbidden_cycle=6), partition.Part("bare", [(2, 3)])],
    )
    manifest = partition.write_manifest(p, tmp_path / "m")
    assert run(["verify", "--manifest", manifest]) == EXIT_FAIL
    out = capsys.readouterr().out
    assert "certificates: 1/2 pass (0 by certificate, 1 acyclic, 0 by search, 1 unclaimed)\n" in out
    assert "  FAIL bare: no claim\n" in out
    assert run(["verify", "--manifest", manifest, "--cycle", "4"]) == EXIT_PASS
    assert "certificates: 2/2 pass (0 by certificate, 2 acyclic, 0 by search)\n" in capsys.readouterr().out


@pytest.mark.parametrize("block", [7, 1000, 8192])
def test_label_bytes_do_not_depend_on_the_id_block(tmp_path, monkeypatch, block):
    # The recorded q = 5 label hashes, with the ids formatted in blocks of
    # 7 (a short last block), 1,000 and the default.
    monkeypatch.setattr(cli, "_WRITE_BLOCK", block)
    for plg, argv in ((build_quadrangle(5), ("build-q", "--q", "5")),
                      (build_hexagon(5, (1, 2, 3, 4)), ("build-h", "--q", "5", "--shift", "1,2,3,4"))):
        cli._write_labels(plg, tmp_path / "g.labels")
        digest = hashlib.sha256((tmp_path / "g.labels").read_bytes()).hexdigest()
        assert digest == BUILD_FILE_SHA256[argv][1]


def test_label_writer_memory_stays_near_one_block(tmp_path, monkeypatch):
    # Blocks of 1,024 of the 16,807 ids a side of the q = 7 hexagon: the
    # whole (16,807, 6) label table alone would be 0.8 MB.
    monkeypatch.setattr(cli, "_WRITE_BLOCK", 1024)
    plg = build_hexagon(7)
    peak, _ = traced_peak(lambda: cli._write_labels(plg, tmp_path / "g.labels"))
    assert peak < 600_000, peak


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


@pytest.mark.parametrize("multiplier", ["10000000000000000000", "3000000000000000000", "1000000000000000000"])
def test_decompose_refuses_palette_too_large_for_keys(tmp_path, capsys, multiplier):
    # K_4 on 0..3 plus the path 3-4-5-2: 6 vertices of max degree 4, so a
    # palette of 4 * multiplier colours gives keys past 2**63
    edges = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (3, 4), (4, 5), (2, 5)]
    write_edge_list(graph.Graph(6, edges), tmp_path / "g.edges")
    argv = ["decompose", "--input", str(tmp_path / "g.edges"), "--cycle", "6", "--out"]
    assert run(argv + [str(tmp_path / "big"), "--multiplier", multiplier]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err == f"error: palette of {4 * int(multiplier)} colours on 6 vertices is too large for int64 keys\n"
    assert not (tmp_path / "big").exists()
    assert run(argv + [str(tmp_path / "ok"), "--multiplier", "100000000000000000"]) == EXIT_PASS
    assert run(["verify", "--manifest", str(tmp_path / "ok" / "manifest.txt")]) == EXIT_PASS


def test_decompose_that_no_try_can_colour_is_one_error_line(tmp_path, capsys):
    # A palette of the max degree cannot keep 90 % of every degree: every
    # try falls short, and the round's error is one line, with no output.
    edges, out = tmp_path / "g.edges", tmp_path / "dec"
    write_edge_list(random_regular(100, 16, seed=3), edges)
    argv = ["decompose", "--input", str(edges), "--cycle", "6", "--retention", "0.9", "--multiplier", "1"]
    assert run(argv + ["--out", str(out)]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error: retention not achieved after 20 retries; worst vertex ")
    assert err.count("\n") == 1
    assert not out.exists()


def test_decompose_reports_the_retries_of_each_round(tmp_path, capsys):
    write_edge_list(random_regular(100, 16, seed=3), tmp_path / "g.edges")
    argv = ["decompose", "--input", str(tmp_path / "g.edges"), "--cycle", "6",
            "--retention", "0.4", "--multiplier", "4", "--out", str(tmp_path / "dec")]
    assert run(argv) == EXIT_PASS
    report = json.loads(capsys.readouterr().out.split("manifest:")[0])
    # round 2's peel takes every vertex, so it colours nothing and retries none
    assert report["rounds"] == 2 and report["retries"] == [3, 0]


def test_decompose_c10_cli_roundtrip(tmp_path):
    g = random_regular(120, 8, seed=2)
    inp = str(tmp_path / "g.edges")
    write_edge_list(g, inp)
    out = tmp_path / "dec"
    argv = ["decompose", "--input", inp, "--cycle", "10", "--seed", "3", "--out", str(out)]
    assert run(argv) == EXIT_PASS
    assert sorted(os.listdir(out)) == ["host.edges", "manifest.txt", "parts.edges"]
    assert run(["verify", "--manifest", str(out / "manifest.txt")]) == EXIT_PASS
    assert run(["verify", "--manifest", str(out / "manifest.txt"), "--cycle", "10"]) == EXIT_PASS


def test_random_cover_cli(tmp_path, capsys):
    out = str(tmp_path / "rc")
    code = run([
        "random-cover", "--n", "250", "--k", "3", "--C", "9", "--seed", "1", "--out", out,
    ])
    assert code == EXIT_PASS
    capsys.readouterr()
    assert run(["verify", "--manifest", os.path.join(out, "manifest.txt"), "--girth", "8"]) == EXIT_PASS


def test_random_cover_with_forest_seed_verifies(tmp_path):
    seed = tmp_path / "f.edges"
    seed.write_text("3 1\n0 1\n")
    out = str(tmp_path / "rcf")
    assert run([
        "random-cover", "--n", "10", "--k", "2", "--seed-graph", str(seed), "--C", "20", "--out", out,
    ]) == EXIT_PASS
    assert run(["verify", "--manifest", os.path.join(out, "manifest.txt")]) == EXIT_PASS


def test_random_cover_refuses_seed_larger_than_n(tmp_path, capsys):
    seed = tmp_path / "p.edges"
    seed.write_text("4 3\n0 1\n1 2\n2 3\n")
    out = tmp_path / "rc"
    assert run(["random-cover", "--n", "3", "--k", "2", "--seed-graph", str(seed), "--out", str(out)]) == EXIT_USAGE
    assert capsys.readouterr().err == "error: seed has 4 vertices, more than n=3\n"
    assert not out.exists()


def test_random_cover_stops_at_full_cover(tmp_path, capsys):
    # C = 1e9 plans about 2.7e11 copies; sampling stops once every pair is
    # covered, after a few hundred.
    out = tmp_path / "rc"
    argv = ["random-cover", "--n", "250", "--k", "3", "--C", "1e9", "--seed", "1", "--out", str(out)]
    assert run(argv) == EXIT_PASS
    report = json.loads(capsys.readouterr().out.split("\nmanifest:")[0])
    assert report["copies"] > 10**11 and report["copies_used"] < 10**4
    assert run(["verify", "--manifest", str(out / "manifest.txt"), "--girth", "8"]) == EXIT_PASS


def test_bounds_cli(capsys):
    assert run(["bounds", "--k", "3", "--s", "100"]) == EXIT_PASS
    text = capsys.readouterr().out
    assert "3/2" in text
    assert "Theta(s^3/2)" in text
    assert run(["bounds", "--k", "2", "--s", "4", "--ck", "1.0"]) == EXIT_PASS
    assert "15" in capsys.readouterr().out


@pytest.mark.parametrize("argv", [
    ["--k", "1"],
    ["--k", "3", "--s", "0", "--ck", "1"],
    ["--k", "3", "--s", "100", "--ck", "0"],
    ["--k", "3", "--s", "100", "--ck", "nan"],
    ["--k", "3", "--s", "100000", "--ck", "1e-300"],
])
def test_bounds_prints_nothing_before_a_refusal(capsys, argv):
    assert run(["bounds"] + argv) == EXIT_USAGE
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ")


@pytest.mark.parametrize("shift", ["", "1,x", "1,2,3"])
def test_build_rejects_malformed_shift(tmp_path, capsys, shift):
    edges = tmp_path / "q5.edges"
    assert run(["build-q", "--q", "5", "--shift", shift, "--out", str(edges)]) == EXIT_USAGE
    assert f"--shift {shift!r}" in capsys.readouterr().err
    assert not edges.exists()


@pytest.mark.parametrize("message, line", [
    ("Unable to allocate 15.1 TiB for an array", "error: Unable to allocate 15.1 TiB for an array\n"),
    ("", "error: MemoryError\n"),  # what the interpreter itself raises
])
def test_out_of_memory_is_one_error_line(tmp_path, monkeypatch, capsys, message, line):
    # The builder raises where it would allocate: the allocation itself might
    # succeed under overcommit and bring in the OOM killer.
    def build(q, shift):
        raise MemoryError(message)

    monkeypatch.setattr(algebraic, "build_quadrangle", build)
    edges = tmp_path / "q.edges"
    assert run(["build-q", "--q", "1009", "--out", str(edges)]) == EXIT_USAGE
    assert capsys.readouterr().err == line
    assert not edges.exists()


def test_usage_errors():
    assert run(["no-such-command"]) == EXIT_USAGE
    assert run(["build-q", "--q", "6", "--out", "/tmp/x.edges"]) == EXIT_USAGE
    assert run(["verify", "--manifest", "/nonexistent/manifest.txt"]) == EXIT_USAGE
    for C in ("inf", "nan", "1e308"):
        assert run(["random-cover", "--n", "250", "--k", "3", "--C", C]) == EXIT_USAGE
    assert run(["bounds", "--k", "3", "--s", "100000", "--ck", "1e-300"]) == EXIT_USAGE


@pytest.mark.parametrize("q", ["6", "4"])
def test_partition_bipartite_rejects_non_prime_q(tmp_path, q):
    out = str(tmp_path / "pb")
    assert run(["partition-bipartite", "--q", q, "--arity", "3", "--out", out]) == EXIT_USAGE
    assert not os.path.exists(out)


@pytest.mark.parametrize("line", ["host complete 5", "parts 0\nparts 0"])
def test_verify_malformed_manifest_line(tmp_path, capsys, line):
    """A repeated line is named, second copy, in a one-line error."""
    (tmp_path / "parts.edges").write_text("")
    manifest = tmp_path / "manifest.txt"
    manifest.write_text(f"{partition._MANIFEST_V2}\nhost complete 10\n{line}\n")
    assert run(["verify", "--manifest", str(manifest)]) == EXIT_USAGE
    kind = line.split()[0]
    err = capsys.readouterr().err
    assert err == f"error: {manifest}: repeated {kind} line: {line.splitlines()[-1]}\n"


@pytest.mark.parametrize(
    "line, message",
    [
        ("parts 1\nparts 1", "repeated parts line"),
        ("host complete 5", "repeated host line"),
        ("part a parts/a.edges girth 8", "malformed part claim"),  # the v1 form
        ("part a girth 8", "malformed part claim"),  # no edge count
        ("part a girth 8 x", "malformed manifest line"),
        ("part a girth 8 -1", "malformed manifest line"),
        ("part a", "malformed manifest line"),
        ("part a e.edges girth z", "malformed manifest line"),
        ("parts y", "malformed manifest line"),
        ("host", "malformed manifest line"),
        ("host complete x", "malformed manifest line"),
        ("host complete -5", "malformed manifest line"),
        ("host bipartite -3 5", "malformed manifest line"),
        # each file exists and is a valid edge list; only host.edges is read
        ("host file ../outside.edges", "malformed manifest line"),
        ("host file other.edges", "malformed manifest line"),
        ("host file {root}/m/host.edges", "malformed manifest line"),
    ],
)
def test_verify_malformed_v2_manifest_line(tmp_path, capsys, line, message):
    (tmp_path / "m").mkdir()
    for path in ("outside.edges", "m/other.edges", "m/host.edges"):
        write_edge_list(cycle_graph(10), tmp_path / path)
    (tmp_path / "m" / "parts.edges").write_text("")
    manifest = tmp_path / "m" / "manifest.txt"
    line = line.format(root=tmp_path)
    # a malformed host line stands alone; every other line follows a good one
    alone = line.startswith("host") and message != "repeated host line"
    host = "" if alone else "host complete 10\n"
    manifest.write_text(f"{partition._MANIFEST_V2}\n{host}{line}\n")
    assert run(["verify", "--manifest", str(manifest)]) == EXIT_USAGE
    assert f"{message}: {line.splitlines()[-1]}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "first", ["# girthcover partition manifest v1\n", "", "\n# girthcover partition manifest v2\n"]
)
def test_verify_refuses_a_manifest_without_the_v2_first_line(tmp_path, capsys, first):
    (tmp_path / "parts.edges").write_text("")
    manifest = tmp_path / "manifest.txt"
    manifest.write_text(f"{first}host complete 10\nparts 0\n")
    assert run(["verify", "--manifest", str(manifest)]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err == f"error: {manifest}: first line is not {partition._MANIFEST_V2!r}\n"


@pytest.mark.parametrize("line", [
    "host complete \u0664", "host complete 0_4", "host bipartite 2 \uff12",
    "parts 1_0", "part a girth -8 1", "part a cycle-free +-6 1", "part a girth 8 \u0661",
])
def test_verify_refuses_a_number_that_is_not_a_count(tmp_path, capsys, line):
    (tmp_path / "parts.edges").write_text("0 1\n")
    manifest = tmp_path / "manifest.txt"
    host = "" if line.startswith("host") else "host complete 4\n"
    manifest.write_text(f"{partition._MANIFEST_V2}\n{host}{line}\n", encoding="utf-8")
    assert run(["verify", "--manifest", str(manifest)]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err == f"error: {manifest}: malformed manifest line: {line}\n"


def test_verify_one_token_edge_list_header(tmp_path, capsys):
    (tmp_path / "parts.edges").write_text("")
    manifest = tmp_path / "manifest.txt"
    manifest.write_text(f"{partition._MANIFEST_V2}\nhost file host.edges\nparts 0\n")
    for header in ["10", "3 x", "3 1 bipartite 1 x"]:
        (tmp_path / "host.edges").write_text(f"{header}\n")
        assert run(["verify", "--manifest", str(manifest)]) == EXIT_USAGE
        assert f"host.edges, line 1: malformed header {header}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "text, line, message",
    [
        ("3 1\n0 5\n", 2, "edge (0, 5) out of range for n=3"),
        ("3 2\n0 1\n0 1\n", 3, "duplicate edge (0, 1)"),
        ("4 1 bipartite 2 2\n0 1\n", 2, "edge (0, 1) does not cross the bipartition"),
    ],
)
def test_verify_names_part_file_and_line_of_bad_edge(tmp_path, capsys, text, line, message):
    # The host file, the one edge-list file that a manifest names.
    (tmp_path / "host.edges").write_text(text)
    (tmp_path / "parts.edges").write_text("")
    manifest = tmp_path / "manifest.txt"
    manifest.write_text(f"{partition._MANIFEST_V2}\nhost file host.edges\nparts 0\n")
    assert run(["verify", "--manifest", str(manifest)]) == EXIT_USAGE
    assert f"host.edges, line {line}: {message}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "body, counts, message",
    [
        ("0 1\n1 2\n0 7\n", (1, 2), "parts.edges, line 3: edge (0, 7) out of range for n=4"),
        ("0 1\n\n# a comment\n2 1\n", (1, 1), "parts.edges, line 4: edge (2,1) not in u < v form"),
        ("0 1\n1 2\n0 1\n", (3,), "parts.edges, line 3: duplicate edge (0, 1)"),
        # an edge in two parts is not the fault; the bad line after it is
        ("0 1\n0 1\n0 7\n", (1, 2), "parts.edges, line 3: edge (0, 7) out of range for n=4"),
        ("0 1\n1 x\n", (1, 1), "parts.edges, line 2: malformed edge line '1 x'"),
        ("0 1\n1 2\n", (1,), "parts.edges: the manifest claims 1 edges, the file has 2"),
        ("0 1\n", (1, 1), "parts.edges: the manifest claims 2 edges, the file has 1"),
    ],
)
def test_verify_names_body_line_of_bad_edge(tmp_path, capsys, body, counts, message):
    (tmp_path / "parts.edges").write_text(body)
    parts = "".join(f"part p{i} girth 8 {count}\n" for i, count in enumerate(counts))
    manifest = tmp_path / "manifest.txt"
    manifest.write_text(
        f"{partition._MANIFEST_V2}\nhost complete 4\nparts {len(counts)}\n{parts}"
    )
    assert run(["verify", "--manifest", str(manifest)]) == EXIT_USAGE
    assert message in capsys.readouterr().err


def test_verify_body_duplicate_across_parts_fails_exactness(tmp_path, capsys):
    # The same edge in two parts is a wrong partition, not a malformed one.
    (tmp_path / "parts.edges").write_text("0 1\n0 1\n")
    manifest = tmp_path / "manifest.txt"
    manifest.write_text(
        f"{partition._MANIFEST_V2}\nhost complete 2\nparts 2\n"
        "part a girth 8 1\npart b girth 8 1\n"
    )
    assert run(["verify", "--manifest", str(manifest)]) == EXIT_FAIL
    assert "exactness: FAIL" in capsys.readouterr().out


def test_verify_reports_how_parts_were_decided(tmp_path, capsys):
    out = str(tmp_path / "cc")
    assert run(["cover-complete", "--n", "64", "--girth", "8", "--out", out]) == EXIT_PASS
    capsys.readouterr()
    assert run(["verify", "--manifest", os.path.join(out, "manifest.txt"), "--girth", "8"]) == EXIT_PASS
    assert "certificates: 75/75 pass (75 by certificate, 0 acyclic, 0 by search)\n" in capsys.readouterr().out
    assert run(["verify", "--manifest", os.path.join(out, "manifest.txt"), "--cycle", "6"]) == EXIT_PASS
    searched = [searched_as(p.edges) for p in partition.read_manifest(os.path.join(out, "manifest.txt")).parts]
    acyclic = searched.count("acyclic")
    assert f"certificates: 75/75 pass (0 by certificate, {acyclic} acyclic, {75 - acyclic} by search)\n" \
        in capsys.readouterr().out


LIMITED_MAIN = """
import resource, sys
limit = 2 * 1024**3
resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
from girthcover.cli import main
sys.argv = ["girthcover", *sys.argv[1:]]
main()
"""


def run_limited(*argv, stdin=None):
    """The CLI with ``argv`` in a subprocess under a 2 GB address-space
    limit, with the text ``stdin`` piped to its standard input."""
    src = os.path.dirname(os.path.dirname(partition.__file__))
    return subprocess.run(
        [sys.executable, "-c", LIMITED_MAIN, *map(str, argv)], input=stdin,
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=120,
    )


def test_decompose_reads_its_input_from_a_pipe(tmp_path):
    # A pipe reports a size of 0; the whole graph is still read, and a bad
    # body is an error, not a smaller graph.
    g = random_regular(120, 8, seed=2)
    inp = tmp_path / "g.edges"
    write_edge_list(g, inp)
    out = tmp_path / "dec"
    done = run_limited("decompose", "--input", "/dev/stdin", "--cycle", "6", "--out", out, stdin=inp.read_text())
    assert done.returncode == EXIT_PASS, done.stdout + done.stderr
    parts = partition.read_manifest(out / "manifest.txt").parts
    assert sum(len(p.edges) for p in parts) == g.m
    done = run_limited("decompose", "--input", "/dev/stdin", "--cycle", "6", "--out", out,
                       stdin=inp.read_text() + "0 1\n")
    assert done.returncode == EXIT_USAGE, done.stdout + done.stderr
    assert done.stderr == f"error: /dev/stdin, line 1: header claims {g.m} edges, file has {g.m + 1}\n"


def test_verify_huge_host_fails_exactness_without_enumerating_it(tmp_path):
    # K_200000 has about 2e10 edges; listing them would need 37 GiB.  Under
    # a 2 GB address-space limit, a regression fails fast instead.
    (tmp_path / "parts.edges").write_text("0 1\n")
    manifest = tmp_path / "manifest.txt"
    manifest.write_text(f"{partition._MANIFEST_V2}\nhost complete 200000\nparts 1\npart a girth 8 1\n")
    done = run_limited("verify", "--manifest", manifest)
    assert done.returncode == EXIT_FAIL, done.stdout + done.stderr
    assert "exactness: FAIL" in done.stdout
    assert "Traceback" not in done.stderr


def test_verify_certifies_a_few_edges_of_a_huge_host(tmp_path):
    # Locator tables for K_{3 * 10**9} would take over 100 GB.  Under a 2 GB
    # address-space limit a part of 700 last-level edges, which maps into the
    # 625-edge base of q = 5, is still certified.
    n = 3 * 10**9
    loc = partition.CompleteCoverLocator(n, 8)
    x = np.arange(5000, dtype=np.int64) * 599_993 + 1
    last = x[loc.locate(x, x + 1) >= loc._offsets[-2]][:700]
    assert len(last) == 700 and loc.plan.levels[-1].prime == 5
    part = partition.Part("a", np.stack([last, last + 1], axis=1), girth_target=8)
    partition.write_manifest(partition.EdgePartition(partition.HostSpec.complete(n), [part]), tmp_path)
    done = run_limited("verify", "--manifest", tmp_path / "manifest.txt")
    assert done.returncode == EXIT_FAIL, done.stdout + done.stderr
    assert "exactness: FAIL" in done.stdout
    assert "certificates: 1/1 pass (1 by certificate, 0 acyclic, 0 by search)\n" in done.stdout
    assert done.stderr == ""



def test_verify_refuses_a_host_too_large_for_edge_keys(tmp_path):
    # Edge keys u*n + v of K_{2**40} overflow int64, so two distinct edges
    # could share one: the manifest is refused on one line, exit 2.
    (tmp_path / "parts.edges").write_text(f"5 {2**30}\n{5 + 2**24} {2**30}\n")
    manifest = tmp_path / "manifest.txt"
    manifest.write_text(f"{partition._MANIFEST_V2}\nhost complete {2**40}\nparts 1\npart a cycle-free 6 2\n")
    done = run_limited("verify", "--manifest", manifest)
    assert done.returncode == EXIT_USAGE, done.stdout + done.stderr
    assert done.stderr == f"error: host of {2**40} vertices is too large for int64 edge keys\n"

def test_edge_counts_past_the_file_size_allocate_nothing(tmp_path):
    # A claim of 10**12 edges would be 16 TB of rows; the readers allocate
    # for what the file can hold, so under a 2 GB address-space limit the
    # claim is reported, on one line.
    edges = tmp_path / "g.edges"
    edges.write_text("5 1000000000000\n0 1\n1 2\n")
    (tmp_path / "parts.edges").write_text("0 1\n1 2\n")
    manifest = tmp_path / "manifest.txt"
    manifest.write_text(f"{partition._MANIFEST_V2}\nhost complete 5\nparts 2\n"
                        "part a girth 8 600000000000\npart b girth 8 400000000000\n")
    for argv, message in [
        (("decompose", "--input", edges, "--cycle", "6", "--out", tmp_path / "dec"),
         f"{edges}, line 1: header claims 1000000000000 edges, file has 2"),
        (("verify", "--manifest", manifest),
         f"{tmp_path / 'parts.edges'}: the manifest claims 1000000000000 edges, the file has 2"),
    ]:
        done = run_limited(*argv)
        assert done.returncode == EXIT_USAGE, done.stdout + done.stderr
        assert done.stderr == f"error: {message}\n"
