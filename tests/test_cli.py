"""End-to-end behavior of the `maid` command: exit codes, output formats,
and determinism. Commands run in-process through main()."""
from __future__ import annotations

import json

import pytest

from maidkit import render_maidfile
from maidkit import cli, core
from maidkit.cli import main

import helpers

CYCLIC = """
agent z;
chance a { domain f t; parents b; }
chance b { domain f t; parents a; }
"""


@pytest.fixture
def card_path(tmp_path, card1):
    path = tmp_path / "card.maid"
    path.write_text(render_maidfile(card1))
    return str(path)


@pytest.fixture
def pa_path(tmp_path, pa):
    path = tmp_path / "pa.maid"
    path.write_text(render_maidfile(pa))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- validate ---------------------------------------------------------------------


def test_validate_ok(capsys, card_path):
    code, out, err = run(capsys, "validate", card_path)
    assert (code, out, err) == (0, "ok\n", "")


def test_validate_reports_diagnostics(capsys, tmp_path):
    path = tmp_path / "loop.maid"
    path.write_text(CYCLIC)
    code, out, err = run(capsys, "validate", str(path))
    assert code == 1
    assert out == ""
    assert "acyclic" in err


def test_missing_file_is_a_usage_error(capsys, card_path, tmp_path):
    code, _, err = run(capsys, "validate", str(tmp_path / "missing.maid"))
    assert code == 2
    assert err.startswith(f"error: cannot read {tmp_path / 'missing.maid'}: ")
    assert "line 0" not in err
    # An --out that cannot be opened is the user's error, not a bug.
    out = str(tmp_path / "missing" / "x.maid")
    for argv in (("fixture", "card-game", "--out", out),
                 ("simplify", card_path, "--out", out),
                 ("export-dot", card_path, "--out", out)):
        code, _, err = run(capsys, *argv)
        assert code == 2
        assert err.startswith(f"error: cannot write {out}: ")
        assert "internal error" not in err


def test_file_that_is_not_utf8_is_a_usage_error(capsys, tmp_path):
    path = tmp_path / "latin1.maid"
    path.write_bytes("chance X { domain caf\u00e9 t; }".encode("latin-1"))
    code, out, err = run(capsys, "validate", str(path))
    assert (code, out) == (2, "")
    assert err.startswith(f"error: cannot read {path}: not UTF-8 text (")
    assert "internal error" not in err and err.count("\n") == 1


def test_syntax_error_is_a_usage_error(capsys, tmp_path):
    path = tmp_path / "broken.maid"
    path.write_text("chance X {")
    code, _, err = run(capsys, "validate", str(path))
    assert code == 2
    assert "line 1" in err


def test_unknown_subcommand_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


# -- patterns ---------------------------------------------------------------------


def test_patterns_json_schema(capsys, pa_path):
    code, out, _ = run(capsys, "patterns", pa_path, "--json", "--original")
    assert code == 0
    payload = json.loads(out)
    assert isinstance(payload, list) and len(payload) >= 9
    for entry in payload:
        assert set(entry) == {"decision", "kind", "bindings", "witness_paths"}
        assert "u" in entry["bindings"]
        assert all(isinstance(p, str) and " -> " in p or " <- " in p
                   for p in entry["witness_paths"].values())
    kinds = {e["kind"] for e in payload}
    assert kinds == {"direct_effect", "manipulation", "signaling", "reveal_deny"}


def test_patterns_human_output_marks_eliminated(capsys, card_path):
    code, out, _ = run(capsys, "patterns", card_path)
    assert code == 0
    lines = out.splitlines()
    assert "A: no patterns (eliminated)" in lines
    assert "B: direct_effect u=U_B" in lines
    assert any(line.startswith("  d_to_u: B -> U_B") for line in lines)
    # The original game eliminates nothing: A has no pattern there, and no note.
    code, out, _ = run(capsys, "patterns", card_path, "--original")
    assert code == 0
    lines = out.splitlines()
    assert "A: no patterns" in lines
    assert "(eliminated)" not in out


def test_patterns_rejects_invalid_graph(capsys, tmp_path):
    path = tmp_path / "loop.maid"
    path.write_text(CYCLIC)
    code, _, err = run(capsys, "patterns", str(path))
    assert code == 1 and "acyclic" in err


# -- simplify ---------------------------------------------------------------------


def test_simplify_json_payload(capsys, card_path, card1):
    code, out, _ = run(capsys, "simplify", card_path, "--json")
    assert code == 0
    payload = json.loads(out)
    assert set(payload) == {"eliminated", "removed_edges", "iterations", "final"}
    assert payload["eliminated"] == ["A"]
    assert payload["removed_edges"] == [["J", "A"], ["J", "C"], ["A", "B"], ["C", "B"]]
    assert payload["iterations"] == 2
    from maidkit import parse_maidfile, simplify

    assert parse_maidfile(payload["final"]) == simplify(card1).final


def test_simplify_trace_key_is_optional(capsys, card_path):
    code, out, _ = run(capsys, "simplify", card_path, "--json", "--trace")
    payload = json.loads(out)
    assert code == 0
    assert [rec["iteration"] for rec in payload["trace"]] == [1, 2]
    assert payload["trace"][0]["eliminated"] == ["A"]
    assert payload["trace"][0]["pruned_edges"] == [["J", "C"], ["A", "B"], ["C", "B"]]


def test_simplify_out_writes_loadable_file(capsys, card_path, tmp_path):
    target = tmp_path / "small.maid"
    code, out, _ = run(capsys, "simplify", card_path, "--out", str(target))
    assert code == 0
    assert "eliminated: A" in out
    assert "small.maid" not in out  # summary only, graph goes to the file
    code2, out2, _ = run(capsys, "validate", str(target))
    assert (code2, out2) == (0, "ok\n")


def test_simplify_prints_graph_without_out(capsys, card_path):
    _, out, _ = run(capsys, "simplify", card_path)
    assert "chance A {" in out
    assert "iterations: 2" in out


def test_simplify_long_chain_prints_no_traceback(capsys, tmp_path):
    # D -> X0 -> ... -> X2999 -> U is deep enough to exhaust Python's stack
    # in a recursive path search.
    path = tmp_path / "chain.maid"
    path.write_text(render_maidfile(helpers.decision_chain(3000)))
    code, _, err = run(capsys, "simplify", str(path))
    assert "Traceback" not in err
    assert code == 0, err


def test_internal_errors_exit_2_in_one_line(capsys, card_path, monkeypatch):
    def boom(args):
        raise RuntimeError("unexpected\nstate")

    monkeypatch.setattr(cli, "_cmd_validate", boom)
    code, out, err = run(capsys, "validate", card_path)
    assert code == 2 and out == ""
    assert err == "error: internal error: RuntimeError: unexpected state\n"


# -- structural checks ------------------------------------------------------------


@pytest.mark.parametrize("command", ["simplify", "patterns", "verify"])
def test_structural_checks_run_once_per_graph(capsys, monkeypatch, card_path, command):
    # The CLI validates the parsed graph, and simplify and the numeric
    # checks validate it again; the findings are kept on the graph, so the
    # checks themselves run once for each graph.
    checked = []
    check = core._check_structure

    def counting_check(maid):
        checked.append(maid)
        return check(maid)

    monkeypatch.setattr(core, "_check_structure", counting_check)
    code, _, _ = run(capsys, command, card_path)
    assert code == 0
    assert checked, "the parsed graph was not validated"
    ids = [id(m) for m in checked]
    assert len(ids) == len(set(ids))


# -- verify -----------------------------------------------------------------------


def test_verify_card_game_passes(capsys, card_path):
    code, out, _ = run(capsys, "verify", card_path, "--json")
    assert code == 0
    payload = json.loads(out)
    assert set(payload) == {"status", "gaps", "detail"}
    assert payload["status"] == "pass"
    assert sorted(payload["gaps"]) == ["a", "b", "c"]
    assert all(abs(g) <= 1e-9 for g in payload["gaps"].values())


def test_verify_human_output(capsys, card_path):
    code, out, _ = run(capsys, "verify", card_path)
    assert code == 0
    assert out.splitlines()[0] == "status: pass"
    assert any(line.startswith("gap a:") for line in out.splitlines())


def test_verify_rejects_structure_only_games(capsys, pa_path):
    code, out, err = run(capsys, "verify", pa_path)
    assert code == 1
    assert out == ""
    assert "structure-only" in err


@pytest.mark.parametrize("tol", ("nan", "inf", "-1"))
def test_verify_rejects_a_tolerance_that_is_not_finite_and_non_negative(capsys, card_path, tol):
    code, out, err = run(capsys, "verify", card_path, "--tol", tol)
    assert (code, out) == (2, "")
    assert err.startswith("error: tol must be a finite number >= 0, got ")
    assert tol in err


# -- bench ------------------------------------------------------------------------


def test_bench_json_schema(capsys):
    code, out, _ = run(capsys, "bench", "card-game", "--n", "1", "--json")
    assert code == 0
    payload = json.loads(out)
    assert set(payload) == {"n", "monolithic_leaves", "decoupled_total",
                            "per_decision", "wall_time_ms"}
    assert payload["n"] == 1
    assert payload["monolithic_leaves"] == 27
    assert payload["decoupled_total"] == 18
    assert payload["per_decision"] == [{"decision": "B", "leaves": 9},
                                       {"decision": "C", "leaves": 9}]
    assert payload["wall_time_ms"] > 0


def test_bench_growth(capsys):
    for n, mono, total in [(2, 81, 27), (4, 729, 45)]:
        _, out, _ = run(capsys, "bench", "card-game", "--n", str(n), "--json")
        payload = json.loads(out)
        assert payload["monolithic_leaves"] == mono
        assert payload["decoupled_total"] == total


def test_bench_rejects_bad_size(capsys):
    code, _, err = run(capsys, "bench", "card-game", "--n", "0")
    assert code == 2 and "error:" in err
    with pytest.raises(SystemExit) as exc:
        main(["bench", "tic-tac-toe", "--n", "1"])
    assert exc.value.code == 2


# -- fixture ----------------------------------------------------------------------


def test_fixture_stdout_and_file_agree(capsys, tmp_path):
    code, out, _ = run(capsys, "fixture", "principal-agent")
    assert code == 0
    target = tmp_path / "pa.maid"
    code2, out2, _ = run(capsys, "fixture", "principal-agent", "--out", str(target))
    assert (code2, out2) == (0, "")
    assert target.read_text() == out


def test_fixture_sized_card_game(capsys):
    _, out, _ = run(capsys, "fixture", "card-game", "--n", "2")
    assert "decision C_1 {" in out and "decision C_2 {" in out


def test_fixture_unknown_name_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["fixture", "poker"])
    assert exc.value.code == 2


# -- export-dot -------------------------------------------------------------------


def test_export_dot(capsys, card_path):
    code, out, _ = run(capsys, "export-dot", card_path)
    assert code == 0
    assert out.startswith("digraph maid {")
    assert '"A" [shape=box, label="A (a)"];' in out
    assert '"J" [shape=ellipse, label="J"];' in out
    assert '"U_B" [shape=diamond, label="U_B (b)"];' in out
    assert '"J" -> "A";' in out
    assert out.rstrip().endswith("}")


def test_export_dot_to_file(capsys, card_path, tmp_path):
    target = tmp_path / "card.dot"
    code, out, _ = run(capsys, "export-dot", card_path, "--out", str(target))
    assert (code, out) == (0, "")
    assert target.read_text().startswith("digraph maid {")


# -- determinism -------------------------------------------------------------------


@pytest.mark.parametrize("argv", [
    ("patterns", "{file}", "--json", "--original"),
    ("patterns", "{file}"),
    ("simplify", "{file}", "--json", "--trace"),
    ("verify", "{file}", "--json"),
    ("export-dot", "{file}"),
])
def test_repeat_runs_are_byte_identical(capsys, card_path, argv):
    argv = [a.format(file=card_path) for a in argv]
    first = run(capsys, *argv)
    second = run(capsys, *argv)
    assert first == second


def test_bench_deterministic_apart_from_timing(capsys):
    outs = []
    for _ in range(2):
        _, out, _ = run(capsys, "bench", "card-game", "--n", "3", "--json")
        payload = json.loads(out)
        payload.pop("wall_time_ms")
        outs.append(payload)
    assert outs[0] == outs[1]
