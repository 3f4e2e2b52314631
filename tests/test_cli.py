"""Unit tests for the command-line interface."""

import json

import pytest

from repro.cli import main
from repro.datasets import ranieri_graph
from repro.kg.io import save_graph


@pytest.fixture
def ranieri_file(tmp_path):
    path = tmp_path / "ranieri.tq"
    save_graph(ranieri_graph(), path)
    return path


@pytest.fixture
def program_file(tmp_path):
    path = tmp_path / "rules.dl"
    path.write_text(
        "f1: quad(x, playsFor, y, t) -> quad(x, worksFor, y, t) w=2.5\n"
        "c2: quad(x, coach, y, t) & quad(x, coach, z, t2) & y != z -> disjoint(t, t2)\n",
        encoding="utf-8",
    )
    return path


class TestListingCommands:
    def test_datasets(self, capsys):
        assert main(["datasets"]) == 0
        out = capsys.readouterr().out
        assert "footballdb" in out and "ranieri" in out

    def test_solvers(self, capsys):
        assert main(["solvers"]) == 0
        out = capsys.readouterr().out
        assert "nrockit" in out and "npsl" in out

    def test_packs(self, capsys):
        assert main(["packs"]) == 0
        out = capsys.readouterr().out
        assert "running-example" in out and "sports" in out


class TestStats:
    def test_stats_for_registered_dataset(self, capsys):
        assert main(["stats", "--dataset", "ranieri"]) == 0
        out = capsys.readouterr().out
        assert "5 facts" in out

    def test_stats_for_graph_file(self, capsys, ranieri_file):
        assert main(["stats", "--graph", str(ranieri_file)]) == 0
        assert "coach" in capsys.readouterr().out

    def test_stats_requires_input(self, capsys):
        assert main(["stats"]) == 1
        assert "error" in capsys.readouterr().err


class TestDetect:
    def test_detect_with_pack(self, capsys):
        assert main(["detect", "--dataset", "ranieri", "--pack", "running-example"]) == 0
        out = capsys.readouterr().out
        assert "conflicting facts" in out

    def test_detect_json(self, capsys):
        assert main(["detect", "--dataset", "ranieri", "--pack", "running-example", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["violations"] == 1
        assert payload["conflicting_facts"] == 2

    def test_detect_requires_constraints(self, capsys):
        assert main(["detect", "--dataset", "ranieri"]) == 1
        assert "error" in capsys.readouterr().err


class TestResolve:
    def test_resolve_running_example(self, capsys):
        exit_code = main(
            ["resolve", "--dataset", "ranieri", "--pack", "running-example", "--solver", "nrockit"]
        )
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "Napoli" in out
        assert "removed facts" in out

    def test_resolve_json_output(self, capsys):
        exit_code = main(["resolve", "--dataset", "ranieri", "--pack", "running-example", "--json"])
        assert exit_code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["statistics"]["removed_facts"] == 1

    def test_resolve_from_files(self, capsys, ranieri_file, program_file):
        exit_code = main(
            [
                "resolve",
                "--graph", str(ranieri_file),
                "--program", str(program_file),
                "--solver", "npsl",
            ]
        )
        assert exit_code == 0
        assert "Napoli" in capsys.readouterr().out

    def test_resolve_with_threshold(self, capsys):
        exit_code = main(
            [
                "resolve",
                "--dataset", "ranieri",
                "--pack", "running-example",
                "--threshold", "0.95",
                "--json",
            ]
        )
        assert exit_code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["statistics"]["inferred_facts"] == 0

    def test_resolve_unknown_solver_rejected(self):
        with pytest.raises(SystemExit):
            main(
                [
                    "resolve",
                    "--dataset",
                    "ranieri",
                    "--pack",
                    "running-example",
                    "--solver",
                    "gurobi",
                ]
            )

    @pytest.mark.parametrize("solver", ["maxwalksat", "nrockit-bnb"])
    def test_resolve_rejects_a_removed_ablation_solver(self, capsys, solver):
        with pytest.raises(SystemExit) as excinfo:
            main(
                ["resolve", "--dataset", "ranieri", "--pack", "running-example", "--solver", solver]
            )
        assert excinfo.value.code == 2
        assert f"invalid choice: '{solver}'" in capsys.readouterr().err


class TestResolveBatch:
    def test_resolve_batch_text_output(self, capsys, ranieri_file, program_file):
        exit_code = main(
            [
                "resolve-batch",
                str(ranieri_file), str(ranieri_file),
                "--program", str(program_file),
                "--solver", "npsl",
            ]
        )
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "batch: 2 graphs" in out
        assert "graphs/s" in out

    def test_resolve_batch_json(self, capsys, ranieri_file):
        exit_code = main(["resolve-batch", str(ranieri_file), "--pack", "running-example", "--json"])
        assert exit_code == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["results"]) == 1
        assert payload["results"][0]["statistics"]["removed_facts"] == 1

    def test_resolve_batch_requires_program(self, capsys, ranieri_file):
        assert main(["resolve-batch", str(ranieri_file)]) == 1
        assert "error" in capsys.readouterr().err

    def test_resolve_batch_incremental_matches_plain(self, capsys, ranieri_file, tmp_path):
        from repro.datasets import ranieri_graph
        from repro.kg.io import save_graph

        edited = ranieri_graph().copy(name="ranieri-edited")
        edited.remove(("CR", "coach", "Napoli", (2001, 2003)))
        edited_file = tmp_path / "ranieri-edited.tq"
        save_graph(edited, edited_file)

        def run(extra):
            exit_code = main(
                [
                    "resolve-batch",
                    str(ranieri_file), str(edited_file),
                    "--pack", "running-example",
                    "--json",
                    *extra,
                ]
            )
            assert exit_code == 0
            return json.loads(capsys.readouterr().out)

        plain = run([])
        incremental = run(["--incremental"])
        assert len(incremental["results"]) == 2
        for one, two in zip(plain["results"], incremental["results"]):
            assert one["statistics"]["removed_facts"] == two["statistics"]["removed_facts"]
            assert one["statistics"]["objective"] == two["statistics"]["objective"]
        assert incremental["results"][1]["delta"]["facts_removed"] == 1


@pytest.fixture
def stream_file(tmp_path):
    path = tmp_path / "edits.stream"
    path.write_text(
        "- CR coach Napoli [2001,2003] 0.6\n"
        "resolve\n"
        "+ CR coach Napoli [2001,2003] 0.6\n",
        encoding="utf-8",
    )
    return path


class TestWatch:
    def test_watch_text_output(self, capsys, ranieri_file, stream_file):
        exit_code = main(
            [
                "watch", str(stream_file),
                "--graph", str(ranieri_file),
                "--pack", "running-example",
            ]
        )
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "initial" in out
        assert "step 1" in out and "step 2" in out
        assert "watched 2 steps" in out
        assert "cache" in out

    def test_watch_json_stream(self, capsys, ranieri_file, stream_file):
        exit_code = main(
            [
                "watch", str(stream_file),
                "--graph", str(ranieri_file),
                "--pack", "running-example",
                "--json",
            ]
        )
        assert exit_code == 0
        lines = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        assert [entry["step"] for entry in lines] == [0, 1, 2]
        assert lines[1]["delta"]["facts_removed"] == 1
        # Step 2 restores the removed fact: the statistics match step 0.
        assert (lines[2]["statistics"]["objective"] == lines[0]["statistics"]["objective"])

    def test_watch_warm_start_flag(self, capsys, ranieri_file, stream_file):
        exit_code = main(
            [
                "watch", str(stream_file),
                "--graph", str(ranieri_file),
                "--pack", "running-example",
                "--solver", "npsl",
                "--warm-start",
                "--json",
            ]
        )
        assert exit_code == 0
        lines = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        assert any(entry["delta"]["warm_started"] > 0 for entry in lines[1:])

    def test_watch_bad_stream_reports_error(self, capsys, ranieri_file, tmp_path):
        bad = tmp_path / "bad.stream"
        bad.write_text("frobnicate CR coach Napoli [1,2]\n", encoding="utf-8")
        exit_code = main(
            [
                "watch", str(bad),
                "--graph", str(ranieri_file),
                "--pack", "running-example",
            ]
        )
        assert exit_code == 1
        assert "error" in capsys.readouterr().err

    def test_watch_requires_program(self, capsys, ranieri_file, stream_file):
        assert main(["watch", str(stream_file), "--graph", str(ranieri_file)]) == 1
        assert "error" in capsys.readouterr().err
