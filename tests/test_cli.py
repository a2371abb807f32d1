"""Tests for the command-line interface."""

import numpy as np
import pytest

from repro.cli import build_parser, main, resolve_instance
from repro.tsp import tsplib


class TestResolveInstance:
    def test_registry_name(self):
        inst = resolve_instance("E100")
        assert inst.n == 100

    def test_paper_name(self):
        inst = resolve_instance("fl3795")
        assert inst.name == "fl300"

    def test_generator_spec(self):
        inst = resolve_instance("uniform:50:9")
        assert inst.n == 50
        again = resolve_instance("uniform:50:9")
        np.testing.assert_array_equal(inst.coords, again.coords)

    def test_generator_spec_default_seed(self):
        assert resolve_instance("clustered:40").n == 40

    def test_tsp_file(self, tmp_path, small_instance):
        path = tmp_path / "x.tsp"
        tsplib.dump(small_instance, path)
        inst = resolve_instance(str(path))
        assert inst.n == small_instance.n

    def test_unresolvable_exits(self):
        with pytest.raises(SystemExit, match="cannot resolve"):
            resolve_instance("atlantis:x")


class TestCommands:
    def test_testbed_lists_all(self, capsys):
        assert main(["testbed"]) == 0
        out = capsys.readouterr().out
        assert "fl300" in out and "sw520" in out
        assert "paper" in out

    def test_info(self, capsys):
        assert main(["info", "uniform:40:1"]) == 0
        out = capsys.readouterr().out
        assert "cities            : 40" in out
        assert "guessed class" in out

    def test_clk_with_tour_output(self, tmp_path, capsys):
        out_file = tmp_path / "t.tour"
        rc = main(["clk", "uniform:30:2", "--budget", "0.2",
                   "--out", str(out_file)])
        assert rc == 0
        inst = resolve_instance("uniform:30:2")
        tour = tsplib.load_tour(out_file, inst)
        assert tour.is_valid()

    def test_solve_and_save_run(self, tmp_path, capsys):
        run_file = tmp_path / "run.json"
        rc = main([
            "solve", "uniform:30:2", "--nodes", "2", "--budget", "0.2",
            "--topology", "ring", "--save-run", str(run_file),
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "best tour:" in out
        assert run_file.exists()

    def test_exact_small(self, capsys):
        assert main(["exact", "uniform:10:3"]) == 0
        assert "optimum" in capsys.readouterr().out

    def test_exact_beyond_the_dp_limit_is_an_error(self):
        # The DP's own limit is the only one; no other solver takes over.
        with pytest.raises(SystemExit, match="n <= 18"):
            main(["exact", "uniform:19:1"])

    def test_bound(self, capsys):
        assert main(["bound", "uniform:25:4", "--iterations", "30"]) == 0
        assert "Held-Karp lower bound" in capsys.readouterr().out

    def test_solve_with_trace_then_summarize(self, tmp_path, capsys):
        trace_file = tmp_path / "run.trace.jsonl"
        rc = main([
            "solve", "uniform:40:2", "--nodes", "2", "--budget", "0.5",
            "--topology", "ring", "--trace", str(trace_file),
        ])
        assert rc == 0
        assert "trace written to" in capsys.readouterr().err
        assert trace_file.exists()

        assert main(["trace", "summarize", str(trace_file)]) == 0
        out = capsys.readouterr().out
        assert "time in phase" in out
        assert "span tree" in out
        assert "phase.optimize" in out

    def test_trace_flag_leaves_global_tracer_untouched(self, tmp_path):
        from repro.obs import get_tracer

        before = get_tracer()
        main(["clk", "uniform:30:2", "--budget", "0.1",
              "--trace", str(tmp_path / "clk.trace.jsonl")])
        assert get_tracer() is before

    def test_trace_compare(self, tmp_path, capsys):
        trace_file = tmp_path / "a.jsonl"
        main(["clk", "uniform:30:2", "--budget", "0.2",
              "--trace", str(trace_file)])
        capsys.readouterr()
        rc = main(["trace", "compare", str(trace_file), str(trace_file)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "span totals" in out
        assert "+0.0%" in out

    def test_parser_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_version(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["--version"])
