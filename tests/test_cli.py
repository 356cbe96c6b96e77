"""Tests for the figure-regeneration CLI."""

import os
import pathlib
import subprocess
import sys

import pytest

from repro.cli import main

REPO = pathlib.Path(__file__).resolve().parents[1]
RESULTS = REPO / "benchmarks" / "results"


@pytest.mark.parametrize("command, archive", [
    ("fig1", "fig1_dispatch_timeline"),
    ("fig7", "fig7_crypt"),
    ("fig8", "fig8_crypt"),
    ("fig9", "fig9_http_throughput"),
])
def test_default_figure_prints_the_archived_table(capsys, command, archive):
    """One sweep per figure: with default arguments the CLI prints exactly
    what benchmarks/bench_figN_*.py archives."""
    assert main([command]) == 0
    assert capsys.readouterr().out == (RESULTS / f"{archive}.txt").read_text()


class TestFigures:
    def test_fig1(self, capsys):
        assert main(["fig1"]) == 0
        out = capsys.readouterr().out
        assert "single-threaded" in out
        assert "request3" in out

    def test_fig7_small(self, capsys):
        assert main([
            "fig7", "--kernel", "series", "--rates", "10,40",
            "--events", "40", "--approaches", "sequential,pyjama_async",
        ]) == 0
        out = capsys.readouterr().out
        assert "Figure 7 [series]" in out
        assert out.count("|") >= 6

    def test_fig7_bad_approach(self, capsys):
        assert main([
            "fig7", "--approaches", "warp_drive", "--rates", "10", "--events", "5",
        ]) == 2

    def test_fig8_small(self, capsys):
        assert main(["fig8", "--rates", "10,80", "--events", "40"]) == 0
        out = capsys.readouterr().out
        assert "async-par" in out
        assert "x" in out

    def test_fig9_small(self, capsys):
        assert main(["fig9", "--workers", "2,16", "--users", "30"]) == 0
        out = capsys.readouterr().out
        assert "Figure 9" in out
        assert "pyjama" in out

    def test_rates_parse_error(self, capsys):
        with pytest.raises(SystemExit):
            main(["fig7", "--rates", "ten,twenty"])


class TestTimeline:
    def test_timeline_renders_lanes(self, capsys):
        assert main([
            "timeline", "--approach", "pyjama_async", "--rate", "30",
            "--events", "4", "--width", "48",
        ]) == 0
        out = capsys.readouterr().out
        assert "edt |" in out
        assert "worker-0" in out
        assert "█" in out

    def test_timeline_sequential_edt_solid(self, capsys):
        assert main([
            "timeline", "--approach", "sequential", "--rate", "30",
            "--events", "4", "--width", "40",
        ]) == 0
        out = capsys.readouterr().out
        edt_line = next(l for l in out.splitlines() if l.strip().startswith("edt"))
        cells = edt_line.split("|")[1]
        assert cells.count("·") <= 2  # the EDT never gets a break

    def test_timeline_bad_approach(self):
        assert main(["timeline", "--approach", "nope"]) == 2

    def test_timeline_pumping_style(self, capsys):
        assert main([
            "timeline", "--approach", "pyjama_async", "--rate", "60",
            "--events", "4", "--width", "40", "--await-style", "pumping",
        ]) == 0
        out = capsys.readouterr().out
        assert "edt |" in out


class TestCompile:
    def test_compile_to_stdout(self, capsys, tmp_path):
        src = tmp_path / "app.py"
        src.write_text(
            "def f():\n"
            "    #omp target virtual(worker) nowait\n"
            "    work()\n"
        )
        assert main(["compile", str(src)]) == 0
        out = capsys.readouterr().out
        assert "import repro.compiler.bridge as __repro_omp__" in out
        assert "run_on('worker'" in out

    def test_compile_to_file_and_run(self, tmp_path, capsys):
        src = tmp_path / "app.py"
        src.write_text(
            "from repro.core import default_runtime, reset_default_runtime\n"
            "reset_default_runtime()\n"
            "default_runtime().create_worker('worker', 1)\n"
            "def f():\n"
            "    #omp target virtual(worker)\n"
            "    v = 'ran'\n"
            "    return v\n"
            "RESULT = f()\n"
            "reset_default_runtime()\n"
        )
        out_path = tmp_path / "app_c.py"
        assert main(["compile", str(src), "-o", str(out_path)]) == 0
        ns: dict = {"__name__": "compiled_app"}
        exec(compile(out_path.read_text(), str(out_path), "exec"), ns)
        assert ns["RESULT"] == "ran"

    def test_compile_missing_file(self, capsys):
        assert main(["compile", "/nonexistent/x.py"]) == 2

    def test_compile_bad_directive(self, tmp_path, capsys):
        src = tmp_path / "bad.py"
        src.write_text("#omp target nowait\nx = 1\n")
        assert main(["compile", str(src)]) == 2
        assert "compile error" in capsys.readouterr().err


class TestKernels:
    def test_kernels_table(self, capsys):
        assert main(["kernels", "--size", "A"]) == 0
        out = capsys.readouterr().out
        for name in ("crypt", "series", "montecarlo", "raytracer", "sor"):
            assert name in out
        assert "True" in out
        assert "ext" in out

    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            main([])


class TestLazyImports:
    def test_importing_the_cli_loads_no_subsystem(self):
        """``python -m repro cluster-worker`` (the agent the cluster target
        spawns) must not pay for numpy, the simulator or the checkers: each
        command imports what it drives."""
        probe = (
            "import sys, repro.cli; print(sorted(m for m in sys.modules if m == 'numpy'"
            " or m.split('.')[:2] in (['repro', 'sim'], ['repro', 'kernels'],"
            " ['repro', 'check'], ['repro', 'explore'])))"
        )
        env = {**os.environ, "PYTHONPATH": str(REPO / "src")}
        out = subprocess.run(
            [sys.executable, "-c", probe], env=env, capture_output=True, text=True,
            check=True, timeout=60,
        ).stdout
        assert out.strip() == "[]"

    def test_an_agent_loads_none_of_the_client_side(self):
        """A cluster agent, forked or ``cluster-worker``, serves regions:
        it imports neither the cluster target nor the runtime behind it."""
        probe = (
            "import sys, repro.cluster.agent; print(sorted(m for m in ("
            "'repro.cluster.target', 'repro.dist.remote_target', 'repro.core.targets')"
            " if m in sys.modules))"
        )
        env = {**os.environ, "PYTHONPATH": str(REPO / "src")}
        out = subprocess.run(
            [sys.executable, "-c", probe], env=env, capture_output=True, text=True,
            check=True, timeout=60,
        ).stdout
        assert out.strip() == "[]"

    @pytest.mark.parametrize("command", ["check", "explore"])
    def test_unknown_inject_mode_exits_2_naming_the_valid_ones(self, capsys, command):
        assert main([command, "--inject", "bogus"]) == 2
        err = capsys.readouterr().err
        assert "bogus" in err and "lost-dequeue" in err
