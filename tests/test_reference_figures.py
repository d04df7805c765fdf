"""Figure bytes against the benchmark's recorded reference.

``bench/reference.json`` holds the SHA-256 of every quick figure block
the benchmark checks. Rendering the cheap ones here makes a change that
moves figure bytes (an attribution or model change) fail in the tier-1
suite, not only in a benchmark run. The benchmark's own block splitter
and digest are reused, so both checks read the output the same way.
"""

from __future__ import annotations

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
BENCH = ROOT / "bench"

#: Quick figures cheap enough for every push (a few seconds each).
FIGURES = ("table1", "table2", "fig4", "fig5", "fig6")


def _bench_run(monkeypatch):
    """Import ``bench/run.py`` without writing into ``bench/`` or
    leaving its directory on ``sys.path``."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.setattr(sys, "path", list(sys.path))
    spec = importlib.util.spec_from_file_location("bench_run",
                                                  BENCH / "run.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _assert_figures_match(figures, tmp_path, monkeypatch, **env_extra):
    """Render ``figures`` in a fresh process; compare their digests."""
    bench = _bench_run(monkeypatch)
    reference = json.loads(
        (BENCH / "reference.json").read_text(encoding="utf-8"))["figures"]
    env = {key: value for key, value in os.environ.items()
           if not key.startswith("REPRO_")}
    env.update(PYTHONPATH=str(ROOT / "src"),
               REPRO_CACHE_DIR=str(tmp_path / "cache"), **env_extra)
    done = subprocess.run(
        [sys.executable, "-m", "repro", "figures", *figures],
        cwd=tmp_path, env=env, capture_output=True, text=True,
        timeout=600)
    assert done.returncode == 0, done.stderr
    blocks = bench.figure_blocks(done.stdout)
    for name in figures:
        assert name in blocks, name
        assert bench.digest(blocks[name]) == reference[name], \
            f"{name} moved:\n{blocks[name]}"


def test_quick_figures_match_bench_reference(tmp_path, monkeypatch):
    _assert_figures_match(FIGURES, tmp_path, monkeypatch)


def test_figure_without_compiler_matches_bench_reference(tmp_path,
                                                         monkeypatch):
    """``CC=false`` builds no kernel, so fig5's burst flush, trace codec
    and memory side run their Python fallbacks: same bytes."""
    _assert_figures_match(("fig5",), tmp_path, monkeypatch, CC="false")
