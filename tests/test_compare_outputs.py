"""scripts/compare_outputs.py on a scratch git repository whose CLI is a
stand-in that writes two small files per run."""

from __future__ import annotations

import importlib.util
import subprocess
from pathlib import Path

import pytest

from smootherlab.cli import _COMMANDS, MODEL_DEFAULTS

_SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"

_CLI = '''import sys
from pathlib import Path

SCALE = {scale!r}
args = sys.argv[1:]
if args[0] == "fails":
    sys.exit(1)
out = Path(args[args.index("--out") + 1])
out.mkdir(parents=True)
(out / "config.json").write_text(args[0])
value = SCALE if args[0] == "scaled" else 1.0
(out / "values.csv").write_text(f"name,value\\nx,{{value!r}}\\ny,2.0\\n")
{extra}print("wrote", out)
'''


@pytest.fixture
def compare_outputs(monkeypatch):
    monkeypatch.syspath_prepend(str(_SCRIPTS))  # it imports bench_pairs
    spec = importlib.util.spec_from_file_location("compare_outputs",
                                                  _SCRIPTS / "compare_outputs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _repo(path: Path) -> Path:
    """A git repository whose committed stand-in CLI has SCALE = 1.0."""
    package = path / "src" / "smootherlab"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("")
    (package / "cli.py").write_text(_CLI.format(scale=1.0, extra=""))
    for argv in (["init", "-q"], ["add", "-A"], ["commit", "-q", "-m", "base"]):
        subprocess.run(["git", "-c", "user.name=t", "-c", "user.email=t@t",
                        "-c", "commit.gpgsign=false", *argv],
                       cwd=path, check=True, capture_output=True)
    return package / "cli.py"


def test_identical_outputs_leave_nothing_to_report(compare_outputs, tmp_path):
    _repo(tmp_path)
    found, n_files = compare_outputs.compare("HEAD", {"a": ["plain"], "b": ["scaled"]},
                                             root=tmp_path)
    assert (found, n_files) == ([], 4)


def test_changed_files_new_files_and_failed_runs_are_reported(compare_outputs, tmp_path):
    cli = _repo(tmp_path)
    # an uncommitted edit: the scaled run's value moves by one unit in the
    # last place, and every run writes one more file
    cli.write_text(_CLI.format(scale=1.0 + 2.0**-52,
                               extra='(out / "new.csv").write_text("x")\n'))
    found, n_files = compare_outputs.compare(
        "HEAD", {"a": ["plain"], "b": ["scaled"], "c": ["fails"]}, root=tmp_path)
    assert found == [
        "c: exit code 1 on the parent side",
        "c: exit code 1 on the change side",
        "a/new.csv: written on one side only",
        "b/new.csv: written on one side only",
        "b/values.csv: column value worst relative difference 2.22e-16",
    ]
    assert n_files == 4


def test_runs_cover_every_subcommand_and_family(compare_outputs):
    desk, full = compare_outputs.runs(), compare_outputs.runs(full=True)
    assert len(desk) == 3 * 3 * 2 + 4 + 2 * 9 + 4
    assert {args[0] for args in desk.values()} == set(_COMMANDS)
    for command, kinds in [("fit", MODEL_DEFAULTS), ("effparams", MODEL_DEFAULTS),
                           ("bias-variance", ("ols", "knn", "minnorm", "mean"))]:
        assert {args[-1] for args in desk.values() if args[0] == command} == {
            f"model.kind={kind}" for kind in kinds}
    assert all("--svg" in args for name, args in desk.items() if name.endswith(("-t1", "-t2")))
    extra = [args for name, args in full.items() if name not in desk]
    assert len(extra) == 6 and all("--full-scale" in args for args in extra)
