"""scripts/mutants.py: its table against the tree, and its outcome logic on
a throwaway git checkout whose suite is a stand-in script."""

import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

_ROOT = Path(__file__).resolve().parent.parent
_SPEC = importlib.util.spec_from_file_location("mutants", _ROOT / "scripts" / "mutants.py")
mutants = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(mutants)
Mutant = mutants.Mutant


def test_every_row_of_the_table_applies_to_the_source():
    assert mutants.stale(_ROOT, mutants.MUTANTS) == []
    assert len({m.name for m in mutants.MUTANTS}) == len(mutants.MUTANTS)
    for m in mutants.MUTANTS:
        assert m.old != m.new, m.name
        assert m.expected == mutants.KILLED or m.expected.startswith("equivalent: "), m.name


def test_the_suite_runs_with_a_fixed_hypothesis_seed():
    # a verdict must not depend on which examples Hypothesis happens to draw
    assert "--hypothesis-seed=0" in mutants.TESTS
    assert mutants.TESTS.index("--hypothesis-seed=0") < mutants.TESTS.index("tests")


def test_a_row_is_stale_unless_its_old_text_occurs_once(tmp_path):
    (tmp_path / "a.py").write_text("x = 1\ny = 2\ny = 2\n")
    rows = [Mutant("once", "a.py", "x = 1", "x = 3", mutants.KILLED),
            Mutant("twice", "a.py", "y = 2", "y = 3", mutants.KILLED),
            Mutant("absent", "a.py", "z = 1", "z = 3", mutants.KILLED),
            Mutant("no file", "b.py", "x = 1", "x = 3", mutants.KILLED)]
    assert mutants.stale(tmp_path, rows) == ["twice", "absent", "no file"]


@pytest.mark.parametrize("expected, killed, fails", [
    ("killed", True, False),
    ("killed", False, True),  # the one outcome that fails the run
    ("equivalent: same roots", False, False),
    ("equivalent: same roots", True, False),
])
def test_only_an_unexpected_survivor_fails_the_run(expected, killed, fails):
    line, failed = mutants.verdict(Mutant("m", "a.py", "1", "2", expected), killed)
    assert failed is fails
    assert ("SURVIVED" in line) is fails
    if expected != "killed":
        assert expected in line


# the stand-in suite: it fails while x != 1, and names its failing test
_SUITE = '''import sys
sys.path.insert(0, "src")
import a
if a.x != 1:
    print("FAILED tests/test_a.py::test_x - assert 3 == 1")
    sys.exit(1)
print("1 passed")
'''


def _git(repo, *args):
    return subprocess.run(["git", "-c", "user.name=t", "-c", "user.email=t@t", *args],
                          cwd=repo, check=True, capture_output=True, text=True).stdout.strip()


def _fake_checkout(tmp_path, monkeypatch, rows):
    repo = tmp_path / "repo"
    (repo / "src").mkdir(parents=True)
    (repo / "src" / "a.py").write_text("x = 1\ny = 2\n")
    (repo / "suite.py").write_text(_SUITE)
    _git(repo, "init", "-q")
    _git(repo, "add", "-A")
    _git(repo, "commit", "-q", "-m", "fake")
    monkeypatch.chdir(repo / "src")  # any directory of the checkout
    monkeypatch.setattr(mutants, "TESTS", [sys.executable, "suite.py"])
    monkeypatch.setattr(mutants, "MUTANTS", rows)
    return repo


def test_a_run_reports_each_outcome_and_fails_on_a_survivor(tmp_path, monkeypatch, capsys):
    rows = [Mutant("breaks x", "src/a.py", "x = 1", "x = 3", mutants.KILLED),
            Mutant("moves y", "src/a.py", "y = 2", "y = 3", "equivalent: nothing reads y"),
            Mutant("moves y again", "src/a.py", "y = 2", "y = 4", mutants.KILLED)]
    repo = _fake_checkout(tmp_path, monkeypatch, rows)
    assert mutants.main([]) == 1
    out = capsys.readouterr().out.splitlines()
    assert out == ["breaks x: killed (tests/test_a.py::test_x)",
                   "moves y: survived, equivalent: nothing reads y",
                   "moves y again: SURVIVED, expected killed"]
    assert (repo / "src" / "a.py").read_text() == "x = 1\ny = 2\n"  # copies are mutated
    assert mutants.main(["--only", "breaks x", "moves y"]) == 0


def test_a_stale_table_runs_nothing(tmp_path, monkeypatch, capsys):
    rows = [Mutant("breaks x", "src/a.py", "x = 1", "x = 3", mutants.KILLED),
            Mutant("gone", "src/a.py", "z = 1", "z = 3", mutants.KILLED)]
    _fake_checkout(tmp_path, monkeypatch, rows)
    assert mutants.main([]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "['gone']" in captured.err
    assert mutants.main(["--only", "no such row"]) == 2
