"""Tests for ``repro.lint``: fixtures, suppressions, scratch-copy seeding.

Three layers:

* **fixtures** — known-good/known-bad files under ``tests/lint_fixtures/``
  assert exact rule ids and line numbers per checker;
* **real tree** — ``src/`` and ``tests/`` lint clean (the CI contract);
* **scratch copies** — a deliberate violation of each rule class seeded
  into a copy of ``service.py``/``join_sampler.py`` is caught, proving the
  name-keyed contracts follow the code wherever it lives.
"""

import ast
import inspect
import json
import shutil
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.lint import LintConfig, Severity, run_lint
from repro.lint.core import parse_suppressions
from repro.lint.reporters import render_json, render_text, write_report
from repro.lint.runner import discover

REPO_ROOT = Path(__file__).resolve().parents[1]
FIXTURES = REPO_ROOT / "tests" / "lint_fixtures"
LIBRARY = LintConfig(assume_library=True)


def lint_fixture(name, config=LIBRARY):
    return run_lint([str(FIXTURES / name)], config)


def live_ids_and_lines(result):
    return sorted((f.rule_id, f.line) for f in result.live)


# ------------------------------------------------------------------ fixtures
class TestFixtures:
    def test_known_good_is_clean(self):
        result = lint_fixture("good_clean.py")
        assert result.findings == []
        assert result.exit_code == 0

    def test_rng_rules(self):
        result = lint_fixture("bad_rng.py")
        assert live_ids_and_lines(result) == [
            ("RNG001", 17),
            ("RNG002", 18),
            ("RNG003", 3),
            ("RNG003", 19),
            ("RNG004", 21),
        ]

    def test_epoch_rules(self):
        result = lint_fixture("bad_epoch.py")
        assert live_ids_and_lines(result) == [
            ("EPOCH001", 13),  # sample_block() never refreshes
            ("EPOCH002", 17),  # sample_many() refreshes after first use
        ]

    def test_lock_rule(self):
        result = lint_fixture("bad_locks.py")
        assert live_ids_and_lines(result) == [
            ("LOCK001", 13),
            ("LOCK001", 14),
            ("LOCK001", 15),
        ]
        stores = [f for f in result.live if "written" in f.message]
        assert [f.line for f in stores] == [14]

    def test_merge_rules(self):
        result = lint_fixture("bad_merge.py")
        assert live_ids_and_lines(result) == [
            ("MERGE001", 12),  # self.total += — attempts (int counter) exempt
            ("MERGE002", 15),
        ]

    def test_determinism_rules(self):
        result = lint_fixture("bad_determinism.py")
        assert live_ids_and_lines(result) == [
            ("DET001", 7),
            ("DET002", 10),
        ]

    def test_resource_rules(self):
        result = lint_fixture("bad_resources.py")
        assert live_ids_and_lines(result) == [
            ("RES001", 7),
            ("RES002", 12),
        ]

    def test_contract_rules_require_library_paths(self):
        # Without assume_library a fixture path is not library code, so the
        # contract checkers stay silent — how `tests/` lints clean.
        result = lint_fixture("bad_locks.py", LintConfig())
        assert result.findings == []


# -------------------------------------------------------------- suppressions
class TestSuppressions:
    def test_contract(self):
        result = lint_fixture("suppressed.py")
        # Justified inline + justified standalone directives suppress...
        assert sorted((f.rule_id, f.line) for f in result.suppressed) == [
            ("RNG003", 3),
            ("RNG003", 8),
        ]
        for finding in result.suppressed:
            assert finding.justification
        # ...a bare directive suppresses nothing and raises SUP001.
        assert live_ids_and_lines(result) == [
            ("RNG003", 12),
            ("SUP001", 12),
        ]
        assert result.exit_code == 1

    def test_parse_directives(self):
        sup = parse_suppressions(
            "x = 1  # repro-lint: disable=RNG001,LOCK001 -- two rules, one why\n"
        )
        assert len(sup) == 1
        assert sup[0].rule_ids == ("RNG001", "LOCK001")
        assert sup[0].justification == "two rules, one why"
        assert sup[0].covered_lines == (1,)  # inline: own line only

    def test_standalone_covers_next_line(self):
        sup = parse_suppressions("# repro-lint: disable=DET001 -- why\ny = 2\n")
        assert sup[0].covered_lines == (1, 2)


# ---------------------------------------------------------------- real tree
class TestRealTree:
    def test_src_and_tests_are_clean(self):
        result = run_lint([str(REPO_ROOT / "src"), str(REPO_ROOT / "tests")])
        assert [f.location() + " " + f.rule_id for f in result.live] == []
        assert result.exit_code == 0

    def test_every_registered_name_is_defined_on_its_class(self):
        """Each method or attribute a LOCK/EPOCH/MERGE contract names is
        defined on its class in ``src/`` (a ``def``, a class-level name, a
        ``__slots__`` entry or a ``self.<name>`` assignment), so a contract
        cannot keep pointing at deleted code.  The decorators of
        ``locked_decorators`` are module-level functions and are excepted."""
        from repro.lint.registry import EPOCH_REGISTRY, LOCK_REGISTRY, MERGE_REGISTRY

        named = {}
        for cls, lock in LOCK_REGISTRY.items():
            named.setdefault(cls, set()).update(lock.locks, *lock.locks.values())
        for cls, epoch in EPOCH_REGISTRY.items():
            named.setdefault(cls, set()).update(
                epoch.refresh_methods, epoch.cached_attrs, epoch.entry_points, epoch.exempt
            )
        for cls, merge in MERGE_REGISTRY.items():
            named.setdefault(cls, set()).update(merge.int_counters)

        defined = {}
        for path in sorted((REPO_ROOT / "src").rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.ClassDef) and node.name in named:
                    defined.setdefault(node.name, set()).update(_class_names(node))
        assert set(defined) == set(named), "a registered class is not in src/"
        stale = {cls: sorted(named[cls] - defined[cls]) for cls in named}
        assert {cls: names for cls, names in stale.items() if names} == {}

    def test_discovery_skips_fixture_and_cache_dirs(self):
        files = discover([str(REPO_ROOT / "tests")], ("lint_fixtures", "__pycache__"))
        names = {Path(f).name for f in files}
        assert "bad_rng.py" not in names
        assert "test_lint.py" in names


def _class_names(node):
    """The names a class body defines: methods, class-level assignments,
    ``__slots__`` entries, and attributes its methods assign on ``self``."""
    names = set()
    for item in node.body:
        if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
            names.add(item.name)
        targets = item.targets if isinstance(item, ast.Assign) else (
            [item.target] if isinstance(item, ast.AnnAssign) else []
        )
        for target in targets:
            if isinstance(target, ast.Name) and target.id == "__slots__":
                names.update(ast.literal_eval(item.value))
            elif isinstance(target, ast.Name):
                names.add(target.id)
    for sub in ast.walk(node):
        if (
            isinstance(sub, ast.Attribute)
            and isinstance(sub.ctx, ast.Store)
            and isinstance(sub.value, ast.Name)
            and sub.value.id == "self"
        ):
            names.add(sub.attr)
    return names


# ---------------------------------------- seeded violations in scratch copies
def _scratch_copy(tmp_path, relative):
    """Copy a real module to a scratch tree that still counts as library."""
    source = REPO_ROOT / relative
    target = tmp_path / relative  # keeps the src/repro/ path segment
    target.parent.mkdir(parents=True, exist_ok=True)
    shutil.copy(source, target)
    return target


def _assert_catches(path, rule_id):
    result = run_lint([str(path)])
    assert rule_id in {f.rule_id for f in result.live}, render_text(result)
    assert result.exit_code == 1


class TestScratchCopySeeding:
    """Each rule class catches a violation planted in a copied real module."""

    def test_pristine_copies_are_clean(self, tmp_path):
        for relative in (
            "src/repro/server/service.py",
            "src/repro/sampling/join_sampler.py",
        ):
            path = _scratch_copy(tmp_path, relative)
            result = run_lint([str(path)])
            assert result.live == [], render_text(result)

    def test_rng_violation_in_service_copy(self, tmp_path):
        path = _scratch_copy(tmp_path, "src/repro/server/service.py")
        path.write_text(
            path.read_text()
            + "\n\nimport numpy as _np\n\n"
            + "def _scratch_stream():\n"
            + "    return _np.random.default_rng()\n"
        )
        _assert_catches(path, "RNG001")

    def test_epoch_violation_in_join_sampler_copy(self, tmp_path):
        path = _scratch_copy(tmp_path, "src/repro/sampling/join_sampler.py")
        text = path.read_text()
        mutated = text.replace(
            "self.refresh()\n        drained = self._block_buffer",
            "drained = self._block_buffer",
        )
        assert mutated != text  # the refresh call we remove must exist
        path.write_text(mutated)
        _assert_catches(path, "EPOCH001")

    def test_epoch_violation_in_online_sampler_copy(self, tmp_path):
        """The membership memo is epoch state: a public method that reads
        through ``membership`` without refreshing first is caught."""
        path = _scratch_copy(tmp_path, "src/repro/core/online_sampler.py")
        assert run_lint([str(path)]).live == []
        text = path.read_text()
        mutated = text.replace(
            "    # ------------------------------------------------------------------ rounds\n",
            "    def known(self, name, value):\n"
            "        return self.membership.memo.get((name, value))\n\n",
        )
        assert mutated != text
        path.write_text(mutated)
        _assert_catches(path, "EPOCH001")

    @pytest.mark.parametrize(
        "attr", ["_ledger", "_records", "_pools", "parameters", "confidence_level"]
    )
    def test_per_snapshot_reader_in_online_sampler_copy(self, tmp_path, attr):
        """Every field ``_start_snapshot`` sets is epoch state: a public
        reader of any of them that skips ``refresh()`` is caught."""
        path = _scratch_copy(tmp_path, "src/repro/core/online_sampler.py")
        text = path.read_text()
        mutated = text.replace(
            "    # ------------------------------------------------------------------ rounds\n",
            f"    def peek(self):\n        return self.{attr}\n\n",
        )
        assert mutated != text
        path.write_text(mutated)
        _assert_catches(path, "EPOCH001")

    def test_the_contract_names_what_start_snapshot_sets(self):
        """The EPOCH001 contract and the one per-snapshot reset list the
        same fields, so a field added to either is caught without the other."""
        from repro.core.online_sampler import OnlineUnionSampler
        from repro.lint.registry import EPOCH_REGISTRY

        source = textwrap.dedent(inspect.getsource(OnlineUnionSampler._start_snapshot))
        assigned = {
            node.attr
            for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Store)
            and isinstance(node.value, ast.Name)
            and node.value.id == "self"
        }
        assert assigned == EPOCH_REGISTRY["OnlineUnionSampler"].cached_attrs

    def test_epoch_violation_in_alias_table_copy(self, tmp_path):
        """The table's built flags and cold-draw count are per-snapshot
        state: a new public reader has to be registered, or it is caught."""
        path = _scratch_copy(tmp_path, "src/repro/sampling/alias.py")
        assert run_lint([str(path)]).live == []
        text = path.read_text()
        mutated = text.replace(
            "    # ------------------------------------------------------------------ draws\n",
            "    def is_hot(self):\n"
            "        return self._all_built or self._cold_draws > 0\n\n",
        )
        assert mutated != text
        path.write_text(mutated)
        _assert_catches(path, "EPOCH001")

    def test_lock_violation_in_join_sampler_copy(self, tmp_path):
        path = _scratch_copy(tmp_path, "src/repro/sampling/join_sampler.py")
        text = path.read_text()
        mutated = text.replace(
            "@_locked\n    def pop_buffered_blocks(self)",
            "def pop_buffered_blocks(self)",
        )
        assert mutated != text
        path.write_text(mutated)
        _assert_catches(path, "LOCK001")

    def test_merge_violation_in_service_copy(self, tmp_path):
        path = _scratch_copy(tmp_path, "src/repro/server/service.py")
        path.write_text(
            path.read_text()
            + "\n\nclass AggregateAccumulator:\n"
            + "    def merge(self, other):\n"
            + "        self.mean += other.mean\n"
        )
        _assert_catches(path, "MERGE001")

    def test_determinism_violation_in_service_copy(self, tmp_path):
        path = _scratch_copy(tmp_path, "src/repro/server/service.py")
        path.write_text(
            path.read_text()
            + "\n\ndef shape_key(parts):\n"
            + "    return (time.time(), tuple(parts))\n"
        )
        _assert_catches(path, "DET001")

    def test_resource_violation_in_service_copy(self, tmp_path):
        path = _scratch_copy(tmp_path, "src/repro/server/service.py")
        path.write_text(
            path.read_text()
            + "\n\ndef _scratch_handle(admission, work):\n"
            + "    ticket = admission.admit(1.0)\n"
            + "    return work()\n"
        )
        _assert_catches(path, "RES001")


# ------------------------------------------------------- reporters and exits
class TestReporting:
    def test_json_report_shape(self, tmp_path):
        result = lint_fixture("bad_merge.py")
        document = json.loads(render_json(result))
        assert document["format_version"] == 1
        assert document["tool"] == "repro.lint"
        rule_ids = {rule["id"] for rule in document["rules"]}
        # Catalogue includes every checker family plus the meta rules.
        for rule_id in (
            "RNG001", "EPOCH001", "LOCK001", "MERGE001",
            "DET001", "RES001", "SUP001", "PARSE001",
        ):
            assert rule_id in rule_ids
        assert document["summary"]["errors"] == 2
        assert document["summary"]["exit_code"] == 1
        assert len(document["findings"]) == 2

        report = tmp_path / "LINT_REPORT.json"
        write_report(result, str(report))
        assert json.loads(report.read_text())["summary"]["errors"] == 2

    def test_parse_error_is_a_finding(self, tmp_path):
        broken = tmp_path / "broken.py"
        broken.write_text("def oops(:\n")
        result = run_lint([str(broken)])
        assert [f.rule_id for f in result.live] == ["PARSE001"]
        assert result.exit_code == 1

    def test_rule_filter(self):
        config = LintConfig(assume_library=True, rules=("MERGE002",))
        result = run_lint([str(FIXTURES / "bad_merge.py")], config)
        assert [f.rule_id for f in result.live] == ["MERGE002"]

    def test_severity_partition(self):
        result = lint_fixture("bad_rng.py")
        assert all(f.severity is Severity.ERROR for f in result.live)


class TestCli:
    def _run(self, *args):
        return subprocess.run(
            [sys.executable, "-m", "repro.lint", *args],
            capture_output=True, text=True, cwd=str(REPO_ROOT),
        )

    def test_clean_tree_exits_zero(self):
        proc = self._run("src")
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "0 error(s)" in proc.stdout

    def test_violations_exit_one_and_report(self, tmp_path):
        report = tmp_path / "LINT_REPORT.json"
        proc = self._run(
            "tests/lint_fixtures/bad_locks.py",
            "--assume-library", "--format", "json", "--report", str(report),
        )
        assert proc.returncode == 1
        assert json.loads(report.read_text())["summary"]["errors"] == 3

    def test_list_rules(self):
        proc = self._run("--list-rules")
        assert proc.returncode == 0
        for rule_id in ("RNG004", "EPOCH002", "LOCK001", "MERGE001", "DET002", "RES002"):
            assert rule_id in proc.stdout


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-q"]))
