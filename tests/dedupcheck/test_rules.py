"""Fixture tests for the dedupcheck rule pack.

Each rule gets one violating and one clean fixture (same virtual
package path, so only the code differs), plus applicability tests for
the path-based exemptions and a self-check that the real source tree
is DDC-clean.
"""

from pathlib import Path

import pytest

from tools.dedupcheck import ALL_RULES, Violation, check_paths, check_source
from tools.dedupcheck.__main__ import main

FIXTURES = Path(__file__).parent / "fixtures"
REPO_ROOT = Path(__file__).resolve().parents[2]

#: (rule code, fixture stem, virtual path the fixture pretends to live at)
CASES = [
    ("DDC001", "ddc001", "src/repro/baselines/newalgo.py"),
    ("DDC002", "ddc002", "src/repro/baselines/newalgo.py"),
    ("DDC003", "ddc003", "src/repro/baselines/newalgo.py"),
    ("DDC004", "ddc004", "src/repro/chunking/newchunker.py"),
    ("DDC005", "ddc005", "src/repro/storage/newstore.py"),
    ("DDC006", "ddc006", "src/repro/baselines/newalgo.py"),
    ("DDC007", "ddc007", "src/repro/obs/newsink.py"),
    ("DDC007", "ddc007_slo", "src/repro/obs/slo.py"),
    ("DDC007", "ddc007_profile", "src/repro/obs/profile.py"),
    ("DDC008", "ddc008", "src/repro/cluster/newrouter.py"),
    ("DDC101", "ddc101", "src/repro/service/newloop.py"),
    ("DDC102", "ddc102", "src/repro/service/newlane.py"),
    ("DDC103", "ddc103", "src/repro/service/newserver.py"),
    ("DDC104", "ddc104", "src/repro/service/newledger.py"),
    ("DDC105", "ddc105", "src/repro/service/newnotify.py"),
    ("DDC106", "ddc106", "src/repro/service/newconn.py"),
]


def run(fixture: str, virtual_path: str) -> list[Violation]:
    source = (FIXTURES / fixture).read_text()
    return check_source(source, virtual_path, ALL_RULES)


@pytest.mark.parametrize(("code", "stem", "path"), CASES)
def test_violating_fixture_flagged(code, stem, path):
    """The bad fixture triggers its rule (and only that rule)."""
    violations = run(f"{stem}_bad.py", path)
    assert violations, f"{stem}_bad.py should violate {code}"
    assert {v.code for v in violations} == {code}
    for v in violations:
        assert v.path == path
        assert v.line > 0


@pytest.mark.parametrize(("code", "stem", "path"), CASES)
def test_clean_fixture_passes(code, stem, path):
    """The ok fixture is clean at the same virtual path."""
    assert run(f"{stem}_ok.py", path) == []


def test_ddc001_exempt_inside_hashing_package():
    """The same hashlib use is legal under repro/hashing/."""
    assert run("ddc001_bad.py", "src/repro/hashing/newdigest.py") == []


def test_ddc002_exempt_inside_hhr():
    """Entry mutation is the HHR/SHM machinery's job."""
    for allowed in ("src/repro/core/hhr.py", "src/repro/core/shm.py"):
        assert run("ddc002_bad.py", allowed) == []


def test_ddc004_only_polices_algorithm_packages():
    """Workload generators may use seeded randomness APIs freely."""
    assert run("ddc004_bad.py", "src/repro/workloads/machine.py") == []


def test_ddc005_ignores_cold_paths():
    """The perf lint only covers the hot-path packages."""
    assert run("ddc005_bad.py", "src/repro/analysis/report.py") == []


def test_ddc007_only_polices_obs():
    """The same code is legal outside the observation leaf."""
    assert run("ddc007_bad.py", "src/repro/analysis/newthing.py") == []


def test_ddc006_exempt_in_base():
    """core/base.py owns the counters and their helpers."""
    assert run("ddc006_bad.py", "src/repro/core/base.py") == []


def test_ddc008_exempt_inside_the_store_and_backends():
    """The Store, its per-kind stores and the backends own the namespaces."""
    for allowed in ("store", "manifest", "cluster_recipe", "backend"):
        assert run("ddc008_bad.py", f"src/repro/storage/{allowed}.py") == []
    assert len(run("ddc008_bad.py", "src/repro/storage/verify.py")) == 7


def test_ddc101_follows_the_sync_helpers_a_coroutine_calls():
    """A blocking wait one or two calls below a coroutine still stalls
    the loop: DDC101 flags it in the service's sync helpers, and only
    there."""
    violations = run("ddc101_helper_bad.py", "src/repro/service/newloop.py")
    assert {v.code for v in violations} == {"DDC101"}
    assert sorted(v.message.split(" (in ")[1] for v in violations) == [
        "'Handler._admit', a sync helper a coroutine calls)",
        "'Handler._throttle', a sync helper a coroutine calls)",
    ]
    assert run("ddc101_helper_bad.py", "src/repro/analysis/report.py") == []


def test_ddc102_needs_a_submission_site():
    """The same waits are legal when nothing routes them to the fleet."""
    source = (FIXTURES / "ddc102_bad.py").read_text()
    source = source.replace("return lane.submit(self.run)", "return None")
    assert check_source(source, "src/repro/service/newlane.py", ALL_RULES) == []


def test_ddc104_and_ddc106_only_police_the_service():
    """Both rules are scoped to repro/service/ handler code."""
    assert run("ddc104_bad.py", "src/repro/analysis/report.py") == []
    assert run("ddc106_bad.py", "src/repro/analysis/report.py") == []


def test_pr6_deadlock_revert_is_caught():
    """Reverting the PR 6 starvation fix trips DDC102.

    The fixture is the pre-fix server shape: a lane task taking the
    tenant lock untimed on a fleet thread.  The linter must fail it
    (non-zero CLI exit) while the real source tree stays clean.
    """
    violations = run("pr6_deadlock_revert.py", "src/repro/service/server.py")
    assert violations, "the reverted deadlock must be flagged"
    assert {v.code for v in violations} == {"DDC102"}
    assert any("Session.open" in v.message for v in violations)


def test_deadlock_through_run_in_executor_is_caught():
    """The same deadlock handed to the pool by ``loop.run_in_executor``."""
    violations = run("ddc102_executor_bad.py", "src/repro/service/server.py")
    assert {v.code for v in violations} == {"DDC102"}
    assert any("Session.open" in v.message for v in violations)


def test_violation_rendering():
    """Output lines follow the path:line:col: CODE message shape."""
    (violation, *_rest) = run("ddc005_bad.py", "src/repro/storage/x.py")
    rendered = violation.render()
    assert rendered.startswith("src/repro/storage/x.py:")
    assert " DDC005 " in rendered


def test_source_tree_is_ddc_clean():
    """Self-check: the shipped source tree has zero violations."""
    violations = check_paths([str(REPO_ROOT / "src" / "repro")], ALL_RULES)
    assert violations == [], "\n".join(v.render() for v in violations)


def test_cli_reports_and_exits_nonzero(tmp_path, capsys):
    """The module CLI prints violations and fails the build."""
    bad = tmp_path / "repro" / "core" / "newalgo.py"
    bad.parent.mkdir(parents=True)
    bad.write_text((FIXTURES / "ddc001_bad.py").read_text())
    assert main([str(tmp_path)]) == 1
    out = capsys.readouterr().out
    assert "DDC001" in out

    assert main([str(REPO_ROOT / "src" / "repro" / "hashing")]) == 0


def test_cli_list_rules(capsys):
    """--list prints the full catalogue, sorted and stable."""
    assert main(["--list"]) == 0
    out = capsys.readouterr().out
    for rule in ALL_RULES:
        assert rule.code in out
    assert len(ALL_RULES) == 14
    assert "DDC000" in out  # the suppression pseudo-rule is documented
    codes = [line.split()[0] for line in out.strip().splitlines()]
    assert codes == sorted(codes)
    # Stable: a second render is byte-identical (usable in docs).
    assert main(["--list"]) == 0
    assert capsys.readouterr().out == out


class TestSuppressions:
    BAD = (FIXTURES / "ddc104_bad.py").read_text()
    PATH = "src/repro/service/newledger.py"

    def test_inline_suppression_silences_the_finding(self):
        source = self.BAD.replace(
            ".inc(n)", ".inc(n)  # ddc: ignore[DDC104]"
        )
        assert check_source(source, self.PATH, ALL_RULES) == []

    def test_unused_suppression_is_itself_an_error(self):
        source = '"""Clean module."""\n\nVALUE = 1  # ddc: ignore[DDC104]\n'
        violations = check_source(source, self.PATH, ALL_RULES)
        assert [v.code for v in violations] == ["DDC000"]

    def test_suppression_is_code_specific(self):
        """Suppressing the wrong code silences nothing and is unused."""
        source = self.BAD.replace(
            ".inc(n)", ".inc(n)  # ddc: ignore[DDC101]"
        )
        violations = check_source(source, self.PATH, ALL_RULES)
        assert {v.code for v in violations} == {"DDC000", "DDC104"}


class TestBaseline:
    def _scan_tree(self, tmp_path):
        bad = tmp_path / "repro" / "service" / "newledger.py"
        bad.parent.mkdir(parents=True)
        bad.write_text((FIXTURES / "ddc104_bad.py").read_text())
        return bad

    def test_round_trip_silences_known_findings(self, tmp_path, capsys):
        self._scan_tree(tmp_path)
        baseline = tmp_path / "baseline.txt"
        assert main([str(tmp_path)]) == 1
        capsys.readouterr()
        assert (
            main([str(tmp_path), "--baseline", str(baseline), "--update-baseline"])
            == 0
        )
        capsys.readouterr()
        # Grandfathered findings no longer fail the run.
        assert main([str(tmp_path), "--baseline", str(baseline)]) == 0

    def test_growth_beyond_the_baseline_fails(self, tmp_path, capsys):
        bad = self._scan_tree(tmp_path)
        baseline = tmp_path / "baseline.txt"
        main([str(tmp_path), "--baseline", str(baseline), "--update-baseline"])
        capsys.readouterr()
        bad.write_text(
            bad.read_text()
            + "\n\nclass More:\n    def poke(self, tenant):\n"
            + "        return tenant.metrics\n"
        )
        assert main([str(tmp_path), "--baseline", str(baseline)]) == 1
        err = capsys.readouterr().err
        assert "beyond the baseline" in err

    def test_stale_entries_are_reported_prunable(self, tmp_path, capsys):
        bad = self._scan_tree(tmp_path)
        baseline = tmp_path / "baseline.txt"
        main([str(tmp_path), "--baseline", str(baseline), "--update-baseline"])
        capsys.readouterr()
        bad.write_text('"""Fixed."""\n')
        assert main([str(tmp_path), "--baseline", str(baseline)]) == 0
        err = capsys.readouterr().err
        assert "stale baseline entry" in err

    def test_committed_baseline_is_empty(self):
        """The repo's own baseline never grows — src stays clean."""
        committed = REPO_ROOT / "tools" / "dedupcheck" / "baseline.txt"
        entries = [
            line
            for line in committed.read_text().splitlines()
            if line.strip() and not line.startswith("#")
        ]
        assert entries == []


def test_sarif_output_is_valid(tmp_path):
    """--format sarif emits a well-formed SARIF 2.1.0 log."""
    import json

    bad = tmp_path / "repro" / "service" / "newledger.py"
    bad.parent.mkdir(parents=True)
    bad.write_text((FIXTURES / "ddc104_bad.py").read_text())
    out = tmp_path / "report.sarif"
    assert main([str(tmp_path), "--format", "sarif", "--output", str(out)]) == 1
    log = json.loads(out.read_text())
    assert log["version"] == "2.1.0"
    (run_obj,) = log["runs"]
    rule_ids = {r["id"] for r in run_obj["tool"]["driver"]["rules"]}
    assert {rule.code for rule in ALL_RULES} <= rule_ids
    results = run_obj["results"]
    assert results and all(r["ruleId"] == "DDC104" for r in results)
    loc = results[0]["locations"][0]["physicalLocation"]
    assert loc["region"]["startLine"] > 0
    assert loc["region"]["startColumn"] > 0  # SARIF columns are 1-based
