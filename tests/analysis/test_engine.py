"""Engine, reporter, and CLI behaviour of repro.analysis."""

import json
import re
import textwrap

import pytest

from repro.analysis import analyze_paths, analyze_source, render_json, render_text
from repro.analysis.cli import main
from repro.analysis.core import Severity, all_rules
from repro.analysis.engine import (PARSE_RULE, UnknownRuleError,
                                   UnlintablePathError, collect_files)

VIOLATION = textwrap.dedent("""
    import random

    def roll():
        return random.random()
""")

CLEAN = textwrap.dedent("""
    def double(x):
        return 2 * x
""")


def write_tree(root, files):
    for rel, source in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(source)


class TestRegistry:
    def test_rules_have_unique_ids_and_descriptions(self):
        rules = all_rules()
        ids = [r.id for r in rules]
        assert len(ids) == len(set(ids))
        assert all(r.description for r in rules)
        assert {"DET101", "DET102", "DET103", "DET104", "DET105",
                "OBS201", "OBS202", "OBS203",
                "API301", "API302"} <= set(ids)

    def test_all_rules_returns_fresh_instances(self):
        assert all_rules()[0] is not all_rules()[0]


class TestEngine:
    def test_findings_sorted_by_location(self):
        findings = analyze_source(VIOLATION)
        assert findings == sorted(findings, key=lambda f: f.sort_key())

    def test_blanket_noqa(self):
        findings = analyze_source("import random  # repro: noqa\n")
        assert findings == []

    def test_noqa_other_rule_does_not_suppress(self):
        findings = analyze_source("import random  # repro: noqa[OBS201]\n")
        assert [f.rule for f in findings] == ["DET101"]

    def test_collect_files_skips_pycache(self, tmp_path):
        write_tree(tmp_path, {
            "src/repro/mod.py": CLEAN,
            "src/repro/__pycache__/mod.cpython-311.py": CLEAN,
        })
        files = collect_files([str(tmp_path)])
        assert len(files) == 1

    def test_parse_error_reported_not_raised(self, tmp_path):
        write_tree(tmp_path, {"src/repro/bad.py": "def broken(:\n"})
        findings, _ = analyze_paths([str(tmp_path)])
        assert [f.rule for f in findings] == [PARSE_RULE]
        assert findings[0].severity is Severity.ERROR

    def test_select_and_ignore(self, tmp_path):
        write_tree(tmp_path, {"src/repro/mod.py": VIOLATION})
        only_det, _ = analyze_paths([str(tmp_path)], select=["DET101"])
        assert {f.rule for f in only_det} == {"DET101"}
        none_left, _ = analyze_paths([str(tmp_path)], ignore=["DET101"])
        assert none_left == []


class TestReporters:
    def test_text_report_lists_location_and_rule(self):
        findings = analyze_source(VIOLATION)
        report = render_text(findings)
        assert "DET101" in report
        assert "src/repro/example.py:2:1" in report
        assert "error(s)" in report

    def test_json_report_parses(self):
        findings = analyze_source(VIOLATION)
        payload = json.loads(render_json(findings))
        assert payload["summary"]["total"] == len(findings)
        assert payload["findings"][0]["rule"] == "DET101"

    def test_reports_carry_findings_and_counts_only(self):
        findings = analyze_source(VIOLATION)
        payload = json.loads(render_json(findings))
        assert sorted(payload) == ["findings", "summary", "version"]
        assert sorted(payload["summary"]) == ["errors", "total", "warnings"]
        assert render_text(findings).splitlines()[-1] == (
            f"{len(findings)} finding(s): {len(findings)} error(s), "
            "0 warning(s)")


class TestCli:
    def test_clean_tree_exits_zero(self, tmp_path, capsys):
        write_tree(tmp_path, {"src/repro/mod.py": CLEAN})
        assert main([str(tmp_path)]) == 0
        assert "0 finding(s)" in capsys.readouterr().out

    def test_violation_exits_nonzero(self, tmp_path, capsys):
        write_tree(tmp_path, {"src/repro/mod.py": VIOLATION})
        assert main([str(tmp_path)]) == 1
        assert "DET101" in capsys.readouterr().out

    def test_json_format(self, tmp_path, capsys):
        write_tree(tmp_path, {"src/repro/mod.py": VIOLATION})
        assert main([str(tmp_path), "--format", "json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["summary"]["errors"] >= 1

    def test_list_rules(self, capsys):
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        assert "DET102" in out and "OBS201" in out and "API301" in out


MULTI_VIOLATION = textwrap.dedent("""
    import random
    import time

    def snapshot(machines):
        started = time.time()
        return started, list(set(machines))
""")

WARNING_ONLY_TREE = {
    "src/repro/mystery/mod.py": CLEAN,      # ARCH505 (warning) only
}


class TestEngineWholeProgram:
    def test_multiple_rule_families_dispatch_on_one_module(self):
        findings = analyze_source(MULTI_VIOLATION)
        assert {"DET101", "DET104", "DET105"} <= {f.rule for f in findings}

    def test_suppressing_one_rule_keeps_the_other_on_same_line(self):
        source = ("import time\n\n"
                  "def q():\n"
                  "    return time.time(), list({'a', 'b'})"
                  "  # repro: noqa[DET105]\n")
        findings = analyze_source(source)
        assert [f.rule for f in findings] == ["DET104"]

    def test_parse_error_alongside_real_findings(self, tmp_path):
        write_tree(tmp_path, {
            "src/repro/bad.py": "def broken(:\n",
            "src/repro/mod.py": VIOLATION,
        })
        findings, _ = analyze_paths([str(tmp_path)])
        rules = {f.rule for f in findings}
        assert PARSE_RULE in rules and "DET101" in rules

    def test_collect_files_dedupes_resolved_paths(self, tmp_path):
        write_tree(tmp_path, {"src/repro/mod.py": CLEAN})
        root = str(tmp_path)
        dotted = str(tmp_path / "." / "src" / "..")
        files = collect_files([root, root + "/", dotted,
                               str(tmp_path / "src" / "repro" / "mod.py")])
        assert len(files) == 1

    def test_double_listed_tree_does_not_double_findings(self, tmp_path):
        write_tree(tmp_path, {"src/repro/mod.py": VIOLATION})
        once, _ = analyze_paths([str(tmp_path)])
        twice, _ = analyze_paths([str(tmp_path), str(tmp_path)])
        assert twice == once

    def test_unknown_select_code_raises(self, tmp_path):
        write_tree(tmp_path, {"src/repro/mod.py": CLEAN})
        with pytest.raises(UnknownRuleError) as err:
            analyze_paths([str(tmp_path)], select=["DET101", "NOPE"])
        assert "NOPE" in str(err.value)

    def test_unknown_ignore_code_raises(self, tmp_path):
        write_tree(tmp_path, {"src/repro/mod.py": CLEAN})
        with pytest.raises(UnknownRuleError):
            analyze_paths([str(tmp_path)], ignore=["det999"])

    @pytest.mark.parametrize("name", ["does_not_exist", "missing.py",
                                      "README.md"])
    def test_unlintable_path_raises(self, tmp_path, name):
        # a typo in a lint command must fail, not lint nothing and pass
        write_tree(tmp_path, {"src/repro/mod.py": CLEAN,
                              "README.md": "# notes\n"})
        bad = str(tmp_path / name)
        with pytest.raises(UnlintablePathError) as err:
            analyze_paths([str(tmp_path), bad])
        assert err.value.paths == [bad]


class TestCliNewFlags:
    def test_unknown_code_exits_two(self, tmp_path):
        write_tree(tmp_path, {"src/repro/mod.py": CLEAN})
        with pytest.raises(SystemExit) as err:
            main([str(tmp_path), "--select", "NOPE"])
        assert err.value.code == 2

    def test_strict_promotes_warnings(self, tmp_path, capsys):
        write_tree(tmp_path, WARNING_ONLY_TREE)
        assert main([str(tmp_path)]) == 0
        capsys.readouterr()
        assert main([str(tmp_path), "--strict"]) == 1
        assert "ARCH505" in capsys.readouterr().out

    def test_missing_path_exits_two_and_names_it(self, tmp_path, capsys):
        write_tree(tmp_path, {"src/repro/mod.py": CLEAN})
        missing = str(tmp_path / "does_not_exist")
        with pytest.raises(SystemExit) as err:
            main([str(tmp_path), missing])
        assert err.value.code == 2
        assert missing in capsys.readouterr().err


#: flags the analyzer had and deleted (by argparse dest, with the value
#: each took): every one must be a usage error now
REMOVED_FLAGS = {"cache": ["lint-cache.json"], "workers": ["2"],
                 "baseline": ["baseline.json"], "no_baseline": [],
                 "write_baseline": []}


@pytest.mark.parametrize("dest", sorted(REMOVED_FLAGS))
def test_removed_flag_exits_two(tmp_path, dest):
    write_tree(tmp_path, {"src/repro/mod.py": CLEAN})
    flag = "--" + dest.replace("_", "-")
    with pytest.raises(SystemExit) as err:
        main([str(tmp_path), flag] + REMOVED_FLAGS[dest])
    assert err.value.code == 2


def test_help_lists_exactly_the_five_options(capsys):
    # adding a flag fails here and has to be argued for in the same change
    with pytest.raises(SystemExit) as err:
        main(["--help"])
    assert err.value.code == 0
    listed = re.findall(r"(?<![\w-])--[a-z][a-z-]*", capsys.readouterr().out)
    assert [flag for flag in dict.fromkeys(listed) if flag != "--help"] == [
        "--format", "--select", "--ignore", "--strict", "--list-rules"]
