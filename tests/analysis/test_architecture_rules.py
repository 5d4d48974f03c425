"""Fixture-tree tests for the architecture rule pack (ARCH5xx).

Graph rules need a multi-file project, so every case builds a small
tree on disk and runs :func:`analyze_paths` with the rule selected.
Each rule gets a true positive and a near-miss true negative.
"""

import textwrap

from repro.analysis import analyze_paths


def run(tmp_path, files, select):
    for rel, source in files.items():
        path = tmp_path / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(source))
    findings, _ = analyze_paths([str(tmp_path)], select=select)
    return findings


class TestUpwardImport:
    def test_runtime_importing_apps_flagged(self, tmp_path):
        findings = run(tmp_path, {
            "src/repro/runtime/core.py": "from repro.apps.city import main\n",
            "src/repro/apps/city.py": "def main():\n    return 0\n",
        }, ["ARCH501"])
        assert [f.rule for f in findings] == ["ARCH501"]
        assert "layer 0" in findings[0].message
        assert findings[0].path.endswith("src/repro/runtime/core.py")

    def test_downward_import_clean(self, tmp_path):
        findings = run(tmp_path, {
            "src/repro/apps/city.py": "from repro.runtime.core import now\n",
            "src/repro/runtime/core.py": "def now():\n    return 0\n",
        }, ["ARCH501"])
        assert findings == []

    def test_same_layer_sibling_clean(self, tmp_path):
        findings = run(tmp_path, {
            "src/repro/streaming/broker.py": "from repro.dfs.client import read\n",
            "src/repro/dfs/client.py": "def read(p):\n    return p\n",
        }, ["ARCH501"])
        assert findings == []

    def test_deferred_upward_import_still_flagged(self, tmp_path):
        findings = run(tmp_path, {
            "src/repro/nn/layers.py": """
                def misuse():
                    from repro.fog.pipeline import serve
                    return serve
            """,
            "src/repro/fog/pipeline.py": "def serve():\n    return 1\n",
        }, ["ARCH501"])
        assert [f.rule for f in findings] == ["ARCH501"]

    def test_noqa_suppresses_graph_finding(self, tmp_path):
        findings = run(tmp_path, {
            "src/repro/runtime/core.py":
                "from repro.apps.city import main  # repro: noqa[ARCH501]\n",
            "src/repro/apps/city.py": "def main():\n    return 0\n",
        }, ["ARCH501"])
        assert findings == []

    def test_test_code_exempt(self, tmp_path):
        findings = run(tmp_path, {
            "tests/runtime/test_core.py": "from repro.apps.city import main\n",
            "src/repro/apps/city.py": "def main():\n    return 0\n",
        }, ["ARCH501"])
        assert findings == []


class TestImportCycle:
    def test_toplevel_cycle_flagged_once(self, tmp_path):
        findings = run(tmp_path, {
            "src/repro/fog/a.py": "import repro.fog.b\n",
            "src/repro/fog/b.py": "import repro.fog.a\n",
        }, ["ARCH502"])
        assert [f.rule for f in findings] == ["ARCH502"]
        assert "repro.fog.a -> repro.fog.b -> repro.fog.a" \
            in findings[0].message

    def test_deferred_import_not_a_cycle(self, tmp_path):
        findings = run(tmp_path, {
            "src/repro/fog/a.py": "import repro.fog.b\n",
            "src/repro/fog/b.py":
                "def back():\n    import repro.fog.a\n    return repro.fog.a\n",
        }, ["ARCH502"])
        assert findings == []


class TestAnalysisStdlibOnly:
    def test_toplevel_third_party_import_flagged(self, tmp_path):
        findings = run(tmp_path, {
            "src/repro/analysis/helper.py": "import numpy\n",
        }, ["ARCH503"])
        assert [f.rule for f in findings] == ["ARCH503"]

    def test_project_import_outside_analysis_flagged(self, tmp_path):
        findings = run(tmp_path, {
            "src/repro/analysis/helper.py":
                "from repro.runtime.parallel import SharedArrayRef\n",
            "src/repro/runtime/parallel.py":
                "class SharedArrayRef:\n    pass\n",
        }, ["ARCH503"])
        assert [f.rule for f in findings] == ["ARCH503"]

    def test_deferred_gated_import_clean(self, tmp_path):
        findings = run(tmp_path, {
            "src/repro/analysis/helper.py": """
                import json

                def make_ref():
                    try:
                        from repro.runtime.parallel import SharedArrayRef
                    except ImportError:
                        return None
                    return SharedArrayRef()
            """,
            "src/repro/runtime/parallel.py":
                "class SharedArrayRef:\n    pass\n",
        }, ["ARCH503"])
        assert findings == []


class TestPrivateCrossImport:
    def test_cross_package_underscore_flagged(self, tmp_path):
        findings = run(tmp_path, {
            "src/repro/fog/pipeline.py":
                "from repro.streaming.broker import _compact\n",
            "src/repro/streaming/broker.py":
                "def _compact():\n    return 1\n",
        }, ["ARCH504"])
        assert [f.rule for f in findings] == ["ARCH504"]

    def test_same_package_underscore_clean(self, tmp_path):
        findings = run(tmp_path, {
            "src/repro/streaming/groups.py":
                "from repro.streaming.broker import _compact\n",
            "src/repro/streaming/broker.py":
                "def _compact():\n    return 1\n",
        }, ["ARCH504"])
        assert findings == []

    def test_dunder_import_clean(self, tmp_path):
        findings = run(tmp_path, {
            "src/repro/fog/pipeline.py":
                "from repro.streaming.broker import __version__\n",
            "src/repro/streaming/broker.py": "__version__ = '1'\n",
        }, ["ARCH504"])
        assert findings == []


class TestUnplacedPackage:
    def test_unknown_package_warned_once(self, tmp_path):
        findings = run(tmp_path, {
            "src/repro/mystery/alpha.py": "x = 1\n",
            "src/repro/mystery/beta.py": "y = 2\n",
        }, ["ARCH505"])
        assert [f.rule for f in findings] == ["ARCH505"]
        assert "mystery" in findings[0].message

    def test_bare_module_under_repro_clean(self, tmp_path):
        findings = run(tmp_path, {
            "src/repro/helpers.py": "x = 1\n",
        }, ["ARCH505"])
        assert findings == []

    def test_placed_package_clean(self, tmp_path):
        findings = run(tmp_path, {
            "src/repro/fog/pipeline.py": "x = 1\n",
        }, ["ARCH505"])
        assert findings == []
