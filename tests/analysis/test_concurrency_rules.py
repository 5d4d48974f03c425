"""Fixture-tree tests for the concurrency rule (CONC604, wall pacing).

The headline case is cross-module: a DES-layer function that reaches
``time.sleep`` through another module is caught at its own def site,
with the call chain as evidence — the thing a per-file linter cannot do.
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


class TestWallPacing:
    def test_direct_sleep_flagged(self, tmp_path):
        findings = run(tmp_path, {
            "src/repro/fog/pipeline.py": """
                import time

                def serve():
                    time.sleep(0.1)
            """,
        }, ["CONC604"])
        assert [f.rule for f in findings] == ["CONC604"]

    def test_clock_home_exempt(self, tmp_path):
        findings = run(tmp_path, {
            "src/repro/runtime/core.py": """
                import time

                def pace(seconds):
                    time.sleep(seconds)
            """,
        }, ["CONC604"])
        assert findings == []

    def test_indirect_reach_through_clock_home_flagged(self, tmp_path):
        # the sleep itself is sanctioned, but a DES-layer caller is not
        findings = run(tmp_path, {
            "src/repro/runtime/core.py": """
                import time

                def pace(seconds):
                    time.sleep(seconds)
            """,
            "src/repro/fog/pipeline.py": """
                from repro.runtime.core import pace

                def serve():
                    pace(0.1)
            """,
        }, ["CONC604"])
        assert [f.rule for f in findings] == ["CONC604"]
        assert findings[0].path.endswith("src/repro/fog/pipeline.py")
        assert "reaches time.sleep()" in findings[0].message
        assert "repro.runtime.core:pace" in findings[0].message

    def test_non_des_package_indirect_clean(self, tmp_path):
        # viz is layered but not DES-clocked -- wait, it is not in
        # DES_PACKAGES, so an indirect reach from it is tolerated
        findings = run(tmp_path, {
            "src/repro/runtime/core.py": """
                import time

                def pace(seconds):
                    time.sleep(seconds)
            """,
            "src/repro/viz/render.py": """
                from repro.runtime.core import pace

                def animate():
                    pace(0.1)
            """,
        }, ["CONC604"])
        assert findings == []

    def test_test_code_exempt(self, tmp_path):
        findings = run(tmp_path, {
            "tests/fog/test_pipeline.py": """
                import time

                def test_slowly():
                    time.sleep(0.01)
            """,
        }, ["CONC604"])
        assert findings == []
