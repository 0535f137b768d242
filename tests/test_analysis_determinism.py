"""Tests for the determinism lint: the AST pass must flag the three
replay-breaking bug classes and honour the inline suppression pragma."""

import textwrap

from repro.analysis.determinism import (
    PRAGMA,
    iter_python_files,
    lint_paths,
    lint_source,
)
from repro.analysis.findings import Severity

SIM_PATH = "src/repro/sim/module.py"
OBS_PATH = "src/repro/obs/module.py"
OTHER_PATH = "src/repro/metrics/module.py"


def lint(source, path=SIM_PATH):
    return lint_source(textwrap.dedent(source), path)


class TestWallclock:
    def test_time_time_is_flagged(self):
        findings = lint("""
            import time
            t = time.time()
        """)
        assert [f.check for f in findings] == ["wallclock"]
        assert findings[0].severity is Severity.ERROR
        assert findings[0].where == f"{SIM_PATH}:3"

    def test_aliased_import_is_resolved(self):
        findings = lint("""
            from time import perf_counter as tick
            tick()
        """)
        assert [f.check for f in findings] == ["wallclock"]

    def test_datetime_now_through_module_alias(self):
        findings = lint("""
            import datetime as dt
            when = dt.datetime.now()
        """)
        assert [f.check for f in findings] == ["wallclock"]

    def test_obs_layer_may_read_wall_time(self):
        findings = lint("""
            import time
            t = time.perf_counter()
        """, path=OBS_PATH)
        assert not findings

    def test_engine_time_is_not_confused_with_wall_time(self):
        findings = lint("""
            def f(engine):
                return engine.now
        """)
        assert not findings


class TestUnseededRng:
    def test_global_random_module_is_flagged(self):
        findings = lint("""
            import random
            random.shuffle([1, 2])
            x = random.randint(0, 3)
        """)
        assert [f.check for f in findings] == ["unseeded-rng"] * 2

    def test_argless_random_instance_is_flagged(self):
        findings = lint("""
            import random
            rng = random.Random()
        """)
        assert [f.check for f in findings] == ["unseeded-rng"]

    def test_seeded_random_instance_is_fine(self):
        findings = lint("""
            import random
            rng = random.Random(1234)
        """)
        assert not findings

    def test_numpy_global_state_is_flagged(self):
        findings = lint("""
            import numpy as np
            x = np.random.rand(3)
            np.random.seed(0)
        """)
        assert [f.check for f in findings] == ["unseeded-rng"] * 2

    def test_seeded_numpy_generator_is_fine(self):
        findings = lint("""
            import numpy as np
            gen = np.random.default_rng(7)
        """)
        assert not findings


class TestSetIteration:
    def test_for_loop_over_set_literal_is_flagged(self):
        findings = lint("""
            for x in {1, 2, 3}:
                print(x)
        """)
        assert [f.check for f in findings] == ["set-iteration"]

    def test_comprehension_over_set_call_is_flagged(self):
        findings = lint("""
            out = [x for x in set(items)]
        """)
        assert [f.check for f in findings] == ["set-iteration"]

    def test_list_of_set_is_flagged(self):
        findings = lint("""
            out = list(set(items))
        """)
        assert [f.check for f in findings] == ["set-iteration"]

    def test_sorted_set_is_fine(self):
        # sorted() imposes a total order, which is the recommended fix.
        findings = lint("""
            out = sorted(set(items))
        """)
        assert not findings

    def test_iterating_a_list_is_fine(self):
        findings = lint("""
            for x in [1, 2, 3]:
                print(x)
        """)
        assert not findings

    def test_rule_only_applies_to_the_deterministic_core(self):
        source = """
            out = list(set(items))
        """
        assert lint(source, path=SIM_PATH)
        assert not lint(source, path=OTHER_PATH)

    def test_faults_package_is_order_sensitive(self):
        # Injected fault timing feeds the event agenda, so repro.faults
        # joined the set-iteration scope alongside sim/core/runtime.
        source = """
            out = list(set(devices))
        """
        assert lint(source, path="src/repro/faults/injection.py")

    def test_drivers_and_baselines_are_order_sensitive(self):
        # Job drivers and baseline policies feed the agenda as directly
        # as the scheduler core does.
        source = """
            for job in set(jobs):
                start(job)
        """
        assert lint(source, path="src/repro/workloads/drivers.py")
        assert lint(source, path="src/repro/baselines/mps.py")

    def test_topology_module_is_order_sensitive(self):
        # hw/ is mostly passive specs, but topology's route/placement
        # enumeration orders gang-scheduling decisions.
        source = """
            for node in {a, b}:
                place(node)
        """
        assert lint(source, path="src/repro/hw/topology.py")
        assert not lint(source, path="src/repro/hw/devices.py")


class TestPragma:
    def test_pragma_suppresses_the_line(self):
        findings = lint(f"""
            import time
            t = time.time()  {PRAGMA} (wall-time stats)
        """)
        assert not findings

    def test_pragma_is_per_line_not_per_file(self):
        findings = lint(f"""
            import time
            a = time.time()  {PRAGMA}
            b = time.time()
        """)
        assert len(findings) == 1
        assert findings[0].where == f"{SIM_PATH}:4"


class TestPlumbing:
    def test_syntax_error_is_a_finding_not_a_crash(self):
        findings = lint_source("def broken(:\n", path=SIM_PATH)
        assert [f.check for f in findings] == ["syntax"]
        assert findings[0].severity is Severity.ERROR

    def test_lint_paths_walks_directories(self, tmp_path):
        core = tmp_path / "core"
        core.mkdir()
        (core / "bad.py").write_text("import time\nt = time.time()\n")
        (core / "good.py").write_text("x = 1\n")
        (core / "notes.txt").write_text("not python\n")
        report = lint_paths([tmp_path])
        assert len(report.errors) == 1
        assert report.errors[0].check == "wallclock"
        assert any("scanned 2 file(s)" in f.message
                   for f in report.findings)

    def test_iter_python_files_accepts_single_files(self, tmp_path):
        target = tmp_path / "one.py"
        target.write_text("x = 1\n")
        assert iter_python_files([target]) == [target]

    def test_repro_source_tree_is_clean(self):
        # The acceptance bar: the lint runs clean over the shipped tree
        # (allowed exceptions carry explicit pragmas).
        report = lint_paths(["src/repro"])
        assert not report.has_errors, report.render()
