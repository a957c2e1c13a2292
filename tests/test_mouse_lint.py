#!/usr/bin/env python3
"""ctest driver for tools/mouse_lint.py.

Runs the lint over the fixture corpus in tests/lint_fixtures/ and
asserts, per rule, that the known-bad snippets produce exactly the
expected findings, that the known-good snippets stay silent, that
suppression comments behave (justified allows suppress, malformed
allows are findings), and that the JSON report schema holds.  Also
the clean-tree gate: the real src/ and tools/ must lint clean.
"""

import json
import os
import subprocess
import sys
import unittest

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
LINT = os.path.join(REPO, "tools", "mouse_lint.py")
FIXTURES = os.path.join(REPO, "tests", "lint_fixtures")


def run_lint(*args):
    proc = subprocess.run(
        [sys.executable, LINT, *args],
        capture_output=True, text=True)
    return proc


def lint_fixtures_json():
    proc = run_lint("--root", FIXTURES, "--json",
                    os.path.join(FIXTURES, "src"))
    report = json.loads(proc.stdout)
    return proc, report


class LintFixtureCorpus(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.proc, cls.report = lint_fixtures_json()
        cls.findings = [(f["file"], f["line"], f["rule"])
                        for f in cls.report["findings"]]
        cls.by_file = {}
        for f in cls.report["findings"]:
            cls.by_file.setdefault(f["file"], []).append(f)

    def expect(self, path, line, rule):
        self.assertIn((path, line, rule), self.findings)

    def test_exit_2_on_findings(self):
        self.assertEqual(self.proc.returncode, 2, self.proc.stderr)

    def test_unordered_iteration_bad(self):
        self.expect("src/exp/bad_unordered_iteration.cc", 12,
                    "unordered-iteration")
        self.expect("src/exp/bad_unordered_iteration.cc", 22,
                    "unordered-iteration")

    def test_host_clock_bad(self):
        path = "src/sim/bad_host_clock.cc"
        rules = [f["line"] for f in self.by_file[path]]
        self.assertEqual(sorted(rules), [11, 12, 13, 14])
        self.assertTrue(all(f["rule"] == "host-clock"
                            for f in self.by_file[path]))

    def test_schema_constants_bad(self):
        path = "src/core/bad_schema_literal.cc"
        self.expect(path, 9, "schema-constants")
        self.expect(path, 18, "schema-constants")
        self.expect(path, 29, "schema-constants")

    def test_obs_hook_bad(self):
        self.expect("src/sim/bad_obs_hook.cc", 22, "obs-hook-args")
        self.expect("src/sim/bad_obs_hook.cc", 23, "obs-hook-args")

    def test_float_accumulate_bad(self):
        self.expect("src/obs/bad_float_accumulate.cc", 10,
                    "float-accumulate")
        self.expect("src/obs/bad_float_accumulate.cc", 16,
                    "float-accumulate")

    def test_source_power_bad(self):
        path = "src/sim/bad_source_power.cc"
        self.expect(path, 6, "source-power")
        self.expect(path, 12, "source-power")
        self.expect(path, 13, "source-power")
        # Only the three code mentions: the comment on line 3 is not
        # a finding.
        rules = [f["line"] for f in self.by_file[path]]
        self.assertEqual(sorted(rules), [6, 12, 13])

    def test_source_power_allowed_under_harvest(self):
        self.assertNotIn("src/harvest/allowed_source_power.cc",
                         self.by_file)

    def test_sonic_model_bad(self):
        path = "src/exp/bad_sonic_model.cc"
        # Only the code mention: the comment on line 3 is silent.
        rules = [(f["line"], f["rule"]) for f in self.by_file[path]]
        self.assertEqual(rules, [(11, "sonic-model")])

    def test_sonic_model_allowed_under_baseline(self):
        self.assertNotIn("src/baseline/allowed_sonic_model.cc",
                         self.by_file)

    def test_json_helpers_bad(self):
        path = "src/obs/bad_json_helpers.cc"
        # The private %.17g formatters (a helper and an inline
        # printf), the jsonEscape and escape definitions and the
        # escape lambda; the comment on line 2 and the call on line
        # 34 are silent.
        rules = [(f["line"], f["rule"]) for f in self.by_file[path]]
        self.assertEqual(rules, [(11, "json-helpers"),
                                 (16, "json-helpers"),
                                 (24, "json-helpers"),
                                 (33, "json-helpers"),
                                 (40, "json-helpers")])

    def test_json_helpers_allowed_in_json_module(self):
        self.assertNotIn("src/common/json.cc", self.by_file)
        self.assertNotIn("src/core/good_json_calls.cc", self.by_file)

    def test_builder_feasible_bad(self):
        path = "src/compile/bad_builder_feasible.cc"
        # The reads outside the helper, including one inside an
        # if-body that calls the helper; the read inside the helper
        # and the comment on line 3 are silent.
        rules = [(f["line"], f["rule"]) for f in self.by_file[path]]
        self.assertEqual(rules, [(15, "builder-feasible"),
                                 (20, "builder-feasible"),
                                 (22, "builder-feasible")])

    def test_builder_feasible_allowed_outside_compile(self):
        self.assertNotIn("src/ml/allowed_builder_feasible.cc",
                         self.by_file)
        self.assertNotIn("src/compile/good_builder_feasible.cc",
                         self.by_file)

    def test_good_files_are_silent(self):
        good = [p for p in self.by_file
                if "/good_" in p or "/allowed_" in p
                or "/suppressed_" in p]
        self.assertEqual(good, [], self.by_file)

    def test_justified_suppressions_move_to_suppressed(self):
        suppressed = {(f["file"], f["rule"])
                      for f in self.report["suppressed"]}
        self.assertIn(("src/exp/suppressed_unordered.cc",
                       "unordered-iteration"), suppressed)
        self.assertIn(("src/serve/allowed_host_clock.cc",
                       "host-clock"), suppressed)

    def test_unjustified_allow_keeps_finding(self):
        self.expect("src/exp/bad_suppressions.cc", 12, "suppression")
        self.expect("src/exp/bad_suppressions.cc", 13,
                    "unordered-iteration")

    def test_unknown_rule_and_unused_allow_are_findings(self):
        self.expect("src/exp/bad_suppressions.cc", 19, "suppression")
        self.expect("src/exp/bad_suppressions.cc", 22, "suppression")

    def test_host_clock_allow_refused_outside_obs_serve(self):
        path = "src/sim/bad_host_clock_suppressed.cc"
        self.expect(path, 9, "suppression")
        self.expect(path, 10, "host-clock")


class LintReportSchema(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.proc, cls.report = lint_fixtures_json()

    def test_document_shape(self):
        r = self.report
        self.assertEqual(r["lint_schema"], 1)
        self.assertIsInstance(r["files_scanned"], int)
        self.assertGreater(r["files_scanned"], 0)
        self.assertIsInstance(r["rules"], list)
        rule_ids = {x["id"] for x in r["rules"]}
        self.assertEqual(rule_ids, {
            "unordered-iteration", "host-clock", "schema-constants",
            "obs-hook-args", "float-accumulate", "source-power",
            "sonic-model", "json-helpers", "builder-feasible"})
        for x in r["rules"]:
            self.assertTrue(x["description"])

    def test_finding_shape(self):
        for f in self.report["findings"] + self.report["suppressed"]:
            self.assertEqual(
                sorted(f), ["file", "line", "message", "rule",
                            "snippet"])
            self.assertIsInstance(f["line"], int)
            self.assertNotIn("\\", f["file"].replace("\\\"", ""))
            self.assertFalse(os.path.isabs(f["file"]))

    def test_findings_sorted(self):
        keys = [(f["file"], f["line"], f["rule"])
                for f in self.report["findings"]]
        self.assertEqual(keys, sorted(keys))


class LintInterface(unittest.TestCase):
    def test_good_only_run_exits_zero(self):
        proc = run_lint(
            "--root", FIXTURES,
            os.path.join(FIXTURES, "src/exp/good_unordered_lookup.cc"),
            os.path.join(FIXTURES, "src/sim/good_obs_hook.cc"),
            os.path.join(FIXTURES, "src/obs/good_fixed_fold.cc"),
            os.path.join(FIXTURES, "src/core/good_schema_constant.cc"))
        self.assertEqual(proc.returncode, 0,
                         proc.stdout + proc.stderr)

    def test_single_rule_scoping(self):
        proc = run_lint("--root", FIXTURES, "--json",
                        "--rule", "host-clock",
                        os.path.join(FIXTURES, "src"))
        report = json.loads(proc.stdout)
        self.assertTrue(report["findings"])
        self.assertTrue(all(f["rule"] in ("host-clock", "suppression")
                            for f in report["findings"]))

    def test_unknown_rule_flag_is_operational_error(self):
        proc = run_lint("--rule", "nope")
        self.assertEqual(proc.returncode, 1, proc.stderr)

    def test_missing_path_is_operational_error(self):
        proc = run_lint(os.path.join(FIXTURES, "does_not_exist"))
        self.assertEqual(proc.returncode, 1, proc.stderr)

    def test_explicit_missing_compile_db_is_operational_error(self):
        # The implicit build/compile_commands.json default may be
        # absent, but a path the user named must exist.
        proc = run_lint("--compile-commands", "/nowhere/cc.json")
        self.assertEqual(proc.returncode, 1, proc.stderr)
        self.assertIn("compile_commands", proc.stderr)

    def test_list_rules(self):
        proc = run_lint("--list-rules")
        self.assertEqual(proc.returncode, 0)
        self.assertIn("unordered-iteration:", proc.stdout)

    def test_real_tree_is_clean(self):
        proc = run_lint()
        self.assertEqual(
            proc.returncode, 0,
            "the real tree must lint clean:\n" + proc.stdout)


if __name__ == "__main__":
    unittest.main(verbosity=2)
