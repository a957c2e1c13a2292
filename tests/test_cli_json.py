#!/usr/bin/env python3
"""ctest driver for the JSON surfaces of mouse_cli.

Usage: test_cli_json.py PATH/TO/mouse_cli

Checks that `info --json` stays byte-identical to its goldens, that
`metrics-summary` accepts a snapshot whose keys were re-sorted, and
that malformed replay artifacts and power traces are rejected with
exit 2 and a path:line:col message.
"""

import json
import os
import re
import subprocess
import sys
import tempfile
import unittest

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
GOLDENS = os.path.join(REPO, "tests", "goldens")
CLI = None


def run_cli(*args):
    return subprocess.run([CLI, *args], capture_output=True, text=True)


class CliJson(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()

    def tearDown(self):
        self.tmp.cleanup()

    def write(self, name, text):
        path = os.path.join(self.tmp.name, name)
        with open(path, "w") as f:
            f.write(text)
        return path

    def test_info_json_matches_goldens(self):
        for tech in ("modern-stt", "projected-stt", "she"):
            proc = run_cli("info", "--tech", tech, "--json")
            self.assertEqual(proc.returncode, 0, proc.stderr)
            with open(os.path.join(GOLDENS,
                                   "cli_info_%s.json" % tech)) as f:
                self.assertEqual(proc.stdout, f.read(), tech)

    def test_metrics_summary_accepts_any_key_order(self):
        with open(os.path.join(GOLDENS, "metrics_snapshot.json")) as f:
            snapshot = json.load(f)
        for name, text in (
                ("as-emitted.json", json.dumps(snapshot)),
                ("sorted.json", json.dumps(snapshot, sort_keys=True,
                                           indent=2))):
            proc = run_cli("metrics-summary", self.write(name, text))
            self.assertEqual(proc.returncode, 0, proc.stderr)
            self.assertIn("990 completed", proc.stdout)

    def test_metrics_summary_rejects_out_of_range_counters(self):
        with open(os.path.join(GOLDENS, "metrics_snapshot.json")) as f:
            text = re.sub(r'"queue_depth":\d+', '"queue_depth":1e300',
                          f.read())
        path = self.write("bad.json", text)
        proc = run_cli("metrics-summary", path)
        self.assertEqual(proc.returncode, 2)
        self.assertRegex(proc.stderr, re.escape(path) + r":1:\d+: ")

    def test_replay_rejects_non_integral_schedule_fields(self):
        # An unchecked cast would turn these into period 0 / attempt 0
        # and silently replay a different schedule.
        for name, text, where in (
                ("nan.json",
                 '{"workload":"gates","schedule":\n'
                 '  {"checkpoint_period":nan,"outages":[]}}', "2:24"),
                ("huge.json",
                 '{"workload":"gates","schedule":{"outages":\n'
                 '  [{"attempt":1e30,"step":"commit","fraction":1}]}}',
                 "2:15")):
            path = self.write(name, text)
            proc = run_cli("inject", "--replay", path)
            self.assertEqual(proc.returncode, 2, proc.stdout)
            self.assertIn("%s:%s: " % (path, where), proc.stderr)

    def test_power_trace_errors_carry_line_and_column(self):
        path = self.write("trace.json",
                          '{"trace_schema":1,\n "segments":[\n'
                          '  {"duration_s":-1,"power_w":1e-6}]}')
        proc = run_cli("bench", "adult", "--power-trace", path)
        self.assertEqual(proc.returncode, 2)
        self.assertIn("%s:3:17: " % path, proc.stderr)


if __name__ == "__main__":
    if len(sys.argv) < 2:
        sys.exit("usage: test_cli_json.py PATH/TO/mouse_cli")
    CLI = sys.argv.pop(1)
    unittest.main()
