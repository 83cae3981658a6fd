#!/usr/bin/env python3
"""Argument-handling tests for pclouds_cli: bad flags and malformed
values must exit 2 with a message naming the offending flag on stderr,
and a small good run must exit 0.  Both CLIs must exit 1, naming the path,
when a --report document or a saved model cannot be written (a full disk
included), and pclouds_cli must exit 1 when it refuses to resume a
snapshot.

Usage: test_cli.py /path/to/pclouds_cli /path/to/pdc_serve_cli
"""

import os
import subprocess
import sys
import tempfile
import unittest

CLI = None
SERVE_CLI = None

# Kept tiny so the one good-path run stays fast.
GOOD_ARGS = ["--procs", "2", "--records", "2000", "--q", "50", "--no-prune"]


def run(*args):
    return subprocess.run([CLI, *args], capture_output=True, text=True,
                          timeout=120)


class RejectsBadArguments(unittest.TestCase):
    # (args, text that must appear on stderr)
    CASES = [
        (["--bogus"], "unknown option"),
        # Retired: --queue-depth alone sets the stream depth.
        (["--pipeline", "on"], "unknown option"),
        (["--procs"], "requires a value"),
        (["--procs", "abc"], "--procs"),
        (["--procs", "0"], "--procs"),
        (["--procs", "-3"], "--procs"),
        (["--procs", "4x"], "--procs"),
        (["--records", "12.5"], "--records"),
        (["--function", "11"], "--function"),
        (["--function", "0"], "--function"),
        (["--classifier", "cart"], "--classifier"),
        (["--method", "gini"], "--method"),
        (["--strategy", "dynamic"], "--strategy"),
        (["--combiner", "sum"], "--combiner"),
        (["--q", "1"], "--q"),
        (["--noise", "1.5"], "--noise"),
        (["--noise", "nope"], "--noise"),
        (["--sample", "0"], "--sample"),
        (["--queue-depth", "1025"], "--queue-depth"),
        (["--queue-depth", "-1"], "--queue-depth"),
        (["--inject", "disk_write:rank=bogus"], "--inject"),
        (["--inject", "warp_core:op=1"], "--inject"),
        # Plans that could never fire: the retired p2p site, and a rank the
        # run does not have (the message names the spec).
        (["--procs", "4", "--records", "20000", "--inject", "comm_p2p:op=1"],
         "--inject"),
        (["--procs", "4", "--records", "20000",
          "--inject", "comm_coll:rank=9:op=1"], "comm_coll:rank=9:op=1"),
        (["--resume"], "--scratch"),
    ]

    def test_each_bad_invocation_exits_2_and_names_the_flag(self):
        for args, needle in self.CASES:
            with self.subTest(args=args):
                r = run(*args)
                self.assertEqual(r.returncode, 2,
                                 f"{args}: rc={r.returncode}\n{r.stderr}")
                self.assertIn(needle, r.stderr)

    def test_bad_invocations_print_usage(self):
        r = run("--queue-depth", "sideways")
        self.assertIn("usage: pclouds_cli", r.stderr)


class AcceptsGoodArguments(unittest.TestCase):
    def test_help_exits_0(self):
        r = run("--help")
        self.assertEqual(r.returncode, 0, r.stderr)
        self.assertIn("usage: pclouds_cli", r.stdout)

    def test_small_run_exits_0(self):
        r = run(*GOOD_ARGS)
        self.assertEqual(r.returncode, 0, r.stderr)
        self.assertIn("modeled time", r.stdout)
        self.assertNotIn("pipeline", r.stdout)

    def test_queue_depth_alone_runs_the_pipeline(self):
        r = run(*GOOD_ARGS, "--queue-depth", "3")
        self.assertEqual(r.returncode, 0, r.stderr)
        self.assertIn("pipeline    : on (queue depth 3)", r.stdout)


@unittest.skipUnless(os.path.exists("/dev/full"), "/dev/full not available")
class ReportsALostDocument(unittest.TestCase):
    """A document or model smaller than the stdio buffer fails only at
    fclose; the CLI must not print the path and exit 0 as if it were
    written."""

    def check_fails_naming_path(self, argv):
        r = subprocess.run(argv, capture_output=True, text=True, timeout=120)
        self.assertEqual(r.returncode, 1, f"{argv}: rc={r.returncode}")
        self.assertIn("/dev/full", r.stderr)

    def test_pclouds_cli_report_on_a_full_disk_exits_1(self):
        self.check_fails_naming_path(
            [CLI, *GOOD_ARGS, "--report", "/dev/full"])

    def test_pdc_serve_cli_report_on_a_full_disk_exits_1(self):
        self.check_fails_naming_path(
            [SERVE_CLI, "--requests", "8", "--train-records", "2000",
             "--report", "/dev/full"])

    def test_pclouds_cli_model_on_a_full_disk_exits_1(self):
        self.check_fails_naming_path([CLI, *GOOD_ARGS, "--save", "/dev/full"])

    def test_pdc_serve_cli_model_on_a_full_disk_exits_1(self):
        self.check_fails_naming_path(
            [SERVE_CLI, "--requests", "8", "--train-records", "2000",
             "--save-model", "/dev/full"])


class RefusesASnapshotItCannotResume(unittest.TestCase):
    """A resume the snapshot refuses exits 1 with the reason, not abort."""

    def test_resume_under_another_vote_k_exits_1(self):
        with tempfile.TemporaryDirectory() as scratch:
            common = ["--procs", "4", "--records", "8000", "--combiner",
                      "voting", "--scratch", scratch, "--checkpoint-every",
                      "2"]
            killed = run(*common, "--vote-k", "2", "--inject",
                         "comm_coll:op=120")
            self.assertEqual(killed.returncode, 3, killed.stderr)
            r = run(*common, "--vote-k", "3", "--resume")
            self.assertEqual(r.returncode, 1, r.stderr)
            self.assertIn("different combiner configuration", r.stderr)


if __name__ == "__main__":
    if len(sys.argv) < 3:
        sys.exit("usage: test_cli.py /path/to/pclouds_cli "
                 "/path/to/pdc_serve_cli")
    CLI = sys.argv.pop(1)
    SERVE_CLI = sys.argv.pop(1)
    unittest.main()
