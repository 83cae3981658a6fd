#!/usr/bin/env python3
"""Unit tests for pdc_analyze.py: each negative fixture triggers exactly
its intended check (marker lines `expect-PDAnnn` match findings one to
one), the clean fixture stays quiet, annotations are inventoried, the
whole-run cache replays byte-identically, and the repo's own src tree
analyzes clean.
"""

import json
import os
import shutil
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import pdc_analyze  # noqa: E402

FIXTURES = os.path.join(pdc_analyze.REPO_ROOT, "tests",
                        "analyzer_fixtures")


CURSOR = os.path.join(pdc_analyze.REPO_ROOT, "src", "mp", "serialize.hpp")


def analyze_fixture(*names):
    """Analyzes the named fixtures; one that includes the wire cursor is
    analyzed together with it, so the cursor's get_ readers seed PDA510."""
    paths = [os.path.join(FIXTURES, n) for n in names]
    for path in list(paths):
        with open(path, encoding="utf-8") as f:
            if '#include "mp/serialize.hpp"' in f.read() and \
                    CURSOR not in paths:
                paths.append(CURSOR)
    return pdc_analyze.analyze(paths)


def marker_lines(name, rule_id):
    """Lines carrying an `expect-PDAnnn` marker in a fixture comment."""
    lines = []
    with open(os.path.join(FIXTURES, name), encoding="utf-8") as f:
        for lineno, line in enumerate(f, start=1):
            if "expect-" + rule_id in line:
                lines.append(lineno)
    return lines


class NegativeFixtures(unittest.TestCase):
    """Each bad_* fixture yields exactly its annotated findings, and only
    findings of its intended check."""

    CASES = {
        "bad_pda100_direct.cpp": "PDA100",
        "bad_pda100_interproc.cpp": "PDA100",
        "bad_pda200_scan.cpp": "PDA200",
        "bad_pda300_io.cpp": "PDA300",
        "bad_pda400_unguarded.cpp": "PDA400",
        "bad_pda410_cycle.cpp": "PDA410",
        "bad_pda500_codec.cpp": "PDA500",
        "bad_pda510_narrowing.cpp": "PDA510",
        "bad_pda520_nondet.cpp": "PDA520",
    }

    def test_marker_lines_match_findings_exactly(self):
        for fixture, rule in self.CASES.items():
            with self.subTest(fixture=fixture):
                expected = marker_lines(fixture, rule)
                self.assertTrue(expected, f"{fixture} has no markers")
                findings, _ = analyze_fixture(fixture)
                self.assertEqual([f.rule for f in findings],
                                 [rule] * len(expected))
                self.assertEqual([f.line for f in findings], expected)

    def test_no_cross_check_bleed(self):
        for fixture, rule in self.CASES.items():
            findings, _ = analyze_fixture(fixture)
            self.assertEqual({f.rule for f in findings}, {rule},
                             f"{fixture} triggered a different check")


class CleanFixture(unittest.TestCase):
    def test_clean_fixture_has_no_findings(self):
        findings, report = analyze_fixture("good_clean.cpp")
        self.assertEqual([f.render() for f in findings], [])
        self.assertEqual(report["summary"]["findings"], 0)


class Report(unittest.TestCase):
    def test_schema_and_summary_are_consistent(self):
        findings, report = analyze_fixture(*sorted(os.listdir(FIXTURES)))
        self.assertEqual(report["schema"], "pdc.analysis.v1")
        self.assertEqual(report["mode"], "ast-lite")
        self.assertEqual(report["summary"]["findings"], len(findings))
        by_check = report["summary"]["by_check"]
        self.assertEqual(sorted(by_check),
                         ["PDA100", "PDA200", "PDA300", "PDA400",
                          "PDA410", "PDA500", "PDA510", "PDA520"])
        for rule in by_check:
            self.assertEqual(by_check[rule],
                             sum(1 for f in findings if f.rule == rule))
        self.assertEqual(report["summary"]["incore_zones"],
                         len(report["incore_zones"]))

    def test_incore_zones_are_inventoried_with_reasons(self):
        _, report = analyze_fixture("bad_pda200_scan.cpp")
        reasons = [z["reason"] for z in report["incore_zones"]]
        self.assertIn("fixture pre-drawn sample: bounded by the sample "
                      "rate", reasons)

    def test_io_wrappers_are_inventoried_with_reasons(self):
        _, report = analyze_fixture("bad_pda300_io.cpp")
        wrappers = {w["function"]: w["reason"]
                    for w in report["io_wrappers"]}
        self.assertEqual(
            wrappers.get("wrapped_write_is_clean"),
            "fixture wrapper: the caller pays at settle time")

    def test_suppressions_are_counted_with_reasons(self):
        _, report = analyze_fixture("bad_pda100_interproc.cpp")
        self.assertEqual(report["summary"]["suppressed"], 1)
        sup = report["suppressions"][0]
        self.assertEqual(sup["id"], "PDA100")
        self.assertIn("single-rank subtree", sup["reason"])

    def test_unshared_fields_are_inventoried_with_reasons(self):
        _, report = analyze_fixture("bad_pda400_unguarded.cpp")
        fields = {u["field"]: u["reason"]
                  for u in report["unshared_fields"]}
        self.assertEqual(
            fields.get("escaped_ok_"),
            "written once before the worker starts, then read-only")
        self.assertEqual(report["summary"]["unshared_fields"],
                         len(report["unshared_fields"]))


class LockOrder(unittest.TestCase):
    """The PDA410 lock-acquisition graph: the deliberate ABBA fixture is
    cyclic, the consistent-order near-miss is not, and the repo's own
    threaded layers prove acyclic (static deadlock freedom)."""

    def test_fixture_cycle_is_published_in_the_report(self):
        _, report = analyze_fixture("bad_pda410_cycle.cpp")
        lo = report["lock_order"]
        self.assertEqual(lo["cycles"],
                         [["Transfer::audit_mu_", "Transfer::ledger_mu_"]])
        pairs = {(e["from"], e["to"]) for e in lo["edges"]}
        self.assertIn(("Transfer::ledger_mu_", "Transfer::audit_mu_"),
                      pairs)
        self.assertIn(("Transfer::audit_mu_", "Transfer::ledger_mu_"),
                      pairs)

    def test_consistent_order_yields_edges_but_no_cycle(self):
        findings, report = analyze_fixture("good_clean.cpp")
        lo = report["lock_order"]
        self.assertEqual([f.render() for f in findings], [])
        self.assertIn({"from": "OrderedPair::first_mu_",
                       "to": "OrderedPair::second_mu_",
                       "file": "tests/analyzer_fixtures/good_clean.cpp",
                       "line": lo["edges"][0]["line"]}, lo["edges"])
        self.assertEqual(lo["cycles"], [])

    def test_repo_lock_graph_is_acyclic_with_known_edges(self):
        src = os.path.join(pdc_analyze.REPO_ROOT, "src")
        _, report = pdc_analyze.analyze([src])
        lo = report["lock_order"]
        self.assertEqual(lo["cycles"], [])
        pairs = {(e["from"], e["to"]) for e in lo["edges"]}
        # The serving plane's documented lock order: queue before stats,
        # swap before the per-replica model locks and stats.
        self.assertIn(("Server::queue_mu_", "Server::stats_mu_"), pairs)
        self.assertIn(("Server::swap_mu_", "Replica::model_mu"), pairs)
        self.assertIn(("Server::swap_mu_", "Server::stats_mu_"), pairs)

    def test_repo_unshared_escapes_all_carry_reasons(self):
        src = os.path.join(pdc_analyze.REPO_ROOT, "src")
        _, report = pdc_analyze.analyze([src])
        self.assertGreater(len(report["unshared_fields"]), 0)
        for u in report["unshared_fields"]:
            self.assertTrue(u["reason"], f"bare unshared field: {u}")


class CodecPairs(unittest.TestCase):
    """The PDA500 codec-pair inventory: pairs are discovered across both
    naming families, asymmetries are counted, nonwire annotations are
    inventoried with reasons, and the repo's own codecs prove symmetric."""

    def test_fixture_pairs_are_inventoried(self):
        _, report = analyze_fixture("bad_pda500_codec.cpp")
        pairs = {p["key"]: p for p in report["codec_pairs"]}
        self.assertEqual(len(pairs), 2)
        cls = pairs["Telemetry::serialize/..."]
        self.assertEqual(cls["class"], "Telemetry")
        self.assertEqual(cls["writer"]["function"], "serialize")
        self.assertEqual(cls["reader"]["function"], "deserialize")
        self.assertEqual(cls["fields"], ["epoch_", "samples_"])
        self.assertEqual(cls["findings"], 3)
        self.assertFalse(cls["ok"])
        self.assertEqual(
            [n["field"] for n in cls["nonwire"]],
            ["Telemetry::scratch_"])
        for n in cls["nonwire"]:
            self.assertTrue(n["reason"], f"bare nonwire entry: {n}")
        sfx = next(p for k, p in pairs.items() if "encode_" in k)
        self.assertEqual(sfx["writer"]["function"], "encode_packet")
        self.assertEqual(sfx["reader"]["function"], "decode_packet")
        self.assertEqual(sfx["findings"], 2)

    def test_deleting_one_field_write_yields_exactly_pda500(self):
        scratch = (
            "#include <cstdint>\n"
            "#include <vector>\n"
            "class Pair {\n"
            " public:\n"
            "  std::vector<std::uint64_t> serialize() const {\n"
            "    std::vector<std::uint64_t> out;\n"
            "    out.push_back(a_);\n"
            "    out.push_back(b_);\n"
            "    return out;\n"
            "  }\n"
            "  void deserialize(const std::vector<std::uint64_t>& in) {\n"
            "    a_ = in.at(0);\n"
            "    b_ = in.at(1);\n"
            "  }\n"
            " private:\n"
            "  std::uint64_t a_ = 0;\n"
            "  std::uint64_t b_ = 0;\n"
            "};\n")
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "pair_codec.cpp")
            with open(path, "w", encoding="utf-8") as f:
                f.write(scratch)
            findings, report = pdc_analyze.analyze([path])
            self.assertEqual([f.render() for f in findings], [])
            self.assertTrue(all(p["ok"] for p in report["codec_pairs"]))
            with open(path, "w", encoding="utf-8") as f:
                f.write(scratch.replace("    out.push_back(b_);\n", ""))
            findings, report = pdc_analyze.analyze([path])
            self.assertEqual([f.rule for f in findings], ["PDA500"])
            self.assertIn("never written", findings[0].message)
            self.assertFalse(report["codec_pairs"][0]["ok"])

    def test_repo_codec_pairs_are_symmetric_with_reasons(self):
        src = os.path.join(pdc_analyze.REPO_ROOT, "src")
        _, report = pdc_analyze.analyze([src])
        pairs = {p["key"]: p for p in report["codec_pairs"]}
        self.assertIn("QuantileSketch::serialize/...", pairs)
        self.assertIn("DecisionTree::serialize/...", pairs)
        self.assertIn("CloudsProblem::export_state/...", pairs)
        for key, p in pairs.items():
            self.assertTrue(p["ok"], f"asymmetric repo codec: {key}")
            for n in p["nonwire"]:
                self.assertTrue(n["reason"], f"bare nonwire in {key}")
        self.assertEqual(report["summary"]["codec_pairs"], len(pairs))


class UntrustedFlows(unittest.TestCase):
    """The PDA510 untrusted-flow inventory mirrors the findings sink by
    sink, and the hardened repo decoders publish an empty inventory."""

    def test_fixture_flows_cover_every_sink_kind(self):
        findings, report = analyze_fixture("bad_pda510_narrowing.cpp")
        flows = report["untrusted_flows"]
        self.assertEqual(len(flows), len(findings))
        self.assertEqual(
            {(f["file"], f["line"]) for f in flows},
            {(f.path, f.line) for f in findings})
        sinks = {f["sink"] for f in flows}
        for expected in ("an allocation size (resize)",
                         "a container constructor extent",
                         "a new[] extent", "a narrowing cast",
                         "a memcpy length", "an array index",
                         "a loop bound"):
            self.assertIn(expected, sinks)
        self.assertEqual(
            {f["function"] for f in flows},
            {"parse_values", "parse_table", "parse_floats", "parse_port",
             "parse_blob", "parse_pick", "parse_sum", "parse_cursor_raw"})

    def test_repo_has_no_untrusted_flows(self):
        src = os.path.join(pdc_analyze.REPO_ROOT, "src")
        _, report = pdc_analyze.analyze([src])
        self.assertEqual(report["untrusted_flows"], [])
        self.assertEqual(report["summary"]["untrusted_flows"], 0)


class TaintEngine(unittest.TestCase):
    def test_uniform_collective_cleanses_taint(self):
        body = ("{ const int rounds = comm.all_reduce(local); "
                "const int mine = comm.rank(); }")
        tainted = pdc_analyze.tainted_vars(body)
        self.assertIn("mine", tainted)
        self.assertNotIn("rounds", tainted)

    def test_assignment_fixpoint_propagates(self):
        body = ("{ const int a = comm.rank(); int b = a + 1; "
                "int c = b * 2; int d = 7; }")
        tainted = pdc_analyze.tainted_vars(body)
        self.assertEqual(tainted & {"a", "b", "c", "d"}, {"a", "b", "c"})


class SarifOutput(unittest.TestCase):
    def test_sarif_results_match_findings(self):
        with tempfile.TemporaryDirectory() as tmp:
            out = os.path.join(tmp, "out.sarif")
            rc = pdc_analyze.main(
                ["--no-cache", "--sarif", out,
                 os.path.join(FIXTURES, "bad_pda300_io.cpp")])
            self.assertEqual(rc, 1)
            with open(out, encoding="utf-8") as f:
                doc = json.load(f)
            self.assertEqual(doc["version"], "2.1.0")
            results = doc["runs"][0]["results"]
            self.assertEqual({r["ruleId"] for r in results}, {"PDA300"})
            self.assertEqual(len(results),
                             len(marker_lines("bad_pda300_io.cpp",
                                              "PDA300")))


class RunCache(unittest.TestCase):
    def test_cache_replays_identical_report(self):
        with tempfile.TemporaryDirectory() as tmp:
            cache = os.path.join(tmp, "cache")
            fixture = os.path.join(FIXTURES, "bad_pda100_direct.cpp")
            outs = []
            for i in range(2):
                out = os.path.join(tmp, f"r{i}.json")
                rc = pdc_analyze.main(
                    ["--cache-dir", cache, "--json", out, fixture])
                self.assertEqual(rc, 1)
                with open(out, encoding="utf-8") as f:
                    outs.append(json.load(f))
            self.assertEqual(outs[0], outs[1])
            self.assertEqual(len(os.listdir(cache)), 1)

    def test_cache_key_tracks_content(self):
        with tempfile.TemporaryDirectory() as tmp:
            src = os.path.join(tmp, "f.cpp")
            shutil.copy(os.path.join(FIXTURES, "good_clean.cpp"), src)
            k1 = pdc_analyze.run_cache_key([src])
            with open(src, "a", encoding="utf-8") as f:
                f.write("// changed\n")
            k2 = pdc_analyze.run_cache_key([src])
            self.assertNotEqual(k1, k2)


class CliDriver(unittest.TestCase):
    def test_exit_codes(self):
        bad = os.path.join(FIXTURES, "bad_pda200_scan.cpp")
        good = os.path.join(FIXTURES, "good_clean.cpp")
        self.assertEqual(pdc_analyze.main(["--no-cache", good]), 0)
        self.assertEqual(pdc_analyze.main(["--no-cache", bad]), 1)

    def test_repo_src_tree_is_clean(self):
        src = os.path.join(pdc_analyze.REPO_ROOT, "src")
        self.assertEqual(pdc_analyze.main(["--no-cache", src]), 0)

    def test_repo_incore_zones_all_carry_reasons(self):
        src = os.path.join(pdc_analyze.REPO_ROOT, "src")
        _, report = pdc_analyze.analyze([src])
        self.assertGreater(len(report["incore_zones"]), 0)
        for zone in report["incore_zones"]:
            self.assertTrue(zone["reason"], f"bare zone: {zone}")
        for wrapper in report["io_wrappers"]:
            self.assertTrue(wrapper["reason"], f"bare wrapper: {wrapper}")


if __name__ == "__main__":
    unittest.main()
