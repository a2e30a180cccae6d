#!/usr/bin/env python3
"""Self-tests of check_bench_digest.py (python3 scripts/test_check_bench_digest.py)."""
import json
import pathlib
import sys
import unittest

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))
import check_bench_digest  # noqa: E402

EXPECTED = json.loads(check_bench_digest.EXPECTED_PATH.read_text())


def run_lines(workload, digest, correct=True, failed=0, seed=None):
    if seed is None:
        seed = EXPECTED["workloads"].get(workload, {}).get("seed", 7)
    detail = {"detail": {"workload": workload, "seed": seed, "digest": digest}}
    result = {"correct": correct, "attempted": 4, "failed": failed,
              "metrics": {}}
    return [json.dumps(detail), json.dumps(result)]


class CheckBenchDigestTest(unittest.TestCase):
    def test_every_benchmark_workload_has_an_expected_digest(self):
        self.assertEqual(sorted(EXPECTED["workloads"]),
                         ["lu16k_atc_s8", "lu512_atc_s1", "mixed512_atcpm_s4"])

    def test_matching_run_passes(self):
        for name, want in EXPECTED["workloads"].items():
            self.assertEqual(
                check_bench_digest.check(run_lines(name, dict(want["digest"])),
                                         EXPECTED), [], name)

    def test_changed_digest_fails(self):
        for key in ("events", "supersteps", "superstep_bits", "migrations"):
            digest = dict(EXPECTED["workloads"]["mixed512_atcpm_s4"]["digest"])
            digest[key] += 1
            problems = check_bench_digest.check(
                run_lines("mixed512_atcpm_s4", digest), EXPECTED)
            self.assertEqual(len(problems), 1, key)
            self.assertIn(key, problems[0])

    def test_incorrect_or_failed_run_fails(self):
        digest = dict(EXPECTED["workloads"]["lu512_atc_s1"]["digest"])
        self.assertTrue(check_bench_digest.check(
            run_lines("lu512_atc_s1", digest, correct=False), EXPECTED))
        self.assertTrue(check_bench_digest.check(
            run_lines("lu512_atc_s1", digest, failed=1), EXPECTED))

    def test_result_line_alone_fails(self):
        lines = run_lines("lu512_atc_s1",
                          EXPECTED["workloads"]["lu512_atc_s1"]["digest"])
        self.assertTrue(check_bench_digest.check(lines[-1:], EXPECTED))

    def test_other_seed_is_reported_as_such(self):
        want = EXPECTED["workloads"]["lu512_atc_s1"]
        problems = check_bench_digest.check(
            run_lines("lu512_atc_s1", dict(want["digest"]),
                      seed=want["seed"] + 1), EXPECTED)
        self.assertEqual(len(problems), 1)
        self.assertIn("seed", problems[0])
        self.assertNotIn("digest", problems[0])

    def test_unknown_workload_fails(self):
        self.assertTrue(check_bench_digest.check(
            run_lines("lu1m_atc_s64", {"events": 1}), EXPECTED))


if __name__ == "__main__":
    unittest.main()
