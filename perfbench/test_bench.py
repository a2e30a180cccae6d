"""Self-tests of the atcsim benchmark.

    python3 -m unittest discover -s perfbench -p 'test_*.py'

Run from the repository root.  The first test to call run.py builds the
benchmark binaries (see run.py).  Every run asks for a tiny --seconds, so
each binary runs its minimum of three repetitions; the whole suite then takes
about two minutes and briefly needs ~0.9 GB of memory for the 16384-node
workload.
"""
import json
import pathlib
import re
import subprocess
import sys
import unittest

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
import run  # noqa: E402  (the benchmark's own build location)

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
# Below one repetition of any workload: each run makes the minimum three.
SECONDS = "0.001"
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def run_bench(workload, *extra):
    """One run.py invocation; returns (detail, result) from its stdout."""
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seconds", SECONDS, *extra],
        cwd=ROOT, capture_output=True, text=True, timeout=900)
    if done.returncode != 0:
        raise AssertionError(f"run.py failed:\n{done.stderr[-2000:]}")
    lines = done.stdout.strip().splitlines()
    return json.loads(lines[-2])["detail"], json.loads(lines[-1])


class SpecTest(unittest.TestCase):
    def test_metric_names_are_well_formed_and_unique(self):
        metrics = SPEC["end_to_end"] + SPEC["per_layer"]
        names = [m["name"] for m in metrics]
        for m in metrics:
            self.assertRegex(m["name"], f"^{NAME.pattern}$")
            self.assertRegex(m["unit"], f"^{UNIT.pattern}$")
        self.assertEqual(len(names), len(set(names)))
        workloads = [w["name"] for w in SPEC["workloads"]]
        self.assertEqual(len(workloads), len(set(workloads)))

    def test_bounds(self):
        bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
        self.assertTrue(all(0 < b <= 0.25 for b in bounds.values()))
        self.assertEqual(bounds["setup_s"], max(bounds.values()))


class WorkloadTest(unittest.TestCase):
    def test_every_workload_emits_its_metrics(self):
        end_to_end = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
        per_layer = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
        for w in SPEC["workloads"]:
            digests = {}
            for trace, expected in (("0", end_to_end), ("1", per_layer)):
                with self.subTest(workload=w["name"], trace=trace):
                    detail, result = run_bench(w["name"], "--trace", trace)
                    # A failed operation here includes a traced repetition
                    # whose digest differs from the untraced first one.
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    self.assertEqual(
                        {k: v["unit"] for k, v in result["metrics"].items()},
                        expected)
                    digests[trace] = detail["digest"]
                    if trace == "1":
                        self.check_layer_split(w["name"], result["metrics"])
            with self.subTest(workload=w["name"], check="digest"):
                # The untraced and traced binaries simulate the same thing.
                self.assertEqual(digests["0"], digests["1"])

    def check_layer_split(self, workload, metrics):
        rounds = metrics["pdes.rounds"]["value"]
        migrations = metrics["control.migrations_started"]["value"]
        if workload.endswith("_s1"):
            self.assertEqual(rounds, 0)
        else:
            self.assertGreater(rounds, 0)
        if workload.startswith("mixed"):
            self.assertGreater(migrations, 0)
        else:
            self.assertEqual(migrations, 0)

    def test_digest_check_trips_on_a_perturbed_digest(self):
        run_bench("lu16k_atc_s8")  # builds the binaries if needed
        binary = run.build_dir() / "atcbench"
        for perturb, failed in ((False, 0), (True, 1)):
            cmd = [str(binary), "--workload", "lu16k_atc_s8",
                   "--seconds", SECONDS]
            if perturb:
                cmd.append("--perturb-digest")
            done = subprocess.run(cmd, capture_output=True, text=True,
                                  timeout=600)
            self.assertEqual(done.returncode, 0)
            result = json.loads(done.stdout.strip().splitlines()[-1])
            self.assertEqual(result["failed"], failed)
            self.assertEqual(result["correct"], failed == 0)


if __name__ == "__main__":
    unittest.main()
