#!/usr/bin/env python3
"""Self-test of the benchmark at a tiny scale (about two minutes).

Usage (from the repository root):

    python3 perfbench/selftest.py

For every workload it asserts that:
  - an untraced run prints every end-to-end metric of BENCHMARK.json with
    its unit, plus the workload's own metric names, with no failed check;
  - a traced run prints every per-layer metric with its unit, writes a
    Perfetto trace, and repeats its output digest and deterministic
    counters exactly on a second run;
  - the digest is the same under REPRO_DOMAINS=1 and 2, and agrees
    between the traced and untraced runs;
  - a second seed also runs with no failed check;
  - a run with one deliberately perturbed oracle value counts a failure.
Finally, in a directory holding only BENCHMARK.json and perfbench/, the
benchmark must exit non-zero without printing a result.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile

ROOT = os.getcwd()
SCALE = "0.1"
SECONDS = "1"

# Names each workload prints above the JSON line, by name and unit.
OWN_METRICS = {
    "valley_free": [("vf_sources_per_s", "1/s"), ("bgp_dests_per_s", "1/s")],
    "sim_steady": [("sessions_per_s", "1/s")],
    "sim_churn": [("sessions_per_s", "1/s")],
    "reconverge": [("reconverge_ms_p50", "ms"), ("curve_ms_p50", "ms")],
}
COMMON = [("setup_s", "s"), ("peak_rss_mb", "MB"), ("fail_ratio", "ratio")]


def run(workload, seed, trace, extra=(), domains="2", cwd=ROOT):
    env = dict(os.environ, REPRO_DOMAINS=domains)
    cmd = ["python3", "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", SECONDS, "--trace", str(trace), "--scale", SCALE, *extra]
    out = subprocess.run(cmd, cwd=cwd, env=env, capture_output=True, text=True, timeout=300)
    return out


def parse(out):
    assert out.returncode == 0, f"exit {out.returncode}\n{out.stdout}\n{out.stderr}"
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"], result.keys()
    assert result["attempted"] >= 1
    tagged = {}
    for line in lines[:-1]:
        parts = line.split()
        if len(parts) >= 2:
            tagged.setdefault(parts[0], parts[1:])
    return result, tagged


def expect_metrics(result, specs):
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    want = {s["name"]: s["unit"] for s in specs}
    assert got == want, f"metrics differ:\n got {got}\nwant {want}"


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    for w in (x["name"] for x in bench["workloads"]):
        plain, tags = parse(run(w, 3, 0))
        assert plain["failed"] == 0 and plain["correct"], plain
        expect_metrics(plain, bench["end_to_end"])
        for name, unit in OWN_METRICS[w] + COMMON:
            assert name in tags and tags[name][1] == unit, f"{w}: {name} [{unit}] not printed"

        traced, ttags = parse(run(w, 3, 1))
        assert traced["failed"] == 0, traced
        expect_metrics(traced, bench["per_layer"])
        assert traced["metrics"]["obs.trace_overhead"]["value"] > 0
        with open(ttags["perfetto_trace"][0]) as f:
            assert json.load(f)["traceEvents"], "empty Perfetto trace"
        again, atags = parse(run(w, 3, 1))
        assert atags["digest"] == ttags["digest"], f"{w}: digest differs between runs"
        assert atags["counters"] == ttags["counters"], f"{w}: counters differ between runs"
        assert ttags["digest"] == tags["digest"], f"{w}: traced and untraced digests differ"

        one, otags = parse(run(w, 3, 0, domains="1"))
        assert otags["digest"] == tags["digest"], f"{w}: digest depends on REPRO_DOMAINS"

        second, _ = parse(run(w, 4, 0))
        assert second["failed"] == 0, f"{w}: seed 4 failed checks"

        bad, _ = parse(run(w, 3, 0, extra=["--perturb"]))
        assert bad["failed"] >= 1 and not bad["correct"], f"{w}: perturbed oracle not caught"
        print(f"ok {w}: {plain['attempted']} checks, digest {tags['digest'][0]}", flush=True)

    with tempfile.TemporaryDirectory() as bare:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(os.path.join(ROOT, "perfbench"), os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("out"))
        out = run(bench["workloads"][0]["name"], 1, 0, cwd=bare)
        assert out.returncode != 0, "bench ran without the repository"
        assert not out.stdout.strip().endswith("}"), "bench printed a result without the repository"
    print("ok bare directory: exits", out.returncode)
    print("selftest passed")


if __name__ == "__main__":
    try:
        main()
    except AssertionError as e:
        print(f"selftest FAILED: {e}", file=sys.stderr)
        sys.exit(1)
