#!/usr/bin/env python3
"""Smoke-size self-test of the benchmark harness.

    python3 perfbench/selftest.py

Runs every workload at smoke size (tiny cities, a few jobs) through the
same code the benchmark uses and asserts that:
  - run.py's metric lists match BENCHMARK.json name for name and unit
    for unit, and every run emits each of them with its unit;
  - a clean run is correct, and a deliberately corrupted result
    document is counted as a failed operation on every workload;
  - the in-process units pass merges obs/ blocks to exactly the block
    `pw_run --campaign --metrics` merges from its children.
Exits non-zero on the first failed assertion. Takes about a minute.
"""

import copy
import json
import os
import shutil
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

SMOKE = {
    "survey_dense": dict(run.WORKLOADS["survey_dense"], params=dict(
        run.WORKLOADS["survey_dense"]["params"], scale=0.002)),
    # A long coherence interval keeps the faded smoke survey short.
    "survey_faded": dict(run.WORKLOADS["survey_faded"], params=dict(
        run.WORKLOADS["survey_faded"]["params"], scale=0.002,
        fading_coherence_us=100000.0)),
    "campaign_burst": dict(run.WORKLOADS["campaign_burst"], jobs=8),
}
SEED = 3


def check(cond, what):
    if not cond:
        print("selftest: FAIL: %s" % what)
        sys.exit(1)
    print("selftest: ok: %s" % what)


def check_catalogue():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    check([(m["name"], m["unit"]) for m in bench["end_to_end"]] ==
          run.END_TO_END, "end-to-end metrics match BENCHMARK.json")
    check([(m["name"], m["unit"]) for m in bench["per_layer"]] ==
          run.PER_LAYER, "per-layer metrics match BENCHMARK.json")
    check(sorted(w["name"] for w in bench["workloads"]) ==
          sorted(run.WORKLOADS), "workloads match BENCHMARK.json")


def check_emits(bins):
    for name, cfg in SMOKE.items():
        for trace, names in ((0, run.END_TO_END), (1, run.PER_LAYER)):
            _, result = run.measure(name, cfg, SEED, 0.1, trace, bins)
            check(result["correct"] and result["failed"] == 0,
                  "%s trace=%d is correct" % (name, trace))
            emitted = {k: v["unit"] for k, v in result["metrics"].items()}
            check(emitted == dict(names),
                  "%s trace=%d emits every metric with its unit" %
                  (name, trace))


def corrupt(doc):
    """A survey claims more answers than devices; a campaign loses a
    job."""
    doc = copy.deepcopy(doc)
    results = doc.get("results", {})
    if "responded" in results:
        results["responded"] = results["discovered"] + 1
    elif isinstance(doc.get("jobs"), list):
        doc["jobs"].pop()
    return doc


def check_corruption(bins):
    real_last_json, real_read = run.last_json, run.read_document

    def bad_last_json(text):
        out = real_last_json(text)
        if isinstance(out, dict) and "document" in out:
            out["document"] = corrupt(out["document"])
        return out

    def bad_read(raw):
        doc = real_read(raw)
        return corrupt(doc) if isinstance(doc, dict) and \
            ("results" in doc or "jobs" in doc) else doc

    run.last_json, run.read_document = bad_last_json, bad_read
    try:
        for name, cfg in SMOKE.items():
            _, result = run.measure(name, cfg, SEED, 0.1, 0, bins)
            check(not result["correct"] and result["failed"] > 0,
                  "%s counts a corrupted document as failed" % name)
    finally:
        run.last_json, run.read_document = real_last_json, real_read
    # The checks themselves, on documents that pass before corruption.
    survey = {"failed": False, "results": {"discovered": 5, "responded": 5}}
    short = {"failed": False, "results": {"discovered": 5, "responded": 4}}
    check(run.check_survey(survey)[0] and
          not run.check_survey(corrupt(survey))[0] and
          not run.check_survey(short)[0] and
          run.check_survey(short, every_device_answers=False)[0],
          "check_survey holds Table 2's claim only where it applies")


def check_merge(bins):
    cfg = SMOKE["campaign_burst"]
    work = os.path.join(run.build_dir(), "work", "selftest-merge")
    os.makedirs(work, exist_ok=True)
    r = run.Run(SEED, work)
    manifest, units = run.write_manifest(r, cfg)
    _, merged = run.units_pass(r, bins, manifest, units, trace=True)
    metrics = os.path.join(work, "driver.metrics.json")
    p = run.spawn([bins["pw_run"], "--campaign=" + manifest,
                   "--campaign-dir=" + os.path.join(work, "c.campaign"),
                   "--procs=%d" % run.PROCS, "--metrics=" + metrics],
                  os.path.join(work, "driver.out"))
    with open(metrics) as f:
        driver = json.load(f)
    shutil.rmtree(work, ignore_errors=True)
    check(p.code == 0 and merged is not None and
          merged["counters"] == driver["counters"] and
          merged["gauges"] == driver["gauges"],
          "in-process units merge equals the driver's --metrics merge")


def main():
    check_catalogue()
    bins = run.build()
    check_emits(bins)
    check_corruption(bins)
    check_merge(bins)
    print("selftest: all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
