#!/usr/bin/env python3
"""Regenerate perfbench/refs/ from the current build.

    python3 perfbench/make_refs.py

The references pin what the benchmark's output checks compare
against: per data seed, the full-detail matrix as CSV and bit-exact
(full_s<seed>.csv, full_s<seed>.hex) and its work counters; the
bit-exact sampled matrix's hash, its counters and how many paper
findings keep the full sweep's verdict; and the payload hash and size
of every serve-mix cell. They are produced on 4 threads
while the benchmark runs on 2, so they also pin thread-count
independence. Regenerate only for a change that is meant to alter
simulation output, and say so in that change.
"""

import hashlib
import json
import sys

import run

COUNTERS = ("ops", "detail_ops", "warm_ops", "l2_misses")


def sweep(runner, mode, seed, machine="default", ref=None):
    args = ["sweep", "--mode", mode, "--seed", str(seed), "--threads", "4",
            "--scale", run.SCALE, "--machine", machine]
    if ref:
        args += ["--ref", str(ref)]
    rep = runner.spawn(args)
    if not rep.ok:
        sys.exit(f"make_refs: {mode} sweep of seed {seed} on {machine} failed")
    runner.discard(rep)
    return rep


def main():
    run.build()
    runner = run.Runner("make-refs")
    refs = {"scale": run.SCALE, "full": {}, "sampled": {}, "cells": {},
            "cell_bytes": {}}
    try:
        for seed in run.DATA_SEEDS:
            key = str(seed)
            full = sweep(runner, "full", seed)
            csv = full.files["matrix.csv"]
            (run.REFS_DIR / f"full_s{seed}.csv").write_bytes(csv)
            (run.REFS_DIR / f"full_s{seed}.hex").write_bytes(full.files["matrix.hex"])
            refs["full"][key] = {k: full.result[k] for k in COUNTERS}
            sampled = sweep(runner, "sampled", seed,
                            ref=run.REFS_DIR / f"full_s{seed}.hex")
            refs["sampled"][key] = {
                "sha256": hashlib.sha256(sampled.files["matrix.hex"]).hexdigest(),
                "findings_preserved": sampled.result["findings_preserved"],
                "err_mean": sampled.result["err_mean"],
                **{k: sampled.result[k] for k in COUNTERS}}
            for preset in run.SERVE_PRESETS:
                cell = csv if preset == "default" else \
                    sweep(runner, "full", seed, preset).files["matrix.csv"]
                refs["cells"][f"{seed}/{preset}"] = hashlib.sha256(cell).hexdigest()
                refs["cell_bytes"][f"{seed}/{preset}"] = len(cell)
            print(f"seed {seed}: findings kept {refs['sampled'][key]['findings_preserved']}"
                  f"/20, sampled error {refs['sampled'][key]['err_mean']:.4f}")
    finally:
        runner.close()
    (run.REFS_DIR / "refs.json").write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
