"""Run one workload of the repository benchmark and print its metrics.

    python3 perfbench/run.py --workload spmd_scale --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the program is imported from its
``src``.  Human-readable lines come first (host fingerprint, every
metric by name with its unit, ``error_rate``); the last line of standard
output is the JSON result.  ``--trace 1`` runs the traced per-layer
suite instead of the workload's closed loop.  Details (samples, counts,
spans) go to ``.perfbench_out/`` in the checkout.  See README.md.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import shutil
import sys
import tempfile
import time

import benchlib as bl

WORKLOADS = ("spmd_scale", "rd_replay", "artifacts_service")


def parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="import and build the inputs, then exit "
                             "(what setup_s times)")
    return parser.parse_args(argv)


def say(line: str) -> None:
    print(f"[perfbench] {line}", flush=True)


def measure(args, scratch, cpus):
    """The untraced closed loop: (end-to-end values, named summary,
    outcome, workload details)."""
    module = importlib.import_module(args.workload)
    outcome = bl.Outcome()
    if args.workload == "artifacts_service":
        res = module.run(args.seed, args.seconds, outcome, scratch, cpus)
    else:
        res = module.run(args.seed, args.seconds, outcome)
    # The gated times read as on the reference host; the summary lines
    # print the absolute times beside them.
    speed = res.pop("speed")
    setup_s = bl.median(res["setup_samples"])
    peak_rss_mb = res.get("peak_rss_mb", bl.peak_rss_mb())
    values = {"setup_s": speed.adjust(setup_s), "peak_rss_mb": peak_rss_mb,
              **{k: speed.adjust(v) for k, v in res["e2e"].items()}}
    named = {**res["named"],
             "setup_s.absolute": (setup_s, "s"),
             "peak_rss_mb": (peak_rss_mb, "MB"),
             "host_kernel_ms": (speed.mean_ms(), "ms")}
    res["kernel_samples_ms"] = speed.samples
    return values, named, outcome, res


def main(argv=None) -> int:
    args = parse(argv)
    if not (bl.SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program at {bl.SRC / 'repro'}; run from the "
              f"root of a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(bl.SRC))
    # Temporary files (the resilience artifact's checkpoints among them)
    # stay inside the checkout, in this process and every child.
    tmp = bl.OUT / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = tempfile.tempdir = str(tmp)

    if args.setup_only:
        importlib.import_module(args.workload).setup(args.seed)
        return 0

    cpus = bl.cpus()
    bl.pin(cpus[0])
    host = bl.fingerprint()
    calibration = bl.calibration_ms()
    say(f"host: python {host['python']}, numpy {host['numpy']}, scipy "
        f"{host['scipy']}, nproc {host['nproc']}, cpu {host['cpu_model']!r}; "
        f"calibration kernel {calibration:.3f} ms")

    scratch = bl.OUT / f"run-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    started = time.perf_counter()
    tag = f"{args.workload}.seed{args.seed}.trace{args.trace}"
    moves: dict = {}
    try:
        if args.trace:
            import layers

            outcome = bl.Outcome()
            res = layers.run(args.seed, scratch, cpus, outcome)
            res.pop("tracer").write(bl.OUT / f"{tag}.spans.jsonl")
            metrics = bl.metric_block(res["per_layer"], "per_layer")
            named = {k: (v["value"], v["unit"]) for k, v in metrics.items()}
            counts_kind = "layers"
            moves = layers.MOVES
        else:
            values, named, outcome, res = measure(args, scratch, cpus)
            metrics = bl.metric_block(values, "end_to_end")
            counts_kind = args.workload
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    changed = bl.check_counts(counts_kind, res["counts"])
    error_rate = outcome.failed / outcome.attempted
    for name, (value, unit) in named.items():
        note = f"  -> {moves[name]}" if name in moves else ""
        say(f"{args.workload} {name} = {value:.6g} {unit}{note}")
    if not args.trace:
        for name, metric in metrics.items():
            say(f"{args.workload} gated {name} = {metric['value']:.6g} "
                f"{metric['unit']}")
    say(f"{args.workload} error_rate = {error_rate:.6g} "
        f"({outcome.failed} of {outcome.attempted} operations)")
    for failure in outcome.failures[:10]:
        say(f"FAILED: {failure}")
    for change in changed:
        say(f"BEHAVIOUR CHANGE (count differs from expected_counts.json): "
            f"{change}")
    bl.write_details(tag, {
        **res, "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "host": host,
        "calibration_ms": calibration,
        "wall_s": time.perf_counter() - started,
        "metrics": metrics, "named": named, "error_rate": error_rate,
        "failures": outcome.failures, "counts_changed": changed,
    })
    print(json.dumps({"correct": outcome.failed == 0,
                      "attempted": outcome.attempted,
                      "failed": outcome.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
