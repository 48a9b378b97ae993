"""Benchmark command: host cost and paper fidelity of the COMET simulator.

    python3 perfbench/run.py --workload fig10_batch --seed 1 --seconds 12 --trace 0

Every sample runs in a fresh single-threaded interpreter (``worker.py``),
one after another.  With ``--trace 0`` the command repeats untraced
samples for ``--seconds`` (at least two, so the same seed can be checked
to give an identical report), tops ``setup_s`` up to three samples with
set-up-only starts, and prints the end-to-end metrics as medians.  With
``--trace 1`` it alternates untraced and traced samples and prints the
per-layer metrics of the traced ones.  The last stdout line is one JSON
object; the exit code is 1 when an output check fails and 2 when a sample
cannot run at all (then no result is printed).

See ``perfbench/README.md`` for the workloads and the metric map.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")

MIN_SAMPLES = 2
SETUP_SAMPLES = 3
SAMPLE_TIMEOUT_S = 150
#: The fidelity metrics come from the Fig. 10 workload, which has no seed.
FIDELITY_WORKLOAD = "fig10_batch"
#: Fidelity of the checkout's source, kept between runs (see fidelity_sample()).
FIDELITY_CACHE = os.path.join(ROOT, ".perfbench_out", "fidelity.json")

#: The workload and metric catalogue (names, units) the result must match.
SPEC = os.path.join(ROOT, "BENCHMARK.json")


class SampleError(RuntimeError):
    """A worker crashed, timed out or printed no result."""


def sample(workload: str, seed: int, mode: str) -> dict:
    """Run one worker to completion and return its JSON result."""
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    cmd = [sys.executable, WORKER, "--workload", workload, "--seed",
           str(seed), "--mode", mode]
    spawned_at = time.monotonic()
    try:
        proc = subprocess.run(
            cmd + ["--spawned-at", repr(spawned_at)], cwd=ROOT, env=env,
            capture_output=True, text=True, timeout=SAMPLE_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired as exc:
        raise SampleError(f"{workload}/{mode} timed out") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SampleError(f"{workload}/{mode} exited {proc.returncode}:\n"
                          f"{proc.stderr.strip()[-2000:]}")
    return json.loads(lines[-1])


def repeat(workload: str, seed: int, seconds: float, modes) -> list[dict]:
    """Run rounds of ``modes`` until ``seconds`` pass and at least
    ``MIN_SAMPLES`` samples exist."""
    deadline = time.monotonic() + seconds
    done: list[dict] = []
    while len(done) < MIN_SAMPLES or time.monotonic() < deadline:
        for mode in modes:
            done.append(dict(sample(workload, seed, mode), mode=mode))
    return done


def median(samples: list[dict], key: str) -> float:
    return statistics.median(s[key] for s in samples)


def source_key() -> str:
    """Digest of everything the simulated outputs depend on: the program's
    source, the interpreter and numpy versions."""
    h = hashlib.sha256(f"{sys.version} numpy "
                       f"{importlib.metadata.version('numpy')}".encode())
    src = os.path.join(ROOT, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()


def fidelity_sample(workload: str, seed: int, samples: list[dict]) -> dict:
    """The Fig. 10 sample whose ratios give the fidelity metrics.

    Every workload must report them, but they are a seedless, bit-exact
    function of the source.  A Fig. 10 sample of this run stores them
    under the source digest; other workloads reuse a stored entry and run
    their own (untimed) Fig. 10 sample, appended to ``samples`` for the
    output checks, only when there is none.
    """
    key = source_key()
    if workload == FIDELITY_WORKLOAD:
        fid = samples[0]
    else:
        try:
            with open(FIDELITY_CACHE) as fh:
                cached = json.load(fh)
            if cached["key"] == key:
                return cached
        except (OSError, ValueError, KeyError):
            pass
        fid = dict(sample(FIDELITY_WORKLOAD, seed, "full"), mode="fidelity")
        samples.append(fid)
    if not fid["errors"]:
        os.makedirs(os.path.dirname(FIDELITY_CACHE), exist_ok=True)
        with open(FIDELITY_CACHE, "w") as fh:
            json.dump({"key": key, "fidelity": fid["fidelity"],
                       "ratios": fid["ratios"]}, fh)
    return fid


def measure(workload: str, seed: int, seconds: float) -> tuple[dict, list]:
    """End-to-end metrics: medians over untraced samples."""
    full = repeat(workload, seed, seconds, ("full",))
    setups = [s["setup_s"] for s in full]
    while len(setups) < SETUP_SAMPLES:
        setups.append(sample(workload, seed, "setup")["setup_s"])
    samples = list(full)
    fid = fidelity_sample(workload, seed, samples)
    counts = full[0]["requests"]
    metrics = {
        "setup_s": statistics.median(setups),
        "host_s": median(full, "host_s"),
        "peak_rss_mb": median(full, "peak_rss_mb"),
        "req_ok_frac": counts["completed"] / counts["sent"],
        **fid["fidelity"],
    }
    return metrics, samples


def trace(workload: str, seed: int, seconds: float) -> tuple[dict, list]:
    """Per-layer metrics: medians over traced samples, each paired with
    an untraced one for the tracing overhead."""
    pairs = repeat(workload, seed, seconds, ("full", "traced"))
    plain = [s for s in pairs if s["mode"] == "full"]
    traced = [s for s in pairs if s["mode"] == "traced"]
    samples = list(pairs)
    fid = fidelity_sample(workload, seed, samples)
    metrics = {name: statistics.median(s["layers"][name] for s in traced)
               for name in traced[0]["layers"]}
    metrics.update(traced[0]["sim"])
    for kind in ("sent", "completed", "failed", "rejected", "timed_out"):
        metrics[f"sim.requests.{kind}"] = traced[0]["requests"][kind]
    for base, by_model in fid["ratios"].items():
        for model, ratio in by_model.items():
            metrics[f"sim.ratio.{base}.{model}"] = ratio
    metrics["trace.overhead_frac"] = (
        median(traced, "host_s") / median(plain, "host_s") - 1.0
    )
    return metrics, samples


def check_samples(workload: str, samples: list[dict]) -> list[str]:
    """Every sample's own output checks, plus: all samples of the
    workload's seed (traced or not) must produce the identical report."""
    errors = [e for s in samples for e in s["errors"]]
    prints = {s["fingerprint"] for s in samples if s["mode"] != "fidelity"}
    if len(prints) != 1:
        errors.append(f"{workload}: {len(prints)} different reports from "
                      "one seed")
    return errors


def main(argv: list[str] | None = None) -> int:
    with open(SPEC) as fh:
        spec = json.load(fh)
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    run = trace if args.trace else measure
    try:
        metrics, samples = run(args.workload, args.seed, args.seconds)
    except SampleError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    errors = check_samples(args.workload, samples)
    units = {m["name"]: m["unit"]
             for m in spec["per_layer" if args.trace else "end_to_end"]}
    if set(metrics) != set(units):
        errors.append(f"metrics differ from {os.path.basename(SPEC)}: "
                      f"{sorted(set(metrics) ^ set(units))}")
    runs = sum(s["runs"] for s in samples)
    failed = sum(s["failed_runs"] for s in samples)

    counts = samples[0]["requests"]
    print(f"workload {args.workload} seed {args.seed}: "
          f"{len(samples)} samples, {runs} engine runs")
    print("requests " + " ".join(f"{k}={v}" for k, v in counts.items()))
    if args.workload == "poisson_live":
        print("generator lateness 0 s: arrivals are due on the simulated "
              "clock, so the open loop can never send late")
    for err in errors:
        print(f"CHECK FAILED: {err}")
    for name, unit in units.items():
        if name in metrics:
            print(f"  {name:<44} {metrics[name]:>16.6g} {unit}")
    print(json.dumps({
        "correct": not errors,
        "attempted": runs,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items() if name in metrics},
    }))
    return 0 if not errors else 1


if __name__ == "__main__":
    sys.exit(main())
