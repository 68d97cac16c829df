"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workloads relax-gd shots-ch --seeds 1-10 \
        --out perfbench/baseline/seed-commit.json

Runs one benchmark process at a time (so runs do not compete for the two
cores), reads the JSON line each prints, and reports per metric the median,
the quartiles from ``statistics.quantiles(values, n=4)`` and the spread
(third minus first quartile, as a share of the median).  With ``--repeat 2``
each seed runs twice and the CSV digests and every count must repeat
exactly.  With ``--out`` the summary, the raw values and the environment of
the first run are written as JSON.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _seeds(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def spread(values) -> dict:
    med = statistics.median(values)
    if len(values) < 2 or med == 0:
        return {"median": med}
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med}


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    """The result line of one run, with the CSV digests from its record."""
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=180, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited "
                           f"{proc.returncode}: {proc.stderr[-2000:]}")
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    record = ROOT / ".bench_out" / f"result-{workload}-seed{seed}-trace{trace}.json"
    res["digests"] = json.loads(record.read_text())["digests"]
    return res


def _repeats(a: dict, b: dict, traced: bool) -> bool:
    """Same CSV digests for the calls both runs made and, for traced runs
    (which always make the same two calls), the same counts."""
    n = min(len(a["digests"]), len(b["digests"]))
    counts = [{k: v["value"] for k, v in r["metrics"].items()
               if v["unit"] == "count"} for r in (a, b)]
    return (a["digests"][:n] == b["digests"][:n]
            and (not traced or counts[0] == counts[1]))


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", nargs="+",
                    default=[w["name"] for w in bench["workloads"]])
    ap.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--repeat", type=int, default=1)
    ap.add_argument("--out", type=Path)
    args = ap.parse_args(argv)
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}

    summary, raw = {}, {}
    for wl in args.workloads:
        runs = []
        for seed in _seeds(args.seeds):
            for rep in range(args.repeat):
                res = run_once(wl, seed, args.seconds, args.trace)
                if rep:
                    same = _repeats(res, runs[-1], bool(args.trace))
                    print(f"{wl} seed {seed}: digests and counts repeat: "
                          f"{same}", flush=True)
                runs.append(res)
                vals = " ".join(f"{k}={v['value']:.5g}"
                                for k, v in res["metrics"].items())
                print(f"{wl} seed {seed}: correct={res['correct']} "
                      f"failed={res['failed']}/{res['attempted']} {vals}",
                      flush=True)
        raw[wl] = runs
        summary[wl] = {}
        for metric in runs[0]["metrics"]:
            s = spread([r["metrics"][metric]["value"] for r in runs])
            s["unit"] = runs[0]["metrics"][metric]["unit"]
            summary[wl][metric] = s
            bound = bounds.get(metric)
            flag = ""
            if "spread" not in s:
                print(f"  {wl} {metric}: median {s['median']:.5g} {s['unit']}")
                continue
            if bound is not None:
                flag = f"  bound {bound} ({'ok' if s['spread'] <= bound / 3 else 'WIDE'})"
            print(f"  {wl} {metric}: median {s['median']:.5g} {s['unit']}, "
                  f"spread {s['spread']:.4f}{flag}", flush=True)
        print(f"  {wl}: all correct = {all(r['correct'] for r in runs)}")

    if args.out:
        env = json.loads((ROOT / ".bench_out" / (
            f"result-{args.workloads[0]}-seed{_seeds(args.seeds)[0]}"
            f"-trace{args.trace}.json")).read_text())["env"]
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(
            {"env": env, "seconds": args.seconds, "seeds": args.seeds,
             "summary": summary, "runs": raw}, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
