#!/usr/bin/env python3
"""The repository benchmark: three seeded workloads over the weakkeys
libraries, each pass a fresh process of perfbench.exe.

    python3 perfbench/run.py --workload {study,bulk,extend} --seed N \\
        --seconds S --trace {0,1}

Run from the repository root. Builds perfbench.exe from source into
.bench_build/, generates (or reuses) the seeded inputs, runs untraced
passes for about S seconds and checks every pass's output. With
--trace 1 it then runs one traced pass, writes its spans as Chrome
trace-event JSON and prints a per-layer self-time table. The last line
of stdout is the result: {"correct", "attempted", "failed", "metrics"}
with the end-to-end metrics (--trace 0) or the per-layer ones
(--trace 1). Exits non-zero when a check fails or the program cannot
be built. See perfbench/README.md for the workloads and metrics.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time

sys.dont_write_bytecode = True
HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import fixtures  # noqa: E402
import stats  # noqa: E402

ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".bench_build", "perfbench")
EXE = os.path.join(ROOT, ".bench_build", "dune", "default", "perfbench", "perfbench.exe")
PASS_TIMEOUT = 170

# Workload shapes. `min_passes` fresh processes always run; more run
# while the next one still fits in --seconds.
SHAPES = {
    "study": {"scale": 0.03, "min_passes": 3},
    "bulk": {"n": 2048, "bits": 512, "share_every": 64, "min_passes": 3},
    "extend": {
        "base": 8192,
        "bits": 96,
        "months": len(fixtures.STUDY_MONTHS),
        "min_passes": 2,
    },
}

END_TO_END = {
    "p50_ms": "ms",
    "tail_ms": "ms",
    "moduli_per_s": "1/s",
    "setup_s": "s",
    "peak_heap_mb": "MiB",
}

PASSES = [
    "subject-rules",
    "ibm-clique",
    "bit-errors",
    "mitm-substitution",
    "shared-prime",
    "openssl-fingerprint",
]
SECTIONS = [
    "table1", "table2", "table3", "table4", "table5",
    "figure1", "figure2", "figure3", "figure4", "figure5",
    "figure6", "figure7", "figure8", "figure9", "figure10",
    "rimon_section", "bit_error_section", "overlap_section",
    "response_correlation_section",
]
STAGES = ["scan", "intern", "batchgcd", "fingerprint", "index", "attribution"]

PER_LAYER = {
    # every workload
    "run.samples": "count",
    "trace.overhead_pct": "%",
    "trace.coverage_pct": "%",
    "trace.spans": "count",
    "gc.alloc_mb": "MiB",
    "batchgcd.findings": "count",
    # study
    "netsim.world_build_s": "s",
    "netsim.scan_campaigns_s": "s",
    **{f"core.stage.{s}_s": "s" for s in STAGES},
    **{f"fingerprint.pass.{p}_s": "s" for p in PASSES},
    **{f"report.{s}_s": "s" for s in SECTIONS},
    "report.total_s": "s",
    "gc.world.alloc_mb": "MiB",
    "gc.pipeline.alloc_mb": "MiB",
    "gc.report.alloc_mb": "MiB",
    "core.corpus_moduli": "count",
    "report.bytes": "count",
    # bulk
    "batchgcd.product_tree_s": "s",
    "batchgcd.precompute_s": "s",
    "batchgcd.descent_s": "s",
    "batchgcd.leaf_gcd_s": "s",
    "batchgcd.backend.tree_s": "s",
    "batchgcd.backend.ksubset_s": "s",
    "bignum.root_mul_ms": "ms",
    "batchgcd.tree_limbs": "count",
    "parallel.bulk_speedup": "x",
    # extend
    "batchgcd.create_s": "s",
    "corpus.ckpt_load_ms": "ms",
    "corpus.ckpt_save_ms": "ms",
    "corpus.ckpt_bytes": "bytes",
    "corpus.dedup_ms": "ms",
    "batchgcd.extend_ms": "ms",
    "batchgcd.extend_all_to_all_ms": "ms",
    "batchgcd.extend_tree_ms": "ms",
    "batchgcd.segments": "count",
    "batchgcd.delta_picks.all_to_all": "count",
    "batchgcd.delta_picks.tree": "count",
}


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def child_env():
    """The passes' environment. The default pool gets one domain: the
    host is a few cores of a shared machine, and a gang of `nproc`
    domains waits at every join for its slowest member, so its timings
    follow the neighbours' load (study passes alternating one and two
    domains on 2 cores: CV 5.6% on one, 14.4% on two). The traced bulk
    pass still measures the ksubset backend on `nproc` domains."""
    env = dict(os.environ)
    env["TMPDIR"] = os.path.join(WORK, "tmp")
    env["WEAKKEYS_DOMAINS"] = "1"
    return env


def build():
    os.makedirs(os.path.join(WORK, "tmp"), exist_ok=True)
    cmd = [
        "dune", "build", "--root", ROOT, "--cache=disabled", "--profile", "perfbench",
        "--build-dir", os.path.join(ROOT, ".bench_build", "dune"),
        "perfbench/perfbench.exe",
    ]
    proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), stdout=sys.stderr)
    if proc.returncode != 0 or not os.path.exists(EXE):
        fail("build failed", 1)


def run_pass(args):
    proc = subprocess.run(
        [EXE, *args], cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
        stderr=sys.stderr, text=True, timeout=PASS_TIMEOUT,
    )
    if proc.returncode != 0:
        fail(f"pass {' '.join(args[:1])} exited with {proc.returncode}", 1)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def revision():
    """`git describe --always --dirty` of the tree, or "unknown" outside
    a git checkout."""
    try:
        out = subprocess.run(
            ["git", "describe", "--always", "--dirty"], cwd=ROOT,
            capture_output=True, text=True,
        )
    except OSError:
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


# ---------------------------------------------------------------- inputs


class Checks:
    def __init__(self):
        self.attempted, self.failed = 0, 0

    def __call__(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"perfbench: check failed: {what}", file=sys.stderr)


def findings_of(result):
    return {int(m, 16): int(d, 16) for m, d in result["findings_list"]}


def expected_findings(truth):
    return {int(m, 16): int(d, 16) for m, d in truth["findings"].items()}


class Study:
    def __init__(self, seed, shape):
        self.args = ["study", "--seed", f"perfbench-{seed}", "--scale", str(shape["scale"])]
        self.digest_file = os.path.join(
            WORK, "digests", f"study-scale{shape['scale']}-seed{seed}.sha256"
        )

    def check(self, r, checks):
        checks(r["truth_ok"], "study findings differ from the world's ground truth")
        digest = r["report_sha256"]
        if not os.path.exists(self.digest_file):
            os.makedirs(os.path.dirname(self.digest_file), exist_ok=True)
            with open(self.digest_file, "w") as f:
                f.write(digest + "\n")
        with open(self.digest_file) as f:
            checks(f.read().strip() == digest, "study report digest changed")

    def units(self, r):
        return [r["total_s"]], r["corpus_moduli"] / r["total_s"]

    def traced_unit(self, r):
        return r["total_s"]

    def layers(self, r, spans):
        m = {
            "netsim.world_build_s": r["world_s"],
            "netsim.scan_campaigns_s": r["scan_campaigns_s"],
            "report.total_s": r["report_s"],
            "gc.world.alloc_mb": r["alloc_mb"]["world"],
            "gc.pipeline.alloc_mb": r["alloc_mb"]["pipeline"],
            "gc.report.alloc_mb": r["alloc_mb"]["report"],
            "core.corpus_moduli": r["corpus_moduli"],
            "report.bytes": r["report_bytes"],
            "batchgcd.findings": r["findings"],
        }
        for s in STAGES:
            m[f"core.stage.{s}_s"] = r["stages"].get(s, 0.0)
        for p in PASSES:
            m[f"fingerprint.pass.{p}_s"] = r["stages"].get(f"pass:{p}", 0.0)
        for s in SECTIONS:
            m[f"report.{s}_s"] = r["sections"].get(s, 0.0)
        return m


class Bulk:
    def __init__(self, seed, shape):
        s = shape
        name = f"bulk-n{s['n']}-b{s['bits']}-share{s['share_every']}-seed{seed}"
        self.dir, truth = fixtures.cached(
            os.path.join(WORK, "fixtures"), name,
            lambda: fixtures.make_bulk(seed, s["n"], s["bits"], s["share_every"]),
        )
        self.expected = expected_findings(truth)
        self.args = ["bulk", "--moduli", os.path.join(self.dir, "moduli.txt")]

    def check(self, r, checks):
        checks(findings_of(r) == self.expected, "bulk findings differ from the planted set")
        if "backends_agree" in r:
            checks(r["backends_agree"], "bulk: tree, recomposed and nproc-domain findings differ")

    def units(self, r):
        return [r["total_s"]], r["moduli"] / r["total_s"]

    def traced_unit(self, r):
        return r["total_s"]

    def layers(self, r, spans):
        return {
            "batchgcd.findings": r["findings"],
            "batchgcd.product_tree_s": r["product_tree_s"],
            "batchgcd.precompute_s": r["precompute_s"],
            "batchgcd.descent_s": r["descent_s"],
            "batchgcd.leaf_gcd_s": r["leaf_gcd_s"],
            "batchgcd.backend.tree_s": r["tree_s"],
            "batchgcd.backend.ksubset_s": r["ksubset_s"],
            "bignum.root_mul_ms": r["root_mul_ms"],
            "batchgcd.tree_limbs": r["tree_limbs"],
            "parallel.bulk_speedup": r["bulk_speedup"],
        }


class Extend:
    def __init__(self, seed, shape):
        s = shape
        name = f"extend-base{s['base']}-b{s['bits']}-months{s['months']}-seed{seed}"
        self.dir, self.truth = fixtures.cached(
            os.path.join(WORK, "fixtures"), name,
            lambda: fixtures.make_extend(seed, s["base"], s["bits"]),
        )
        self.expected = expected_findings(self.truth)
        self.ckpt = os.path.join(WORK, f"ckpt-{os.getpid()}")
        self.args = [
            "extend", "--base", os.path.join(self.dir, "base.txt"),
            "--deltas", os.path.join(self.dir, "deltas.txt"), "--dir", self.ckpt,
        ]

    def check(self, r, checks):
        shutil.rmtree(self.ckpt, ignore_errors=True)
        for i, (c, fresh, want) in enumerate(
            zip(r["cycles"], self.truth["fresh"], self.truth["counts"])
        ):
            checks(c["fresh"] == fresh, f"extend: fresh count of cycle {i} differs")
            checks(c["findings"] == want, f"extend: finding count after cycle {i} differs")
        checks(len(r["cycles"]) == len(self.truth["counts"]), "extend: cycles missing")
        checks(findings_of(r) == self.expected, "extend: final findings differ from the planted set")
        if "from_scratch_agree" in r:
            checks(r["from_scratch_agree"], "extend: findings differ from a from-scratch tree run")

    def units(self, r):
        fresh = sum(c["fresh"] for c in r["cycles"])
        return r["cycle_s"], fresh / sum(r["cycle_s"])

    def traced_unit(self, r):
        return stats.percentile(r["cycle_s"], 50)

    def layers(self, r, spans):
        rows = r["cycles"]

        def med_ms(key, pick=None):
            xs = [c[key] for c in rows if pick is None or c["pick"] == pick]
            return 1000 * stats.percentile(xs, 50) if xs else 0.0

        create = [stop - start for name, start, stop, _ in spans if name == "batchgcd.create"]
        return {
            "batchgcd.findings": len(r["findings_list"]),
            "batchgcd.create_s": create[0] if create else 0.0,
            "corpus.ckpt_load_ms": med_ms("load_s"),
            "corpus.ckpt_save_ms": med_ms("save_s"),
            "corpus.ckpt_bytes": r["ckpt_bytes"],
            "corpus.dedup_ms": med_ms("dedup_s"),
            "batchgcd.extend_ms": med_ms("extend_s"),
            "batchgcd.extend_all_to_all_ms": med_ms("extend_s", "all_to_all"),
            "batchgcd.extend_tree_ms": med_ms("extend_s", "tree"),
            "batchgcd.segments": r["segments"],
            "batchgcd.delta_picks.all_to_all": sum(c["pick"] == "all_to_all" for c in rows),
            "batchgcd.delta_picks.tree": sum(c["pick"] == "tree" for c in rows),
        }


WORKLOADS = {"study": Study, "bulk": Bulk, "extend": Extend}


# ---------------------------------------------------------------- trace output


def layer_table(spans, wall):
    """Per-layer and per-span self times, as printed lines."""
    selfs = stats.self_times(spans)
    by_name, by_layer = {}, {}
    for (name, start, stop, _), self_s in zip(spans, selfs):
        row = by_name.setdefault(name, [0, 0.0, 0.0])
        row[0] += 1
        row[1] += stop - start
        row[2] += self_s
        layer = name.split(".", 1)[0]
        by_layer[layer] = by_layer.get(layer, 0.0) + self_s
    lines = [
        f"# per-layer self time (wall {wall:.3f} s)",
        f"# {'layer':<34} {'self s':>9} {'share':>7}",
    ]
    for layer, s in sorted(by_layer.items(), key=lambda kv: -kv[1]):
        lines.append(f"# {layer:<34} {s:9.4f} {100 * s / wall:6.1f}%")
    lines.append(f"# {'span':<34} {'count':>5} {'total s':>9} {'self s':>9}")
    for name, (count, total, self_s) in sorted(by_name.items(), key=lambda kv: -kv[1][2]):
        lines.append(f"# {name:<34} {count:5d} {total:9.4f} {self_s:9.4f}")
    return lines


def chrome_trace(spans, header, path):
    events = [
        {
            "name": name,
            "cat": name.split(".", 1)[0],
            "ph": "X",
            "ts": start * 1e6,
            "dur": (stop - start) * 1e6,
            "pid": 1,
            "tid": 1,
            "args": {"parent": spans[parent][0] if parent >= 0 else None},
        }
        for name, start, stop, parent in spans
    ]
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as f:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms", "otherData": header}, f)


# ---------------------------------------------------------------- main


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    a = ap.parse_args()

    overrides = sorted(k for k in os.environ if k.startswith("WEAKKEYS_"))
    if overrides:
        fail(f"refusing to run with tuning overrides set: {', '.join(overrides)}")
    for need in ("dune-project", "lib", os.path.join("perfbench", "dune")):
        if not os.path.exists(os.path.join(ROOT, need)):
            fail(f"not a weakkeys source tree: {need} is missing under {ROOT}")

    build()
    shape = SHAPES[a.workload]
    wl = WORKLOADS[a.workload](a.seed, shape)
    info = run_pass(["info"])
    header = {
        "workload": a.workload,
        "seed": a.seed,
        "shape": {k: v for k, v in shape.items() if k != "min_passes"},
        "revision": revision(),
        **info,
    }
    print("# header " + json.dumps(header, sort_keys=True))

    checks = Checks()
    samples, rates, setups, heaps, walls = [], [], [], [], []
    start = time.monotonic()
    while True:
        t = time.monotonic()
        r = run_pass(wl.args)
        walls.append(time.monotonic() - t)
        wl.check(r, checks)
        units, rate = wl.units(r)
        print(f"# pass {len(walls)}: {walls[-1]:.3f} s wall, median unit "
              f"{1000 * stats.percentile(units, 50):.2f} ms, setup {r['setup_s']:.4f} s")
        samples += units
        rates.append(rate)
        setups.append(r["setup_s"])
        heaps.append(r["peak_heap_mb"])
        elapsed = time.monotonic() - start
        if len(walls) >= shape["min_passes"] and elapsed + sum(walls) / len(walls) > a.seconds:
            break

    # The tail is p75 when at least ten samples lie beyond it (extend's
    # cycles); with fewer samples (study, bulk) no tail percentile is
    # supported and the median stands in. Not p90: 4 of extend's 49
    # months (8%) take the tree path at 4-8 times an all-to-all cycle's
    # latency, so p90 falls on the few slowest all-to-all cycles, which
    # the host's short stalls decide (IQR/median 0.30 over ten seeds).
    tail_p = stats.tail_percentile(len(samples))
    p50 = stats.percentile(samples, 50)
    tail = stats.percentile(samples, tail_p)
    print(
        f"# {len(walls)} passes, {len(samples)} samples, p50 {1000 * p50:.2f} ms, "
        f"tail p{tail_p} {1000 * tail:.2f} ms ({stats.samples_beyond(len(samples), tail_p)} beyond)"
    )

    if not a.trace:
        metrics = {
            "p50_ms": 1000 * p50,
            "tail_ms": 1000 * tail,
            "moduli_per_s": stats.percentile(rates, 50),
            "setup_s": stats.percentile(setups, 50),
            "peak_heap_mb": stats.percentile(heaps, 50),
        }
        units = END_TO_END
    else:
        r = run_pass(wl.args + ["--trace"])
        wl.check(r, checks)
        spans = [tuple(s) for s in r["spans"]]
        for line in layer_table(spans, r["wall_s"]):
            print(line)
        trace_path = os.path.join(WORK, f"trace-{a.workload}-seed{a.seed}.json")
        chrome_trace(spans, header, trace_path)
        overhead = 100 * (wl.traced_unit(r) / p50 - 1)
        coverage = 100 * stats.coverage(spans, r["wall_s"])
        print(f"# trace written to {os.path.relpath(trace_path, ROOT)}; "
              f"tracing overhead {overhead:+.2f}%, span coverage {coverage:.2f}%")
        metrics = dict.fromkeys(PER_LAYER, 0.0)
        metrics.update({
            "run.samples": len(samples),
            "trace.overhead_pct": overhead,
            "trace.coverage_pct": coverage,
            "trace.spans": len(spans),
            "gc.alloc_mb": r["alloc_total_mb"],
        })
        metrics.update(wl.layers(r, spans))
        units = PER_LAYER

    print(f"# checks: {checks.attempted} attempted, {checks.failed} failed, "
          f"failed_share {checks.failed / checks.attempted:.4f}")
    print(json.dumps({
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }))
    sys.exit(0 if checks.failed == 0 else 1)


if __name__ == "__main__":
    main()
