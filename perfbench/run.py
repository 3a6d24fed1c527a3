"""End-to-end benchmark of the divgrace command line.

    python3 perfbench/run.py --workload construct-deep --seed 1 --seconds 30 --trace 0

One process, one caller in a closed loop: every operation is an
in-process `divgrace.cli.main(argv)` call, made back to back on one
thread.  A run makes whole rounds of operations until --seconds have
passed, checks every output with check.py (which imports nothing from
divgrace) or against counts from count_labelings.py, and prints one JSON
line last:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end figures; with --trace 1
the run wraps each layer's public functions (tracing.py) and reports
per-layer figures instead.  See README.md for the workloads and metrics.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"

sys.path.insert(0, str(HERE))

import check  # noqa: E402
from tracing import LAYER_METRICS, Tracer  # noqa: E402

UNITS = {"setup_s": "s", "peak_rss_mib": "MiB", "instance_ms_mean": "ms",
         "items_per_s": "items/s"}


class Run:
    """Counts, timings and the first errors of one benchmark run."""

    def __init__(self, cli, work: Path, tracer: Tracer | None):
        self.cli = cli
        self.work = work
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.instance_s: list[float] = []
        self.items = 0
        self.last_cert: tuple | None = None

    def call(self, argv: list[str]) -> tuple[int | None, str, float]:
        """One operation: (exit code or None if it raised, stdout, seconds)."""
        self.attempted += 1
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = self.cli.main(argv)
        except Exception as exc:  # an operation that crashes counts as failed
            code = None
            err.write(f"{type(exc).__name__}: {exc}")
        elapsed = time.perf_counter() - start
        if code != 0:
            self.failed += 1
            print(f"failed ({code}): divgrace {' '.join(argv)}: {err.getvalue().strip()}",
                  file=sys.stderr)
        return code, out.getvalue(), elapsed

    def wrong(self, what: str, reason: str) -> None:
        self.correct = False
        print(f"incorrect: {what}: {reason}", file=sys.stderr)

    def instance(self, fn, *args) -> None:
        """Time one instance: the sum of its operations' wall times."""
        ctx = self.tracer.instance() if self.tracer else contextlib.nullcontext()
        with ctx:
            seconds, items = fn(self, *args)
        self.instance_s.append(seconds)
        self.items += items


def read(path: Path) -> dict:
    return json.loads(path.read_text(encoding="utf-8"))


# -- construct-deep ---------------------------------------------------------
# Grids of about 40 x 40: k runs over 30..53 and m = round(sqrt(64000 / k)),
# so k * m^2, which sets the cost of `construct`, stays within a few per cent
# of 40 * 40^2.  No k repeats within a run while the pool lasts, because
# `construct` caches the edge arrays of every grid (k, m') with m' <= m.

DEEP_K = range(30, 54)
DEEP_N = 2


def deep_m(k: int) -> int:
    return round((64000 / k) ** 0.5)


class ConstructDeep:
    """Each round: F1, F2, F4 with even k and F4 with odd k, in seed order."""

    def __init__(self, rng: random.Random):
        self.rng = rng
        self.pool: list[int] = []

    def _take(self, parity: int | None) -> int:
        fits = [k for k in self.pool if parity is None or k % 2 == parity]
        if not fits:  # pool used up: start over, and from here on k repeats
            self.pool = list(DEEP_K)
            self.rng.shuffle(self.pool)
            fits = [k for k in self.pool if parity is None or k % 2 == parity]
        self.pool.remove(fits[0])
        return fits[0]

    def round_inputs(self, run: Run) -> list:
        slots = [("f1", None), ("f2", None), ("f4", 0), ("f4", 1)]
        self.rng.shuffle(slots)
        out = []
        for family, parity in slots:
            k = self._take(parity)
            out.append((k, deep_m(k), family))
        return out

    @staticmethod
    def run(run: Run, k: int, m: int, family: str) -> tuple[float, int]:
        tag = f"c{len(run.instance_s)}"
        cert_path, dec_path = run.work / f"{tag}.json", run.work / f"{tag}-dec.json"
        what = f"construct-deep k={k} m={m} {family}"
        e = 4 * k * (2 * m - 1)
        d = check.MULTIPLIER[family] * (2 * m - 1)
        q = e // d
        code, out, t_construct = run.call(["construct", "--k", str(k), "--m", str(m),
                                           "--family", family, "--out", str(cert_path)])
        if code != 0:
            run.call(["verify", str(cert_path), "--alpha"])
            run.call(["decompose", "--in", str(cert_path), "--n", str(DEEP_N),
                      "--out", str(dec_path)])
            return t_construct, 0
        if out.splitlines() != [f"wrote {cert_path}: C_{{{4 * k}}}xP_{m}, d={d}, "
                                f"labels in [0,{d * (q + 1) - 1}]"]:
            run.wrong(what, f"construct printed {out!r}")
        cert = read(cert_path)
        reason = check.check_labeling(cert, k, m, family)
        if reason:
            run.wrong(what, reason)
        run.last_cert = (cert, k, m, family)
        split = check.alpha_split(k, m, cert["labels"])
        boundary = split[1] if split else None

        code, out, t_verify = run.call(["verify", str(cert_path), "--alpha"])
        want = [f"graph: {4 * k * m} vertices, {e} edges; d={d}, q={q}",
                "labeling: valid", f"alpha: valid, boundary {boundary}"]
        if code == 0 and out.splitlines() != want:
            run.wrong(what, f"verify printed {out!r}")

        code, out, t_classes = run.call(["decompose", "--in", str(cert_path), "--n",
                                         str(DEEP_N), "--out", str(dec_path)])
        if code == 0:
            want = [f"K_{{{q + 1}x{2 * d * DEEP_N}}}: {DEEP_N * e} difference classes "
                    "verified", f"wrote {dec_path}"]
            if out.splitlines() != want:
                run.wrong(what, f"decompose printed {out!r}")
            reason = check.check_decomposition(read(dec_path), cert, DEEP_N)
            if reason:
                run.wrong(what, reason)
        return t_construct + t_verify + t_classes, e


# -- decompose-full ---------------------------------------------------------
# Certificates with v = 2dn(q+1) near 1050, 2100 and 3150.  The cost of a
# full check grows with v^2, so each round holds three instances of each
# size, one per (family, n), and the median instance is always one near
# v = 2100.  The seed decides which (family, n) takes which size and which
# grid it is.  No grid (k, m) repeats within a run.

FULL_SIZES = (1050, 2100, 3150)
FULL_SLOTS = [(family, n) for family in check.MULTIPLIER for n in (1, 2, 3)]


def full_candidates() -> dict:
    by_slot: dict = {slot: [] for slot in FULL_SLOTS}
    for family, n in FULL_SLOTS:
        mult = check.MULTIPLIER[family]
        for k in range(1, 80):
            for m in range(2, 80):
                v = 2 * n * (2 * m - 1) * (4 * k + mult)
                if 1000 <= v <= 3220:
                    by_slot[(family, n)].append((v, k, m))
    return by_slot


class DecomposeFull:
    def __init__(self, rng: random.Random):
        self.rng = rng
        self.candidates = full_candidates()
        self.used: set = set()

    def _pick(self, slot, target: int):
        fresh = [c for c in self.candidates[slot] if (c[1], c[2]) not in self.used]
        near = [c for c in fresh if abs(c[0] - target) <= 0.02 * target]
        if not near:
            near = [min(fresh, key=lambda c: abs(c[0] - target))]
        _, k, m = self.rng.choice(near)
        self.used.add((k, m))
        return k, m

    def round_inputs(self, run: Run) -> list:
        """Pick the round's grids and build their certificates (set-up)."""
        targets = list(FULL_SIZES) * 3
        self.rng.shuffle(targets)
        picks = [(slot, *self._pick(slot, t)) for slot, t in zip(FULL_SLOTS, targets)]
        out = []
        for (family, n), k, m in picks:
            path = run.work / f"full-{family}-{k}-{m}.json"
            with contextlib.redirect_stdout(io.StringIO()):
                code = run.cli.main(["construct", "--k", str(k), "--m", str(m),
                                     "--family", family, "--out", str(path)])
            if code != 0:
                raise RuntimeError(f"set-up construct k={k} m={m} {family} exited {code}")
            out.append((path, k, m, family, n))
        return out

    @staticmethod
    def run(run: Run, path: Path, k: int, m: int, family: str, n: int) -> tuple[float, int]:
        dec_path = path.with_name(path.stem + f"-dec{n}.json")
        code, out, elapsed = run.call(["decompose", "--in", str(path), "--n", str(n),
                                       "--full-check", "--out", str(dec_path)])
        what = f"decompose-full k={k} m={m} {family} n={n}"
        cert = read(path)
        reason = check.check_labeling(cert, k, m, family)
        if reason:
            run.wrong(f"set-up certificate of {what}", reason)
        run.last_cert = (cert, k, m, family)
        if code != 0:
            return elapsed, 0
        d = cert["d"]
        q = 4 * k * (2 * m - 1) // d
        edges = check.host_edges(cert, n)
        want = [f"K_{{{q + 1}x{2 * d * n}}}: {edges}/{edges} edges covered exactly once",
                f"wrote {dec_path}"]
        if out.splitlines() != want:
            run.wrong(what, f"decompose printed {out!r}")
        reason = check.check_decomposition(read(dec_path), cert, n)
        if reason:
            run.wrong(what, reason)
        return elapsed, edges


# -- search-count -----------------------------------------------------------
# The prism C_4 x P_2 at d = 3, counted with and without --alpha: one
# instance is the pair, in seed order.  These are the only two searches
# that finish in seconds, so they repeat from round to round.

class SearchCount:
    def __init__(self, rng: random.Random):
        self.rng = rng
        self.expected = {(r["k"], r["m"], r["d"], r["alpha"]): r["count"]
                         for r in read(HERE / "reference_counts.json")}

    def round_inputs(self, run: Run) -> list:
        modes = [True, False]
        self.rng.shuffle(modes)
        return [(1, 2, 3, modes)]

    def run(self, run: Run, k: int, m: int, d: int, modes: list) -> tuple[float, int]:
        seconds, items = 0.0, 0
        for alpha in modes:
            argv = ["search", "--grid", f"{k},{m}", "--d", str(d), "--count"]
            code, out, elapsed = run.call(argv + (["--alpha"] if alpha else []))
            seconds += elapsed
            want = self.expected[(k, m, d, alpha)]
            if code == 0:
                if out.strip() != str(want):
                    run.wrong(f"search k={k} m={m} d={d} alpha={alpha}",
                              f"printed {out.strip()!r}, independent count {want}")
                items += want
        return seconds, items


WORKLOADS = {"construct-deep": ConstructDeep, "decompose-full": DecomposeFull,
             "search-count": SearchCount}


def checker_rejects_tampering(run: Run) -> None:
    """The checker must reject the last certificate with two labels swapped
    and with its largest label bumped out of range."""
    cert, k, m, family = run.last_cert
    swapped = dict(cert, labels=list(cert["labels"]))
    swapped["labels"][0], swapped["labels"][1] = cert["labels"][1], cert["labels"][0]
    bumped = dict(cert, labels=list(cert["labels"]))
    bumped["labels"][cert["labels"].index(max(cert["labels"]))] += 1
    for name, bad in (("swapped", swapped), ("bumped", bumped)):
        if check.check_labeling(bad, k, m, family) is None:
            run.wrong("checker", f"accepted a certificate with labels {name}")


def main() -> int:
    parser = argparse.ArgumentParser(description="divgrace end-to-end benchmark")
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    if not (SRC / "divgrace" / "__init__.py").is_file():
        print(f"no divgrace sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from divgrace import cli

    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
    work = OUT / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        run = Run(cli, work, tracer)
        workload = WORKLOADS[args.workload](random.Random(args.seed))
        before_rounds = time.perf_counter() - T0
        setup_s: list[float] = []
        deadline = time.perf_counter() + args.seconds
        rounds = 0
        while time.perf_counter() < deadline:
            start = time.perf_counter()
            inputs = workload.round_inputs(run)
            setup_s.append(time.perf_counter() - start)
            for inst in inputs:
                run.instance(workload.run, *inst)
            if rounds == 0:
                peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            rounds += 1
        if run.last_cert is not None:
            checker_rejects_tampering(run)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    wall = sum(run.instance_s)
    print(f"{args.workload} seed {args.seed} trace {args.trace}: {rounds} rounds, "
          f"{len(run.instance_s)} instances, {wall:.3f} s in operations", file=sys.stderr)
    if tracer:
        values = tracer.metrics()
        metrics = {name: {"value": values[name], "unit": unit} for name, unit, _ in LAYER_METRICS}
        tracer.dump(OUT / f"spans-{args.workload}-seed{args.seed}.json")
    else:
        values = {
            "setup_s": before_rounds + statistics.median(setup_s),
            "peak_rss_mib": peak_kib / 1024,
            "instance_ms_mean": 1000 * wall / len(run.instance_s),
            "items_per_s": run.items / wall,
        }
        metrics = {name: {"value": value, "unit": UNITS[name]} for name, value in values.items()}
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"instance_s": run.instance_s}), encoding="utf-8")
    print(json.dumps({"correct": run.correct, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
