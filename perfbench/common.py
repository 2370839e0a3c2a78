"""Shared pieces of the benchmark: paths, timing, statistics, the in-process
CLI call, the result tally and the span tracer.

Everything here depends only on the standard library and the `cellplan`
package of the checkout the benchmark lives in.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import io
import math
import resource
import signal
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"

perf = time.perf_counter


def require_package():
    """Import `cellplan` from this checkout's `src/`, or exit 2 if it is absent."""
    if not (SRC / "cellplan" / "__init__.py").is_file():
        print(f"error: no cellplan package under {SRC}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))
    import cellplan

    if Path(cellplan.__file__).resolve().parent != (SRC / "cellplan").resolve():
        print(f"error: imported cellplan from {cellplan.__file__}, not {SRC}",
              file=sys.stderr)
        raise SystemExit(2)
    return cellplan


def derive_seed(*parts: int) -> int:
    h = hashlib.sha256(",".join(str(p) for p in parts).encode("ascii"))
    return int.from_bytes(h.digest()[:8], "big")


def percentile(values, p: float) -> float:
    """Linear-interpolated percentile (0 <= p <= 1); a failed sample is +inf."""
    xs = sorted(values)
    k = (len(xs) - 1) * p
    lo = math.floor(k)
    a, b = xs[lo], xs[math.ceil(k)]
    if k == lo:
        return a
    return math.inf if math.isinf(b) else a + (b - a) * (k - lo)


def median(values) -> float:
    return percentile(values, 0.5)


TICK_S = 0.00011       # seconds of one tick at the reference speed
TICK_EVERY_S = 0.01    # a running stopwatch ticks this often
EDGE_TICKS = 4         # samples right before and right after each timed call


def tick() -> float:
    """Wall seconds of one tick: a fixed piece of pure-Python work of the
    program's kind (dict lookups, tuple compares, appends and a sort)."""
    t0 = perf()
    best, out = {}, []
    for i in range(600):
        k = (i * 7919) % 409
        t = (k, i & 255)
        v = best.get(k)
        best[k] = t if v is None or t < v else v
        if i & 3 == 0:
            out.append(t)
    out.sort()
    return perf() - t0


class SpeedMeter:
    """Samples the machine's current speed while any stopwatch runs.

    A timer signal every TICK_EVERY_S seconds of wall time takes one
    sample: an untimed tick, then a timed one whose speed, TICK_S over its
    seconds, is recorded. The samples are spread evenly over wall time, so
    their mean is the mean speed of the interval they cover.
    """

    def __init__(self):
        self.speeds: list[float] = []
        self.spent = 0.0     # wall seconds spent in ticks
        self.running = 0     # stopwatches running, nested ones included

    def sample(self, *_signal) -> None:
        t0 = perf()
        tick()   # warms the caches the program's work left cold; untimed
        dt = tick()
        self.spent += perf() - t0
        self.speeds.append(TICK_S / dt)

    def start(self) -> None:
        if self.running == 0:
            signal.signal(signal.SIGALRM, self.sample)
            signal.setitimer(signal.ITIMER_REAL, TICK_EVERY_S, TICK_EVERY_S)
        self.running += 1

    def stop(self) -> None:
        self.running -= 1
        if self.running == 0:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, signal.SIG_DFL)
            self.speeds.clear()


METER = SpeedMeter()


class Stopwatch:
    """Times one call in seconds at the reference speed.

    On a shared host the machine's speed flips between levels up to 1.75x
    apart, for a few milliseconds or for tens of seconds, and CPU time moves
    with it as much as wall time. So while the call runs, `METER` samples
    the speed of a fixed tick, EDGE_TICKS samples are taken right before
    and right after the call, and the call's wall time, less the ticks' own
    time, is scaled by the mean of these speeds. The program's calls and
    the tick slow down together, so the scaled times of a call drift far
    less than its wall time. An unscaled stopwatch gives wall seconds and
    runs no ticks.
    """

    def __init__(self, scaled: bool = True):
        self.scaled = scaled
        self.wall = 0.0
        if scaled:
            METER.start()
            self.first = len(METER.speeds)
            for _ in range(EDGE_TICKS):
                METER.sample()
            self.spent = METER.spent
        self.t0 = perf()

    def stop(self) -> float:
        self.wall = perf() - self.t0
        if not self.scaled:
            return self.wall
        own = self.wall - (METER.spent - self.spent)
        for _ in range(EDGE_TICKS):
            METER.sample()
        speeds = METER.speeds[self.first:]
        speed = sum(speeds) / len(speeds)
        METER.stop()
        return own * speed


def peak_rss_mb() -> float:
    """High-water resident set size of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Tally:
    """Attempted and failed operations, with the reason for each failure."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def record(self, problem: str | None) -> bool:
        """Count one operation; `problem` is None when its answer checked out."""
        self.attempted += 1
        if problem is None:
            return True
        self.failed += 1
        if len(self.errors) < 20:
            self.errors.append(problem)
        return False


class Timings:
    """Named lists of per-operation seconds; a failed operation counts as +inf."""

    def __init__(self):
        self.samples: dict[str, list[float]] = {}

    def add(self, name: str, seconds: float, ok: bool = True) -> None:
        self.samples.setdefault(name, []).append(seconds if ok else math.inf)

    def stat(self, name: str, p: float = 0.5, scale: float = 1.0) -> float:
        xs = self.samples.get(name)
        return percentile(xs, p) * scale if xs else 0.0

    def mean(self, name: str, scale: float = 1.0) -> float:
        xs = self.samples.get(name)
        return sum(xs) / len(xs) * scale if xs else 0.0

    def count(self, name: str) -> int:
        return len(self.samples.get(name, ()))


def call_cli(cli_module, argv):
    """Run `cellplan.cli.main(argv)` in-process; return (exit code, stdout bytes, stderr text).

    Stdout is captured through a text wrapper over a byte buffer, because the
    CLI writes machine output to `sys.stdout.buffer`.
    """
    raw = io.BytesIO()
    out = io.TextIOWrapper(raw, encoding="utf-8", write_through=True)
    err = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli_module.main(argv)
        except SystemExit as e:  # argparse rejects bad usage this way
            rc = e.code if isinstance(e.code, int) else 2
        out.flush()
    return rc, raw.getvalue(), err.getvalue()


# --- tracing -----------------------------------------------------------------

# (module, attribute, layer): the public functions wrapped by the traced run,
# at the names their callers bind. Per-cell helpers such as `neighbors` and
# `pareto_front_at` are left out: they run thousands of times per request and
# a wrapper would cost more than the call.
TRACE_POINTS = (
    ("cellplan.cli", "main", "cli"),
    ("cellplan.cli", "parse_map", "grid"),
    ("cellplan.cli", "map_digest", "grid"),
    ("cellplan.cli", "free_cells", "grid"),
    ("cellplan.cli", "build_database", "cellmap"),
    ("cellplan.cli", "save_database", "cellmap"),
    ("cellplan.cli", "load_database", "cellmap"),
    ("cellplan.cli", "count_paths", "query"),
    ("cellplan.cli", "coverage", "query"),
    ("cellplan.cli", "enumerate_paths", "query"),
    ("cellplan.cli", "render_report_json", "query"),
    ("cellplan.cellmap", "map_digest", "grid"),
    ("cellplan", "parse_map", "grid"),
    ("cellplan", "map_digest", "grid"),
    ("cellplan", "build_database", "cellmap"),
    ("cellplan", "load_database", "cellmap"),
    ("cellplan", "verify_database", "cellmap"),
    ("cellplan", "count_paths", "query"),
    ("cellplan", "coverage", "query"),
    ("cellplan", "enumerate_paths", "query"),
    ("cellplan", "moa_star", "moastar"),
)


class Tracer:
    """Spans recorded by wrappers around layer entry points.

    A span is [name, parent index, start, end]; `cli.main` spans are named
    after their subcommand (`cli.build`, `cli.query`). Spans stay in memory
    until `write` saves them at the end of the run.
    """

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            label = name
            if name == "cli.main" and args and args[0]:
                label = f"cli.{args[0][0]}"
            idx = len(self.spans)
            span = [label, self._stack[-1] if self._stack else -1, perf(), 0.0]
            self.spans.append(span)
            self._stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                span[3] = perf()
                self._stack.pop()
        return wrapper

    def install(self) -> None:
        for mod_name, attr, layer in TRACE_POINTS:
            mod = sys.modules[mod_name]
            fn = getattr(mod, attr)
            self._saved.append((mod, attr, fn))
            setattr(mod, attr, self._wrap(f"{layer}.{attr}", fn))

    def uninstall(self) -> None:
        while self._saved:
            mod, attr, fn = self._saved.pop()
            setattr(mod, attr, fn)

    @contextlib.contextmanager
    def active(self):
        self.install()
        try:
            yield
        finally:
            self.uninstall()

    def durations(self, name: str) -> list[float]:
        return [s[3] - s[2] for s in self.spans if s[0] == name]

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its direct children cover."""
        own = [s[3] - s[2] for s in self.spans]
        for s in self.spans:
            if s[1] >= 0:
                own[s[1]] -= s[3] - s[2]
        return own

    def self_by_root(self, root_name: str) -> list[dict[str, float]]:
        """For each span named `root_name`: self seconds per layer in its subtree."""
        own = self.self_times()
        root_of = []
        for i, s in enumerate(self.spans):
            p = s[1]
            root_of.append(i if s[0] == root_name else (root_of[p] if p >= 0 else -1))
        out: dict[int, dict[str, float]] = {}
        for i, s in enumerate(self.spans):
            r = root_of[i]
            if r >= 0:
                layer = s[0].split(".", 1)[0]
                acc = out.setdefault(r, {})
                acc[layer] = acc.get(layer, 0.0) + own[i]
        return [out[r] for r in sorted(out)]

    def write(self, path: Path) -> None:
        import json

        path.parent.mkdir(parents=True, exist_ok=True)
        rows = [{"id": i, "name": s[0], "parent": s[1], "start": s[2], "end": s[3]}
                for i, s in enumerate(self.spans)]
        path.write_text(json.dumps(rows, separators=(",", ":")) + "\n", encoding="utf-8")
