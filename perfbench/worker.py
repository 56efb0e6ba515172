"""One benchmark run of one workload of ``ellgt``, in a process of its own.

``run.py`` starts this script, writes one JSON request to its standard
input and reads JSON lines from its standard output: one ``pass`` line
per pass and a closing ``end`` line.  A request with ``setup_only`` only
imports the program and builds the inputs, and reports how long that
took.  The script grades nothing itself; ``run.py`` does.

While it runs the passes, the script also times, ten times a second, a
fixed piece of work that does not use ``ellgt`` (README: "Host speed").
``run.py`` scales the run's times by how long that work took, so that a
run in a slow stretch of the host reads the same as one in a fast one.
"""

from __future__ import annotations

import os

# One BLAS thread, set before numpy loads (README: "BLAS threads").
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import cmath
import importlib
import inspect
import json
import math
import resource
import signal
import statistics
import sys
from dataclasses import asdict
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

# One calibration sample every CALIBRATION_INTERVAL_S of wall time.
CALIBRATION_INTERVAL_S = 0.1


class Calibration:
    """Samples of a fixed piece of work that does not use ``ellgt``.

    One sample, about 2 ms, mixes what the program does most: Python
    complex arithmetic with ``cmath`` calls, as in the theta series, and
    numpy products of small complex matrices, as in the R-matrices.  Its
    time moves with the speed of the host and not with the program.

    While started, an interval timer takes one sample every 0.1 s, in the
    middle of whatever the program is doing (a Python signal handler runs
    between bytecodes, so a numpy call finishes first).  Samples spread
    evenly over the run follow the host's speed, which changes within a
    second; ``spent`` adds up their time, so that callers can take it out
    of what they time.
    """

    def __init__(self) -> None:
        import numpy

        self.samples: list[float] = []
        self.spent = 0.0
        rng = numpy.random.default_rng(0)
        # A unitary matrix, so that repeated products neither overflow nor
        # sink into subnormal numbers, and buffers, so that a sample
        # allocates no array: an array allocated while the program holds
        # large ones could stay between them on the heap and change the
        # program's peak memory.
        self._unitary = numpy.linalg.qr(
            rng.standard_normal((9, 9)) + 1j * rng.standard_normal((9, 9))
        )[0]
        self._buffers = (numpy.zeros((9, 9), complex), numpy.zeros((9, 9), complex))
        self._matmul = numpy.matmul
        self._add = numpy.add

    def _clear(self) -> None:
        """Leave the vector registers clean.

        A complex matrix product leaves them in a state that makes the
        Python complex arithmetic after it about three times slower, until
        an elementwise numpy operation such as this one runs (README, "Host
        speed").  Each part of a sample starts from the same state whatever
        the program did last, and hands the program back a clean state.
        """
        a, b = self._buffers
        self._add(a, a, out=b)

    def _work(self, steps: int) -> None:
        self._clear()
        z, acc = 0.3 + 0.1j, 0j
        for k in range(1, steps):
            z = z * 0.999 + 0.001j
            acc += cmath.exp(-0.01 * k * z)
        a, b = self._buffers
        a[...] = self._unitary
        for _ in range(steps // 10):
            self._matmul(a, self._unitary, out=b)
            a, b = b, a

    def sample(self, *_signal) -> None:
        """One timed sample, after an untimed warm-up.

        Without the warm-up the sample would time the refill of the caches
        that the program evicted, and read up to a third slower while the
        program works on large matrices than while it works on small ones.
        """
        t0 = perf_counter()
        self._work(600)
        t1 = perf_counter()
        self._work(2400)
        t2 = perf_counter()
        self._clear()
        self.samples.append(t2 - t1)
        self.spent += perf_counter() - t0

    def mark(self) -> tuple[int, float]:
        return len(self.samples), self.spent

    def since(self, mark: tuple[int, float]) -> tuple[float, float | None]:
        """Time spent on samples since ``mark``, and their mean timed part."""
        taken = self.samples[mark[0]:]
        return self.spent - mark[1], statistics.fmean(taken) if taken else None

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self.sample)
        interval = CALIBRATION_INTERVAL_S
        signal.setitimer(signal.ITIMER_REAL, interval, interval)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


def finite(value) -> bool:
    """False if ``value`` holds a NaN or an infinity; other types pass."""
    if isinstance(value, (float, complex)):
        return cmath.isfinite(value)
    if isinstance(value, dict):
        return all(finite(v) for v in value.values())
    if isinstance(value, (list, tuple)):
        return all(finite(v) for v in value)
    if getattr(value, "dtype", None) is not None and value.dtype.kind in "fc":
        return bool(value.size == 0 or abs(value).max() < math.inf)
    return True


class CheckRecorder:
    """Times each check and watches the numbers it folds into its residual.

    ``run_suites`` calls ``run_check`` through its module global, so an
    instance bound there sees every check of a suite run.  The checks fold
    their samples with ``max``, which drops a NaN, so every function
    ``ellgt.verify`` imports is also wrapped, and a NaN or infinity it
    returns during a check is counted on that check's record.
    """

    def __init__(self) -> None:
        self.records: list[dict] = []
        self.tracer = None
        self.calibration: Calibration | None = None
        self._patches: list[tuple[str, object]] = []
        self._verify = None

    def install(self, verify) -> None:
        self._verify = verify
        for name, obj in list(vars(verify).items()):
            if name == "run_check":
                self._patches.append((name, obj))
                setattr(verify, name, self._checked(obj))
            elif inspect.isfunction(obj) and obj.__module__ != verify.__name__:
                self._patches.append((name, obj))
                setattr(verify, name, self._watched(obj))

    def uninstall(self) -> None:
        for name, obj in reversed(self._patches):
            setattr(self._verify, name, obj)
        self._patches.clear()

    def _watched(self, fn):
        def wrapper(*args, **kwargs):
            out = fn(*args, **kwargs)
            if self.records and not finite(out):
                self.records[-1]["nonfinite"] += 1
            return out

        return wrapper

    def _checked(self, run_check):
        def wrapper(cfg, suite: str, name: str):
            tracer = self.tracer
            span = None
            if tracer is not None:
                span = tracer.open(tracer.name_id(f"verify.{suite}.{name}"))
            record = {"suite": suite, "name": name, "nonfinite": 0}
            self.records.append(record)
            calibration = self.calibration
            mark = calibration.mark() if calibration is not None else None
            t0 = perf_counter()
            try:
                result = run_check(cfg, suite, name)
            except Exception as exc:
                record["error"] = f"{type(exc).__name__}: {exc}"
                raise
            finally:
                record["wall_s"] = perf_counter() - t0
                if calibration is not None:
                    spent, record["calibration_s"] = calibration.since(mark)
                    record["wall_s"] -= spent
                if span is not None:
                    tracer.close(span)
            record["result"] = asdict(result)
            return result

        return wrapper


def setup(request: dict):
    """Import the program and build the workload's inputs."""
    sys.path.insert(0, str(SRC))
    verify = importlib.import_module("ellgt.verify")
    if Path(verify.__file__).resolve().parent != SRC / "ellgt":
        raise RuntimeError(f"ellgt imported from {verify.__file__}, not {SRC}")
    cfg = verify.VerifyConfig(
        **{
            key: tuple(value) if isinstance(value, list) else value
            for key, value in request["config"].items()
        },
        seed=request["seed"],
    )
    suites = request.get("suites")
    checks = request.get("checks") or [
        (suite, name)
        for suite in suites or verify.SUITES
        for name, *_ in verify.REGISTRY[suite]
    ]
    return verify, cfg, [tuple(check) for check in checks]


def run_pass(verify, cfg, request: dict, checks, recorder: CheckRecorder) -> dict:
    """One pass of the workload; the report and what the recorder saw.

    The pass and check times leave out the calibration samples taken
    during them, and each comes with the mean of those samples.
    """
    recorder.records = []
    calibration = recorder.calibration
    mark = calibration.mark() if calibration is not None else None
    calibration_s = None
    error = None
    report = None
    t0 = perf_counter()
    try:
        if request.get("checks"):
            report = [
                asdict(verify.run_check(cfg, suite, name))
                for suite, name in checks
            ]
        else:
            report = verify.run_suites(cfg, request.get("suites"))
    except Exception as exc:
        error = f"{type(exc).__name__}: {exc}"
    wall = perf_counter() - t0
    if calibration is not None:
        spent, calibration_s = calibration.since(mark)
        wall -= spent
    return {
        "wall_s": wall,
        "calibration_s": calibration_s,
        "checks": recorder.records,
        "report": report,
        "error": error,
        "bracket": bracket_values(cfg, request["points"]),
    }


def bracket_values(cfg, points: dict) -> dict:
    """``theta.bracket`` at the reference points, on fresh parameters."""
    theta = importlib.import_module("ellgt.theta")
    out = {}
    for rank, us in points.items():
        params = theta.EllipticParams(q=cfg.q, r=cfg.r, N=int(rank))
        out[rank] = [
            [value.real, value.imag]
            for value in (theta.bracket(params, complex(*u)) for u in us)
        ]
    return out


def emit(payload: dict) -> None:
    sys.stdout.write(json.dumps(payload) + "\n")
    sys.stdout.flush()


def main() -> int:
    request = json.loads(sys.stdin.read())
    t0 = perf_counter()
    verify, cfg, checks = setup(request)
    setup_s = perf_counter() - t0
    if request.get("setup_only"):
        emit({"setup_s": setup_s})
        return 0
    emit(
        {
            "setup_s": setup_s,
            "q": cfg.q,
            "r": cfg.r,
            "ranks": list(cfg.ranks()),
            "checks": [list(check) for check in checks],
        }
    )
    recorder = CheckRecorder()
    recorder.calibration = calibration = Calibration()
    recorder.install(verify)
    calibration.start()

    # Whole passes until the next one would end past the deadline; at
    # least two, since run.py does not time the first, warm-up pass.
    times: list[float] = []
    deadline = t0 + request["seconds"]
    while len(times) < 2 or perf_counter() + statistics.median(times) <= deadline:
        record = run_pass(verify, cfg, request, checks, recorder)
        times.append(record["wall_s"])
        emit({"pass": record})
    calibration.stop()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6

    layers = None
    if request.get("trace"):
        from spans import Tracer

        # The tracer replaces the layer functions first, so that the
        # recorder's wrappers in ellgt.verify call the traced ones.
        recorder.uninstall()
        tracer = Tracer()
        tracer.install()
        recorder.install(verify)
        recorder.tracer = tracer
        recorder.calibration = None
        try:
            record = run_pass(verify, cfg, request, checks, recorder)
        finally:
            recorder.uninstall()
            tracer.uninstall()
        emit({"pass": record, "traced": True})
        calls, self_s = tracer.totals()
        layers = {
            "calls": calls,
            "self_s": self_s,
            "wall_s": record["wall_s"],
            "bracket_distinct_args": len(tracer.bracket_args),
            "gauss_resamples": tracer.resamples,
            "embedded_max_dim": tracer.max_dim,
        }
        tracer.write(Path(request["spans_out"]))
    emit(
        {
            "end": True,
            "peak_rss_mb": peak_rss_mb,
            "calibration_s": calibration.samples,
            "layers": layers,
        }
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
