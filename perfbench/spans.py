"""In-memory spans around phasedr's public functions, and the layer metrics they give.

A :class:`Tracer` wraps a function so that every call records one span: its
name, start, end, parent span and run id.  :func:`install` swaps the wrapper in
at every binding a phasedr module holds for the function, so a call made
through ``phasedr.solvers.apply_a`` is recorded just like one made through
``phasedr.forward.apply_a``.  Spans are kept in flat arrays while the run lasts
and written out once, by :meth:`Tracer.save`.

Self time is a span's duration minus the durations of its direct children.
Children of one span never overlap (one thread, strictly nested calls), so the
self times of all spans under a root add up to the root's duration.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from pathlib import Path

import numpy as np

# Layer -> public functions wrapped when tracing.  The four DFTs are each one
# numpy FFT; together they are the `grids.fft` counter.
TRACED = {
    "grids": ("dft_oversampled", "idft_oversampled", "dft_plain", "idft_plain", "phase_factor"),
    "forward": ("apply_astar", "apply_a", "make_operator", "synthesize_data", "extend_op",
                "extended_astar", "extended_a"),
    "solvers": ("run_solver", "fdr_step", "odr_step", "align_phase"),
    "spectral": ("lambda2_power", "apply_realB", "apply_realB_T"),
    "experiments": ("run_local_rate", "make_instance"),
    "images": ("gen_image",),
    "io": ("write_csv",),
}
# With tracing off only the solve boundary is timed, which the end-to-end
# solve metrics need even when the solve runs inside an experiment runner.
UNTRACED = {"solvers": ("run_solver",)}

FFT_NAMES = ("grids.dft_oversampled", "grids.idft_oversampled", "grids.dft_plain", "grids.idft_plain")
STEP_NAMES = ("solvers.fdr_step", "solvers.odr_step")
BENCH_ROOT = "bench.timed"
BENCH_SETUP = "bench.setup"


class Tracer:
    """Records spans and per-call observations for one process."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.run = array("i")
        self._stack = [-1]
        self.run_id = 0
        # name -> (span index, observe(args, result)) for each call that returned
        self.observed: dict[str, list] = {}

    def _name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, name: str) -> int:
        idx = len(self.start)
        self.name.append(self._name_id(name))
        self.parent.append(self._stack[-1])
        self.run.append(self.run_id)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        popped = self._stack.pop()
        if popped != idx:
            raise RuntimeError(f"span {idx} closed while span {popped} was open")

    def wrap(self, name: str, fn, observe=None):
        """Return fn recording one span per call; observe(args, result) is kept per returning call."""
        if observe is not None:
            sink = self.observed.setdefault(name, [])

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if observe is not None:
                sink.append((idx, observe(args, result)))
            return result

        traced.__wrapped_span__ = name
        return traced

    def frame(self) -> "SpanFrame":
        return SpanFrame(
            names=list(self.names),
            name=np.frombuffer(self.name, dtype=np.int32).copy(),
            start=np.frombuffer(self.start, dtype=np.float64).copy(),
            end=np.frombuffer(self.end, dtype=np.float64).copy(),
            parent=np.frombuffer(self.parent, dtype=np.int32).copy(),
            run=np.frombuffer(self.run, dtype=np.int32).copy(),
        )

    def save(self, path: Path) -> Path:
        """Write every span as columns of an .npz file (names in `names`)."""
        f = self.frame()
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(path, names=np.array(f.names), name=f.name, start=f.start,
                            end=f.end, parent=f.parent, run=f.run)
        return path


def _observers() -> dict:
    def fft(oversampled: bool):
        # Bytes the transform reads and writes on its grid, complex128 in and out.
        return lambda args, _r: 32 * (args[1].n_oversampled if oversampled else args[1].n)

    return {
        "grids.dft_oversampled": fft(True),
        "grids.idft_oversampled": fft(True),
        "grids.dft_plain": fft(False),
        "grids.idft_plain": fft(False),
        "solvers.run_solver": lambda _a, r: (r.iterations - 1, r.converged),
        "spectral.lambda2_power": lambda _a, r: r.power_iters,
        "io.write_csv": lambda _a, r: Path(r).stat().st_size,
    }


def install(tracer: Tracer, layers: dict = TRACED) -> list:
    """Wrap each listed function at every binding in the loaded phasedr modules.

    Returns the undo list for :func:`uninstall`.
    """
    modules = [m for key, m in list(sys.modules.items())
               if m is not None and (key == "phasedr" or key.startswith("phasedr."))]
    observers = _observers()
    undo = []
    for layer, fnames in layers.items():
        home = sys.modules[f"phasedr.{layer}"]
        for fname in fnames:
            orig = getattr(home, fname)
            if hasattr(orig, "__wrapped_span__"):
                raise RuntimeError(f"phasedr.{layer}.{fname} is already wrapped")
            name = f"{layer}.{fname}"
            wrapped = tracer.wrap(name, orig, observers.get(name))
            for mod in modules:
                for attr, val in list(vars(mod).items()):
                    if val is orig:
                        setattr(mod, attr, wrapped)
                        undo.append((mod, attr, orig))
    return undo


def uninstall(undo: list) -> None:
    for mod, attr, orig in reversed(undo):
        setattr(mod, attr, orig)


class SpanFrame:
    """Column view of recorded spans with derived durations and self times."""

    def __init__(self, names, name, start, end, parent, run):
        self.names = names
        self.name = name
        self.start = start
        self.end = end
        self.parent = parent
        self.run = run
        self.dur = end - start
        child_sum = np.zeros_like(self.dur)
        has_parent = parent >= 0
        np.add.at(child_sum, parent[has_parent], self.dur[has_parent])
        self.self_time = self.dur - child_sum

    def __len__(self) -> int:
        return self.name.size

    def mask(self, *names: str) -> np.ndarray:
        ids = [self.names.index(n) for n in names if n in self.names]
        return np.isin(self.name, ids)

    def ancestor_of(self, *names: str) -> np.ndarray:
        """Index of each span's nearest ancestor-or-self with one of `names` (-1 if none)."""
        hit = self.mask(*names).tolist()
        parent = self.parent.tolist()
        out = [-1] * len(parent)
        for i, p in enumerate(parent):  # parents precede children, so one pass suffices
            if hit[i]:
                out[i] = i
            elif p >= 0:
                out[i] = out[p]
        return np.array(out, dtype=np.int64)

    def total(self, *names: str) -> float:
        return float(self.dur[self.mask(*names)].sum())

    def self_total(self, *names: str) -> float:
        return float(self.self_time[self.mask(*names)].sum())

    def calls(self, *names: str) -> int:
        return int(self.mask(*names).sum())

    def ffts_per_interval(self, boundary: tuple[str, ...], within: str) -> np.ndarray:
        """FFT calls between consecutive `boundary` spans inside each `within` span.

        For DR steps the interval runs from one step's start to the next step's
        start, so it holds the step and the error evaluation that follows it.
        The interval after the last boundary of each `within` span is dropped.
        """
        owner = self.ancestor_of(within)
        is_b = self.mask(*boundary)
        is_fft = self.mask(*FFT_NAMES)
        counts = []
        for w in np.unique(owner[is_b]):
            b_start = np.sort(self.start[is_b & (owner == w)])
            f_start = np.sort(self.start[is_fft & (owner == w)])
            if b_start.size < 2:
                continue
            edges = np.searchsorted(f_start, b_start)
            counts.append(np.diff(edges))
        return np.concatenate(counts) if counts else np.zeros(0, dtype=np.int64)


# Per-layer metric -> unit, in the order they are reported.
LAYER_UNITS = {
    "grids.fft.calls": "count",
    "grids.fft.per_step": "count",
    "grids.fft.per_fdr_step": "count",
    "grids.fft.per_odr_step": "count",
    "grids.fft.per_gram_matvec": "count",
    "grids.fft.s": "s",
    "grids.fft.bytes_computed": "bytes",
    "grids.phase_factor.s": "s",
    "forward.apply_astar.calls": "count",
    "forward.apply_astar.s": "s",
    "forward.apply_astar.self_s": "s",
    "forward.apply_a.calls": "count",
    "forward.apply_a.s": "s",
    "forward.apply_a.self_s": "s",
    "solvers.run_solver.s": "s",
    "solvers.run_solver.self_s": "s",
    "solvers.fdr_step.calls": "count",
    "solvers.fdr_step.s": "s",
    "solvers.fdr_step.self_s": "s",
    "solvers.align_phase.s": "s",
    "solvers.odr_step.calls": "count",
    "solvers.odr_step.s": "s",
    "solvers.odr_step.self_s": "s",
    "forward.extend_op.s": "s",
    "forward.extended_apply.s": "s",
    "spectral.lambda2_power.s": "s",
    "spectral.gram_matvecs": "count",
    "spectral.gram_matvec.s": "s",
    "experiments.run_local_rate.self_s": "s",
    "experiments.make_instance.s": "s",
    "io.write_csv.s": "s",
    "io.write_csv.bytes": "bytes",
    "forward.make_operator.s": "s",
    "forward.synthesize_data.s": "s",
    "images.gen_image.s": "s",
    "solvers.converged_frac": "fraction",
    "solvers.steps": "count",
    "grids.fft_ms.127x127": "ms",
    "grids.fft_ms.128x128": "ms",
    "trace_overhead_frac": "fraction",
}


def _median(counts: np.ndarray) -> float:
    return float(np.median(counts)) if counts.size else 0.0


def layer_metrics(f: SpanFrame, observed: dict) -> dict:
    """Per-layer metrics over every recorded span (traced set-up and timed pass).

    The known-case FFT timings and the tracing overhead are measured by the
    caller.  A layer that did no work reports 0.
    """
    out: dict[str, float] = {}
    out["grids.fft.calls"] = f.calls(*FFT_NAMES)
    out["grids.fft.per_step"] = _median(f.ffts_per_interval(STEP_NAMES, "solvers.run_solver"))
    out["grids.fft.per_fdr_step"] = _median(f.ffts_per_interval(("solvers.fdr_step",), "solvers.run_solver"))
    out["grids.fft.per_odr_step"] = _median(f.ffts_per_interval(("solvers.odr_step",), "solvers.run_solver"))
    in_power = f.ancestor_of("spectral.lambda2_power") >= 0
    out["grids.fft.per_gram_matvec"] = _median(
        f.ffts_per_interval(("spectral.apply_realB",), "spectral.lambda2_power"))
    out["grids.fft.s"] = f.total(*FFT_NAMES)
    out["grids.fft.bytes_computed"] = sum(b for name in FFT_NAMES for _, b in observed.get(name, []))
    out["grids.phase_factor.s"] = f.total("grids.phase_factor")
    for fn in ("forward.apply_astar", "forward.apply_a"):
        out[f"{fn}.calls"] = f.calls(fn)
        out[f"{fn}.s"] = f.total(fn)
        out[f"{fn}.self_s"] = f.self_total(fn)
    out["solvers.run_solver.s"] = f.total("solvers.run_solver")
    out["solvers.run_solver.self_s"] = f.self_total("solvers.run_solver")
    for fn in ("solvers.fdr_step", "solvers.odr_step"):
        out[f"{fn}.calls"] = f.calls(fn)
        out[f"{fn}.s"] = f.total(fn)
        out[f"{fn}.self_s"] = f.self_total(fn)
    out["solvers.align_phase.s"] = f.total("solvers.align_phase")
    out["forward.extend_op.s"] = f.total("forward.extend_op")
    out["forward.extended_apply.s"] = f.total("forward.extended_astar", "forward.extended_a")
    out["spectral.lambda2_power.s"] = f.total("spectral.lambda2_power")
    gram = f.mask("spectral.apply_realB", "spectral.apply_realB_T") & in_power
    out["spectral.gram_matvecs"] = int((f.mask("spectral.apply_realB") & in_power).sum())
    out["spectral.gram_matvec.s"] = float(f.dur[gram].sum())
    out["experiments.run_local_rate.self_s"] = f.self_total("experiments.run_local_rate")
    out["experiments.make_instance.s"] = f.total("experiments.make_instance")
    out["io.write_csv.s"] = f.total("io.write_csv")
    out["io.write_csv.bytes"] = sum(b for _, b in observed.get("io.write_csv", []))
    out["forward.make_operator.s"] = f.total("forward.make_operator")
    out["forward.synthesize_data.s"] = f.total("forward.synthesize_data")
    out["images.gen_image.s"] = f.total("images.gen_image")
    solves = [obs for _, obs in observed.get("solvers.run_solver", [])]
    out["solvers.converged_frac"] = sum(c for _, c in solves) / len(solves) if solves else 0.0
    out["solvers.steps"] = sum(s for s, _ in solves)
    return out
