"""Spans and counters recorded around diffkern2d's layers, from outside it.

``install`` replaces module attributes and class methods of diffkern2d
(and ``scipy.linalg.lu_factor`` as the library calls it) with wrappers
that record a span per call: name, start, end and the enclosing span.
It acts only on the process that calls it; the library's source is not
touched.  Spans stay in memory until ``summary`` aggregates them.

A layer's self time is the duration of its spans minus the part of each
span that its child spans cover.
"""

from __future__ import annotations

import os
import threading
import time
from functools import wraps
from typing import Callable, Dict, List, Optional, Tuple

Span = List  # [name, start, end, parent index or None]


class Tracer:
    def __init__(self):
        self.spans: List[Span] = []
        self.counters: Dict[str, float] = {}
        self.distinct: Dict[str, set] = {}
        self._local = threading.local()

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open_names(self) -> List[str]:
        return [self.spans[i][0] for i in self._stack()]

    def count(self, key: str, amount: float = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    def wrap(self, name: str, fn: Callable, after: Optional[Callable] = None) -> Callable:
        """``fn`` recording a span ``name`` per call; ``after(tracer, args,
        result)`` runs once the span is closed, to update counters."""
        tracer = self

        @wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            span = [name, time.perf_counter(), None, stack[-1] if stack else None]
            stack.append(len(tracer.spans))
            tracer.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if after is not None:
                after(tracer, args, result)
            return result

        return traced

    def summary(self) -> dict:
        return {"spans": self.spans,
                "layers": layer_table(self.spans),
                "counters": dict(self.counters),
                "distinct": {k: len(v) for k, v in self.distinct.items()}}


def _covered(intervals: List[Tuple[float, float]]) -> float:
    """Length of the union of closed intervals."""
    total = 0.0
    reach = None
    for lo, hi in sorted(intervals):
        if reach is None or lo > reach:
            total += hi - lo
            reach = hi
        elif hi > reach:
            total += hi - reach
            reach = hi
    return total


def layer_table(spans: List[Span]) -> Dict[str, dict]:
    """Per span name: number of spans, summed duration and summed self time."""
    children: Dict[int, list] = {}
    for i, span in enumerate(spans):
        if span[3] is not None:
            children.setdefault(span[3], []).append(i)
    table: Dict[str, dict] = {}
    for i, (name, start, end, _) in enumerate(spans):
        inside = [(max(spans[c][1], start), min(spans[c][2], end)) for c in children.get(i, ())]
        covered = _covered([(lo, hi) for lo, hi in inside if hi > lo])
        row = table.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["total_s"] += end - start
        row["self_s"] += (end - start) - covered
    return table


# --------------------------------------------------------------------------
# counters attached to particular calls
# --------------------------------------------------------------------------


def _dense_assembled(tracer, args, result):
    tracer.count("operators.dense_bytes", result.nbytes)


def _factored(kind: str) -> Callable:
    def after(tracer, args, result):
        n = args[0].shape[0]
        tracer.count(f"inversion.factor_{kind}_count")
        tracer.count(f"inversion.factor_{kind}_flops", 2.0 * n ** 3 / 3.0)
    return after


def _solved(tracer, args, result):
    rhs = args[1]
    tracer.count("inversion.solve_rhs", 1 if rhs.ndim == 1 else rhs.shape[1])


def _psi(tracer, args, result):
    lam = args[1]
    tracer.distinct.setdefault("inversion.psi", set()).add((complex(lam[0]), complex(lam[1])))


def _written(tracer, args, result):
    tracer.count("fileio.bytes_written", os.path.getsize(args[0]))


def _read(tracer, args, result):
    tracer.count("fileio.bytes_read", os.path.getsize(args[0]))


def _timed_lu_factor(tracer: Tracer, original: Callable) -> Callable:
    """lu_factor recorded as inversion.factor_S when ConvOperator.solve_lu
    calls it and as inversion.factor_G (the G(lam) blocks) otherwise."""
    wrapped = {kind: tracer.wrap(f"inversion.factor_{kind}", original, _factored(kind))
               for kind in ("S", "G")}

    @wraps(original)
    def lu_factor(*args, **kwargs):
        kind = "S" if "operators.solve_lu" in tracer.open_names() else "G"
        return wrapped[kind](*args, **kwargs)

    return lu_factor


def install(tracer: Tracer) -> None:
    """Wrap diffkern2d's layer entry points.

    Names a version of the library lacks are skipped, so their spans read 0.
    """
    import scipy.linalg

    from diffkern2d import cli, fileio, grid, inversion, operators

    conv = operators.ConvOperator
    evaluator = inversion.RhoEvaluator
    plan = [
        # (owners, attribute, span name, counter hook)
        ((cli,), "main", "cli.main", None),
        ((cli, grid), "sample_kernel", "grid.sample", None),
        ((cli, grid), "normalize_kernel", "grid.sample", None),
        ((conv,), "__init__", "operators.build", None),
        ((conv,), "_assemble_dense", "operators.dense", _dense_assembled),
        ((conv,), "apply_fft", "operators.apply_fft", None),
        ((conv,), "apply_dense", "operators.apply_dense", None),
        ((conv,), "solve_lu", "operators.solve_lu", None),
        ((cli, inversion), "assemble_pi", "operators.pi", None),
        ((cli,), "displacement_identity_residual", "operators.displacement_residual", None),
        ((cli,), "displacement_rank", "operators.displacement_rank", None),
        ((cli,), "m4_identity_residual", "operators.side_residual", None),
        ((cli, inversion), "solve_array", "inversion.solve", _solved),
        ((inversion,), "_solve_columns", "inversion.solve", _solved),
        ((inversion,), "_lu_cond", "inversion.cond", None),
        ((cli, inversion), "compute_g_blocks", "inversion.g_blocks", None),
        ((cli,), "g_symmetry_residual", "inversion.g_symmetry", None),
        ((cli,), "pair_flip_transform", "inversion.g_symmetry", None),
        ((cli, inversion), "build_rho_evaluator", "inversion.evaluator", None),
        ((evaluator,), "assemble_G", "inversion.assemble_G", None),
        ((evaluator,), "psi", "inversion.psi", _psi),
        ((cli, inversion), "rho_direct", "inversion.rho_direct", None),
        ((cli, inversion), "rho_structured", "inversion.rho_structured", None),
        ((inversion,), "build_rho_table", "inversion.rho_table", None),
        ((cli, inversion), "inverse_from_rho", "inversion.inverse_from_rho", None),
        ((cli,), "check_difference_kernel", "inversion.structure_check", None),
        ((fileio,), "read_image", "fileio.read", _read),
    ]
    plan += [((fileio,), name, "fileio.write", _written) for name in (
        "write_json_report", "write_rho_csv", "write_convergence_csv",
        "write_convergence_svg", "write_pgm", "write_matrix_csv")]

    for owners, attr, span, hook in plan:
        for owner in owners:
            if hasattr(owner, attr):
                setattr(owner, attr, tracer.wrap(span, getattr(owner, attr), hook))
    scipy.linalg.lu_factor = _timed_lu_factor(tracer, scipy.linalg.lu_factor)
