"""Spans around the program's public functions, recorded from outside.

:class:`SpanRecorder` replaces named public functions of ``repro`` with
timing wrappers for the duration of a traced round and restores them after.
Each call records a span ``[name, start, end, parent]``; self time is a
span's duration minus the time its child spans cover.  Nothing under
``src/`` changes: the wrappers are installed on the module attributes
(including every ``from x import f`` binding in other ``repro`` modules).

Recording is single-threaded by design: it is used only on the serial
``table1`` workload, where every call nests inside the caller's stack.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from typing import Callable, Dict, Iterable, List, Optional, Tuple

#: span name -> "module:function" of the public function it wraps.
FIGURE1_STAGES: Dict[str, str] = {
    "descriptor.build_phi_realization": "repro.descriptor.adjoint:build_phi_realization",
    "passivity.reduction.remove_impulsive_modes": "repro.passivity.reduction:remove_impulsive_modes",
    "passivity.reduction.remove_nondynamic_modes": "repro.passivity.reduction:remove_nondynamic_modes",
    "passivity.m1.impulsive_chain_data": "repro.passivity.m1:impulsive_chain_data",
    "passivity.reduction.restore_shh_structure": "repro.passivity.reduction:restore_shh_structure",
    "passivity.proper_part.extract_stable_proper_part": "repro.passivity.proper_part:extract_stable_proper_part",
    "passivity.hamiltonian_test.proper_positive_real_test": "repro.passivity.hamiltonian_test:proper_positive_real_test",
}
KERNELS: Dict[str, str] = {
    "linalg.skew_hamiltonian_schur.pvl_decomposition": "repro.linalg.skew_hamiltonian_schur:pvl_decomposition",
    "linalg.invariant_subspace.stable_invariant_subspace": "repro.linalg.invariant_subspace:stable_invariant_subspace",
    "linalg.pencil.compute_spectral_context": "repro.linalg.pencil:compute_spectral_context",
    "descriptor.weierstrass.weierstrass_form": "repro.descriptor.weierstrass:weierstrass_form",
}

class SpanRecorder:
    """In-memory span list filled by wrapped public functions.

    Each span is a list ``[name, start, end, parent index or None]``.
    """

    def __init__(self) -> None:
        self.spans: List[list] = []
        self._stack: List[int] = []
        self._patches: List[Tuple[object, str, Callable]] = []

    def span(self, name: str, fn: Callable, *args, **kwargs):
        """Call ``fn`` inside a span named ``name``."""
        parent = self._stack[-1] if self._stack else None
        record = [name, time.perf_counter(), None, parent]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        try:
            return fn(*args, **kwargs)
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()

    def _wrap(self, name: str, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.span(name, fn, *args, **kwargs)

        return traced

    def install(self, targets: Dict[str, str]) -> None:
        """Wrap every ``module:function`` in ``targets`` wherever it is bound."""
        for name, path in targets.items():
            module_name, attr = path.split(":")
            original = getattr(importlib.import_module(module_name), attr)
            wrapper = self._wrap(name, original)
            for module in list(sys.modules.values()):
                if not getattr(module, "__name__", "").startswith("repro"):
                    continue
                if getattr(module, attr, None) is original:
                    setattr(module, attr, wrapper)
                    self._patches.append((module, attr, original))

    def uninstall(self) -> None:
        """Restore every wrapped function."""
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    # ------------------------------------------------------------------
    def _children(self) -> Dict[int, List[int]]:
        children: Dict[int, List[int]] = {}
        for index, span in enumerate(self.spans):
            if span[3] is not None:
                children.setdefault(span[3], []).append(index)
        return children

    def _root(self, index: int) -> int:
        while self.spans[index][3] is not None:
            index = self.spans[index][3]
        return index

    def self_times(
        self, roots: Optional[Iterable[str]] = None
    ) -> Dict[str, Tuple[float, int]]:
        """``name -> (summed self seconds, calls)``, optionally only under roots
        whose name is in ``roots``.

        Children of one span run one after another on one thread, so the
        time they cover is the sum of their durations.
        """
        wanted = None if roots is None else set(roots)
        children = self._children()
        totals: Dict[str, Tuple[float, int]] = {}
        for index, (name, start, end, _) in enumerate(self.spans):
            if wanted is not None and self.spans[self._root(index)][0] not in wanted:
                continue
            covered = sum(
                self.spans[c][2] - self.spans[c][1] for c in children.get(index, ())
            )
            seconds, calls = totals.get(name, (0.0, 0))
            totals[name] = (seconds + (end - start) - covered, calls + 1)
        return totals

    def coverage(self, root_name: str) -> float:
        """Share of the wall time of ``root_name`` spans covered by child spans."""
        children = self._children()
        wall = covered = 0.0
        for index, (name, start, end, parent) in enumerate(self.spans):
            if parent is None and name == root_name:
                wall += end - start
                covered += sum(
                    self.spans[c][2] - self.spans[c][1] for c in children.get(index, ())
                )
        return covered / wall if wall > 0 else 0.0
