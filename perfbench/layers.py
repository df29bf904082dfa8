"""Per-layer attribution by wrapping the program's functions from outside.

A :class:`LayerRecorder` replaces chosen functions and methods of the
program with timing wrappers.  Each wrapper counts calls, total time and
*self* time (total minus the time of wrapped calls nested inside it), and
optionally a unit count (records in a frame, sessions in a batch).
Nothing under ``src/`` is edited: the wrappers are installed with
``setattr`` on the owning module or class, so they must be installed
before any process that should be measured is forked.

Stats are cumulative per process; a measurement window is the difference
of two :meth:`LayerRecorder.snapshot` calls.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, List, Optional, Union

__all__ = ["LayerRecorder", "diff_snapshots", "format_layer_table", "mean_us"]

# Stat slots of one layer: [calls, total_s, self_s, units].
_CALLS, _TOTAL, _SELF, _UNITS = range(4)


class LayerRecorder:
    """Owns the wrapped layers' counters and the nesting stack."""

    def __init__(self) -> None:
        self.stats: Dict[str, List[float]] = {}
        self._stack: List[float] = []
        self._undo: List[tuple] = []

    def _slot(self, name: str) -> List[float]:
        slot = self.stats.get(name)
        if slot is None:
            slot = self.stats[name] = [0, 0.0, 0.0, 0]
        return slot

    def timed(
        self,
        fn: Callable,
        name: Union[str, Callable[[tuple], str]],
        units: Optional[Callable[[tuple, object], int]] = None,
    ) -> Callable:
        """Return ``fn`` wrapped so every call is attributed to ``name``.

        ``name`` may be a function of the call's positional arguments
        (one wrapped method feeding several layers); ``units`` maps
        ``(args, result)`` to the work the call did.
        """
        stack = self._stack
        clock = time.perf_counter
        fixed = self._slot(name) if isinstance(name, str) else None
        slot_for = self._slot

        def wrapper(*args, **kwargs):
            # The layer is named from the arguments as the call begins.
            slot = fixed if fixed is not None else slot_for(name(args))
            stack.append(0.0)
            t0 = clock()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                dt = clock() - t0
                child = stack.pop()
                if stack:
                    stack[-1] += dt
                slot[_CALLS] += 1
                slot[_TOTAL] += dt
                slot[_SELF] += dt - child
                if units is not None:
                    slot[_UNITS] += units(args, result)

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", "wrapped")
        return wrapper

    def wrap(
        self,
        owner: object,
        attr: str,
        name: Union[str, Callable[[tuple], str]],
        units: Optional[Callable[[tuple, object], int]] = None,
    ) -> None:
        """Replace ``owner.attr`` (module function, method, classmethod or
        staticmethod) with a timed wrapper; :meth:`unwrap_all` restores."""
        raw = vars(owner).get(attr) if isinstance(owner, type) else None
        original = getattr(owner, attr)
        if isinstance(raw, classmethod):
            replacement = classmethod(self.timed(raw.__func__, name, units))
            original = raw
        elif isinstance(raw, staticmethod):
            replacement = staticmethod(self.timed(raw.__func__, name, units))
            original = raw
        else:
            replacement = self.timed(original, name, units)
            if raw is not None:
                original = raw
        self._undo.append((owner, attr, original))
        setattr(owner, attr, replacement)

    def patch(self, owner: object, attr: str, replacement: object) -> None:
        """Set ``owner.attr``; :meth:`unwrap_all` restores the original."""
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def unwrap_all(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def snapshot(self) -> Dict[str, List[float]]:
        return {name: list(slot) for name, slot in self.stats.items()}


def diff_snapshots(after: dict, before: dict) -> Dict[str, Dict[str, float]]:
    """Per-layer ``{calls, total_s, self_s, units}`` over a window."""
    out = {}
    for name, slot in after.items():
        base = before.get(name, [0, 0.0, 0.0, 0])
        calls = slot[_CALLS] - base[_CALLS]
        if calls <= 0:
            continue
        out[name] = {
            "calls": calls,
            "total_s": slot[_TOTAL] - base[_TOTAL],
            "self_s": slot[_SELF] - base[_SELF],
            "units": slot[_UNITS] - base[_UNITS],
        }
    return out


def mean_us(window: dict, name: str, per: str = "calls") -> float:
    """Mean total time of a layer in microseconds, per call or per unit;
    0.0 when the layer did no work in the window."""
    layer = window.get(name)
    if not layer or not layer[per]:
        return 0.0
    return layer["total_s"] * 1e6 / layer[per]


def format_layer_table(title: str, window: dict, reference_s: float, reference_label: str) -> str:
    """A per-layer table: calls, total, self, share of the reference time,
    and the explicit unattributed remainder."""
    lines = [
        f"-- {title} (reference: {reference_label} = {reference_s:.4f} s)",
        f"{'layer':<40} {'calls':>10} {'total_s':>10} {'self_s':>10} {'self%':>7}",
    ]
    attributed = 0.0
    for name in sorted(window, key=lambda n: -window[n]["self_s"]):
        layer = window[name]
        attributed += layer["self_s"]
        share = 100.0 * layer["self_s"] / reference_s if reference_s > 0 else 0.0
        lines.append(
            f"{name:<40} {layer['calls']:>10,.0f} {layer['total_s']:>10.4f}"
            f" {layer['self_s']:>10.4f} {share:>6.1f}%"
        )
    other = reference_s - attributed
    share = 100.0 * other / reference_s if reference_s > 0 else 0.0
    lines.append(f"{'other (unattributed)':<40} {'':>10} {'':>10} {other:>10.4f} {share:>6.1f}%")
    return "\n".join(lines)
