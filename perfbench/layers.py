"""Per-layer trace, recorded from outside the program.

Each layer function is replaced, at the module attribute its caller looks up,
by a wrapper that times the call and, from the call's arguments and return
value, adds to work counters.  Modules import functions by name, so one
function may need wrapping under several modules: ``complexes.casson`` and
``cli.casson`` are separate bindings.  A layer's self time is its calls'
time minus the time of wrapped calls made inside them.  A name that no
longer exists is listed as missing and left alone.
"""

from __future__ import annotations

import importlib
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

import oracles


def _reduced(pairs):
    """Pairs with every (1, b) fiber folded into the first exceptional one."""
    shift = sum(b for a, b in pairs if a == 1)
    rest = [(a, b) for a, b in pairs if a > 1]
    if rest:
        rest[0] = (rest[0][0], rest[0][1] + rest[0][0] * shift)
    return rest


def _signature_dims(args, result):
    return {"arith.signature.dim_sum": len(args[0]), "arith.signature.dim_max": len(args[0])}


def _lattice_window(args, result):
    return {"lens.window_points": 2 * result.k2 + 1}


def _irreducibles(args, result):
    return {
        "seifert.rotation_tuples": oracles.rotation_grid(_reduced(args[0].pairs), (0, 0, 0)),
        "seifert.irreducibles_accepted": len(result),
    }


def _characters(args, result):
    return {
        "seifert.characters_enumerated": oracles.seifert_h1(args[0].pairs),
        "seifert.reducible_classes": len(result),
    }


def _orbits(args, result):
    return {"seifert.projective_orbits": len(result)}


Counter = Optional[Callable[[tuple, object], Dict[str, int]]]

# (layer, module, attribute, counter): one row per binding a caller resolves
TARGETS: List[Tuple[str, str, str, Counter]] = [
    ("cli.parse", "argparse", "ArgumentParser.parse_args", None),
    ("cli.parse", "floerchains.cli", "build_parser", None),
    ("cli.parse", "floerchains.cli", "parse_pairs", None),
    ("cli.parse", "floerchains.cli", "parse_block", None),
    ("cli.emit", "floerchains.cli", "_record", None),
    ("cli.emit", "floerchains.cli", "_print_record", None),
    ("complexes.assemble", "floerchains.cli", "two_bridge_generators", None),
    ("complexes.assemble", "floerchains.cli", "special_montesinos_complex", None),
    ("complexes.assemble", "floerchains.cli", "montesinos_knot_complex", None),
    ("complexes.assemble", "floerchains.cli", "torus_even_seifert_data", None),
    ("complexes.assemble", "floerchains.cli", "torus_complex", None),
    ("complexes.assemble", "floerchains.cli", "montesinos_link_complex", None),
    ("complexes.assemble", "floerchains.cli", "euler_characteristic", None),
    ("complexes.assemble", "floerchains.complexes", "GradedGenerators.ranks", None),
    ("signatures.two_bridge_signature", "floerchains.complexes", "two_bridge_signature", None),
    ("signatures.torus_signature", "floerchains.complexes", "torus_signature", None),
    ("signatures.torus_signature", "floerchains.signatures", "torus_signature", None),
    ("arith.signature", "floerchains.signatures", "signature", _signature_dims),
    ("arith.smith_normal_form", "floerchains.seifert", "smith_normal_form", None),
    ("lens.lattice_counts", "floerchains.lens", "lattice_counts", _lattice_window),
    ("seifert.enumerate_irreducibles", "floerchains.complexes", "enumerate_irreducibles", _irreducibles),
    ("seifert.enumerate_irreducibles", "floerchains.seifert", "enumerate_irreducibles", _irreducibles),
    ("seifert.casson", "floerchains.cli", "casson", None),
    ("seifert.casson", "floerchains.complexes", "casson", None),
    ("seifert.projective_su2_classes", "floerchains.complexes", "projective_su2_classes", None),
    ("seifert.projective_su2_classes", "floerchains.seifert", "projective_su2_classes", None),
    ("seifert.enumerate_projective", "floerchains.complexes", "enumerate_projective", _orbits),
    ("seifert.reducible_characters", "floerchains.complexes", "reducible_characters", _characters),
]

LAYERS = sorted({layer for layer, *_ in TARGETS})
COUNTERS = [
    "arith.signature.dim_sum",
    "arith.signature.dim_max",
    "lens.window_points",
    "seifert.rotation_tuples",
    "seifert.irreducibles_accepted",
    "seifert.characters_enumerated",
    "seifert.reducible_classes",
    "seifert.projective_orbits",
]
_MAXIMA = {"arith.signature.dim_max"}


class Tracer:
    """Installs the wrappers, accumulates calls, self time and counters."""

    def __init__(self, targets=TARGETS):
        self.targets = targets
        self.calls: Dict[str, int] = defaultdict(int)
        self.self_s: Dict[str, float] = defaultdict(float)
        self.counts: Dict[str, int] = defaultdict(int)
        self.missing: List[str] = []
        self._stack: List[float] = []
        self._restore: List[Tuple[object, str, object]] = []

    def _wrap(self, layer: str, fn: Callable, counter: Counter) -> Callable:
        stack, clock = self._stack, time.perf_counter

        def traced(*args, **kwargs):
            start = clock()
            stack.append(0.0)
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                self.calls[layer] += 1
                self.self_s[layer] += elapsed - stack.pop()
                if stack:
                    stack[-1] += elapsed
            if counter is not None:
                start = clock()
                self._count(counter(args, result))
                if stack:
                    # counting is the tracer's work, not the caller's
                    stack[-1] += clock() - start
            return result

        return traced

    def _count(self, values: Dict[str, int]) -> None:
        for name, value in values.items():
            if name in _MAXIMA:
                self.counts[name] = max(self.counts[name], value)
            else:
                self.counts[name] += value

    def install(self) -> None:
        for layer, module_name, attribute, counter in self.targets:
            owner = importlib.import_module(module_name)
            *path, name = attribute.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            original = getattr(owner, name, None) if owner is not None else None
            if original is None:
                self.missing.append(f"{module_name}.{attribute}")
                continue
            self._restore.append((owner, name, original))
            setattr(owner, name, self._wrap(layer, original, counter))

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._restore):
            setattr(owner, name, original)
        self._restore.clear()

    def metrics(self, records: int, emitted_bytes: int, to_reference: float) -> Dict[str, float]:
        """Totals over the traced run; self times are scaled by the run's
        wall-to-reference factor so that they share the end-to-end unit."""
        out: Dict[str, float] = {"records": records, "cli.emit.bytes": emitted_bytes}
        for layer in LAYERS:
            out[f"{layer}.calls"] = self.calls[layer]
            out[f"{layer}.self_s"] = self.self_s[layer] * to_reference
        for name in COUNTERS:
            out[name] = self.counts[name]
        swept = self.counts["seifert.rotation_tuples"]
        out["seifert.sweep_yield"] = self.counts["seifert.irreducibles_accepted"] / swept if swept else 0.0
        out["trace.missing"] = len(self.missing)
        return out

