"""Traced run of `obpb run`: spans at the program's layer boundaries.

Run in a child process as

    python3 bench/tracing.py SCENARIO.yaml TRACE.json

with ``src`` on PYTHONPATH.  It wraps the public functions named in
BOUNDARIES in every ``obpb`` namespace that binds them (``scenario`` imports
``far_field_matrix`` by name, ``cli`` imports ``run_scenario`` by name), enters
through ``obpb.cli.main(["run", SCENARIO])``, keeps the spans and counters in
memory and writes them to TRACE.json when the run ends.  The parent reduces
them with `layer_metrics`.

Hot helpers such as ``modes.flat_index`` are deliberately not wrapped.  Work
the tracer adds after a call (hashing inputs, counting active nodes) is
recorded as a ``trace.observe`` child span, so it is excluded from every
layer's self time and shows only in ``trace.overhead_s``.
"""

import functools
import hashlib
import importlib
import inspect
import json
import sys
from collections import defaultdict
from time import perf_counter

import numpy as np

_SIMPLE = (
    "profiles.pattern_power", "profiles.profile_fields",
    "modes.far_field_matrix", "modes.regular_wave_matrix",
    "correlation.mode_correlation", "correlation.beam_correlation",
    "correlation.calibrated_snr",
    "optimizer.run", "optimizer.dominant_beams",
    "surfaces.build_z", "surfaces.project",
    "conventional.element_correlation", "conventional.candidate_gram",
    "conventional.greedy_select_det", "conventional.best_subarray_partition",
    "conventional.subarray_selection", "conventional.steering_matrix",
    "capacity.rank_adapt",
    "scenario.load_scenario", "scenario.run_scenario",
)

# boundary name -> attribute paths under the obpb package that it wraps
BOUNDARIES = {
    "profiles.JointProfile": ("profiles.JointProfile.__init__",),
    "profiles.marginal": ("profiles.JointProfile.marginal_bs",
                          "profiles.JointProfile.marginal_ue"),
    **{name: (name,) for name in _SIMPLE},
}

OBSERVE = "trace.observe"
ACTIVE_REL = 1e-15        # a node is active above this share of peak power


def resolve(path):
    """(owner, attribute, object) of a dotted path under the obpb package."""
    module, *attrs = path.split(".")
    owner = importlib.import_module(f"obpb.{module}")
    for attr in attrs[:-1]:
        owner = getattr(owner, attr)
    return owner, attrs[-1], getattr(owner, attrs[-1])


def _digest(*parts):
    h = hashlib.blake2b(digest_size=16)
    for part in parts:
        if isinstance(part, np.ndarray):
            h.update(np.ascontiguousarray(part).tobytes())
        else:
            h.update(repr(part).encode())
    return h.digest()


class Tracer:
    """In-memory spans ``[name, start, end, parent]`` plus named counters."""

    def __init__(self):
        self.spans = []
        self.counters = defaultdict(int)
        self._stack = []
        self._seen = defaultdict(set)

    def repeat(self, name, digest):
        """Count a call whose inputs hash like an earlier call's."""
        if digest in self._seen[name]:
            self.counters[f"{name}.repeats"] += 1
        else:
            self._seen[name].add(digest)

    def wrap(self, name, fn, observe=None):
        signature = inspect.signature(fn) if observe else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else -1
            span = [name, perf_counter(), None, parent]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                self._stack.pop()
            if observe is not None:
                start = perf_counter()
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                observe(self, bound.arguments, result)
                self.spans.append([OBSERVE, start, perf_counter(), parent])
            return result
        return traced

    def install(self):
        """Patch every boundary in each obpb namespace that binds it."""
        targets = [(name, path, *resolve(path))
                   for name, paths in BOUNDARIES.items() for path in paths]
        modules = [m for n, m in list(sys.modules.items())
                   if n == "obpb" or n.startswith("obpb.")]
        for name, path, owner, attr, original in targets:
            wrapped = self.wrap(name, original, _OBSERVERS.get(path))
            setattr(owner, attr, wrapped)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapped)


def _observe_joint_profile(tracer, args, result):
    tracer.counters["profiles.joint_matrix_bytes"] = \
        args["self"].joint_matrix.nbytes


def _observe_far_field(tracer, args, result):
    tracer.counters["modes.far_field_matrix.directions"] += int(np.size(
        args["theta"]))


def _observe_mode_correlation(tracer, args, result):
    grid = args["grid"]
    marginal = np.asarray(args["marginal"], dtype=float)
    wm = np.maximum(grid.weights * marginal, 0.0)
    peak = wm.max() if wm.size else 0.0
    tracer.counters["correlation.mode_correlation.active_nodes"] += int(
        np.count_nonzero(wm > ACTIVE_REL * peak) if peak > 0 else 0)
    tracer.counters["correlation.mode_correlation.nodes"] += int(wm.size)
    tracer.repeat("correlation.mode_correlation", _digest(
        args["modeset"].truncation_order, marginal, grid.theta, grid.phi,
        grid.weights, args["polarization"], args["prune_tol"]))


def _observe_dominant_beams(tracer, args, result):
    tracer.repeat("optimizer.dominant_beams",
                  _digest(np.asarray(args["r_sph"]), args["m"]))


def _observe_candidate_gram(tracer, args, result):
    tracer.repeat("conventional.candidate_gram",
                  _digest(np.asarray(args["weights"]),
                          np.asarray(args["r_elem"])))


def _observe_optimizer_run(tracer, args, result):
    tracer.counters["optimizer.half_steps"] += len(result.objective_history)
    tracer.counters["optimizer.unconverged"] += int(not result.converged)


_OBSERVERS = {
    "profiles.JointProfile.__init__": _observe_joint_profile,
    "modes.far_field_matrix": _observe_far_field,
    "correlation.mode_correlation": _observe_mode_correlation,
    "optimizer.dominant_beams": _observe_dominant_beams,
    "conventional.candidate_gram": _observe_candidate_gram,
    "optimizer.run": _observe_optimizer_run,
}


# ---------------------------------------------------------------------------
# reduction (runs in the parent)
# ---------------------------------------------------------------------------

def _covered(lo, hi, intervals):
    """Length of [lo, hi] covered by the union of `intervals`."""
    total = 0.0
    reach = lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans):
    """Each span's duration minus the part of it its child spans cover."""
    children = defaultdict(list)
    for name, start, end, parent in spans:
        if parent >= 0:
            children[parent].append((start, end))
    return [end - start - _covered(start, end, children[i])
            for i, (name, start, end, parent) in enumerate(spans)]


def _inclusive(spans):
    """Per name: call count and time summed over spans with no same-name
    ancestor, so recursion or nesting is not counted twice."""
    calls = defaultdict(int)
    seconds = defaultdict(float)
    for name, start, end, parent in spans:
        calls[name] += 1
        while parent >= 0 and spans[parent][0] != name:
            parent = spans[parent][3]
        if parent < 0:
            seconds[name] += end - start
    return calls, seconds


def _frac(num, den):
    return num / den if den else 0.0


def layer_metrics(spans, counters, sub_array_points):
    """Per-layer metrics from one traced run.

    sub_array_points: N_UE points the scenario runs the sub-array method at,
    the numerator of ``conventional.subarray_chain_use_frac``.
    """
    calls, seconds = _inclusive(spans)
    own = defaultdict(float)
    for (name, *_), s in zip(spans, self_times(spans)):
        own[name] += s
    out = {}
    for name in BOUNDARIES:
        out[f"{name}.calls"] = calls[name]
        out[f"{name}.s"] = seconds[name]
    for name in ("optimizer.run", "scenario.run_scenario"):
        out[f"{name}.self_s"] = own[name]
    for name in ("correlation.mode_correlation", "optimizer.dominant_beams",
                 "conventional.candidate_gram"):
        out[f"{name}.repeat_frac"] = _frac(counters.get(f"{name}.repeats", 0),
                                           calls[name])
    out["correlation.mode_correlation.active_node_frac"] = _frac(
        counters.get("correlation.mode_correlation.active_nodes", 0),
        counters.get("correlation.mode_correlation.nodes", 0))
    out["profiles.marginal.bytes_computed"] = (
        calls["profiles.marginal"] * counters.get("profiles.joint_matrix_bytes",
                                                  0))
    out["modes.far_field_matrix.directions"] = counters.get(
        "modes.far_field_matrix.directions", 0)
    out["optimizer.half_steps"] = counters.get("optimizer.half_steps", 0)
    out["optimizer.unconverged"] = counters.get("optimizer.unconverged", 0)
    out["conventional.subarray_chain_use_frac"] = _frac(
        sub_array_points, calls["conventional.subarray_selection"])
    return out


def main(argv):
    scenario_path, trace_path = argv
    from obpb import cli

    tracer = Tracer()
    tracer.install()
    code = cli.main(["run", scenario_path])
    with open(trace_path, "w", encoding="utf-8") as fh:
        json.dump({"spans": tracer.spans, "counters": tracer.counters}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
