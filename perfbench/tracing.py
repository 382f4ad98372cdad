"""Spans around the public functions of each `conjalg` layer.

`Tracer.install` replaces every listed function, in every `conjalg` module
namespace that binds it, by a wrapper that records one span per call:
name, start, end, parent span, operation id and whether it raised.  Calls
one listed function makes to another are therefore nested spans.  Spans
stay in memory until `per_layer_metrics` and `write` at the end of a run.
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
import time

MODULES = ("dynsys", "skewpoly", "charspace", "reps", "diskmaps", "verify", "cli")

LAYERS = {
    "dynsys": ("are_conjugate", "canonical_form", "orbit_structure",
               "brute_force_conjugate", "relabel", "fixed_points"),
    "skewpoly": ("skew_mul", "skew_add", "skew_scale", "transport", "l1_norm"),
    "charspace": ("build_catalog", "catalog_equal", "eval_character"),
    "reps": ("rep_matrix", "operator_norm", "norm_estimate", "spectral_radius_estimate",
             "build_pencil", "build_offfixed", "build_fixed_derivative",
             "extract_characters"),
    "diskmaps": ("classify", "maps_disk_to_disk", "is_disk_automorphism", "normal_form",
                 "analytically_conjugate", "semicrossed_iso_verdict",
                 "verify_conjugacy_witness"),
    "verify": ("run_suite",),
    "cli": ("main",),
}

# per-layer metrics: (layer, function, suffixes) for counts and times.
# Workloads call `conjalg.<name>` at call time, so that they reach the wrappers.
COUNTED = [
    ("dynsys", "are_conjugate", ("calls", "s")),
    ("dynsys", "canonical_form", ("calls", "s")),
    ("dynsys", "orbit_structure", ("calls", "s")),
    ("dynsys", "brute_force_conjugate", ("calls", "s")),
    ("skewpoly", "skew_mul", ("calls", "s")),
    ("reps", "rep_matrix", ("calls", "s")),
    ("reps", "operator_norm", ("calls", "s")),
    ("reps", "norm_estimate", ("calls", "s")),
    ("reps", "spectral_radius_estimate", ("calls", "s")),
    ("diskmaps", "classify", ("calls", "s", "raised")),
    ("diskmaps", "maps_disk_to_disk", ("calls", "s")),
    ("diskmaps", "is_disk_automorphism", ("calls",)),
    ("diskmaps", "normal_form", ("calls",)),
    ("diskmaps", "analytically_conjugate", ("calls", "s")),
    ("diskmaps", "semicrossed_iso_verdict", ("calls", "s")),
    ("diskmaps", "verify_conjugacy_witness", ("calls", "s")),
    ("verify", "run_suite", ("s",)),
    ("cli", "main", ("s",)),
]
# name -> (counted span, enclosing spans): counted spans inside an
# enclosing span, per enclosing span
RATIOS = {
    "dynsys.orbit_passes_per_decision": ("dynsys.orbit_structure", ("dynsys.are_conjugate",)),
    "skewpoly.skew_mul_per_estimate": ("skewpoly.skew_mul", ("reps.norm_estimate",
                                                             "reps.spectral_radius_estimate")),
    "reps.svd_per_estimate": ("reps.operator_norm", ("reps.norm_estimate",
                                                     "reps.spectral_radius_estimate")),
    "diskmaps.classify_per_verdict": ("diskmaps.classify", ("diskmaps.semicrossed_iso_verdict",)),
    "diskmaps.probe_passes_per_verdict": ("diskmaps.maps_disk_to_disk",
                                          ("diskmaps.semicrossed_iso_verdict",)),
}
SELF_TIMED = ("dynsys", "skewpoly", "reps", "diskmaps", "charspace", "verify")
CLI_EXTRA = ("cli.import_s", "cli.startup_s")


def metric_units():
    """Every per-layer metric name with its unit."""
    units = {}
    for layer in SELF_TIMED:
        units[layer + ".self_s"] = "s"
    for layer, fn, suffixes in COUNTED:
        for suffix in suffixes:
            units["%s.%s.%s" % (layer, fn, suffix)] = "s" if suffix == "s" else "count"
    for name in RATIOS:
        units[name] = "count/op"
    for name in CLI_EXTRA:
        units[name] = "s"
    return units


class Tracer:
    def __init__(self):
        self.spans = []     # [name, start, end, parent index, op id, raised]
        self.stack = []
        self.op = None
        self.absent = []
        self.cli_walls = []  # (wall seconds, seconds inside main) per `conj` call

    def _wrap(self, name, fn):
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, time.perf_counter(), None, stack[-1] if stack else -1, self.op, False]
            stack.append(len(spans))
            spans.append(rec)
            try:
                return fn(*args, **kwargs)
            except BaseException:
                rec[5] = True
                raise
            finally:
                rec[2] = time.perf_counter()
                stack.pop()
        return traced

    def install(self):
        """Wrap the listed functions; a listed name that is gone is recorded as absent."""
        modules = [importlib.import_module("conjalg")]
        modules += [importlib.import_module("conjalg." + m) for m in MODULES]
        for layer, names in LAYERS.items():
            home = importlib.import_module("conjalg." + layer)
            for fname in names:
                original = getattr(home, fname, None)
                if not callable(original):
                    self.absent.append("%s.%s" % (layer, fname))
                    continue
                wrapped = self._wrap("%s.%s" % (layer, fname), original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapped)

    def add_child_spans(self, spans):
        """Append spans recorded in a `conj` subprocess under the current op."""
        base = len(self.spans)
        for name, start, end, parent, _, raised in spans:
            self.spans.append([name, start, end, parent + base if parent >= 0 else -1,
                               self.op, raised])

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, op, raised in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "op": op, "raised": raised}) + "\n")


def per_layer_metrics(spans, cli_walls=(), import_s=0.0):
    """The per-layer metrics of a traced run.

    cli_walls: (wall seconds, seconds inside main) per `conj` subprocess.
    """
    out = {name: 0.0 for name in metric_units()}
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    for i, (name, start, end, parent, _, raised) in enumerate(spans):
        layer = name.split(".")[0]
        if layer in SELF_TIMED:
            out[layer + ".self_s"] += (end - start) - child_time[i]
        for suffix, value in (("calls", 1), ("s", end - start), ("raised", int(raised))):
            key = "%s.%s" % (name, suffix)
            if key in out:
                out[key] += value
    for ratio, (counted, enclosing) in RATIOS.items():
        within = 0
        for name, _, _, parent, _, _ in spans:
            if name != counted:
                continue
            while parent >= 0 and spans[parent][0] not in enclosing:
                parent = spans[parent][3]
            within += parent >= 0
        outer = sum(1 for s in spans if s[0] in enclosing)
        out[ratio] = within / outer if outer else 0.0
    if cli_walls:
        out["cli.startup_s"] = statistics.median(w - m for w, m in cli_walls)
    out["cli.import_s"] = import_s
    return out
