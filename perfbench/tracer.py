"""A tracer that times emalp's public functions from the outside.

`Tracer.install` wraps the listed functions and rebinds every reference
to them that a caller looks up: module globals in every emalp module
(`emalp.semantics.eval_body` as well as `emalp.program.eval_body`) and
values of module-level dicts (the CLI's table of transforms).  Nothing
under `src/` is edited, and `restore` puts every original back.

Every wrapped call is timed with a shared call stack, so a layer's self
time is its time minus the time of the wrapped calls it made.  Coarse
calls (one CLI job, parsing, rewrites, searches, equivalence checks)
are also kept as spans with parent ids; hot leaves (`eval_body`,
`Program.atoms`, `eval_conjunctor`, `immediate_consequence`) are only
counted and timed.
"""

from __future__ import annotations

import sys
import time
from typing import Callable, Optional

PACKAGE = "emalp"

# (module, attribute path, layer, span?)
TARGETS = [
    ("cli", "main", "cli.main", True),
    ("parser", "parse_program", "parser.parse_program", True),
    ("program", "validate_program", "program.validate_program", False),
    ("program", "eval_body", "program.eval_body", False),
    ("program", "Program.atoms", "program.atoms", False),
    ("lattice", "eval_conjunctor", "lattice.eval_conjunctor", False),
    ("semantics", "reduct", "semantics.reduct", False),
    ("semantics", "stable_operator", "semantics.stable_operator", False),
    ("semantics", "least_model", "semantics.least_model", False),
    ("semantics", "immediate_consequence", "semantics.immediate_consequence", False),
    ("semantics", "is_stable", "semantics.is_stable", False),
    ("semantics", "find_stable_models", "semantics.find_stable_models", True),
    ("transform", "eliminate_constraints_fc", "transform.rewrite", True),
    ("transform", "eliminate_constraints_janssen", "transform.rewrite", True),
    ("transform", "to_manlp", "transform.rewrite", True),
    ("transform", "verify_equivalence", "transform.verify_equivalence", True),
    ("transform", "lift_interpretation", "transform.lift_project", False),
    ("transform", "project_interpretation", "transform.lift_project", False),
]


class Tracer:
    def __init__(self):
        self.layers: dict[str, list] = {}   # layer -> [calls, total_s, self_s]
        self.spans: list[tuple] = []        # (id, parent, layer, job, start, end)
        self.counts = {"grid_points": 0, "grid_is_stable": 0, "search_is_stable": 0,
                       "models": 0, "indeterminate": 0, "lm_iterations": 0,
                       "lm_unconverged": 0}
        self.job = ""
        self._stack: list[list] = []        # per active wrapped call: [child_s]
        self._open_spans: list[int] = []
        self._grid_depth = 0
        self._search_depth = 0
        self._patches: list[tuple] = []
        self._wrappers: list[Callable] = []
        self._t0 = time.perf_counter()

    # -- wrapping -----------------------------------------------------------

    def _wrap(self, layer: str, fn: Callable, span: bool,
              before: Optional[Callable] = None, after: Optional[Callable] = None) -> Callable:
        rec = self.layers.setdefault(layer, [0, 0.0, 0.0])
        stack = self._stack
        clock = time.perf_counter

        if not (span or before or after):
            def wrapper(*args, **kwargs):
                frame = [0.0]
                stack.append(frame)
                start = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    dt = clock() - start
                    stack.pop()
                    rec[0] += 1
                    rec[1] += dt
                    rec[2] += dt - frame[0]
                    if stack:
                        stack[-1][0] += dt
        else:
            spans, open_spans, t0 = self.spans, self._open_spans, self._t0

            def wrapper(*args, **kwargs):
                if before is not None:
                    before(args, kwargs)
                if span:
                    span_id = len(spans)
                    parent = open_spans[-1] if open_spans else None
                    spans.append(None)
                    open_spans.append(span_id)
                frame = [0.0]
                stack.append(frame)
                start = clock()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    end = clock()
                    dt = end - start
                    stack.pop()
                    rec[0] += 1
                    rec[1] += dt
                    rec[2] += dt - frame[0]
                    if stack:
                        stack[-1][0] += dt
                    if span:
                        open_spans.pop()
                        spans[span_id] = (span_id, parent, layer, self.job,
                                          start - t0, end - t0)
                if after is not None:
                    after(args, kwargs, result)
                return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", layer)
        self._wrappers.append(wrapper)
        return wrapper

    def _hooks(self, modules) -> dict[str, tuple]:
        """before/after callbacks that feed the derived counts."""
        counts = self.counts
        lattice_grid = modules["lattice"].lattice_grid
        atoms = modules["program"].Program.atoms   # the original, untraced

        def search_before(args, kwargs):
            program, cfg = args[0], args[1] if len(args) > 1 else kwargs["cfg"]
            self._search_depth += 1
            if cfg.mode == "grid":
                self._grid_depth += 1
                counts["grid_points"] += len(lattice_grid(cfg.grid_step)) ** len(atoms(program))

        def search_after(args, kwargs, result):
            cfg = args[1] if len(args) > 1 else kwargs["cfg"]
            self._search_depth -= 1
            if cfg.mode == "grid":
                self._grid_depth -= 1
            counts["models"] += len(result)

        def stable_after(args, kwargs, result):
            counts["search_is_stable"] += self._search_depth > 0
            counts["grid_is_stable"] += self._grid_depth > 0
            counts["indeterminate"] += result is None

        def least_after(args, kwargs, result):
            trace = result[1]
            counts["lm_iterations"] += trace.iterations
            counts["lm_unconverged"] += not trace.converged

        return {"find_stable_models": (search_before, search_after),
                "is_stable": (None, stable_after),
                "least_model": (None, least_after)}

    def install(self) -> None:
        modules = {name: sys.modules[f"{PACKAGE}.{name}"] for name, *_ in TARGETS}
        hooks = self._hooks(modules)
        for mod_name, path, layer, span in TARGETS:
            owner = modules[mod_name]
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
            before, after = hooks.get(attr, (None, None))
            wrapper = self._wrap(layer, original, span, before, after)
            if outer:
                self._set(owner, attr, original, wrapper)
            else:
                self._rebind(original, wrapper)

    def _set(self, owner, attr, original, wrapper) -> None:
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original, False))

    def _rebind(self, original, wrapper) -> None:
        for name, mod in list(sys.modules.items()):
            if mod is None or not (name == PACKAGE or name.startswith(PACKAGE + ".")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, key, original, wrapper)
                elif type(value) is dict:
                    for k, v in value.items():
                        if v is original:
                            value[k] = wrapper
                            self._patches.append((value, k, original, True))

    def restore(self) -> None:
        for owner, key, original, is_dict in reversed(self._patches):
            if is_dict:
                owner[key] = original
            else:
                setattr(owner, key, original)
        self._patches.clear()

    def is_wrapper(self, fn) -> bool:
        return any(fn is w for w in self._wrappers)

    def start_job(self, job_id: str) -> None:
        # A search that raises (budget, bad input) skips its after-hook,
        # so the depth counters restart with every job.
        self.job = job_id
        self._grid_depth = self._search_depth = 0

    # -- results ------------------------------------------------------------

    def layer(self, name: str) -> list:
        return self.layers.get(name, [0, 0.0, 0.0])
