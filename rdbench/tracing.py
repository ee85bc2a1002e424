"""Spans and work counts recorded around the program's layer boundaries.

The tracer wraps module functions from the outside (setattr on the module or
class object) and restores them afterwards, so no file under src/ changes.
Spans are kept in memory as rows [name, start, end, parent, unit, rows,
bytes] and written out when the run ends. A wrapped name that a later change
renames or removes is recorded as absent, and every metric that depends on
it is reported as absent instead of failing the run.
"""

from __future__ import annotations

import functools
import json
import statistics
import time

# (metric name, unit, span names it is computed from)
LAYER_METRICS = (
    ("simulate.encode_ms", "ms", ("simulate.encode",)),
    ("simulate.relay_ms", "ms", ("simulate.relay",)),
    ("simulate.terminal_ms", "ms", ("simulate.terminal",)),
    ("simulate.xhat1_book_ms", "ms", ("simulate.xhat1_book",)),
    ("simulate.xhat1_book_calls", "count", ("simulate.xhat1_book",)),
    ("simulate.trial_other_ms", "ms", ("simulate.run", "simulate.build", "simulate.encode",
                                       "simulate.relay", "simulate.terminal")),
    ("simulate.build_ms", "ms", ("simulate.build",)),
    ("kernels.mask_calls", "count", ("kernels.mask",)),
    ("kernels.rows_scanned", "count", ("kernels.mask",)),
    ("kernels.mask_ms", "ms", ("kernels.mask",)),
    ("kernels.rows_per_us", "rows/us", ("kernels.mask",)),
    ("kernels.bytes_computed", "B", ("kernels.mask",)),
    ("discrete.ba_solves", "count", ("discrete.ba",)),
    ("discrete.ba_ms", "ms", ("discrete.ba",)),
    ("discrete.eg_passes", "count", ("discrete.eg",)),
    ("discrete.eg_ms", "ms", ("discrete.eg",)),
    ("discrete.objective_evals", "count", ("discrete.objective",)),
    ("discrete.cmi_calls", "count", ("discrete.cmi",)),
    ("discrete.cmi_ms", "ms", ("discrete.cmi",)),
    ("discrete.oracle_points", "count", ("discrete.oracle_points",)),
    ("discrete.oracle_ms", "ms", ("discrete.oracle",)),
    ("discrete.search_ms", "ms", ("discrete.search",)),
    ("probability.markov_checks", "count", ("probability.markov",)),
    ("probability.markov_ms", "ms", ("probability.markov",)),
    ("gaussian.query_us", "us", ("gaussian.solve",)),
    ("gaussian.grid_calls", "count", ("gaussian.grid",)),
    ("gaussian.grid_ms", "ms", ("gaussian.grid",)),
    ("gaussian.refine_ms", "ms", ("gaussian.refine",)),
    ("gaussian.feasible_evals", "count", ("gaussian.feasible",)),
    ("gaussian.branch_boundary", "count", ()),
    ("gaussian.branch_beta_only", "count", ()),
    ("gaussian.branch_const_u", "count", ()),
    ("cli.overhead_ms", "ms", ("cli.main", "gaussian.solve")),
    ("cli.emit_ms", "ms", ("cli.emit",)),
)

GAUSSIAN_SOLVERS = ("cascade_min_r1", "triangular_min_r1", "two_way_triangular_min_r1",
                    "extended_backward_achievability", "extended_backward_region_check")


def _mask_work(args, kwargs):
    """(rows, computed bytes) of one typical_mask call.

    Computed, not measured: the int64 id array read plus the int64 count
    table of rows x n_symbols that the counting kernel fills.
    """
    ids, n_symbols = args[0], args[1]
    rows = int(ids.shape[0])
    return rows, int(ids.nbytes) + rows * int(n_symbols) * 8


def wiring(api):
    """(owner object, attribute, span name, work function) per boundary.

    A function imported under two names (`_cmi`, `check_markov_chain`) is
    wrapped at both, so calls are counted whichever binding the caller uses.
    """
    sim, disc, prob, gauss, kern, cli = (api.simulate, api.discrete, api.probability,
                                         api.gaussian, api._kernels, api.cli)
    out = [
        (sim, "run_simulation", "simulate.run", None),
        (sim, "build_cascade_code", "simulate.build", None),
        (sim, "encode_node0", "simulate.encode", None),
        (sim, "relay_node1", "simulate.relay", None),
        (sim, "decode_node2", "simulate.terminal", None),
        (getattr(sim, "CascadeCode", None), "xhat1_book", "simulate.xhat1_book", None),
        (kern, "typical_mask", "kernels.mask", _mask_work),
        (disc, "_xhat1_rd_solve", "discrete.ba", None),
        (disc, "_eg_steps", "discrete.eg", None),
        (disc, "_search_objective", "discrete.objective", None),
        (disc, "_cmi", "discrete.cmi", None),
        (sim, "_cmi", "discrete.cmi", None),
        (disc, "oracle_min_r1", "discrete.oracle", None),
        (disc, "min_r1_cascade_search", "discrete.search", None),
        (prob, "check_markov_chain", "probability.markov", None),
        (disc, "check_markov_chain", "probability.markov", None),
        (gauss, "_solver_grid", "gaussian.grid", None),
        (gauss, "_refine_alpha", "gaussian.refine", None),
        (gauss, "_feasible", "gaussian.feasible", None),
        (cli, "main", "cli.main", None),
        (cli, "emit_csv", "cli.emit", None),
    ]
    out += [(gauss, name, "gaussian.solve", None) for name in GAUSSIAN_SOLVERS]
    return out


class Tracer:
    """In-memory span recorder; `install` wraps, `restore` unwraps."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.unit = -1
        self.patches = []
        self.present = set()
        self.oracle_points = {}  # unit -> points yielded by the oracle enumerator

    def _wrap(self, owner, attr, name, work):
        orig = getattr(owner, attr, None) if owner is not None else None
        if orig is None or not callable(orig):
            return
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        tracer = self

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            rows, nbytes = work(args, kwargs) if work is not None else (0, 0)
            idx = len(spans)
            spans.append([name, clock(), 0.0, stack[-1] if stack else -1,
                          tracer.unit, rows, nbytes])
            stack.append(idx)
            try:
                return orig(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = clock()

        setattr(owner, attr, wrapper)
        self.patches.append((owner, attr, orig))
        self.present.add(name)

    def _wrap_enumerator(self, owner, attr):
        """Count the points the oracle enumerates; the generator is not timed."""
        orig = getattr(owner, attr, None)
        if orig is None:
            return
        tracer = self

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            for point in orig(*args, **kwargs):
                tracer.oracle_points[tracer.unit] = tracer.oracle_points.get(tracer.unit, 0) + 1
                yield point

        setattr(owner, attr, wrapper)
        self.patches.append((owner, attr, orig))
        self.present.add("discrete.oracle_points")

    def install(self, api):
        for owner, attr, name, work in wiring(api):
            self._wrap(owner, attr, name, work)
        self._wrap_enumerator(api.discrete, "_enumerate_oracle_points")

    def restore(self):
        for owner, attr, orig in reversed(self.patches):
            setattr(owner, attr, orig)
        self.patches.clear()

    def dump(self, path, extra):
        names = sorted({s[0] for s in self.spans})
        code = {n: i for i, n in enumerate(names)}
        with open(path, "w") as fh:
            json.dump({**extra, "span_names": names,
                       "span_columns": ["name", "start_s", "end_s", "parent", "unit",
                                        "rows", "bytes"],
                       "spans": [[code[s[0]], round(s[1], 9), round(s[2], 9), *s[3:]]
                                 for s in self.spans]}, fh, separators=(",", ":"))


def _median(values):
    return statistics.median(values) if values else 0.0


def layer_metrics(tracer, n_items, n_units, items_of_unit, branches):
    """Every per-layer metric, and the names of those reported as absent.

    Counts and times marked "per item" divide totals over the traced rounds by
    their items (trials, queries or sweep points); "median" metrics take the
    median over calls; cli metrics are per sweep; branch counts are totals.
    A unit that raised has no item count and is left out of trial_other_ms.
    """
    spans = tracer.spans
    by_name = {}
    for i, s in enumerate(spans):
        by_name.setdefault(s[0], []).append(i)

    def durs(name):
        return [spans[i][2] - spans[i][1] for i in by_name.get(name, ())]

    def total_ms(name):
        return 1e3 * sum(durs(name))

    def count(name):
        return len(by_name.get(name, ()))

    per = 1.0 / n_items
    # outermost solver spans, and the cli.main span each span sits under
    in_solve, cli_root = [], []
    for i, s in enumerate(spans):
        parent = s[3]
        in_solve.append(parent >= 0 and (spans[parent][0] == "gaussian.solve"
                                         or in_solve[parent]))
        cli_root.append(i if s[0] == "cli.main" else (cli_root[parent] if parent >= 0 else -1))
    top_solves = [i for i in by_name.get("gaussian.solve", ()) if not in_solve[i]]
    solve_in_cli = {}
    for i in top_solves:
        solve_in_cli[cli_root[i]] = solve_in_cli.get(cli_root[i], 0.0) + spans[i][2] - spans[i][1]
    cli_over = [spans[i][2] - spans[i][1] - solve_in_cli.get(i, 0.0)
                for i in by_name.get("cli.main", ())]

    # trial time outside build and the three node calls, per trial, per run
    node_names = {"simulate.build", "simulate.encode", "simulate.relay", "simulate.terminal"}
    inside = {}
    for i, s in enumerate(spans):
        if s[0] in node_names and s[3] >= 0 and spans[s[3]][0] == "simulate.run":
            inside[s[3]] = inside.get(s[3], 0.0) + s[2] - s[1]
    other = [(spans[i][2] - spans[i][1] - inside.get(i, 0.0)) / items_of_unit[spans[i][4]]
             for i in by_name.get("simulate.run", ()) if spans[i][4] in items_of_unit]

    mask = by_name.get("kernels.mask", ())
    rows = sum(spans[i][5] for i in mask)
    mask_us = 1e6 * sum(spans[i][2] - spans[i][1] for i in mask)
    values = {
        "simulate.encode_ms": 1e3 * _median(durs("simulate.encode")),
        "simulate.relay_ms": 1e3 * _median(durs("simulate.relay")),
        "simulate.terminal_ms": 1e3 * _median(durs("simulate.terminal")),
        "simulate.xhat1_book_ms": 1e3 * _median(durs("simulate.xhat1_book")),
        "simulate.xhat1_book_calls": count("simulate.xhat1_book") * per,
        "simulate.trial_other_ms": 1e3 * _median(other),
        "simulate.build_ms": 1e3 * _median(durs("simulate.build")),
        "kernels.mask_calls": len(mask) * per,
        "kernels.rows_scanned": rows * per,
        "kernels.mask_ms": total_ms("kernels.mask") * per,
        "kernels.rows_per_us": rows / mask_us if mask_us > 0 else 0.0,
        "kernels.bytes_computed": sum(spans[i][6] for i in mask) * per,
        "discrete.ba_solves": count("discrete.ba") * per,
        "discrete.ba_ms": total_ms("discrete.ba") * per,
        "discrete.eg_passes": count("discrete.eg") * per,
        "discrete.eg_ms": total_ms("discrete.eg") * per,
        "discrete.objective_evals": count("discrete.objective") * per,
        "discrete.cmi_calls": count("discrete.cmi") * per,
        "discrete.cmi_ms": total_ms("discrete.cmi") * per,
        "discrete.oracle_points": sum(tracer.oracle_points.values()) * per,
        "discrete.oracle_ms": total_ms("discrete.oracle") * per,
        "discrete.search_ms": total_ms("discrete.search") * per,
        "probability.markov_checks": count("probability.markov") * per,
        "probability.markov_ms": total_ms("probability.markov") * per,
        "gaussian.query_us": 1e6 * _median([spans[i][2] - spans[i][1] for i in top_solves]),
        "gaussian.grid_calls": count("gaussian.grid") * per,
        "gaussian.grid_ms": total_ms("gaussian.grid") * per,
        "gaussian.refine_ms": total_ms("gaussian.refine") * per,
        "gaussian.feasible_evals": count("gaussian.feasible") * per,
        "gaussian.branch_boundary": float(branches.get("boundary", 0)),
        "gaussian.branch_beta_only": float(branches.get("beta_only", 0)),
        "gaussian.branch_const_u": float(branches.get("const_u", 0)),
        "cli.overhead_ms": 1e3 * sum(cli_over) / n_units if cli_over else 0.0,
        "cli.emit_ms": total_ms("cli.emit") / n_units,
    }
    out, absent = {}, []
    for name, unit, needs in LAYER_METRICS:
        if not all(n in tracer.present for n in needs):
            absent.append(name)
            values[name] = 0.0
        out[name] = {"value": values[name], "unit": unit}
    return out, absent
