"""In-memory spans around the public functions of each mmwbeam module.

Spans are recorded from outside the library: :func:`instrument` replaces a
function at every place it is bound (module attributes, including names
imported with ``from ... import``, and registry dicts such as
``montecarlo.SCHEMES``) with a wrapper that records (name, start, end,
parent, request), and restores the originals on exit.  Nothing in ``src/``
changes.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import json
from collections import Counter
from time import perf_counter_ns

import numpy as np

import mmwbeam
from mmwbeam import beamformer, channel, cli, closedform, montecarlo, steering, verify

MODULES = (mmwbeam, steering, channel, beamformer, closedform, montecarlo, verify, cli)

# Spans held for Tracer.dump; about 20 MB in memory and 5 MB of JSON.
KEEP_SPANS = 100_000


class Tracer:
    """Spans of one single-threaded program, folded into per-name totals as each root span ends.

    ``request`` tags every span with the invocation it served.  Self time is
    a span's duration minus its children's; children of one span never
    overlap, so the time they cover is the sum of their durations.  Whole
    span trees are kept in memory for :meth:`dump` until ``KEEP_SPANS`` spans
    are held; later trees count towards the totals only.
    """

    def __init__(self) -> None:
        self.spans: list[tuple[str, int, int, int, int]] = []
        self.calls: Counter = Counter()
        self.function_calls: Counter = Counter()
        self.self_ns: Counter = Counter()
        self.counts: Counter = Counter()
        self.request = -1
        self._tree: list = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn, count=None):
        """``fn`` recording one span per call.

        ``count(counts, args, kwargs, result)``, when given, adds to the counters.
        """
        function = f"{fn.__module__}.{fn.__qualname__}"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.function_calls[function] += 1
            idx = len(self._tree)
            parent = self._stack[-1] if self._stack else -1
            self._tree.append(None)
            self._stack.append(idx)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                self._stack.pop()
                self._tree[idx] = (name, start, end, parent, self.request)
                if not self._stack:
                    self._close_tree()
            if count is not None:
                count(self.counts, args, kwargs, result)
            return result

        return traced

    def _close_tree(self) -> None:
        tree, self._tree = self._tree, []
        child = [0] * len(tree)
        for _, start, end, parent, _ in tree:
            if parent >= 0:
                child[parent] += end - start
        for idx, (name, start, end, _, _) in enumerate(tree):
            self.calls[name] += 1
            self.self_ns[name] += (end - start) - child[idx]
        if len(self.spans) + len(tree) <= KEEP_SPANS:
            base = len(self.spans)
            self.spans += [(n, s, e, p + base if p >= 0 else -1, r) for n, s, e, p, r in tree]

    def self_times(self) -> dict[str, float]:
        """Self seconds per span name over every finished root span."""
        return {name: ns / 1e9 for name, ns in self.self_ns.items()}

    def dump(self, path) -> None:
        """Write the kept spans as ``[name index, start_ns, end_ns, parent, request]``.

        ``parent`` indexes the written spans; -1 marks a root.
        """
        names = sorted({span[0] for span in self.spans})
        index = {name: i for i, name in enumerate(names)}
        rows = [[index[name], *rest] for name, *rest in self.spans]
        with open(path, "w", encoding="utf-8") as fh:
            fields = ["name", "start_ns", "end_ns", "parent", "request"]
            json.dump({"fields": fields, "names": names, "spans": rows}, fh)


def _emitted_bytes(counts, args, kwargs, result) -> None:
    if isinstance(result, str):
        counts["montecarlo.emit.bytes"] += len(result.encode("utf-8"))


def _channel_bytes(counts, args, kwargs, result) -> None:
    counts["channel.assemble_channel.bytes_computed"] += result.entries.nbytes


def _run_ccdf_counts(counts, args, kwargs, result) -> None:
    counts["montecarlo.trials"] += result.samples_db.size
    counts["montecarlo.resampled"] += result.num_resampled
    counts["montecarlo.nonfinite_losses"] += int((~np.isfinite(result.samples_db)).sum())


def _verify_counts(counts, args, kwargs, result) -> None:
    counts["verify.instances"] += result.trials
    counts["verify.checks_failed"] += result.num_failed


def _grid_points_counter():
    sig = inspect.signature(closedform.allocation_grid_search)

    def count(counts, args, kwargs, result) -> None:
        bound = sig.bind(*args, **kwargs)
        bound.apply_defaults()
        grid = bound.arguments["num_beta"] * bound.arguments["num_theta"]
        counts["closedform.grid_search.points"] += grid

    return count


def targets() -> list[tuple[str, object, object]]:
    """(span name, function, counter) for every public function the benchmark traces.

    ``montecarlo.draw`` is ``_draw_paths``, the binding ``run_ccdf`` draws
    each trial's paths through; ``montecarlo.emit`` includes ``cli._wrap_json``,
    where the JSON document is serialised.
    """
    regime = [
        getattr(closedform, name)
        for name in closedform.__all__
        if name.startswith(("beta_opt_", "delta_snr_", "snr_"))
    ]
    schemes = list(dict.fromkeys(montecarlo.SCHEMES.values()))
    suites = [getattr(verify, f"verify_{name}") for name in verify.SUITE_NAMES]
    out = [
        ("steering.steering_matrix", steering.steering_matrix, None),
        ("steering.cpo_inner_product", steering.cpo_inner_product, None),
        ("steering.mainlobe_freq_delta", steering.mainlobe_freq_delta, None),
        ("channel.assemble_channel", channel.assemble_channel, _channel_bytes),
        ("beamformer.reduced_optimal", beamformer.reduced_optimal_beamformer, None),
        ("beamformer.power_iteration", beamformer.optimal_beamformer, None),
        ("closedform.grid_search", closedform.allocation_grid_search, _grid_points_counter()),
        ("montecarlo.trial_rng", montecarlo.trial_rng, None),
        ("montecarlo.draw", montecarlo._draw_paths, None),
        ("montecarlo.run_ccdf", montecarlo.run_ccdf, _run_ccdf_counts),
        ("montecarlo.emit", montecarlo.ccdf_to_csv, _emitted_bytes),
        ("montecarlo.emit", montecarlo.ccdf_to_dict, None),
        ("montecarlo.emit", cli._wrap_json, _emitted_bytes),
    ]
    out += [("beamformer.scheme", fn, None) for fn in schemes]
    out += [("closedform.regime", fn, None) for fn in regime]
    out += [("verify", fn, _verify_counts) for fn in suites]
    return out


@contextlib.contextmanager
def instrument(tracer: Tracer):
    """Route every binding of each traced function through ``tracer`` while active."""
    restore = []
    try:
        for name, fn, count in targets():
            wrapped = tracer.wrap(name, fn, count)
            sites = 0
            for module in MODULES:
                namespace = vars(module)
                for key, value in list(namespace.items()):
                    if value is fn:
                        restore.append((namespace, key, fn))
                        namespace[key] = wrapped
                        sites += 1
                    elif isinstance(value, dict) and key != "__builtins__":
                        for entry, target in list(value.items()):
                            if target is fn:
                                restore.append((value, entry, fn))
                                value[entry] = wrapped
                                sites += 1
            if sites == 0:
                raise RuntimeError(f"no binding site found for {name} ({fn.__qualname__})")
        yield tracer
    finally:
        for namespace, key, fn in reversed(restore):
            namespace[key] = fn
