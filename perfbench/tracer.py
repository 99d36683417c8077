"""Spans around zenolab's public functions, installed from outside.

The tracer replaces module attributes that the ``zenolab run`` path looks
up at call time with wrappers that record one span per call: its name (the
layer), start, end and parent span.  All spans of one sweep share the
tracer's ``run_id``; they stay in memory until the sweep ends.

Next to the spans the wrappers keep counts computed from argument shapes and
norms, never from hardware counters (hence the ``_computed`` suffix):

* ``zeno.evolve.matmuls``: ``floor(log2 n) + popcount(n) - 1`` products per
  binary matrix power;
* ``linalg.matrix_exp.squarings``: ``ceil(log2(||A||_1 / 0.5))``;
* ``*.gflop_computed``: ``8 D^3`` flops per ``D x D`` complex product.  For
  ``matrix_exp`` the products are the squarings plus the a-priori Taylor term
  count, the least ``k`` with ``theta^k / k! <= tol / 2^(s+2)`` where
  ``theta`` is the scaled 1-norm;
* ``channels.superop_bytes_computed``: ``16 d^4`` bytes per built
  superoperator;
* ``experiments.csv_bytes``: the size of each CSV written.

A target that a later version of zenolab no longer has is skipped, so a
bypassed layer reads as zero calls.
"""

from __future__ import annotations

import functools
import importlib
import math
import os
import time
from collections import defaultdict

import numpy as np


def _products_gflop(count: int, size: int) -> float:
    return count * 8.0 * size**3 / 1e9


def _count_matrix_power(counters, args, kwargs, result) -> None:
    a, n = args[0], int(args[1] if len(args) > 1 else kwargs["n"])
    products = max(n.bit_length() - 1 + bin(n).count("1") - 1, 0)
    counters["zeno.evolve.matmuls"] += products
    counters["zeno.evolve.gflop_computed"] += _products_gflop(products, a.shape[0])


def _count_matrix_exp(counters, args, kwargs, result) -> None:
    a = np.asarray(args[0])
    tol = kwargs.get("tol", args[1] if len(args) > 1 else 1e-12)
    norm = float(np.linalg.norm(a, 1))
    squarings = 0 if norm <= 0.5 else math.ceil(math.log2(norm / 0.5))
    theta = norm / 2.0**squarings
    threshold = max(tol / 2.0 ** (squarings + 2), 1e-300)
    terms, term = 0, 1.0
    while terms < 59:
        terms += 1
        term *= theta / terms
        if term <= threshold:
            break
    counters["linalg.matrix_exp.squarings"] += squarings
    counters["linalg.matrix_exp.gflop_computed"] += _products_gflop(squarings + terms, a.shape[0])


def _count_superop(counters, args, kwargs, result) -> None:
    dim2 = result.matrix.shape[0]
    counters["channels.superop_bytes_computed"] += 16 * dim2 * dim2


def _count_csv(counters, args, kwargs, result) -> None:
    counters["experiments.csv_bytes"] += os.path.getsize(result)


# (module, attribute path, layer, counter).  Several attributes may feed one
# layer; each is the name the run path resolves when it makes the call.
TARGETS = (
    ("numpy.linalg", "matrix_power", "zeno.evolve", _count_matrix_power),
    ("zenolab.zeno", "zeno_product", "zeno.evolve", None),
    ("zenolab.zeno", "zeno_product_iterated", "zeno.evolve", None),
    ("zenolab.zeno", "damped_evolution", "zeno.evolve", None),
    ("zenolab.experiments", "matrix_exp", "linalg.matrix_exp", _count_matrix_exp),
    ("zenolab.zeno", "matrix_exp", "linalg.matrix_exp", _count_matrix_exp),
    ("zenolab.zeno", "ZenoConfig.validate", "zeno.validate", None),
    ("zenolab.zeno", "DampingConfig.validate", "zeno.validate", None),
    ("zenolab.experiments", "to_superoperator", "channels.to_superoperator", _count_superop),
    ("zenolab.experiments", "attenuator_generator", "channels.superop_build", _count_superop),
    ("zenolab.experiments", "vacuum_projection_superop", "channels.superop_build", _count_superop),
    ("zenolab.channels", "HamiltonianCommutator.to_superoperator", "channels.superop_build", _count_superop),
    ("zenolab.channels", "Dephasing.to_superoperator", "channels.superop_build", _count_superop),
    ("zenolab.experiments", "effective_dynamics", "zeno.effective_dynamics", None),
    ("zenolab.experiments", "trace_norm", "linalg.trace_norm", None),
    ("zenolab.zeno", "trace_norm", "linalg.trace_norm", None),
    ("zenolab.experiments", "fit_rate", "zeno.fit", None),
    ("zenolab.experiments", "fit_log_envelope", "zeno.fit", None),
    ("zenolab.zeno", "one_one_norm_probe", "cli.probe", None),
    ("zenolab.cli", "parse_config", "experiments.parse", None),
    ("zenolab.experiments", "build_states", "experiments.build_states", None),
    ("zenolab.cli", "write_csv", "experiments.write_csv", _count_csv),
    ("zenolab.binomial", "binomial_product", "binomial", None),
    ("zenolab.binomial", "simplex_ratio_bound_check", "binomial", None),
    ("zenolab.experiments", "stream", "sampling", None),
    ("zenolab.experiments", "random_density_matrix", "sampling", None),
    ("zenolab.experiments", "random_hermitian", "sampling", None),
    ("zenolab.experiments", "random_operator", "sampling", None),
    ("zenolab.experiments", "random_gapped_channel", "sampling", None),
    ("zenolab.experiments", "coherent_vector", "fock.coherent_vector", None),
    ("zenolab.cli", "run_experiment", "experiments.run_experiment", None),
)

ROOT_LAYER = "cli.main"


class Tracer:
    """Records spans ``[span_id, parent_id, layer, start, end]``; parent -1 is none."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans = []
        self.counters = defaultdict(float)
        self._stack = []
        self._undo = []

    def wrap(self, layer: str, fn, counter=None):
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [len(self.spans), self._stack[-1] if self._stack else -1, layer, 0.0, 0.0]
            self.spans.append(span)
            self._stack.append(span[0])
            span[3] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[4] = clock()
                self._stack.pop()
            if counter is not None:
                counter(self.counters, args, kwargs, result)
            return result

        return traced

    def install(self, targets=TARGETS) -> None:
        """Wrap every target that exists; :meth:`uninstall` restores them."""
        for module_name, path, layer, counter in targets:
            try:
                owner = importlib.import_module(module_name)
            except ImportError:
                continue
            *parents, attr = path.split(".")
            for name in parents:
                owner = getattr(owner, name, None)
            original = getattr(owner, attr, None) if owner is not None else None
            if original is None:
                continue
            setattr(owner, attr, self.wrap(layer, original, counter))
            self._undo.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


def layer_totals(spans) -> dict:
    """Per layer: ``calls``, ``busy_s`` and ``self_s`` from one run's spans.

    ``busy_s`` sums the spans not nested in a span of the same layer;
    ``self_s`` sums each span's duration minus the time its child spans
    cover.  Calls are sequential, so children never overlap and the self
    times of all layers add up to the total time of the root spans.
    """
    by_id = {s[0]: s for s in spans}
    child_time = defaultdict(float)
    for span_id, parent, _, start, end in spans:
        if parent >= 0:
            child_time[parent] += end - start
    totals = defaultdict(lambda: {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
    for span_id, parent, layer, start, end in spans:
        entry = totals[layer]
        entry["calls"] += 1
        entry["self_s"] += (end - start) - child_time[span_id]
        ancestor = parent
        while ancestor >= 0 and by_id[ancestor][2] != layer:
            ancestor = by_id[ancestor][1]
        if ancestor < 0:
            entry["busy_s"] += end - start
    return dict(totals)
