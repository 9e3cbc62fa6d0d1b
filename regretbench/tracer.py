"""Spans around the library's public calls, for the traced run only.

The benchmark wraps, from its own files, the public functions and methods
that `harness`'s round loops call into.  Each wrapper records a span: its
self time (duration minus the time of the spans it encloses) goes to the
layer it is named after, together with a call count.  A hook may record
what the call saw (actions, reports, noise); hook time is excluded from
every span.  Nothing under `src/` is changed: the wrappers are installed by
attribute assignment and removed when the traced run ends.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

from ldpbandits import blackbox, contextual, environments, harness, reductions


class Tracer:
    """Span bookkeeping: self and total nanoseconds and calls per layer."""

    def __init__(self):
        self.self_ns = defaultdict(int)
        self.total_ns = defaultdict(int)
        self.calls = defaultdict(int)
        self._open = [0]  # per open span: nanoseconds covered by its children

    def wrap(self, layer: str, fn, hook=None):
        open_spans = self._open
        self_ns, total_ns, calls = self.self_ns, self.total_ns, self.calls
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            open_spans.append(0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                self_ns[layer] += elapsed - open_spans.pop()
                total_ns[layer] += elapsed
                calls[layer] += 1
                open_spans[-1] += elapsed
            if hook is not None:
                hook_start = clock()
                hook(args, result)
                open_spans[-1] += clock() - hook_start
            return result

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def installed(self, targets):
        """Wrap every (owner, attribute, layer, hook) target for the block."""
        saved = []
        try:
            for owner, attr, layer, hook in targets:
                original = vars(owner)[attr]
                if isinstance(original, staticmethod):
                    replacement = staticmethod(self.wrap(layer, original.__func__, hook))
                else:
                    replacement = self.wrap(layer, original, hook)
                setattr(owner, attr, replacement)
                saved.append((owner, attr, original))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)


class Recorder:
    """What the traced run saw, per replication, in run order.

    Lists fill while a replication runs; `harness.run_replication`'s hook
    closes them, so `replications` holds one record per replication.
    """

    def __init__(self):
        self.clamps = 0  # final ServerState.clamp_count, summed over all parts
        self.reset()

    def reset(self):
        """Start a new part: drop the records of the previous one."""
        self.replications: list[dict] = []
        self._open()

    def _open(self):
        self.current = defaultdict(list)
        self.server = None

    def close(self, args, result):
        record = dict(self.current)
        record["result"] = result
        if self.server is not None:
            self.clamps += self.server.clamp_count
        self.replications.append(record)
        self._open()

    # contextual: arm sets, chosen arms and report noise
    def arm_set(self, args, rnd):
        self.current["arm_sets"].append(rnd.arms)

    def chosen(self, args, arm):
        self.current["chosen"].append(arm)

    def linear_report(self, args, report):
        x, y = np.asarray(args[0], dtype=float), float(args[1])
        self._gram_noise(x, report)
        self.current["moment_noise"].append(report.moment - y * x)

    def glm_report(self, args, report):
        x, y = np.asarray(args[0], dtype=float), float(args[1])
        z = float(x @ np.asarray(args[2], dtype=float))
        self._gram_noise(x, report)
        self.current["moment_noise"].append(report.moment - z * x)
        mean = 1.0 / (1.0 + np.exp(-z))
        self.current["gradient_noise"].append(report.gradient - (mean - y) * x)

    def _gram_noise(self, x, report):
        rows, cols = np.triu_indices(x.size)
        self.current["gram_noise"].append((report.gram - np.outer(x, x))[rows, cols])

    def server_update(self, args, server):
        self.server = server

    # BCO: query points and scalar report noise
    def two_point(self, args, rnd):
        self.current["points"].append((rnd.x1, rnd.x2))
        spread = float(np.linalg.norm(rnd.x1 - rnd.x2))
        noise = float(rnd.feedback) - (rnd.true_loss_1 - rnd.true_loss_2)
        self.current["scalar_noise"].append(noise / spread)

    def one_point(self, args, rnd):
        self.current["points"].append(rnd.action)
        self.current["scalar_noise"].append(float(rnd.feedback) - rnd.true_loss)

    # MAB and BAI: raw loss or reward against what the learner was fed
    def mab_sample(self, args, loss):
        self.current["chosen"].append(args[2])
        self.current["raw"].append(loss)

    def bai_observe(self, args, result):
        self.current["raw"].append(float(args[2]))

    def fed(self, args, result):
        self.current["fed"].append(float(args[2]))


def targets(rec: Recorder):
    """(owner, attribute, layer, hook) for every wrapped public call."""
    env, ctx, red, bb = environments, contextual, reductions, blackbox
    return [
        (env.ContextualEnv, "step", "environments.step", rec.arm_set),
        (env.ContextualEnv, "reward", "environments.step", None),
        (env.QuadraticOracle, "value", "environments.oracle", None),
        (env.AdversarialMab, "sample", "environments.mab", rec.mab_sample),
        (env.AdversarialMab, "switching", "environments.table_build", None),
        (ctx, "linear_select_action", "contextual.select", rec.chosen),
        (ctx, "glm_select_action", "contextual.select", rec.chosen),
        (ctx, "linear_local_report", "contextual.report", rec.linear_report),
        (ctx, "glm_local_report", "contextual.report", rec.glm_report),
        (ctx, "linear_server_update", "contextual.update", rec.server_update),
        (ctx, "glm_server_update", "contextual.update", rec.server_update),
        # as contextual calls it: the reports look the name up in contextual
        (ctx, "symmetric_gaussian_matrix", "mechanisms.matrix_noise", None),
        (harness, "derive_rng", "mechanisms.streams", None),
        (harness, "two_point_round", "reductions.two_point_round", rec.two_point),
        (harness, "one_point_round", "reductions.one_point_round", rec.one_point),
        (red.LdpMabLearner, "observe", "reductions.mab_observe", None),
        (red.LdpBaiLearner, "observe", "reductions.bai_observe", rec.bai_observe),
        (bb.FkmBandit, "propose", "blackbox.bco_query", None),
        (bb.TwoPointBandit, "queries", "blackbox.bco_query", None),
        (bb.FkmBandit, "observe", "blackbox.bco_update", None),
        (bb.TwoPointBandit, "update", "blackbox.bco_update", None),
        (bb.TsallisInf, "sample", "blackbox.tsallis_sample", None),
        (bb.TsallisInf, "update", "blackbox.tsallis_update", rec.fed),
        (bb.LilUcb, "select", "blackbox.lil_select", None),
        (bb.LilUcb, "update", "blackbox.lil_update", rec.fed),
        (harness.RegretAccumulator, "add", "harness.accounting", None),
        (env.ContextualEnv, "instant_regret", "harness.accounting", None),
        (env.QuadraticOracle, "optimum", "harness.accounting", None),
        (harness, "run_replication", "harness.replication", rec.close),
    ]
