#!/usr/bin/env python3
"""Self-test of the benchmark: its checkers must reject wrong outputs.

    python3 bench/selftest.py

Runs one real operation of each checked kind, confirms its true output
passes, then feeds the run loop deliberately wrong copies of the output
and confirms every one is counted as a failed operation.  Also checks
that the tracer restores petzlab and that the metric names agree with
BENCHMARK.json.  The file name keeps it out of the repository's pytest
collection.
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import sys
import tempfile
import unittest

import numpy as np

import run
import tracing
import workloads

SEED = 20240617


def _flip_last_bit(kraus: np.ndarray) -> np.ndarray:
    out = kraus.copy()
    bits = out.view(np.float64).view(np.uint64)
    bits.flat[0] ^= np.uint64(1)
    return out


class CheckerSelfTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        out_dir = run.BENCH_DIR / "out"
        out_dir.mkdir(exist_ok=True)
        cls.scratch = tempfile.mkdtemp(prefix="selftest-", dir=out_dir)
        cls.ctx, _ = run.setup("dpi-sweep", SEED, cls.scratch)
        cls.rounds = {
            name: workloads.make_round(cls.ctx, name, SEED, 0) for name in workloads.ROUNDS
        }

    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(cls.scratch, ignore_errors=True)

    def op(self, workload, kind_prefix):
        for op in self.rounds[workload]:
            if op.kind.startswith(kind_prefix):
                return op
        raise LookupError(kind_prefix)

    def assert_rejected(self, op, true_output, wrong_outputs):
        """The true output passes; each wrong output is a failed operation."""
        self.assertEqual(op.check(op.inst, true_output), [], op.kind)
        loop = run.Loop(self.ctx, "dpi-sweep", SEED, [], reference=None)
        for label, wrong in wrong_outputs.items():
            with self.subTest(kind=op.kind, planted=label):
                planted = workloads.Op(op.kind, op.inst, lambda ctx, inst, w=wrong: w, op.check)
                before = loop.failed
                loop._one(planted, tracer=None)
                self.assertEqual(loop.failed, before + 1)
        self.assertEqual(loop.wrong, len(wrong_outputs))

    def test_dpi(self):
        for prefix in ("dpi-3x2", "dpi-classical"):
            op = self.op("dpi-sweep", prefix)
            rep = op.run(self.ctx)
            replace = dataclasses.replace
            self.assert_rejected(op, rep, {
                "slack shifted by -1e-6": replace(rep, slack_mixture=rep.slack_mixture - 1e-6),
                "strong slack shifted by -1e-6": replace(rep, slack_strong=rep.slack_strong - 1e-6),
                "rhs_mixture above rhs_strong": replace(
                    rep, rhs_mixture=rep.rhs_strong + 1e-6,
                    slack_mixture=rep.lhs - (rep.rhs_strong + 1e-6)),
                "rhs_mixture off the oracle fidelity": replace(
                    rep, rhs_mixture=rep.rhs_mixture + 1e-7,
                    slack_mixture=rep.lhs - (rep.rhs_mixture + 1e-7)),
                "lhs off the oracle": replace(
                    rep, lhs=rep.lhs + 1e-7, slack_mixture=rep.slack_mixture + 1e-7,
                    slack_strong=rep.slack_strong + 1e-7),
            })

    def test_alpha(self):
        for alpha in (0.5, 0.75):
            op = self.op("rotated-families", f"alpha-{alpha}")
            res = op.run(self.ctx)
            shifted = dataclasses.replace(res[0], slack=res[0].slack - 1e-6)
            wrong = {"slack shifted by -1e-6": [shifted], "no result": []}
            if alpha == 0.5:
                wrong["Petz identity broken"] = [dataclasses.replace(
                    res[0], rhs=res[0].rhs + 1e-6, slack=res[0].lhs - (res[0].rhs + 1e-6))]
            self.assert_rejected(op, res, wrong)

    def test_search(self):
        op = self.op("rotated-families", "search")
        result = op.run(self.ctx)
        w = result.weights.copy()
        w[0] += 1e-6
        self.assert_rejected(op, result, {
            "weights off the simplex": dataclasses.replace(result, weights=w),
            "min_slack above the gap": dataclasses.replace(result, min_slack=1e3),
        })

    def test_corollaries(self):
        op = self.op("corollary-sweep", "ssa")
        rep = op.run(self.ctx)
        self.assert_rejected(op, rep, {
            "CMI off the oracle": dataclasses.replace(
                rep, cmi=rep.cmi + 1e-7, slack=rep.slack + 1e-7),
            "slack shifted by -1e-6": dataclasses.replace(rep, slack=rep.slack - 1e-6),
            "fidelity off the oracle": dataclasses.replace(
                rep, recovered_fidelity=rep.recovered_fidelity * (1.0 - 1e-7)),
        })
        for kind in ("concavity", "joint-convexity"):
            op = self.op("corollary-sweep", kind)
            rep = op.run(self.ctx)
            self.assert_rejected(op, rep, {
                "gap off the oracle": dataclasses.replace(
                    rep, lhs=rep.lhs + 1e-7, slack=rep.slack + 1e-7),
                "slack shifted by -1e-6": dataclasses.replace(rep, slack=rep.slack - 1e-6),
            })

    def test_map_life_cycle(self):
        op = self.op("recovery-maps", "map-life-4")
        out = op.run(self.ctx)
        off = out["recovered"].copy()
        off[0, 0] += 1e-6
        inflated = out["kraus"] * (1.0 + 1e-6)
        self.assert_rejected(op, out, {
            "Kraus entry bit flipped": dict(out, loaded_kraus=_flip_last_bit(out["loaded_kraus"])),
            "recovered N(sigma) off by 1e-6": dict(out, recovered=off),
            "trace increasing": dict(out, kraus=inflated, loaded_kraus=inflated),
        })

    def test_qec(self):
        for prefix in ("qec-bitflip3", "qec-random"):
            op = self.op("recovery-maps", prefix)
            out = op.run(self.ctx)
            missing = os.path.join(self.scratch, "missing.txt")
            self.assert_rejected(op, out, {
                "nonzero exit": dict(out, status=1),
                "report missing": dict(out, path=missing),
            })


class HarnessSelfTest(unittest.TestCase):
    def test_tracer_restores_petzlab(self):
        run.import_petzlab()
        import petzlab
        from petzlab import channels, linalg, recovery, verify

        before = (petzlab.fidelity, linalg.eig_hermitian, verify.fidelity,
                  channels.Channel.__init__, recovery.RecoveryMap.apply)
        with tracing.Tracer():
            self.assertIsNot(verify.fidelity, before[2])
            self.assertIsNot(linalg.eig_hermitian, before[1])
        after = (petzlab.fidelity, linalg.eig_hermitian, verify.fidelity,
                 channels.Channel.__init__, recovery.RecoveryMap.apply)
        self.assertEqual([a is b for a, b in zip(before, after)], [True] * len(before))

    def test_metric_names_match_benchmark_json(self):
        with open(run.ROOT / "BENCHMARK.json") as handle:
            spec = json.load(handle)
        self.assertEqual([m["name"] for m in spec["per_layer"]], tracing.metric_names())
        self.assertEqual({w["name"] for w in spec["workloads"]}, set(workloads.ROUNDS))


if __name__ == "__main__":
    sys.exit(unittest.main())
