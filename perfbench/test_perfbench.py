#!/usr/bin/env python3
"""The benchmark's own test (smoke sizes, about two minutes).

For every BENCHMARK.json workload, at smoke size: the untraced run on two
seeds and the traced run on one must pass the correctness gate in every
pass, print the result JSON as the last stdout line, and report every
metric that BENCHMARK.json names for that mode, with its unit. A checkout
without the library sources must fail without printing a result. Run from
the repository root:

    python3 perfbench/test_perfbench.py
"""

import json
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RESULT_KEYS = {'correct', 'attempted', 'failed', 'metrics'}


def load_benchmark():
    with open(os.path.join(ROOT, 'BENCHMARK.json')) as f:
        return json.load(f)


def run(workload, seed, trace, cwd=ROOT):
    command = [sys.executable, os.path.join('perfbench', 'run.py'),
               '--workload', workload, '--seed', str(seed),
               '--seconds', '3', '--trace', str(trace), '--smoke']
    return subprocess.run(command, cwd=cwd, capture_output=True, text=True,
                          timeout=900)


class PerfbenchTest(unittest.TestCase):

    @classmethod
    def setUpClass(cls):
        cls.bench = load_benchmark()
        cls.workloads = [w['name'] for w in cls.bench['workloads']]

    def check_result(self, workload, seed, trace, spec):
        done = run(workload, seed, trace)
        context = f'{workload} seed {seed} trace {trace}:\n{done.stdout}' \
                  f'{done.stderr[-3000:]}'
        self.assertEqual(done.returncode, 0, context)
        result = json.loads(done.stdout.strip().splitlines()[-1])
        self.assertEqual(set(result), RESULT_KEYS, context)
        self.assertIs(result['correct'], True, context)
        self.assertGreaterEqual(result['attempted'], 1)
        self.assertEqual(result['failed'], 0, context)
        metrics = result['metrics']
        self.assertEqual(set(metrics), {m['name'] for m in spec}, context)
        for m in spec:
            value = metrics[m['name']]
            self.assertEqual(set(value), {'value', 'unit'})
            self.assertIsInstance(value['value'], (int, float))
            self.assertEqual(value['unit'], m['unit'], m['name'])
        self.assertIn('"bit_kernels"', done.stdout)
        return metrics

    def test_untraced_runs_on_two_seeds(self):
        for workload in self.workloads:
            for seed in (1, 2):
                with self.subTest(workload=workload, seed=seed):
                    metrics = self.check_result(workload, seed, 0,
                                                self.bench['end_to_end'])
                    self.assertEqual(metrics['digest_delivery_frac']['value'], 1)
                    self.assertGreater(metrics['epochs_per_s']['value'], 0)
                    self.assertGreater(metrics['setup_s']['value'], 0)

    def test_traced_run(self):
        for workload in self.workloads:
            with self.subTest(workload=workload):
                metrics = self.check_result(workload, 1, 1,
                                            self.bench['per_layer'])
                self.assertEqual(metrics['netio.decode_failures']['value'], 0)
                self.assertEqual(metrics['digest_loss_frac']['value'], 0)
                coverage = metrics['trace.probe_coverage']['value']
                self.assertGreater(coverage, 0.9)
                self.assertLess(coverage, 1.1)
                trace = os.path.join(ROOT, '.bench_build', 'perfbench',
                                     'traces', f'{workload}-seed1-pass0.json')
                with open(trace) as f:
                    self.assertTrue(json.load(f)['traceEvents'])

    def test_fails_without_sources(self):
        bare = os.path.join(ROOT, '.bench_build', 'perfbench-bare')
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(HERE, os.path.join(bare, 'perfbench'),
                        ignore=shutil.ignore_patterns('__pycache__'))
        shutil.copy(os.path.join(ROOT, 'BENCHMARK.json'), bare)
        try:
            done = run(self.workloads[0], 1, 0, cwd=bare)
            self.assertNotEqual(done.returncode, 0)
            self.assertNotIn('"metrics"', done.stdout)
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == '__main__':
    unittest.main()
