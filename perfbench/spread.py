#!/usr/bin/env python3
"""Measures the run-to-run spread of the end-to-end metrics.

Runs perfbench/run.py once per seed on each workload and prints, per
metric, the median, the distance between the first and third quartiles as
a share of the median, and that share against the metric's bound in
BENCHMARK.json, next to the runs that failed and the passes that died.
Exits 1 when any run or pass failed. Run from the repository root:

    python3 perfbench/spread.py --workloads unaligned_worm --seeds 1-5
    python3 perfbench/spread.py --seeds 1-10 --json spread.json
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def parse_seeds(text):
    if '-' in text:
        first, last = text.split('-')
        return list(range(int(first), int(last) + 1))
    return [int(s) for s in text.split(',')]


def run_once(workload, seed, seconds, trace):
    """The run's result JSON, or None (reported) when it failed."""
    command = [sys.executable, os.path.join(HERE, 'run.py'),
               '--workload', workload, '--seed', str(seed),
               '--seconds', str(seconds), '--trace', str(trace)]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        print(f'  seed {seed} FAILED (exit {done.returncode}): '
              f'{done.stderr.strip()[-500:]}', flush=True)
        return None
    return json.loads(lines[-1])


def main():
    with open(os.path.join(ROOT, 'BENCHMARK.json')) as f:
        bench = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument('--workloads',
                        default=','.join(w['name'] for w in bench['workloads']))
    parser.add_argument('--seeds', default='1-10')
    parser.add_argument('--seconds', type=float, default=bench['run_seconds'])
    parser.add_argument('--json', help='also write every run here')
    args = parser.parse_args()

    bounds = {m['name']: m['bound'] for m in bench['end_to_end']}
    runs = {}
    worst = (0.0, '')
    failures = 0
    for workload in args.workloads.split(','):
        seeds = parse_seeds(args.seeds)
        results = [r for r in (run_once(workload, seed, args.seconds, 0)
                               for seed in seeds) if r is not None]
        runs[workload] = results
        dead = sum(r['failed'] for r in results)
        attempted = sum(r['attempted'] for r in results)
        failures += len(seeds) - len(results) + dead
        print(f'{workload}: {len(results)} of {len(seeds)} runs passed; '
              f'{dead} of {attempted} passes died', flush=True)
        if len(results) < 2:
            continue
        for name, bound in bounds.items():
            values = [r['metrics'][name]['value'] for r in results]
            median = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            share = (q3 - q1) / median if median else float('inf')
            worst = max(worst, (share / bound, f'{workload} {name}'))
            print(f'  {name:24s} median {median:12.5g}  iqr/median '
                  f'{share:7.4f}  bound {bound:5.3f}  '
                  f'({share / bound:5.2f} of bound)')
    print(f'worst spread: {worst[0]:.2f} of its bound ({worst[1]}); '
          f'{failures} failed runs or passes')
    if args.json:
        with open(args.json, 'w') as f:
            json.dump(runs, f, indent=1)
    return 1 if failures else 0


if __name__ == '__main__':
    sys.exit(main())
