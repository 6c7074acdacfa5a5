#!/usr/bin/env python3
"""Builds and runs the end-to-end DCS benchmark (see perfbench/README.md).

Run from the repository root:

    python3 perfbench/run.py --workload aligned_paper_quarter --seed 1 --seconds 30 --trace 0

The first call configures and builds libdcs (from src/) and the harness in
Release mode into .bench_build/perfbench; later calls only re-check the
build. A measurement is PASSES passes of the harness, each a fresh process
measuring --seconds / PASSES: a pass that dies (signal, hang) costs only its
own share and is counted in "failed". The last line of standard output is
one JSON object, {"correct", "attempted", "failed", "metrics"}: with
--trace 0 the end-to-end metrics, pooled over the passes' samples; with
--trace 1 the per-layer metrics, median over the passes. The exit code is 0
only when at least one pass completed and every completed pass passed its
correctness gate. Build output goes to standard error.
"""

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join('.bench_build', 'perfbench')
BUILD_TIMEOUT_S = 850
PASSES = 3
# A pass's generation, cold starts, gate and exit, beyond its window.
PASS_SLACK_S = 40
# Every pass of one measurement ends within this (the build aside).
RUN_BUDGET_S = 170


def build():
    """Configures (once) and builds the harness; True on success."""
    if not os.path.isfile(os.path.join(ROOT, 'src', 'CMakeLists.txt')):
        print('perfbench: the libdcs sources (src/) are missing', file=sys.stderr)
        return False
    build_dir = os.path.join(ROOT, BUILD_DIR)
    steps = []
    if not os.path.isfile(os.path.join(build_dir, 'CMakeCache.txt')):
        configure = ['cmake', '-S', HERE, '-B', build_dir,
                     '-DCMAKE_BUILD_TYPE=Release']
        if shutil.which('ninja'):
            configure += ['-G', 'Ninja']
        steps.append(configure)
    steps.append(['cmake', '--build', build_dir, '--parallel',
                  str(os.cpu_count() or 1)])
    for step in steps:
        try:
            done = subprocess.run(step, cwd=ROOT, stdout=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as err:
            print(f'perfbench: build failed: {err}', file=sys.stderr)
            return False
        if done.returncode != 0:
            print('perfbench: build failed', file=sys.stderr)
            return False
    return True


def run_pass(command, timeout):
    """One harness process: its result object, or None when it died."""
    with subprocess.Popen(command, cwd=ROOT, stdout=subprocess.PIPE,
                          text=True) as proc:
        try:
            out, _ = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            print(f'perfbench: pass hung, killed after {timeout:.0f} s',
                  file=sys.stderr)
            return None
    lines = out.strip().splitlines()
    for line in lines[:-1]:
        print(line)
    if proc.returncode < 0:
        print(f'perfbench: pass died by signal {-proc.returncode}',
              file=sys.stderr)
        return None
    try:
        return json.loads(lines[-1])
    except (IndexError, ValueError):
        print(f'perfbench: pass exited {proc.returncode} without a result',
              file=sys.stderr)
        return None


def ratio(num, den):
    return num / den if den > 0 else 0.0


def percentile(values, pct):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = math.ceil(pct / 100.0 * len(ordered))
    return ordered[min(max(rank, 1), len(ordered)) - 1]


def end_to_end(passes):
    """The end-to-end metrics over the passes' pooled samples."""
    def pooled(key):
        return [v for p in passes for v in p[key]]

    def total(key):
        return sum(p[key] for p in passes)

    latencies = pooled('latencies_ms')
    tail_pct = passes[0]['tail_percentile']
    beyond = sum(1 for v in latencies if v > percentile(latencies, tail_pct))
    print(f'tail latency: p{tail_pct:g} over {len(latencies)} samples, '
          f'{beyond} beyond it')
    metrics = {
        'epochs_per_s': (statistics.median(pooled('span_rates')), '1/s'),
        'cpu_ms_per_epoch': (ratio(total('center_cpu_s') * 1e3,
                                   total('window_reports')), 'ms'),
        'report_latency_p50_ms': (percentile(latencies, 50), 'ms'),
        'report_latency_tail_ms': (percentile(latencies, tail_pct), 'ms'),
        'detection_recall': (ratio(total('planted_flagged'),
                                   total('planted')), 'frac'),
        'specificity': (1.0 - ratio(total('clean_flagged'), total('clean')),
                        'frac'),
        'digest_delivery_frac': (ratio(total('digests_accepted'),
                                       total('digests_written')), 'frac'),
        'wire_kb_per_epoch': (ratio(total('wire_bytes') / 1024.0,
                                    total('epochs_written')), 'KiB'),
        'peak_rss_mb': (statistics.median(p['peak_rss_mb'] for p in passes),
                        'MiB'),
        'setup_s': (statistics.median(pooled('setups_s')), 's'),
    }
    return {name: {'value': value, 'unit': unit}
            for name, (value, unit) in metrics.items()}


def per_layer(results):
    """Each per-layer metric, median over the passes."""
    first = results[0]['metrics']
    return {name: {'value': statistics.median(r['metrics'][name]['value']
                                              for r in results),
                   'unit': first[name]['unit']}
            for name in first}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument('--workload', required=True)
    parser.add_argument('--seed', type=int, default=1)
    parser.add_argument('--seconds', type=float, default=30.0)
    parser.add_argument('--trace', type=int, choices=(0, 1), default=0)
    parser.add_argument('--smoke', action='store_true',
                        help='small input shapes (a quick functional pass)')
    args = parser.parse_args()

    if not build():
        return 1
    os.makedirs(os.path.join(ROOT, BUILD_DIR, 'traces'), exist_ok=True)
    pass_seconds = args.seconds / PASSES
    deadline = time.monotonic() + RUN_BUDGET_S
    results = []
    started = 0
    for index in range(PASSES):
        timeout = min(pass_seconds + PASS_SLACK_S,
                      deadline - time.monotonic())
        if timeout < pass_seconds:
            break
        command = [os.path.join(ROOT, BUILD_DIR, 'dcs_perfbench'),
                   '--workload', args.workload,
                   '--seed', str(args.seed),
                   '--seconds', str(pass_seconds),
                   '--trace', str(args.trace),
                   # Relative: a Unix socket path is limited to ~100 bytes.
                   '--socket-dir', BUILD_DIR]
        if args.smoke:
            command.append('--smoke')
        if args.trace == 1:
            command += ['--trace-out', os.path.join(
                BUILD_DIR, 'traces',
                f'{args.workload}-seed{args.seed}-pass{index}.json')]
        sys.stdout.flush()
        started += 1
        result = run_pass(command, timeout)
        if result is not None:
            results.append(result)
    if not results:
        print('perfbench: no pass completed', file=sys.stderr)
        return 1
    correct = all(r['correct'] for r in results)
    if args.trace == 0:
        metrics = end_to_end([r['pass'] for r in results])
    else:
        metrics = per_layer(results)
    print(json.dumps({'correct': correct, 'attempted': started,
                      'failed': started - len(results), 'metrics': metrics}))
    return 0 if correct else 1


if __name__ == '__main__':
    sys.exit(main())
