"""Run ``popper`` with the benchmark's layer wrappers installed.

Usage: ``POPPER_BENCH_SPANS=DIR [POPPER_BENCH_OP=ID] python traced.py <popper args>``
(with ``src`` on ``PYTHONPATH``).  Behaves exactly like
``python -m repro.core.cli <popper args>`` and leaves ``spans-<pid>.jsonl``
files in ``DIR``.
"""

import sys

import layers

if __name__ == "__main__":
    layers.install()
    from repro.core.cli import main

    sys.exit(main(sys.argv[1:]))
