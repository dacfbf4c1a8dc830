"""Frozen scalar reference implementations (parity oracles).

The production admission path in ``repro.mac`` and ``repro.opt`` is a set of
queue-wide array kernels.  The modules here keep the original per-request /
per-row loops those kernels were derived from, unchanged, so the parity
suites and the oracle-vs-kernel benchmark harnesses can keep checking the
kernels against them bit for bit:

* :mod:`tests.oracles.solvers` — greedy, LP rounding, dense simplex,
  exhaustive enumeration and branch-and-bound, with the same call
  signatures as their ``repro.opt`` counterparts;
* :mod:`tests.oracles.admission` — the forward/reverse admissible-region
  builders (eqs. (6)–(18)) and the per-request ``delta_rho`` loop of the
  burst admission controller.

They are test fixtures, not library code: nothing under ``src/`` imports
them.
"""
