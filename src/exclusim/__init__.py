"""exclusim: exact-arithmetic simulation of shared-ledger aggregation
protocols and the misreporting attacks they admit.

The package has five layers:

- `numerics`: rational linear algebra (matrices over `fractions.Fraction`).
- `algorithms`: update payloads, algorithm outputs, and the aggregation
  algorithms (max, average, k-center, k-median, linear regression).
- `protocol`: the continuous and periodic message-passing engines, runs,
  observed histories, and the truthful baseline strategy.
- `strategies`: attack strategies (swap-and-repair, probing, the probe
  ladder), their inference functions, and run classification.
- `harness`: paired-run verdicts, seeded scenario generators, inference
  certification, and confounding-witness construction.

`scenario` and `cli` add JSON scenario files, trace emission, and the
command-line entry point.

The package root re-exports nothing, so import each name from its module,
for example `from exclusim.protocol import run_protocol`.
"""
